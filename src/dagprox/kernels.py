"""Shared numerical primitives.

The stacked latent vector ``x`` of length ``n = sum(|g|)`` concatenates the
supported entries of all per-group latent vectors.  The binary scatter/sum
operator ``M`` maps ``x`` to the coefficient vector ``beta = M x`` of length
``d`` by summing, for every coordinate, the latent copies of that
coordinate.  ``M`` is kept implicit as gather/scatter over the group index
ranges and never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFiniteInput
from .graph import GroupSet, _check_vector

__all__ = [
    "SumOperator",
    "ProxInstance",
    "group_soft_threshold",
    "blockwise_soft_threshold",
    "nested_prox",
    "objective_f",
    "penalty_value",
    "LatentPenaltyEvaluator",
    "log_penalty_value",
    "operator_norm_sq",
]

#: largest stacked dimension n at which the dense reference forms an n-by-n matrix
DENSE_CAP = 4096

#: relative duality gap at which the latent penalty evaluation stops
PENALTY_TOL = 1e-10

#: iteration budget of the latent penalty evaluation
PENALTY_MAX_ITER = 200_000


class SumOperator:
    """Implicit scatter/sum operator ``M`` for a :class:`GroupSet`.

    ``apply`` sums the latent copies of every coordinate; ``adjoint_apply``
    broadcasts a coefficient vector back to all copies.  Both are exact
    transposes of each other.  Instances are immutable and reentrant.
    """

    def __init__(self, group_set: GroupSet):
        self.group_set = group_set
        self.d = group_set.d
        self.n = group_set.n
        self._coords = group_set.stacked_coords

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``M x``: length-``d`` sums of latent copies."""
        if x.shape != (self.n,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.n},)")
        return np.bincount(self._coords, weights=x, minlength=self.d)

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        """``M^T v``: length-``n`` gather of coordinate values."""
        if v.shape != (self.d,):
            raise DimensionMismatch(f"v has shape {v.shape}, expected ({self.d},)")
        return v[self._coords]

    @property
    def cover_counts(self) -> np.ndarray:
        """diag(M M^T): number of copies per coordinate."""
        return self.group_set.cover_counts


def _check_lam(lam: float, name: str = "lam") -> None:
    """Raise ``ValueError("lam must be finite and >= 0, got …")`` unless it is;
    ``name`` replaces ``lam`` for another scalar under the same rule."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {lam}")


@dataclass
class ProxInstance:
    """A prox evaluation problem: input point, penalty level, and groups."""

    b: np.ndarray
    lam: float
    group_set: GroupSet
    operator: SumOperator = field(default=None, repr=False)

    def __post_init__(self):
        if self.operator is None:
            self.operator = SumOperator(self.group_set)
        if self.operator.group_set is not self.group_set:
            raise DimensionMismatch("operator built from a different group set")
        self.b = _check_vector(self.b, self.group_set.d, "b")
        _check_lam(self.lam)

    @property
    def n(self) -> int:
        return self.group_set.n

    @property
    def d(self) -> int:
        return self.group_set.d


def group_soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Prox of ``t * ||.||_2``: shrink toward zero, exactly zero on the ball.

    Returns ``0`` when ``||v|| <= t`` (single-valued at the boundary) and
    ``(1 - t/||v||) v`` otherwise.
    """
    _check_lam(t, "threshold")
    v = np.asarray(v, dtype=float)
    flat = v.ravel(order="K")  # memory order, as np.linalg.norm sums it
    nv = math.sqrt(flat @ flat)
    # a finite norm proves finite entries; an infinite one may be overflow
    if not math.isfinite(nv) and not np.all(np.isfinite(v)):
        raise NonFiniteInput("soft-threshold input contains non-finite entries")
    if nv <= t:
        return np.zeros_like(v)
    return (1.0 - t / nv) * v


def _segment_norms(x: np.ndarray, group_set) -> np.ndarray:
    """Per-group l2 norms of a stacked vector laid out as ``group_set``."""
    sq = np.add.reduceat(x * x, group_set.starts)
    return np.sqrt(sq)


def blockwise_soft_threshold(
    x: np.ndarray, thresholds: np.ndarray, group_set: GroupSet
) -> np.ndarray:
    """Apply :func:`group_soft_threshold` to every stacked range at once.

    ``thresholds`` is one nonnegative value per group.  This is the exact
    prox of ``sum_g t_g ||x_{j(g)}||_2`` because the ranges are disjoint.
    """
    factors, _ = _shrink_factors(_segment_norms(x, group_set), thresholds)
    return x * np.repeat(factors, group_set.sizes)


def _shrink_factors(norms: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(factors, live)`` of the group soft-threshold from the group norms.

    ``live`` marks ``norms > thresholds``; there the factor is
    ``1 - t / ||v||``, and 0 elsewhere.
    """
    live = norms > thresholds
    factors = np.zeros(norms.shape)
    np.divide(thresholds, norms, out=factors, where=live)
    return np.where(live, 1.0 - factors, 0.0), live


def _nested_blocks(v, t_sq, group_set, cap):
    """The block rule of :func:`nested_prox`: ``(shell, energy, c, ends)``.

    ``t_sq`` holds the squared thresholds in inclusion order.  ``shell`` is
    the size rank of the smallest group holding each coordinate (``m`` off
    the cover) and ``energy[k] = ||v_(G_k)||^2``.  Each block of equal ``c``
    ends at the last group ``k`` minimising ``(t_k^2 - t_p^2) / (E_k - E_p)``
    after the previous end ``p``, and ``c`` is the root of that minimum.
    The rule stops once the minimum reaches ``cap`` (``c`` stays ``cap``
    from there) or no shell after ``p`` carries energy.
    """
    m = group_set.num_groups
    shell = m - group_set.cover_counts
    energy = np.cumsum(np.bincount(shell, weights=v * v, minlength=m + 1)[:m])
    c = np.full(m + 1, cap)
    ends = []
    p, e_p, t_sq_p, c_p = 0, 0.0, 0.0, 0.0
    while p < m:
        # a running sum of squares never decreases, so the groups that add
        # energy after p are the suffix from q
        q = int(energy.searchsorted(e_p, side="right"))
        if q == m:
            break
        ratio = (t_sq[q:] - t_sq_p) / (energy[q:] - e_p)
        k = m - 1 - int(ratio[::-1].argmin())
        least = float(ratio[k - q])
        if least >= cap:
            break
        # exactly, c increases from block to block; max() keeps rounding from
        # breaking that
        c_p = max(c_p, math.sqrt(max(least, 0.0)))
        c[p : k + 1] = c_p
        ends.append(k)
        p, e_p, t_sq_p = k + 1, energy[k], t_sq[k]
    return shell, energy, c, np.array(ends, dtype=np.intp)


def nested_prox(inst: ProxInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact LOG prox for nested groups ``G_1 ⊆ … ⊆ G_m``: ``(theta, beta, x)``.

    ``theta`` is the projection of ``inst.b`` onto ``{||theta_g|| <= lam w_g}``,
    ``beta = b - theta`` the prox and ``x`` an optimal stacked latent
    (``M x = beta``).  With ``S_k`` the shells ``G_k \\ G_(k-1)``, the KKT
    conditions give ``theta_(S_k) = c_k b_(S_k)`` with ``c`` nondecreasing
    and ``c = 1`` off the cover.  Each block of equal ``c`` ends at the last
    group minimising ``(t_k^2 - t_p^2) / (E_k - E_p)`` after the previous
    block's end ``p``, with ``E_k = ||b_(G_k)||^2`` and ``t_k = lam w_k``;
    ``c`` is the root of that minimum, capped at 1.  The constraint of each
    block end is active, and the latent is ``x_(G_k) = mu_k theta_(G_k)``
    with ``mu_k = 1/c_k - 1/c_(k+1)`` (``c_(m+1) = 1``), zero inside blocks.
    A block with ``c = 0`` (``lam = 0``) has ``theta = 0``; its end group
    carries all of ``beta`` there.  This is the exact path step of Yan & Bien
    (2017); Jenatton et al. (2011) give the tree analogue.

    Raises ``ValueError`` when ``inst.group_set.nested_order`` is ``None``.
    """
    b, lam, group_set = inst.b, inst.lam, inst.group_set
    order = group_set.nested_order
    if order is None:
        raise ValueError("nested_prox needs groups ordered by inclusion")
    m = group_set.num_groups
    # c is scale-free: the rule runs on b and lam scaled by an exact power of
    # two, so the squared energies neither overflow nor underflow.  A squared
    # threshold may still overflow when lam w exceeds |b| by ~1e154; at inf it
    # gives the same c = 1 (theta = b) as any threshold that large.
    e = math.frexp(float(np.abs(b).max()))[1]
    with np.errstate(over="ignore"):
        t_sq = np.ldexp(lam * group_set.weights[order], -e) ** 2
    shell, _, c, ends = _nested_blocks(np.ldexp(b, -e), t_sq, group_set, 1.0)

    theta = c[shell] * b
    beta = b - theta
    inv_c = np.divide(1.0, c, out=np.zeros(m + 1), where=c > 0)
    mu = np.zeros(m)
    mu[order[ends]] = inv_c[ends] - inv_c[ends + 1]
    x = np.repeat(mu, group_set.sizes) * theta[group_set.stacked_coords]
    if ends.size and c[0] == 0.0:
        lo, hi = group_set.index_ranges[order[ends[0]]]
        x[lo:hi] = beta[group_set.groups[order[ends[0]]]]
    return theta, beta, x


def penalty_value(x: np.ndarray, group_set: GroupSet, lam: float) -> float:
    """``lam * sum_g w_g ||x_{j(g)}||_2`` on the stacked vector."""
    return float(lam * np.dot(group_set.weights, _segment_norms(x, group_set)))


def objective_f(x: np.ndarray, inst: ProxInstance) -> float:
    """Prox-subproblem objective on the stacked latent vector.

    ``lam * sum_g w_g ||x_{j(g)}||_2 + 0.5 ||M x - b||_2^2``.  Convex but
    not strongly convex: ``M`` has repeated columns whenever groups overlap.
    """
    return objective_and_residual(np.asarray(x, dtype=float), inst)[0]


def objective_and_residual(x: np.ndarray, inst: ProxInstance) -> tuple[float, np.ndarray]:
    """Objective value together with the fit residual ``M x - b`` (shared work)."""
    r = inst.operator.apply(x) - inst.b
    return penalty_value(x, inst.group_set, inst.lam) + 0.5 * float(r @ r), r


class LatentPenaltyEvaluator:
    """Evaluates the latent overlapping group penalty ``lam * Omega(beta)``.

    ``Omega(beta)``, the infimum of ``sum_g w_g ||nu_g||_2`` over latent
    decompositions ``sum_g nu_g = beta``, equals its dual
    ``max <theta, beta>`` subject to ``||theta_g|| <= w_g`` (Jacob,
    Obozinski & Vert 2009).  ``Omega`` is positively homogeneous, so it is
    evaluated at ``unit = 2^-e beta`` (``e`` from ``frexp`` of
    ``max |beta|``), where no square overflows or underflows.  The
    evaluator keeps no state between calls.

    On nested groups (``group_set.nested_order`` is not ``None``) the
    maximum is closed form: the block rule of :func:`nested_prox` with the
    squared weights ``W_k`` in place of ``t_k^2`` and no cap gives
    ``Omega = sum over blocks of sqrt((E_k - E_p)(W_k - W_p))``, the limit
    of ``nested_prox``'s projection of ``s * beta`` as ``s`` grows.

    On any other family the sharing iteration of the prox solver runs with
    its data term replaced by the constraint ``M x = unit``: the group prox
    with thresholds ``w_g / rho`` at ``x1 + M^T (g - w)``, the consensus
    step ``g = (unit - M x1) / c`` (``x2 = x1 + M^T g`` is the projection
    onto ``{M x = unit}``) and the dual step ``w <- w - g`` on one scaled
    multiplier per coordinate.  ``rho = mean(w_g) sqrt(m) / ||unit||``,
    rebalanced every 50 iterations.  At iterations 1, 2, 4, 8, ... (so
    that easy inputs stop early) and every 10th, the loop brackets
    ``Omega(unit)`` between ``lower = <theta, unit>``, with ``theta = -w``
    scaled onto ``{||theta_g|| <= w_g}`` (weak duality), and ``upper``, the
    penalty of the feasible ``x2``.  It returns ``lam 2^e upper`` once
    ``upper - lower <= PENALTY_TOL * upper`` and raises
    :class:`NoConvergence` after :data:`PENALTY_MAX_ITER` iterations.
    """

    def __init__(self, group_set: GroupSet):
        self.group_set = group_set
        self.op = SumOperator(group_set)

    def value(self, beta, lam: float, latent_hint: Optional[np.ndarray] = None) -> float:
        """``lam * Omega(beta)``; ``inf`` if beta has support off the group cover.

        Otherwise ``lam = 0`` gives 0 without evaluating ``Omega``.

        ``latent_hint`` is an optional stacked vector whose copy-sums equal
        (or approximate) ``beta``; its projection onto ``{M x = beta}``
        replaces the equal split as the first iterate.  Nested groups
        check it but do not use it.
        """
        gs = self.group_set
        op = self.op
        _check_lam(lam)
        beta = _check_vector(beta, gs.d, "beta")
        hint = None if latent_hint is None else _check_vector(latent_hint, gs.n, "latent_hint")
        cover = op.cover_counts
        if np.any((cover == 0) & (beta != 0.0)):
            return float("inf")
        if lam == 0 or not np.any(beta):
            return 0.0
        e = math.frexp(float(np.max(np.abs(beta))))[1]
        unit = np.ldexp(beta, -e)
        order = gs.nested_order
        if order is not None:
            # the support function of {||theta_g|| <= w_g} at unit: the limit
            # s -> inf of nested_prox's projection of s * unit, with no cap
            _, energy, c, ends = _nested_blocks(unit, gs.weights[order] ** 2, gs, math.inf)
            return float(lam * math.ldexp(c[ends] @ np.diff(energy[ends], prepend=0.0), e))

        weights = gs.weights
        c_safe = np.maximum(cover, 1.0)  # unit and M x1 are 0 where uncovered
        rho = float(weights.mean()) * math.sqrt(gs.num_groups) / float(np.linalg.norm(unit))
        thresholds = weights / rho
        x1 = np.zeros(gs.n) if hint is None else np.ldexp(hint, -e)
        g = (unit - op.apply(x1)) / c_safe
        w = np.zeros(gs.d)
        gap = math.inf
        for it in range(1, PENALTY_MAX_ITER + 1):
            x1_prev, g_prev = x1, g
            x1 = blockwise_soft_threshold(x1 + op.adjoint_apply(g - w), thresholds, gs)
            g = (unit - op.apply(x1)) / c_safe
            w = w - g
            if it % 10 == 0 or it & (it - 1) == 0:
                upper = penalty_value(x1 + op.adjoint_apply(g), gs, 1.0)
                worst = float(np.max(_segment_norms(op.adjoint_apply(w), gs) / weights))
                lower = -float(w @ unit) / worst if worst > 0 else 0.0
                gap = (upper - lower) / upper
                if gap <= PENALTY_TOL:
                    return float(lam * math.ldexp(upper, e))
            if it % 50 == 0:
                # residual balancing of ||x1 - x2|| against rho ||x2_k - x2_(k-1)||;
                # the scaled multiplier w = y / rho rescales with rho
                primal = math.sqrt(cover @ (g * g))
                dual = rho * float(np.linalg.norm(x1 - x1_prev + op.adjoint_apply(g - g_prev)))
                if primal > 10.0 * dual:
                    rho, w = 2.0 * rho, w / 2.0
                elif dual > 10.0 * primal:
                    rho, w = rho / 2.0, 2.0 * w
                thresholds = weights / rho
        raise NoConvergence(
            f"penalty evaluation reached relative gap {gap:.2g} > {PENALTY_TOL} "
            f"after {PENALTY_MAX_ITER} iterations"
        )


def log_penalty_value(beta: np.ndarray, group_set: GroupSet, lam: float) -> float:
    """Latent overlapping group penalty ``lam * Omega(beta)``.

    One-shot form of :class:`LatentPenaltyEvaluator`; see there for the
    method.  Returns ``inf`` when ``beta`` has support outside the union
    of groups (no decomposition exists).  Exact on nested groups; on any
    other family the value is the penalty of a feasible decomposition,
    within :data:`PENALTY_TOL` relative of a dual lower bound.  Scaling
    ``beta`` by ``2^k`` scales the value by exactly ``2^k`` while every
    entry stays a normal float.
    """
    return LatentPenaltyEvaluator(group_set).value(beta, lam)


def operator_norm_sq(operator: SumOperator) -> float:
    """``||M||_2^2`` in closed form: the largest cover count.

    ``M M^T = diag(c)`` with ``c`` the cover counts, and ``M^T M`` has the
    same nonzero eigenvalues, so ``||M||_2^2 = max(c)``.
    """
    return float(operator.cover_counts.max())
