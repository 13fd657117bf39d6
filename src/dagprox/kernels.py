"""Shared numerical primitives.

The stacked latent vector ``x`` of length ``n = sum(|g|)`` concatenates the
supported entries of all per-group latent vectors.  The binary scatter/sum
operator ``M`` maps ``x`` to the coefficient vector ``beta = M x`` of length
``d`` by summing, for every coordinate, the latent copies of that
coordinate.  ``M`` is kept implicit as gather/scatter over the group index
ranges; a dense materialization exists for testing at small sizes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapExceeded, DimensionMismatch, NoConvergence, NonFiniteInput
from .graph import GroupSet

__all__ = [
    "SumOperator",
    "ProxInstance",
    "group_soft_threshold",
    "blockwise_soft_threshold",
    "objective_f",
    "penalty_value",
    "LatentPenaltyEvaluator",
    "log_penalty_value",
    "operator_norm_sq",
]

#: largest stacked dimension for which a dense M may be materialized
DENSE_CAP = 4096

#: stopping tolerance of the latent penalty evaluation, relative to
#: ``max(1, ||beta||)``
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

    def dense(self) -> np.ndarray:
        """Materialize ``M`` as a dense 0/1 matrix (testing only, n <= 4096)."""
        if self.n > DENSE_CAP:
            raise CapExceeded(f"dense M only for n <= {DENSE_CAP}, got n = {self.n}")
        m = np.zeros((self.d, self.n))
        m[self._coords, np.arange(self.n)] = 1.0
        return m

    def norm_sq(self) -> float:
        """``||M||_2^2``; see :func:`operator_norm_sq`."""
        return operator_norm_sq(self)


@dataclass
class ProxInstance:
    """A prox evaluation problem: input point, penalty level, and groups."""

    b: np.ndarray
    lam: float
    group_set: GroupSet
    operator: SumOperator = field(default=None, repr=False)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.operator is None:
            self.operator = SumOperator(self.group_set)
        if self.operator.group_set is not self.group_set:
            raise DimensionMismatch("operator built from a different group set")
        if self.b.shape != (self.group_set.d,):
            raise DimensionMismatch(
                f"b has shape {self.b.shape} (length {self.b.size}), "
                f"expected ({self.group_set.d},)"
            )
        if not np.all(np.isfinite(self.b)):
            raise NonFiniteInput("b contains non-finite entries")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")

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
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {t}")
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    # a finite norm proves finite entries; an infinite one may be overflow
    if not math.isfinite(nv) and not np.all(np.isfinite(v)):
        raise NonFiniteInput("soft-threshold input contains non-finite entries")
    if nv <= t:
        return np.zeros_like(v)
    return (1.0 - t / nv) * v


def _segment_norms(x: np.ndarray, group_set: GroupSet) -> np.ndarray:
    """Per-group l2 norms of a stacked vector."""
    sq = np.add.reduceat(x * x, group_set.starts)
    return np.sqrt(sq)


def blockwise_soft_threshold(
    x: np.ndarray, thresholds: np.ndarray, group_set: GroupSet
) -> np.ndarray:
    """Apply :func:`group_soft_threshold` to every stacked range at once.

    ``thresholds`` is one nonnegative value per group.  This is the exact
    prox of ``sum_g t_g ||x_{j(g)}||_2`` because the ranges are disjoint.
    """
    norms = _segment_norms(x, group_set)
    factors = np.zeros(group_set.num_groups)
    live = norms > thresholds
    np.divide(thresholds, norms, out=factors, where=live)
    factors = np.where(live, 1.0 - factors, 0.0)
    return x * np.repeat(factors, group_set.sizes)


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
    """Evaluates the latent overlapping group penalty, reusing solver state.

    The infimum of ``sum_g w_g ||nu_g||_2`` over latent decompositions
    ``sum_g nu_g = beta`` is computed by a scaled two-block ADMM on the
    constrained problem: one block is the separable group prox, the other
    the exact projection onto the affine set ``M x = beta`` (``M M^T`` is
    diagonal, so the projection is a d-dimensional consensus correction).

    Repeated evaluations at nearby points (an outer optimization loop)
    warm-start from the previous latent/dual pair; accuracy is governed by
    the stopping rule alone: primal and dual residuals at most
    :data:`PENALTY_TOL` times ``max(1, ||beta||)``, within
    :data:`PENALTY_MAX_ITER` iterations.
    """

    def __init__(self, group_set: GroupSet):
        self.group_set = group_set
        self.op = SumOperator(group_set)
        cover = self.op.cover_counts
        self._c_safe = np.where(cover > 0, cover, 1).astype(float)
        self._x2: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._rho: Optional[float] = None

    def _project(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Exact projection onto ``{x : M x = beta}`` (consensus correction)."""
        r = beta - self.op.apply(x)
        return x + self.op.adjoint_apply(r / self._c_safe)

    def value(self, beta, lam: float, latent_hint: Optional[np.ndarray] = None) -> float:
        """``lam * Omega(beta)``; ``inf`` if beta has support off the group cover.

        ``latent_hint`` is an optional stacked vector whose copy-sums equal
        (or approximate) ``beta``; it seeds the feasible block.
        """
        gs = self.group_set
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (gs.d,):
            raise DimensionMismatch(f"beta has shape {beta.shape}, expected ({gs.d},)")
        if not np.all(np.isfinite(beta)):
            raise NonFiniteInput("beta contains non-finite entries")
        cover = self.op.cover_counts
        if np.any((cover == 0) & (beta != 0.0)):
            return float("inf")
        if not np.any(beta):
            return 0.0

        scale = max(1.0, float(np.linalg.norm(beta)))
        w = gs.weights
        if self._rho is None:
            # thresholds w/rho should sit at the scale of the latent entries
            self._rho = max(
                1.0, float(w.mean()) * np.sqrt(gs.num_groups) / float(np.linalg.norm(beta))
            )
        rho = self._rho
        if latent_hint is not None:
            x2 = self._project(np.asarray(latent_hint, dtype=float), beta)
        elif self._x2 is not None:
            x2 = self._project(self._x2, beta)
        else:
            x2 = self.op.adjoint_apply(beta / self._c_safe)  # equal split
        u = np.zeros(gs.n) if self._u is None else self._u.copy()

        for it in range(1, PENALTY_MAX_ITER + 1):
            x1 = blockwise_soft_threshold(x2 - u, w / rho, gs)
            v = x1 + u
            x2_new = self._project(v, beta)
            u = u + x1 - x2_new
            primal = float(np.linalg.norm(x1 - x2_new))
            dual = float(rho * np.linalg.norm(x2_new - x2))
            x2 = x2_new
            if primal <= PENALTY_TOL * scale and dual <= PENALTY_TOL * scale:
                break
            # residual balancing keeps the evaluator robust to beta's scale;
            # the scaled dual u = y/rho must be rescaled with rho
            if it % 50 == 0:
                if primal > 10.0 * dual:
                    rho *= 2.0
                    u /= 2.0
                elif dual > 10.0 * primal:
                    rho /= 2.0
                    u *= 2.0
        else:
            raise NoConvergence(
                f"penalty evaluation did not reach tol={PENALTY_TOL} "
                f"in {PENALTY_MAX_ITER} iterations"
            )
        self._x2, self._u, self._rho = x2, u, rho
        # x2 is feasible by construction; its penalty upper-bounds the
        # infimum and is tight at the stopping tolerance
        return penalty_value(x2, gs, lam)


def log_penalty_value(beta: np.ndarray, group_set: GroupSet, lam: float) -> float:
    """Latent overlapping group penalty ``lam * Omega(beta)``.

    One-shot form of :class:`LatentPenaltyEvaluator`; see there for the
    method.  Returns ``inf`` when ``beta`` has support outside the union
    of groups (no decomposition exists).  :data:`PENALTY_TOL` bounds the
    feasibility residual and dual movement relative to ``max(1, ||beta||)``.
    """
    return LatentPenaltyEvaluator(group_set).value(beta, lam)


def operator_norm_sq(operator: SumOperator) -> float:
    """``||M||_2^2`` in closed form: the largest cover count.

    ``M M^T = diag(c)`` with ``c`` the cover counts, and ``M^T M`` has the
    same nonzero eigenvalues, so ``||M||_2^2 = max(c)`` (0 with no groups).
    """
    return float(operator.cover_counts.max(initial=0))
