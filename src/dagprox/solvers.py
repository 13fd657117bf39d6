"""Solvers for the latent-overlapping-group prox subproblem.

All five methods minimize, over the stacked latent vector ``x`` of length
``n``,

    f(x) = lam * sum_g w_g ||x_{j(g)}||_2 + 0.5 ||M x - b||_2^2

and report the coefficient vector ``beta = M x``, which is unique even when
the latent minimizer is not.

* ``prox_log_bcd`` sweeps the groups Gauss-Seidel style, each block update
  being an exact group soft-threshold; the randomized variant reshuffles
  the sweep order every epoch.
* ``prox_log_admm_sharing`` splits ``x`` into two copies coupled by
  ``x1 = x2`` and alternates a separable group prox, the coupled block
  solve, and the dual ascent step ``y += alpha (x1 - x2)`` with
  ``0 < alpha < rho``.  Because ``M M^T`` is diagonal, the coupled solve
  collapses to a d-dimensional consensus correction that is gathered from
  and broadcast back to the groups; no n-by-n system is ever formed.
* ``prox_log_pgm`` is ISTA (optionally FISTA) with the exact separable
  group prox; default step is ``1 / ||M||_2^2``.  ISTA's next gradient
  point is its current iterate, so each step reuses the gradient that the
  stopping test at that iterate already computed; FISTA evaluates its
  gradient afresh at the extrapolated point.

``prox_log_admm_unscaled`` is not one of the five: it is the dense
reference the tests hold the sharing solver against.  It runs the same
ADMM iteration with the coupled block solved against a Cholesky factor of
``(M^T M + rho I)``, so its iterates must match the sharing solver's step
for step.

BCD and plain PGM decrease ``f`` monotonically; the ADMM drives the
feasibility residual ``||x1 - x2||`` to zero at a linear rate in practice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .diagnostics import (
    ConvergenceTrace,
    TraceRecord,
    objective_and_proxgrad,
    objective_proxgrad_and_gradient,
    proxgrad_norm,
)
from .errors import InvalidStep, NonFiniteIterate
from .kernels import (
    ProxInstance,
    blockwise_soft_threshold,
    group_soft_threshold,
    objective_f,
)

__all__ = [
    "SolveOptions",
    "SolverState",
    "ProxResult",
    "prox_log_bcd",
    "prox_log_admm_unscaled",
    "prox_log_admm_sharing",
    "prox_log_pgm",
    "solve_prox",
    "SOLVER_NAMES",
]


@dataclass
class SolveOptions:
    """Shared solver options.

    ``alpha`` is the ADMM dual step; it defaults to ``rho / 2`` and must
    satisfy ``0 < alpha < rho``.  ``tol_opt`` stops
    BCD/PGM on the proximal-gradient norm; ``tol_primal``/``tol_dual``
    stop the ADMM on the feasibility residual and scaled dual movement.
    ``trace_every = 0`` disables tracing.
    """

    rho: float = 1.0
    alpha: Optional[float] = None
    max_iter: int = 10_000
    tol_opt: float = 1e-8
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    trace_every: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InvalidStep(f"rho must be finite and positive, got {self.rho}")
        for name in ("tol_opt", "tol_primal", "tol_dual"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.trace_every < 0:
            raise ValueError("trace_every must be nonnegative")

    def resolved_alpha(self) -> float:
        return 0.5 * self.rho if self.alpha is None else self.alpha

    def require_admm_steps(self) -> float:
        alpha = self.resolved_alpha()
        if not 0 < alpha < self.rho:
            raise InvalidStep(
                f"ADMM dual step requires 0 < alpha < rho, got alpha={alpha}, rho={self.rho}"
            )
        return alpha


@dataclass
class SolverState:
    """Final primal blocks and unscaled dual of an ADMM run.

    ``y`` is the unscaled multiplier; the sharing solver works with the
    scaled dual ``u = y / rho`` internally.  Passed back as ``state=``, it
    warm-starts the sharing solver from ``x2`` and ``y``; the iteration
    count is :attr:`ProxResult.iterations`.
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray


@dataclass
class ProxResult:
    """Outcome of a prox solve."""

    beta: np.ndarray
    x: np.ndarray
    objective: float
    status: str
    iterations: int
    trace: ConvergenceTrace
    state: Optional[SolverState] = None
    group_set: object = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def latent(self) -> list[np.ndarray]:
        """Per-group latent segments ``x_{j(g)}`` in group order."""
        return [self.x[lo:hi] for lo, hi in self.group_set.index_ranges]

    def latent_matrix(self) -> np.ndarray:
        """Latent vectors as a dense d-by-|G| matrix, one column per group."""
        gs = self.group_set
        m = np.zeros((gs.d, gs.num_groups))
        for j, ((lo, hi), g) in enumerate(zip(gs.index_ranges, gs.groups)):
            m[g, j] = self.x[lo:hi]
        return m


class _Tracer:
    """Collects trace records at the configured stride plus the final iterate."""

    def __init__(self, inst: ProxInstance, every: int):
        self.inst = inst
        self.every = every
        self.trace = ConvergenceTrace()
        self.t0 = time.perf_counter()

    def record(
        self,
        k: int,
        x: np.ndarray,
        primal: float,
        dual: float,
        final: bool = False,
        computed: Optional[tuple[float, float]] = None,
    ):
        if self.every <= 0:
            return
        if k % self.every and not final:
            return
        if self.trace.records and self.trace.records[-1].iter == k:
            return
        obj, pg = computed if computed is not None else objective_and_proxgrad(x, self.inst)
        self.trace.append(
            TraceRecord(
                iter=k,
                wall_s=time.perf_counter() - self.t0,
                objective=obj,
                primal_res=primal,
                dual_res=dual,
                proxgrad_norm=pg,
            )
        )


def _norm(v: np.ndarray) -> float:
    """``||v||_2`` as the same dot-then-sqrt as ``np.linalg.norm``, minus its dispatch."""
    return math.sqrt(v @ v)


def _check_finite(value: float, k: int, what: str) -> None:
    if not np.isfinite(value):
        raise NonFiniteIterate(f"{what} became non-finite at iteration {k}")


def _result(inst, x, status, k, trace, state=None) -> ProxResult:
    beta = inst.operator.apply(x)
    return ProxResult(
        beta=beta,
        x=x,
        objective=objective_f(x, inst),
        status=status,
        iterations=k,
        trace=trace.trace if isinstance(trace, _Tracer) else trace,
        state=state,
        group_set=inst.group_set,
    )


def prox_log_bcd(
    inst: ProxInstance, opts: Optional[SolveOptions] = None, randomized: bool = False
) -> ProxResult:
    """Block coordinate descent over the latent groups.

    Maintains the running sum ``beta = M x``; each block update removes the
    group's latent vector from the sum, soft-thresholds the residual
    ``b_g - beta_g`` at ``lam w_g``, and adds it back.  One iteration is a
    full sweep (epoch).  With ``randomized=True`` the sweep order is
    reshuffled every epoch using ``opts.seed``.  Stops when the
    proximal-gradient norm drops below ``opts.tol_opt``.
    """
    opts = opts or SolveOptions()
    gs = inst.group_set
    op = inst.operator
    thresholds = inst.lam * gs.weights
    coords = gs.groups
    ranges = gs.index_ranges
    b_segments = [inst.b[g] for g in coords]

    x = np.zeros(inst.n)
    beta = np.zeros(inst.d)
    rng = np.random.default_rng(opts.seed) if randomized else None
    tracer = _Tracer(inst, opts.trace_every)

    if proxgrad_norm(x, inst) <= opts.tol_opt:
        tracer.record(0, x, 0.0, 0.0, final=True)
        return _result(inst, x, "converged", 0, tracer)

    status = "max_iter"
    k = 0
    computed = None
    for k in range(1, opts.max_iter + 1):
        order = rng.permutation(gs.num_groups) if randomized else range(gs.num_groups)
        for j in order:
            lo, hi = ranges[j]
            g = coords[j]
            # one gather and one scatter: a group's coordinates are distinct
            rest = beta[g] - x[lo:hi]
            seg = group_soft_threshold(b_segments[j] - rest, thresholds[j])
            x[lo:hi] = seg
            beta[g] = rest + seg
        beta = op.apply(x)  # resync: incremental updates accumulate rounding
        obj, measure = objective_and_proxgrad(x, inst)
        computed = (obj, measure)
        if not math.isfinite(measure):
            _check_finite(measure, k, "BCD iterate")
        tracer.record(k, x, 0.0, 0.0, computed=computed)
        if measure <= opts.tol_opt:
            status = "converged"
            break
    tracer.record(k, x, 0.0, 0.0, final=True, computed=computed)
    return _result(inst, x, status, k, tracer)


def prox_log_admm_sharing(
    inst: ProxInstance,
    opts: Optional[SolveOptions] = None,
    state: Optional[SolverState] = None,
    callback: Optional[Callable] = None,
) -> ProxResult:
    """Sharing-scheme ADMM: the coupled solve shrinks to a d-dim consensus.

    ``M M^T = diag(c)`` with ``c`` the per-coordinate group cover counts,
    so the coupled block solve is, per coordinate, a shared consensus
    correction broadcast to that coordinate's latent copies:

        x2 = v + M^T ((b - M v) / (rho + c)),   v = x1 + u

    computed entirely with gathers and scatters (cost O(n + d); nothing
    n-by-n is ever formed).  The per-group prox step is embarrassingly
    parallel over groups.  The dual is stored in scaled form ``u = y / rho``
    and stepped by ``u += (alpha / rho)(x1 - x2)``.  Stops when
    ``||x1 - x2|| <= tol_primal`` and ``rho ||x2_{k+1} - x2_k|| <= tol_dual``.

    ``state`` warm-starts ``x2`` and ``y`` from an earlier run.
    ``callback(k, x1, x2, y)`` fires after every dual update with the
    unscaled ``y``.
    """
    opts = opts or SolveOptions()
    alpha = opts.require_admm_steps()
    rho = opts.rho
    gs = inst.group_set
    op = inst.operator
    cover = op.cover_counts.astype(float)
    c_safe = np.where(cover > 0, cover, 1.0)
    thresholds = inst.lam * gs.weights / rho
    b = inst.b
    tracer = _Tracer(inst, opts.trace_every)

    x2 = np.zeros(inst.n) if state is None else state.x2.copy()
    u = np.zeros(inst.n) if state is None else state.y / rho
    x1 = np.zeros(inst.n)
    dual_step = alpha / rho
    consensus_scale = rho + c_safe
    status = "max_iter"
    k = 0
    primal = dual_res = float("inf")
    for k in range(1, opts.max_iter + 1):
        x1 = blockwise_soft_threshold(x2 - u, thresholds, gs)
        v = x1 + u
        x2_new = v + op.adjoint_apply((b - op.apply(v)) / consensus_scale)
        gap = np.subtract(x1, x2_new, out=v)  # v is spent: reuse its buffer
        u = u + dual_step * gap
        primal = _norm(gap)
        dual_res = rho * _norm(x2_new - x2)
        x2 = x2_new
        if not math.isfinite(primal + dual_res):
            _check_finite(primal + dual_res, k, "ADMM iterate")
        if callback is not None:
            callback(k, x1, x2, u * rho)
        tracer.record(k, x1, primal, dual_res)
        if primal <= opts.tol_primal and dual_res <= opts.tol_dual:
            status = "converged"
            break
    tracer.record(k, x1, primal, dual_res, final=True)
    final = SolverState(x1=x1, x2=x2, y=u * rho)
    return _result(inst, x1, status, k, tracer, state=final)


def prox_log_admm_unscaled(
    inst: ProxInstance,
    opts: Optional[SolveOptions] = None,
    callback: Optional[Callable] = None,
) -> ProxResult:
    """Dense reference for :func:`prox_log_admm_sharing` (tests only).

    The same two-block ADMM with the unscaled dual ``y += alpha (x1 - x2)``
    and the coupled block solved against a Cholesky factor of
    ``(M^T M + rho I)``, built from the dense ``M`` on every call.  Bounded
    by :data:`~dagprox.kernels.DENSE_CAP`; same stopping rule and callback
    as the sharing solver; no tracing and no warm start.
    """
    opts = opts or SolveOptions()
    alpha = opts.require_admm_steps()
    rho = opts.rho
    m = inst.operator.dense()
    gram = m.T @ m
    gram[np.diag_indices_from(gram)] += rho
    factor = scipy.linalg.cho_factor(gram, overwrite_a=True, check_finite=False)
    mtb = m.T @ inst.b
    thresholds = inst.lam * inst.group_set.weights / rho

    x2, y = np.zeros(inst.n), np.zeros(inst.n)
    status = "max_iter"
    for k in range(1, opts.max_iter + 1):
        x1 = blockwise_soft_threshold(x2 - y / rho, thresholds, inst.group_set)
        x2_new = scipy.linalg.cho_solve(
            factor, mtb + rho * x1 + y, overwrite_b=True, check_finite=False
        )
        y = y + alpha * (x1 - x2_new)
        primal = float(np.linalg.norm(x1 - x2_new))
        dual_res = rho * float(np.linalg.norm(x2_new - x2))
        x2 = x2_new
        _check_finite(primal + dual_res, k, "ADMM iterate")
        if callback is not None:
            callback(k, x1, x2, y)
        if primal <= opts.tol_primal and dual_res <= opts.tol_dual:
            status = "converged"
            break
    final = SolverState(x1=x1, x2=x2, y=y)
    return _result(inst, x1, status, k, ConvergenceTrace(), state=final)


def prox_log_pgm(
    inst: ProxInstance,
    opts: Optional[SolveOptions] = None,
    accelerated: bool = False,
    step: Optional[float] = None,
) -> ProxResult:
    """Proximal gradient (ISTA) or its accelerated variant (FISTA).

    A gradient step on ``0.5 ||M x - b||^2`` followed by the exact
    separable group prox.  ``step`` defaults to ``1 / ||M||_2^2``; the
    accelerated variant uses the standard momentum sequence with restarts
    disabled.  Stops on the unit-step proximal-gradient norm.

    The stopping test at ``x_k`` computes ``M^T(M x_k - b)``, which is
    exactly ISTA's next gradient, so ISTA costs one ``apply`` /
    ``adjoint_apply`` pair per iteration.  FISTA evaluates its gradient at
    the extrapolated point, which differs from ``x_k``, and so pays a second
    pair.
    """
    opts = opts or SolveOptions()
    if step is None:
        step = 1.0 / inst.operator.norm_sq()
    elif step <= 0:
        raise InvalidStep(f"step must be positive, got {step}")
    gs = inst.group_set
    op = inst.operator
    thresholds = step * inst.lam * gs.weights
    tracer = _Tracer(inst, opts.trace_every)

    x = np.zeros(inst.n)
    # the stopping test at x computes the gradient at x: ISTA steps from it
    _, measure, grad = objective_proxgrad_and_gradient(x, inst)
    if measure <= opts.tol_opt:
        tracer.record(0, x, 0.0, 0.0, final=True)
        return _result(inst, x, "converged", 0, tracer)

    point = x
    t_momentum = 1.0
    status = "max_iter"
    k = 0
    computed = None
    for k in range(1, opts.max_iter + 1):
        if accelerated:
            grad = op.adjoint_apply(op.apply(point) - inst.b)
        x_new = blockwise_soft_threshold(point - step * grad, thresholds, gs)
        if accelerated:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            point = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            t_momentum = t_next
        else:
            point = x_new
        x = x_new
        obj, measure, grad = objective_proxgrad_and_gradient(x, inst)
        computed = (obj, measure)
        if not math.isfinite(measure):
            _check_finite(measure, k, "PGM iterate")
        tracer.record(k, x, 0.0, 0.0, computed=computed)
        if measure <= opts.tol_opt:
            status = "converged"
            break
    tracer.record(k, x, 0.0, 0.0, final=True, computed=computed)
    return _result(inst, x, status, k, tracer)


def _solve_rbcd(inst, opts=None, **kw):
    return prox_log_bcd(inst, opts, randomized=True, **kw)


def _solve_fista(inst, opts=None, **kw):
    return prox_log_pgm(inst, opts, accelerated=True, **kw)


SOLVER_NAMES = ("bcd", "rbcd", "sharing", "pgm", "fista")

_DISPATCH = {
    "bcd": prox_log_bcd,
    "rbcd": _solve_rbcd,
    "sharing": prox_log_admm_sharing,
    "pgm": prox_log_pgm,
    "fista": _solve_fista,
}


def solve_prox(inst: ProxInstance, method: str = "sharing", opts: Optional[SolveOptions] = None, **kw) -> ProxResult:
    """Dispatch a prox solve by solver name (one of ``SOLVER_NAMES``)."""
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise ValueError(
            f"unknown solver {method!r}; choose from {', '.join(SOLVER_NAMES)}"
        ) from None
    return fn(inst, opts, **kw)
