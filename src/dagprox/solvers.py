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
  collapses to a d-dimensional consensus correction ``g`` broadcast back
  to the groups, ``x2 = x1 + M^T g``; no n-by-n system is ever formed.
  Every copy of a coordinate then takes the same dual step, so the
  multiplier lives in ``R^d`` (``y = rho M^T w``) and both residuals are
  read off d-length sums: ``||x1 - x2||^2 = sum_j c_j g_j^2`` and the dual
  residual by expanding ``||x2_k - x2_(k-1)||^2`` around the ``M x1`` the
  step computes anyway.  A step touches only the groups that can be
  nonzero: every zero group carries an upper bound on the norm of its prox
  input, and a group whose bound stays below its threshold is certified to
  stay zero without being gathered, so the iterates are the dense step's.
* ``prox_log_pgm`` is ISTA (optionally FISTA) with the exact separable
  group prox and step ``1 / ||M||_2^2``; FISTA evaluates its gradient
  afresh at the extrapolated point.

BCD and PGM run one descent loop and differ only in its step.  From
``x = 0``, each iterate makes one certificate call
(:func:`~dagprox.diagnostics.objective_and_proxgrad`): its objective,
proximal-gradient norm and gradient serve the stopping test, the trace
record and ISTA's next step.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import ConvergenceTrace, TraceRecorder, objective_and_proxgrad
from .errors import CapExceeded, InvalidStep, NonFiniteIterate
from .graph import _check_int
from .kernels import (
    DENSE_CAP,
    ProxInstance,
    _segment_norms,
    _shrink_factors,
    blockwise_soft_threshold,
    group_soft_threshold,
    objective_f,
    operator_norm_sq,
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

#: Relative slack of the sharing loop's zero-group certificate.  A bound
#: ``B_j`` proves ``||t_j|| <= lam w_j / rho`` for the float norm the dense
#: step would compute once ``B_j <= (1 - margin) lam w_j / rho``, whatever
#: the rounding: each ``bound +=`` loses at most one ulp (2^-53 relative),
#: so the DEAD_BOUND_MAX_AGE additions between two reseeds lose at most
#: 2^20 * 2^-53 = 2^-33; the group norm, the ``dt`` norms and the products
#: add at most (|g| + d + 8) * 2^-53, under 2^-22 for any d and |g| below
#: 2^30.  Together that stays below 2^-21, half the margin.
DEAD_BOUND_MARGIN = 2.0**-20

#: The sharing loop refreshes every group at each multiple of this many
#: iterations, which bounds the additions a certificate accumulates.
DEAD_BOUND_MAX_AGE = 2**20

#: seed of the randomized BCD's sweep orders
RBCD_SEED = 0


def _check_loop_options(opts, tolerances: tuple[str, ...]) -> None:
    """Loop options: integer ``max_iter >= 1`` and ``trace_every >= 0``; tolerances ``>= 0``, not NaN."""
    if _check_int(opts.max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be positive")
    for name in tolerances:
        if not getattr(opts, name) >= 0:
            raise ValueError(f"{name} must be nonnegative, got {getattr(opts, name)}")
    if _check_int(opts.trace_every, "trace_every") < 0:
        raise ValueError("trace_every must be nonnegative")


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

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InvalidStep(f"rho must be finite and positive, got {self.rho}")
        _check_loop_options(self, ("tol_opt", "tol_primal", "tol_dual"))

    def require_admm_steps(self) -> float:
        alpha = 0.5 * self.rho if self.alpha is None else self.alpha
        if not 0 < alpha < self.rho:
            raise InvalidStep(
                f"ADMM dual step requires 0 < alpha < rho, got alpha={alpha}, rho={self.rho}"
            )
        return alpha


class SolverState:
    """Final primal blocks and unscaled dual of an ADMM run.

    ``x1`` is the prox block, ``x2`` the coupled block and ``y`` the
    unscaled multiplier, one stacked entry per latent copy each.  Passed
    back as ``state=``, it warm-starts the sharing solver from ``x2`` and
    from ``w = M y / (rho c)``, the mean of each coordinate's copies of
    ``y / rho``.  The iteration count is :attr:`ProxResult.iterations`.

    ``SolverState(x1, x2, y)`` holds the three arrays it is given.  A state
    returned by :func:`prox_log_admm_sharing` holds ``x1``, the d-vectors
    ``g`` and ``rho w`` of the last step and the operator ``M``, so it costs
    ``n + 2d`` floats, not ``3n``: ``x2 = x1 + M^T g`` and
    ``y = M^T (rho w)`` are built the first time each is read, from ``x1``
    as it is then, and kept.  Every copy of a coordinate holds the same
    value of that ``y``.
    """

    __slots__ = ("x1", "_x2", "_y", "_g", "_rho_w", "_operator")

    def __init__(self, x1, x2, y):
        self.x1, self._x2, self._y = x1, x2, y
        self._g = self._rho_w = self._operator = None

    @classmethod
    def _sharing(cls, x1, g, rho_w, operator) -> "SolverState":
        """The state of a sharing run, holding ``x1``, ``g``, ``rho w`` and ``M``."""
        state = cls(x1, None, None)
        state._g, state._rho_w, state._operator = g, rho_w, operator
        return state

    @property
    def x2(self) -> np.ndarray:
        if self._x2 is None and self._g is not None:
            self._x2 = self.x1 + self._operator.adjoint_apply(self._g)
        return self._x2

    @property
    def y(self) -> np.ndarray:
        if self._y is None and self._rho_w is not None:
            self._y = self._operator.adjoint_apply(self._rho_w)
        return self._y


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


def _check_finite(value: float, k: int, what: str) -> None:
    if not np.isfinite(value):
        raise NonFiniteIterate(f"{what} became non-finite at iteration {k}")


def _result(inst, x, status, k, trace: ConvergenceTrace, state=None, beta=None) -> ProxResult:
    """Package a solve; ``beta`` is ``M x`` when the solver already has it."""
    if beta is None:
        beta = inst.operator.apply(x)
    return ProxResult(
        beta=beta,
        x=x,
        objective=objective_f(x, inst),
        status=status,
        iterations=k,
        trace=trace,
        state=state,
        group_set=inst.group_set,
    )


def _descend(inst: ProxInstance, opts: SolveOptions, step: Callable, what: str) -> ProxResult:
    """The descent loop of BCD and PGM: ``x = step(x, grad)`` from ``x = 0``.

    ``grad = M^T(M x - b)`` comes from the certificate call at the current
    ``x``, which also gives the objective and the proximal-gradient norm
    that the trace records and the stop test ``norm <= tol_opt`` reads; a
    NaN norm never passes it.  At ``x = 0`` a passing test returns
    ``converged`` after 0 iterations.  ``what`` names the iterate in the
    :class:`NonFiniteIterate` raised when the norm is not finite.
    """
    recorder = TraceRecorder(opts.trace_every)
    x = np.zeros(inst.n)
    obj, measure, grad = objective_and_proxgrad(x, inst)

    def values():
        return obj, 0.0, 0.0, measure

    converged = measure <= opts.tol_opt
    k = 0
    while not converged and k < opts.max_iter:
        k += 1
        x = step(x, grad)
        obj, measure, grad = objective_and_proxgrad(x, inst)
        if not math.isfinite(measure):
            _check_finite(measure, k, what)
        recorder.record(k, values)
        converged = measure <= opts.tol_opt
    recorder.record(k, values, final=True)
    return _result(inst, x, "converged" if converged else "max_iter", k, recorder.trace)


def _extrapolate(new: np.ndarray, old: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """FISTA's momentum step (Beck & Teboulle 2009): the next point and ``t``."""
    t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t**2))
    return new + ((t - 1.0) / t_next) * (new - old), t_next


def prox_log_bcd(
    inst: ProxInstance, opts: Optional[SolveOptions] = None, randomized: bool = False
) -> ProxResult:
    """Block coordinate descent over the latent groups.

    Maintains the running sum ``beta = M x``; each block update removes the
    group's latent vector from the sum, soft-thresholds the residual
    ``b_g - beta_g`` at ``lam w_g``, and adds it back.  One iteration is a
    full sweep (epoch).  With ``randomized=True`` the sweep order is
    reshuffled every epoch by one generator seeded with :data:`RBCD_SEED`.
    Stops when the proximal-gradient norm drops below ``opts.tol_opt``.
    """
    opts = opts or SolveOptions()
    gs = inst.group_set
    thresholds = inst.lam * gs.weights
    coords = gs.groups
    ranges = gs.index_ranges
    b_segments = [inst.b[g] for g in coords]
    beta = np.zeros(inst.d)
    rng = np.random.default_rng(RBCD_SEED) if randomized else None

    def sweep(x, grad):
        nonlocal beta
        order = rng.permutation(gs.num_groups) if randomized else range(gs.num_groups)
        for j in order:
            lo, hi = ranges[j]
            g = coords[j]
            # one gather and one scatter: a group's coordinates are distinct
            rest = beta[g] - x[lo:hi]
            seg = group_soft_threshold(b_segments[j] - rest, thresholds[j])
            x[lo:hi] = seg
            beta[g] = rest + seg
        beta = inst.operator.apply(x)  # resync: incremental updates accumulate rounding
        return x

    return _descend(inst, opts, sweep, "BCD iterate")


def prox_log_admm_sharing(
    inst: ProxInstance,
    opts: Optional[SolveOptions] = None,
    state: Optional[SolverState] = None,
    callback: Optional[Callable] = None,
) -> ProxResult:
    """Sharing-scheme ADMM: the coupled solve shrinks to a d-dim consensus.

    The iteration is the two-block ADMM ``x1 = prox(x2 - u)``,
    ``x2 = argmin 0.5 ||M x2 - b||^2 + (rho/2) ||x2 - x1 - u||^2``,
    ``u += (alpha / rho)(x1 - x2)`` on the scaled dual ``u = y / rho``.
    ``M M^T = diag(c)`` with ``c`` the per-coordinate group cover counts,
    so the coupled solve is ``x2 = x1 + M^T g`` with the d-vector

        g = (rho w + b - M x1) / (rho + c)

    when ``u = M^T w``.  Every copy of a coordinate therefore moves by the
    same dual step, and ``u`` stays in the range of ``M^T`` (the sharing
    problem of Boyd et al. 2011, section 7.3): the loop keeps the
    multiplier as ``w`` in ``R^d``, steps it by ``w -= (alpha / rho) g`` and
    feeds the next prox ``x1 + M^T (g - w)``.  Nothing n-by-n is formed and
    ``x2`` is never stored.

    Stops when ``||x1 - x2|| <= tol_primal`` and
    ``rho ||x2_k - x2_(k-1)|| <= tol_dual``.  Both come from d-length
    sums: ``||x1 - x2||^2 = sum_j c_j g_j^2``, and with ``dx1`` and ``dg``
    the changes of ``x1`` and ``g``,

        ||x2_k - x2_(k-1)||^2 = ||dx1||^2 + 2 <M dx1, dg> + <c, dg^2>,

    clamped at 0, where ``M x1`` is the one the step computes anyway.  The
    dual residual is computed only when tracing or once the primal test
    passes, the only places it is read.

    Most latent groups stay zero, and a zero group ``j`` stays zero while
    ``||t_j|| <= lam w_j / rho`` for the d-vector ``t = g - w`` the prox
    step adds to ``x1``.  The loop keeps an upper bound on ``||t_j||`` for
    every zero group and advances it each step by
    ``min(||dt||_2, sqrt(|g|) ||dt||_inf) (1 + DEAD_BOUND_MARGIN)``.  A
    step refreshes only the nonzero groups and the zero groups whose bound
    reaches ``(1 - DEAD_BOUND_MARGIN) lam w_j / rho``: it norms their
    entries segment by segment, shrinks them and sums them into ``M x1``
    with one ``bincount``.  Every other group is certified to stay zero, so
    each norm, shrink factor, ``M x1``, ``g``, ``w``, residual and stop
    decision has the value the dense step computes (a certified group may
    keep ``+0.0`` where the dense step writes ``-0.0``).  A step that must
    refresh every group (always the first) is that dense step, through
    :func:`blockwise_soft_threshold` and the operator; the next step reseeds
    the bounds from its group norms.

    The refreshed groups' entries are packed group after group, as the
    :meth:`~dagprox.graph.GroupSet.restrict` of ``gs`` to them, and kept
    packed from step to step.  The layout stays while every group the
    certificate asks for is in it; its certified groups are refreshed too,
    which leaves them zero.  The packed entries are written into ``x1`` only
    where ``x1`` is read: by the dual residual, the trace, the callback, the
    dense step, a new layout and the exit.

    ``state`` warm-starts ``x2`` and ``y``; ``w`` starts at the mean of each
    coordinate's copies of ``y / rho``.  ``callback(k, x1, x2, y)`` fires
    after every dual update with copies of the iterates: ``x2`` and the
    unscaled ``y = rho M^T w`` are built for it.  The returned
    :class:`SolverState` holds ``x1`` and the d-vectors ``g`` and
    ``rho w``; it builds ``x2 = x1 + M^T g`` and ``y = M^T (rho w)`` the
    first time each is read.
    """
    opts = opts or SolveOptions()
    alpha = opts.require_admm_steps()
    rho = opts.rho
    gs = inst.group_set
    op = inst.operator
    cover = op.cover_counts.astype(float)
    c_safe = np.maximum(cover, 1.0)  # counts are integers: 1 where uncovered
    thresholds = inst.lam * gs.weights / rho
    b = inst.b
    recorder = TraceRecorder(opts.trace_every)

    def values():
        obj, pg, _ = objective_and_proxgrad(x1, inst)
        return obj, primal, dual_res, pg

    # x2_0 = x1_prev + M^T g_prev with g_prev = 0 seeds the residual recursion
    g = np.zeros(inst.d)
    if state is None:
        x1, mx1, w = np.zeros(inst.n), np.zeros(inst.d), np.zeros(inst.d)
    else:
        x1 = state.x2
        mx1 = op.apply(x1)
        w = op.apply(state.y) / (rho * c_safe)
    dual_step = alpha / rho
    consensus_scale = rho + c_safe
    # live: the groups whose latent may be nonzero (all of them when warm
    # started); bound: >= ||t_j|| on the others.  seed: the prox input of the
    # last dense step, whose group norms set both on the next step.
    live = np.full(gs.num_groups, state is not None)
    bound = seed = t = None
    # layout: gs restricted to the groups ``kept`` that the lazy steps
    # refresh, with their positions ``entries`` in x1, a mask ``held`` of them
    # and their thresholds; vals: their entries, newer than x1's, or None
    # when x1 holds them
    layout = entries = kept = held = kept_thresholds = vals = None

    def write_back():
        nonlocal vals
        if vals is not None:
            x1[entries] = vals  # x1 is the loop's own array after the first step
            vals = None

    status = "max_iter"
    k = 0
    for k in range(1, opts.max_iter + 1):
        x1_prev, mx1_prev, g_prev = x1, mx1, g
        t_prev, t = t, g - w
        if seed is not None:
            certified = thresholds * (1.0 - DEAD_BOUND_MARGIN)
            norms = _segment_norms(seed, gs)
            now_live = norms > thresholds
            # a group zero before and after has seed = t, so its norm is ||t_j||
            bound = np.where(now_live | live, np.inf, norms)
            live, seed = now_live, None
        refresh = None
        if k > 1 and k % DEAD_BOUND_MAX_AGE:
            dt = t - t_prev
            bound += np.minimum(
                math.sqrt(dt @ dt), gs.sqrt_sizes * float(np.abs(dt).max())
            ) * (1.0 + DEAD_BOUND_MARGIN)
            # nonzero groups have an inf bound; a NaN or inf bound fails the
            # test, so its group is refreshed
            refresh = (~(bound <= certified)).nonzero()[0]
        if refresh is None or refresh.size == gs.num_groups:
            write_back()
            seed = x1 + op.adjoint_apply(t)
            x1 = blockwise_soft_threshold(seed, thresholds, gs)
            mx1 = op.apply(x1)
            vals_prev = None
        else:
            if held is None or not held[refresh].all():
                write_back()
                kept = refresh
                layout, entries = gs.restrict(kept)
                held = np.zeros(gs.num_groups, dtype=bool)
                held[kept] = True
                kept_thresholds = thresholds[kept]
            # a certified group in the layout is refreshed too: its norm is
            # ||t_j||, at most its threshold, so it stays zero
            vals_prev = x1[entries] if vals is None else vals
            vals = vals_prev + t[layout.stacked_coords]
            norms = _segment_norms(vals, layout)
            factors, now_live = _shrink_factors(norms, kept_thresholds)
            vals *= np.repeat(factors, layout.sizes)
            # bincount of nothing would be an integer array
            mx1 = (
                np.bincount(layout.stacked_coords, weights=vals, minlength=inst.d)
                if vals.size
                else np.zeros(inst.d)
            )
            # a group zero before and after has vals = t, so its norm is ||t_j||
            bound[kept] = np.where(now_live | live[kept], np.inf, norms)
            live[kept] = now_live
        g = (b - mx1 + rho * w) / consensus_scale
        w = w - dual_step * g
        primal = math.sqrt(cover @ (g * g))
        # only the trace and a stop test whose primal half passed read the
        # dual residual; the 0.0 placeholder reaches neither.  Either way x1
        # is written back before the recorder reads it.
        dual_res = 0.0
        if opts.trace_every or primal <= opts.tol_primal:
            if vals_prev is not None:  # a lazy step: rebuild the previous x1
                x1_prev = x1.copy()
                x1_prev[entries] = vals_prev
                write_back()
            dg = g - g_prev
            dx1 = x1 - x1_prev
            dual_sq = dx1 @ dx1 + 2.0 * ((mx1 - mx1_prev) @ dg) + cover @ (dg * dg)
            dual_res = rho * math.sqrt(max(dual_sq, 0.0))
        if not math.isfinite(primal + dual_res):
            _check_finite(primal + dual_res, k, "ADMM iterate")
        if callback is not None:
            write_back()
            callback(k, x1.copy(), x1 + op.adjoint_apply(g), op.adjoint_apply(rho * w))
        recorder.record(k, values)
        if primal <= opts.tol_primal and dual_res <= opts.tol_dual:
            status = "converged"
            break
    write_back()
    recorder.record(k, values, final=True)
    final = SolverState._sharing(x1, g, rho * w, op)
    return _result(inst, x1, status, k, recorder.trace, state=final, beta=mx1)


def prox_log_admm_unscaled(
    inst: ProxInstance,
    opts: Optional[SolveOptions] = None,
    callback: Optional[Callable] = None,
) -> ProxResult:
    """Dense reference for :func:`prox_log_admm_sharing` (tests only).

    The same two-block ADMM with the unscaled dual ``y += alpha (x1 - x2)``
    and the coupled block solved against a Cholesky factor of
    ``(M^T M + rho I)``, built from the stacked coordinates on every call
    (``M^T M`` is 1 where two stacked entries copy one coordinate).  Bounded
    by :data:`~dagprox.kernels.DENSE_CAP`; same stopping rule and callback
    as the sharing solver; no tracing and no warm start.  SciPy is imported
    here, not with the module, so that the library loads without it.
    """
    import scipy.linalg

    opts = opts or SolveOptions()
    alpha = opts.require_admm_steps()
    rho = opts.rho
    if inst.n > DENSE_CAP:
        raise CapExceeded(f"dense M^T M only for n <= {DENSE_CAP}, got n = {inst.n}")
    coords = inst.group_set.stacked_coords
    gram = np.equal.outer(coords, coords).astype(float)
    gram[np.diag_indices_from(gram)] += rho
    factor = scipy.linalg.cho_factor(gram, overwrite_a=True, check_finite=False)
    mtb = inst.b[coords]
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
) -> ProxResult:
    """Proximal gradient (ISTA) or its accelerated variant (FISTA).

    A gradient step on ``0.5 ||M x - b||^2`` followed by the exact
    separable group prox, with step ``1 / ||M||_2^2``
    (:func:`~dagprox.kernels.operator_norm_sq`).  The accelerated variant
    uses the standard momentum sequence with restarts disabled.  Stops on
    the unit-step proximal-gradient norm.

    The stopping test at ``x_k`` computes ``M^T(M x_k - b)``, which is
    exactly ISTA's next gradient, so ISTA costs one ``apply`` /
    ``adjoint_apply`` pair per iteration.  FISTA evaluates its gradient at
    the extrapolated point, which differs from ``x_k``, and so pays a second
    pair.
    """
    opts = opts or SolveOptions()
    step_size = 1.0 / operator_norm_sq(inst.operator)
    gs = inst.group_set
    op = inst.operator
    thresholds = step_size * inst.lam * gs.weights

    def ista(x, grad):
        return blockwise_soft_threshold(x - step_size * grad, thresholds, gs)

    point, t = np.zeros(inst.n), 1.0

    def fista(x, grad):
        nonlocal point, t
        grad = op.adjoint_apply(op.apply(point) - inst.b)
        x_new = blockwise_soft_threshold(point - step_size * grad, thresholds, gs)
        point, t = _extrapolate(x_new, x, t)
        return x_new

    return _descend(inst, opts, fista if accelerated else ista, "PGM iterate")


def _solve_rbcd(inst, opts=None):
    return prox_log_bcd(inst, opts, randomized=True)


def _solve_fista(inst, opts=None):
    return prox_log_pgm(inst, opts, accelerated=True)


SOLVER_NAMES = ("bcd", "rbcd", "sharing", "pgm", "fista")

_DISPATCH = {
    "bcd": prox_log_bcd,
    "rbcd": _solve_rbcd,
    "sharing": prox_log_admm_sharing,
    "pgm": prox_log_pgm,
    "fista": _solve_fista,
}


def solve_prox(inst: ProxInstance, method: str = "sharing", opts: Optional[SolveOptions] = None) -> ProxResult:
    """Dispatch a prox solve by solver name (one of ``SOLVER_NAMES``)."""
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise ValueError(
            f"unknown solver {method!r}; choose from {', '.join(SOLVER_NAMES)}"
        ) from None
    return fn(inst, opts)
