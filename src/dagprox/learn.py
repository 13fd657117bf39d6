"""Outer proximal-gradient learner for smooth-loss + LOG-penalty problems.

Solves ``min_beta L(beta) + lam * Omega(beta)`` where ``L`` is a smooth
loss with Lipschitz gradient and ``Omega`` the latent overlapping group
penalty.  Each outer step is ``beta <- prox_{s lam Omega}(beta - s grad)``
with ``s = 1 / L``; the prox is evaluated by the sharing ADMM under a
summable tolerance schedule.  When the groups are nested (a chain's
ancestor groups), each solve is warm-started from the exact
prox of :func:`~dagprox.kernels.nested_prox`, a fixed point of the ADMM
that its stopping test certifies in one iteration.  Otherwise it is
warm-started from the previous step's latent decomposition and dual.  The
accelerated variant restarts its momentum when it points against the
gradient mapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .diagnostics import ConvergenceTrace, TraceRecorder
from .errors import DimensionMismatch, InnerSolverWarning, NonFiniteInput
from .graph import (
    SUPPORT_THRESHOLD, Dag, GroupSet, _check_vector, _parse_file, ancestor_groups, check_hierarchy_conformance
)
from .kernels import (
    LatentPenaltyEvaluator,
    ProxInstance,
    SumOperator,
    _check_lam,
    _segment_norms,
    nested_prox,
    penalty_value,
)
from .solvers import SolveOptions, SolverState, _check_loop_options, _extrapolate, prox_log_admm_sharing

__all__ = [
    "SmoothLoss",
    "LeastSquaresLoss",
    "LogisticLoss",
    "OuterOptions",
    "FitResult",
    "fit",
    "lambda_max",
    "load_design_matrix",
    "load_response",
    "save_model",
    "load_model",
]

#: iteration budget of each inner sharing-ADMM solve (rho = 1, alpha = rho / 2)
INNER_MAX_ITER = 20_000

#: the summable schedule of inner tolerances, ``max(INNER_TOL_FLOOR, INNER_TOL_COEFF / k**2)``
INNER_TOL_COEFF = 1e-3
INNER_TOL_FLOOR = 1e-10


@runtime_checkable
class SmoothLoss(Protocol):
    """Differentiable loss with a Lipschitz-continuous gradient."""

    def value(self, beta: np.ndarray) -> float: ...

    def gradient(self, beta: np.ndarray) -> np.ndarray: ...

    def lipschitz_hint(self) -> Optional[float]: ...


class _DesignLoss:
    """A loss on a finite 2-d design and a finite target, one entry per row;
    ``lipschitz_hint`` is ``_curvature * ||design||_2^2``, computed once."""

    _curvature = 1.0

    def _set_data(self, design, target, name: str) -> np.ndarray:
        """Check and keep the design; return the target as a float array."""
        self.design = np.asarray(design, dtype=float)
        if self.design.ndim != 2:
            raise DimensionMismatch("design must be a 2-d matrix")
        target = _check_vector(target, self.design.shape[0], name)
        if not np.all(np.isfinite(self.design)):
            raise NonFiniteInput("design contains non-finite entries")
        self._lipschitz: Optional[float] = None
        return target

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def lipschitz_hint(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = self._curvature * float(np.linalg.norm(self.design, 2) ** 2)
        return self._lipschitz


class LeastSquaresLoss(_DesignLoss):
    """``0.5 ||A beta - y||_2^2``."""

    def __init__(self, design, response):
        self.response = self._set_data(design, response, "response")

    def value(self, beta) -> float:
        r = self.design @ beta - self.response
        return 0.5 * float(r @ r)

    def gradient(self, beta) -> np.ndarray:
        return self.design.T @ (self.design @ beta - self.response)


class LogisticLoss(_DesignLoss):
    """``sum_i log(1 + exp(-y_i a_i^T beta))`` with labels in {-1, +1}.

    Uses ``logaddexp`` so large margins neither overflow nor lose the
    ``log1p`` tail.
    """

    _curvature = 0.25

    def __init__(self, design, labels):
        self.labels = self._set_data(design, labels, "labels")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")

    def _margins(self, beta) -> np.ndarray:
        return self.labels * (self.design @ beta)

    def value(self, beta) -> float:
        return float(np.logaddexp(0.0, -self._margins(beta)).sum())

    def gradient(self, beta) -> np.ndarray:
        # SciPy loads on the first gradient, not with the module.  numpy's
        # 1 / (1 + exp(-z)) differs from expit in the last bit and overflows
        from scipy.special import expit

        sig = expit(-self._margins(beta))
        return -self.design.T @ (self.labels * sig)


@dataclass
class OuterOptions:
    """Outer-loop controls for :func:`fit`; its inner tolerance schedule is fixed."""

    max_iter: int = 500
    tol: float = 1e-6
    trace_every: int = 1

    def __post_init__(self):
        _check_loop_options(self, ("tol",))


@dataclass
class FitResult:
    beta: np.ndarray
    objective: float
    status: str
    outer_iterations: int
    inner_iters: int
    outer_trace: ConvergenceTrace
    support: np.ndarray
    lam: float
    hierarchy: object = field(default=None)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _resolve_groups(dag_or_groups) -> tuple[GroupSet, Optional[Dag]]:
    if isinstance(dag_or_groups, Dag):
        return ancestor_groups(dag_or_groups), dag_or_groups
    if isinstance(dag_or_groups, GroupSet):
        return dag_or_groups, None
    raise TypeError("expected a Dag or a GroupSet")


def _gradient_at_zero(loss: SmoothLoss, d: int) -> np.ndarray:
    """``grad L(0)``, checked: :class:`DimensionMismatch` unless the loss is over ``d``
    variables and its gradient has shape ``(d,)``; :class:`NonFiniteInput` unless finite."""
    loss_dim = getattr(loss, "dim", None)
    if loss_dim is not None and loss_dim != d:
        raise DimensionMismatch(f"loss is over {loss_dim} variables but the group system covers d={d}")
    try:
        g0 = loss.gradient(np.zeros(d))
    except ValueError as exc:
        raise DimensionMismatch(f"loss gradient rejected a length-{d} point: {exc}") from exc
    return _check_vector(g0, d, "loss gradient at zero")


def lambda_max(loss: SmoothLoss, dag_or_groups) -> float:
    """Smallest penalty level at which ``beta = 0`` is stationary.

    ``max_g ||grad L(0)_g||_2 / w_g``, the group norms of the stacked copy of
    the gradient, which is checked as :func:`fit` checks it: above this level
    every group's zero certificate holds and a fit returns ``beta = 0``.
    """
    gs, _ = _resolve_groups(dag_or_groups)
    g0 = _gradient_at_zero(loss, gs.d)
    return float(np.max(_segment_norms(g0[gs.stacked_coords], gs) / gs.weights))


def fit(
    loss: SmoothLoss,
    dag_or_groups,
    lam: float,
    outer: Optional[OuterOptions] = None,
    accelerated: bool = False,
) -> FitResult:
    """Proximal-gradient fit of a smooth loss with the LOG penalty.

    Parameters
    ----------
    loss : SmoothLoss
        Loss object exposing ``value``, ``gradient`` and ``lipschitz_hint``.
    dag_or_groups : Dag or GroupSet
        Hierarchy (ancestor groups are built) or an explicit group system.
    lam : float
        Penalty level, >= 0.
    outer : OuterOptions, optional
        Outer-loop controls.
    accelerated : bool
        Use momentum extrapolation on the outer sequence, with a gradient
        restart (O'Donoghue & Candes 2015).

    Notes
    -----
    The outer step is ``s = 1 / L`` with ``L`` the loss's Lipschitz hint; a
    loss without a finite positive hint raises ``ValueError``.  Each inner solve
    is the sharing ADMM with ``rho = 1``, ``alpha = 1/2``, at most
    :data:`INNER_MAX_ITER` iterations and primal and dual tolerance
    ``tol_k = max(INNER_TOL_FLOOR, INNER_TOL_COEFF / k**2)`` at step ``k``.
    The outer stopping rule is the gradient-mapping norm
    ``||beta - prox(beta - s grad)|| / s <= outer.tol``, the ``proxgrad_norm``
    of ``FitResult.outer_trace``, whose :class:`~dagprox.diagnostics.TraceRecorder`
    keeps every ``outer.trace_every``-th step and the last.  Each trace point
    is ``L(beta) + lam * sum_g w_g ||x_g||`` on the inner solve's latent
    ``x``, an exact decomposition of ``beta`` (``M x = beta``) that is
    optimal for its own ``beta`` up to the inner tolerance.  Trace points
    are therefore upper bounds on ``L(beta) + lam * Omega(beta)``, tight to
    the inner tolerance schedule; early points may exceed it by up to
    about ``tol_k``.  On nested groups each inner solve starts from the
    exact prox (:func:`~dagprox.kernels.nested_prox`) and stops after one
    iteration unless rounding exceeds ``tol_k``, so ``FitResult.inner_iters``
    counts one sharing iteration per outer step and the trace points are
    exact.  ``FitResult.objective`` takes ``Omega`` from
    :class:`LatentPenaltyEvaluator` on the final ``beta``: exact on nested
    groups, otherwise the penalty of a feasible decomposition within
    ``PENALTY_TOL`` (relative) of a dual lower bound, started from the
    inner latent.  An inner solve that exhausts
    its iteration budget raises :class:`InnerSolverWarning` and the outer
    loop continues with the inexact prox.  ``FitResult.support`` and
    ``FitResult.hierarchy`` count a coefficient as nonzero when its
    magnitude exceeds :data:`~dagprox.graph.SUPPORT_THRESHOLD`.
    """
    _check_lam(lam)
    outer = outer or OuterOptions()
    group_set, dag = _resolve_groups(dag_or_groups)
    op = SumOperator(group_set)
    d = group_set.d

    probe = _gradient_at_zero(loss, d)
    lipschitz = loss.lipschitz_hint()
    if lipschitz is None or not 0 < lipschitz < math.inf:
        raise ValueError(f"loss gives no finite positive Lipschitz hint, got {lipschitz}")
    step = 1.0 / lipschitz

    # the exact prox of nested groups is a fixed point of the sharing iteration
    nested = group_set.nested_order is not None
    recorder = TraceRecorder(outer.trace_every)

    beta = np.zeros(d)
    point = beta.copy()
    t_momentum = 1.0
    inner_state = None
    inner_total = 0
    status = "max_iter"
    k = 0

    def values():
        return loss.value(beta) + penalty_value(res.x, group_set, lam), 0.0, 0.0, measure

    for k in range(1, outer.max_iter + 1):
        # the first point is 0, where the probe took the gradient
        grad = probe if k == 1 else np.asarray(loss.gradient(point), dtype=float)
        target = point - step * grad

        tol_k = max(INNER_TOL_FLOOR, INNER_TOL_COEFF / k**2)
        inner_opts = SolveOptions(max_iter=INNER_MAX_ITER, tol_primal=tol_k, tol_dual=tol_k)
        prox_inst = ProxInstance(b=target, lam=step * lam, group_set=group_set, operator=op)
        if nested:
            theta, _, x = nested_prox(prox_inst)
            inner_state = SolverState(x1=x, x2=x, y=-op.adjoint_apply(theta))
        res = prox_log_admm_sharing(prox_inst, inner_opts, state=inner_state)
        inner_total += res.iterations
        inner_state = res.state
        if not res.converged and tol_k <= INNER_TOL_FLOOR:
            warnings.warn(
                f"inner prox hit max_iter={inner_opts.max_iter} at floor tolerance "
                f"(outer iteration {k})",
                InnerSolverWarning,
            )
        beta_new = res.beta

        # gradient-mapping norm ||point - prox(point - s grad)|| / s at the
        # extrapolation point; zero exactly at minimizers
        measure = float(np.linalg.norm(point - beta_new) / step)
        if accelerated:
            # gradient restart (O'Donoghue & Candes 2015): drop the momentum
            # once it points against the gradient mapping
            if np.dot(point - beta_new, beta_new - beta) > 0:
                t_momentum = 1.0
            point, t_momentum = _extrapolate(beta_new, beta, t_momentum)
        else:
            point = beta_new
        beta = beta_new
        recorder.record(k, values)
        if measure <= outer.tol:
            status = "converged"
            break
    recorder.record(k, values, final=True)

    support = np.flatnonzero(np.abs(beta) > SUPPORT_THRESHOLD)
    hierarchy = (
        check_hierarchy_conformance(dag, beta, SUPPORT_THRESHOLD, "strong")
        if dag is not None
        else None
    )
    penalty = LatentPenaltyEvaluator(group_set).value(beta, lam, latent_hint=res.x)
    return FitResult(
        beta=beta,
        objective=loss.value(beta) + penalty,
        status=status,
        outer_iterations=k,
        inner_iters=inner_total,
        outer_trace=recorder.trace,
        support=support,
        lam=float(lam),
        hierarchy=hierarchy,
    )


# ---------------------------------------------------------------------------
# data and model files


def load_design_matrix(path) -> np.ndarray:
    """Headerless CSV, one sample per row; every error names ``path``.

    A file with no data line, empty or only comments, is a ``ValueError``.
    """
    return _parse_file(path, _load_csv)


def _load_csv(lines) -> np.ndarray:
    """``np.loadtxt`` of ``lines``, once some line holds more than a comment."""
    lines = iter(lines)
    head = []
    for line in lines:
        head.append(line)
        if line.split("#", 1)[0].rstrip("\r\n"):  # a line np.loadtxt does not skip
            return np.loadtxt(chain(head, lines), delimiter=",", ndmin=2)
    raise ValueError("no data")


def load_response(path) -> np.ndarray:
    """One-column response file; every error names ``path``.  The loss checks the values."""
    y = load_design_matrix(path)
    if y.shape[1] != 1:
        raise ValueError(f"{path}: response has {y.shape[1]} columns, expected 1")
    return y[:, 0]


def save_model(path, beta, lam, loss_type, group_set: GroupSet) -> None:
    """Plain-text model file: commented header plus beta as a CSV column.

    ``beta`` must be finite with one entry per coordinate of ``group_set``
    and ``loss_type`` one line, since :func:`load_model` reads the header
    line by line; a rejected call writes nothing.
    """
    _check_lam(lam)
    beta = _check_vector(beta, group_set.d, "beta")
    loss_type = str(loss_type)
    if "\n" in loss_type or "\r" in loss_type:
        raise ValueError(f"loss_type must be one line, got {loss_type!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d: {len(beta)}\n")
        fh.write(f"# lambda: {lam:.17g}\n")
        fh.write(f"# loss: {loss_type}\n")
        fh.write(f"# groups_sha256: {group_set.content_hash()}\n")
        for v in beta:
            fh.write(f"{v:.17g}\n")


def load_model(path) -> dict:
    """Read a :func:`save_model` file; every error names ``path``.

    A file with no value lines or no ``# lambda:`` header is a
    ``ValueError``; β and λ are checked as :func:`save_model` checks them.
    """
    return _parse_file(path, _parse_model)


def _parse_model(lines) -> dict:
    header: dict[str, str] = {}
    values: list[float] = []
    for num, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            header[key.strip()] = val.strip()
        else:
            try:
                values.append(float(line))
            except ValueError as exc:
                raise ValueError(f"line {num}: {exc}") from None
    if not values:
        raise ValueError("no data")
    beta = _check_vector(values, len(values), "beta")
    if "d" in header and int(header["d"]) != beta.size:
        raise ValueError(f"header d={header['d']} but {beta.size} values")
    if "lambda" not in header:
        raise ValueError("missing '# lambda:' header line")
    lam = float(header["lambda"])
    _check_lam(lam, "lambda")
    return {
        "beta": beta,
        "lam": lam,
        "loss": header.get("loss", ""),
        "groups_sha256": header.get("groups_sha256", ""),
    }
