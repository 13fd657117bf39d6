"""Outer proximal-gradient learner for smooth-loss + LOG-penalty problems.

Solves ``min_beta L(beta) + lam * Omega(beta)`` where ``L`` is a smooth
loss with Lipschitz gradient and ``Omega`` the latent overlapping group
penalty.  Each outer step is ``beta <- prox_{s lam Omega}(beta - s grad)``
with ``s = 1 / L``; the prox is evaluated inexactly by the sharing ADMM
under a summable tolerance schedule, warm-started from the previous latent
decomposition.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, runtime_checkable

import numpy as np
from scipy.special import expit

from .diagnostics import ConvergenceTrace, TraceRecord
from .errors import DimensionMismatch, InnerSolverWarning, NonFiniteInput
from .graph import Dag, GroupSet, ancestor_groups, check_hierarchy_conformance
from .kernels import LatentPenaltyEvaluator, ProxInstance, SumOperator, penalty_value
from .solvers import SolveOptions, prox_log_admm_sharing

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

#: a coefficient counts toward the support, and the hierarchy check, when its
#: magnitude exceeds this
SUPPORT_THRESHOLD = 1e-8


@runtime_checkable
class SmoothLoss(Protocol):
    """Differentiable loss with a Lipschitz-continuous gradient."""

    def value(self, beta: np.ndarray) -> float: ...

    def gradient(self, beta: np.ndarray) -> np.ndarray: ...

    def lipschitz_hint(self) -> Optional[float]: ...


def _spectral_norm_sq(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2) ** 2)


class LeastSquaresLoss:
    """``0.5 ||A beta - y||_2^2``."""

    def __init__(self, design, response):
        self.design = np.asarray(design, dtype=float)
        self.response = np.asarray(response, dtype=float)
        if self.design.ndim != 2:
            raise DimensionMismatch("design must be a 2-d matrix")
        if self.response.shape != (self.design.shape[0],):
            raise DimensionMismatch(
                f"response length {self.response.shape} does not match "
                f"{self.design.shape[0]} design rows"
            )
        if not (np.all(np.isfinite(self.design)) and np.all(np.isfinite(self.response))):
            raise NonFiniteInput("design/response contain non-finite entries")
        self._lipschitz: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def value(self, beta) -> float:
        r = self.design @ beta - self.response
        return 0.5 * float(r @ r)

    def gradient(self, beta) -> np.ndarray:
        return self.design.T @ (self.design @ beta - self.response)

    def lipschitz_hint(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = _spectral_norm_sq(self.design)
        return self._lipschitz


class LogisticLoss:
    """``sum_i log(1 + exp(-y_i a_i^T beta))`` with labels in {-1, +1}.

    Uses ``logaddexp`` so large margins neither overflow nor lose the
    ``log1p`` tail.
    """

    def __init__(self, design, labels):
        self.design = np.asarray(design, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.design.ndim != 2:
            raise DimensionMismatch("design must be a 2-d matrix")
        if self.labels.shape != (self.design.shape[0],):
            raise DimensionMismatch(
                f"labels length {self.labels.shape} does not match "
                f"{self.design.shape[0]} design rows"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")
        if not np.all(np.isfinite(self.design)):
            raise NonFiniteInput("design contains non-finite entries")
        self._lipschitz: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def _margins(self, beta) -> np.ndarray:
        return self.labels * (self.design @ beta)

    def value(self, beta) -> float:
        return float(np.logaddexp(0.0, -self._margins(beta)).sum())

    def gradient(self, beta) -> np.ndarray:
        sig = expit(-self._margins(beta))
        return -self.design.T @ (self.labels * sig)

    def lipschitz_hint(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = 0.25 * _spectral_norm_sq(self.design)
        return self._lipschitz


@dataclass
class OuterOptions:
    """Outer-loop controls for :func:`fit`.

    The inner prox tolerance at outer iteration ``k`` is
    ``max(inner_tol_floor, inner_tol_coeff / k**2)`` (a summable error
    schedule), applied to the inner solver's primal and dual tolerances.
    """

    max_iter: int = 500
    tol: float = 1e-6
    trace_every: int = 1
    inner_tol_coeff: float = 1e-3
    inner_tol_floor: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        for name in ("tol", "inner_tol_coeff", "inner_tol_floor"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.trace_every < 0:
            raise ValueError("trace_every must be nonnegative")


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


def lambda_max(loss: SmoothLoss, dag_or_groups) -> float:
    """Smallest penalty level at which ``beta = 0`` is stationary.

    ``max_g ||grad L(0)_g||_2 / w_g``: above this level every group's
    zero certificate holds and a fit returns ``beta = 0``.
    """
    group_set, _ = _resolve_groups(dag_or_groups)
    g0 = np.asarray(loss.gradient(np.zeros(group_set.d)), dtype=float)
    if not np.all(np.isfinite(g0)):
        raise NonFiniteInput("gradient at zero is non-finite")
    return float(
        max(
            np.linalg.norm(g0[g]) / w
            for g, w in zip(group_set.groups, group_set.weights)
        )
    )


def fit(
    loss: SmoothLoss,
    dag_or_groups,
    lam: float,
    outer: Optional[OuterOptions] = None,
    inner: Optional[SolveOptions] = None,
    accelerated: bool = False,
    step: Optional[float] = None,
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
    outer, inner : options
        Outer-loop controls and inner sharing-ADMM options.
    accelerated : bool
        Use momentum extrapolation on the outer sequence.
    step : float, optional
        Outer step size; defaults to ``1 / lipschitz``.

    Notes
    -----
    The outer stopping rule is the gradient-mapping norm
    ``||beta - prox(beta - s grad)|| / s <= outer.tol``.  Each trace point
    is ``L(beta) + lam * sum_g w_g ||x_g||`` on the inner solve's latent
    ``x``, an exact decomposition of ``beta`` (``M x = beta``) that is
    optimal for its own ``beta`` up to the inner tolerance.  Trace points
    are therefore upper bounds on ``L(beta) + lam * Omega(beta)``, tight to
    the inner tolerance schedule; early points may exceed it by up to
    about ``tol_k``.  ``FitResult.objective`` is certified by one
    high-accuracy :class:`LatentPenaltyEvaluator` solve on the final
    ``beta``, warm-started from its latent.  An inner solve that exhausts
    its iteration budget raises :class:`InnerSolverWarning` and the outer
    loop continues with the inexact prox.  ``FitResult.support`` and
    ``FitResult.hierarchy`` count a coefficient as nonzero when its
    magnitude exceeds :data:`SUPPORT_THRESHOLD` (1e-8).
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    outer = outer or OuterOptions()
    inner = inner or SolveOptions(max_iter=20_000)
    group_set, dag = _resolve_groups(dag_or_groups)
    op = SumOperator(group_set)
    d = group_set.d

    loss_dim = getattr(loss, "dim", None)
    if loss_dim is not None and loss_dim != d:
        raise DimensionMismatch(
            f"loss is over {loss_dim} variables but the group system covers d={d}"
        )
    try:
        probe = np.asarray(loss.gradient(np.zeros(d)), dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"loss gradient rejected a length-{d} point: {exc}") from exc
    if probe.shape != (d,):
        raise DimensionMismatch(
            f"loss gradient has shape {probe.shape}, expected ({d},)"
        )
    lipschitz = loss.lipschitz_hint()
    if step is None:
        if lipschitz is None or lipschitz <= 0:
            raise ValueError("loss gives no Lipschitz hint; pass an explicit step")
        step = 1.0 / lipschitz

    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    beta = np.zeros(d)
    point = beta.copy()
    t_momentum = 1.0
    inner_state = None
    inner_total = 0
    status = "max_iter"
    k = 0

    def record(k, beta, latent, measure):
        trace.append(
            TraceRecord(
                iter=k,
                wall_s=time.perf_counter() - t0,
                objective=loss.value(beta) + penalty_value(latent, group_set, lam),
                primal_res=0.0,
                dual_res=0.0,
                proxgrad_norm=measure,
            )
        )

    for k in range(1, outer.max_iter + 1):
        grad = np.asarray(loss.gradient(point), dtype=float)
        target = point - step * grad

        tol_k = max(outer.inner_tol_floor, outer.inner_tol_coeff / k**2)
        inner_opts = replace(inner, tol_primal=tol_k, tol_dual=tol_k, trace_every=0)
        prox_inst = ProxInstance(
            b=target, lam=step * lam, group_set=group_set, operator=op
        )
        res = prox_log_admm_sharing(prox_inst, inner_opts, state=inner_state)
        inner_total += res.iterations
        inner_state = res.state
        if not res.converged and tol_k <= outer.inner_tol_floor:
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
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            point = beta_new + ((t_momentum - 1.0) / t_next) * (beta_new - beta)
            t_momentum = t_next
        else:
            point = beta_new
        beta = beta_new
        if outer.trace_every and k % outer.trace_every == 0:
            record(k, beta, res.x, measure)
        if measure <= outer.tol:
            status = "converged"
            break

    if outer.trace_every and (not trace.records or trace.records[-1].iter != k):
        record(k, beta, res.x, measure)

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
        outer_trace=trace,
        support=support,
        lam=float(lam),
        hierarchy=hierarchy,
    )


# ---------------------------------------------------------------------------
# data and model files


def load_design_matrix(path) -> np.ndarray:
    """Headerless CSV, one sample per row."""
    a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return a


def load_response(path, logistic: bool = False) -> np.ndarray:
    """One-column response file; logistic labels must be -1/+1."""
    y = np.loadtxt(path, delimiter=",", dtype=float).reshape(-1)
    if logistic and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError(f"{path}: logistic labels must be -1 or +1")
    return y


def save_model(path, beta, lam, loss_type, group_set: GroupSet) -> None:
    """Plain-text model file: commented header plus beta as a CSV column."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d: {len(beta)}\n")
        fh.write(f"# lambda: {lam:.17g}\n")
        fh.write(f"# loss: {loss_type}\n")
        fh.write(f"# groups_sha256: {group_set.content_hash()}\n")
        for v in beta:
            fh.write(f"{v:.17g}\n")


def load_model(path) -> dict:
    header: dict[str, str] = {}
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            else:
                values.append(float(line))
    beta = np.array(values)
    if "d" in header and int(header["d"]) != beta.size:
        raise ValueError(f"{path}: header d={header['d']} but {beta.size} values")
    return {
        "beta": beta,
        "lam": float(header.get("lambda", "nan")),
        "loss": header.get("loss", ""),
        "groups_sha256": header.get("groups_sha256", ""),
    }
