"""Optimality certificates, convergence traces, and empirical rate fits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, InsufficientData
from .kernels import ProxInstance, blockwise_soft_threshold, objective_and_residual

__all__ = [
    "TraceRecord",
    "ConvergenceTrace",
    "RateFit",
    "proxgrad_norm",
    "kkt_residual",
    "fit_linear_rate",
]

TRACE_HEADER = ["iter", "wall_s", "objective", "primal_res", "dual_res", "proxgrad_norm"]
_ROW_FORMAT = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"


class TraceRecord(NamedTuple):
    iter: int
    wall_s: float
    objective: float
    primal_res: float
    dual_res: float
    proxgrad_norm: float


class ConvergenceTrace:
    """Per-iteration record of objective, residuals, and optimality measure.

    Iterations increase strictly and every value is finite, so whatever
    :meth:`write_csv` writes, :meth:`read_csv` reads back; the constructor
    checks ``records`` as :meth:`append` does.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self.records: list[TraceRecord] = []
        self._columns: Optional[np.ndarray] = None
        for record in records:
            self.append(record)

    def append(self, record: TraceRecord) -> None:
        if self.records and record.iter <= self.records[-1].iter:
            raise ValueError("trace iterations must be strictly increasing")
        if not all(map(math.isfinite, record)):
            raise ValueError(f"non-finite trace record at iter {record.iter}")
        self.records.append(record)
        self._columns = None

    def _matrix(self) -> np.ndarray:
        if self._columns is None or len(self._columns) != len(self.records):
            self._columns = np.array(self.records, dtype=float)
        return self._columns

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def iters(self) -> np.ndarray:
        return self._matrix()[:, 0].astype(np.intp) if self.records else np.array([], dtype=np.intp)

    @property
    def objectives(self) -> np.ndarray:
        return self._matrix()[:, 2] if self.records else np.array([])

    def write_csv(self, path) -> None:
        """Write the trace as CSV with 17-significant-digit floats."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_HEADER) + "\n")
            # streamed row by row: one joined string would hold the whole file
            fh.writelines(_ROW_FORMAT % r for r in self.records)

    @classmethod
    def read_csv(cls, path) -> "ConvergenceTrace":
        trace = cls()
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != TRACE_HEADER:
                raise ValueError(f"{path}: unexpected trace header {header}")
            for row in reader:
                trace.append(TraceRecord(int(row[0]), *(float(v) for v in row[1:])))
        return trace


@dataclass(frozen=True)
class RateFit:
    """Least-squares line fit of ``ln(objective gap)`` against iteration."""

    log_rate: float
    r_squared: float
    tail_start: int


def proxgrad_norm(x: np.ndarray, inst: ProxInstance) -> float:
    """Norm of the unit-step proximal gradient map of the prox objective.

    ``||x - prox_h(x - M^T(M x - b))||_2`` where ``h`` is the separable
    group-norm term; zero exactly at minimizers.  With ``lam = 0`` this is
    the plain gradient norm ``||M^T(M x - b)||``.
    """
    x = np.asarray(x, dtype=float)
    residual = inst.operator.apply(x) - inst.b
    return _proxgrad_from_gradient(x, inst.operator.adjoint_apply(residual), inst)


def _proxgrad_from_gradient(x: np.ndarray, grad: np.ndarray, inst: ProxInstance) -> float:
    step_point = blockwise_soft_threshold(
        x - grad, inst.lam * inst.group_set.weights, inst.group_set
    )
    return float(np.linalg.norm(x - step_point))


def objective_and_proxgrad(x: np.ndarray, inst: ProxInstance) -> tuple[float, float]:
    """Objective and unit-step proximal-gradient norm with one operator pass."""
    obj, pg, _ = objective_proxgrad_and_gradient(x, inst)
    return obj, pg


def objective_proxgrad_and_gradient(
    x: np.ndarray, inst: ProxInstance
) -> tuple[float, float, np.ndarray]:
    """:func:`objective_and_proxgrad` plus the smooth gradient ``M^T(M x - b)`` it used.

    A proximal-gradient step from ``x`` needs exactly this gradient, so a
    solver that tests optimality at its next gradient point takes it from here.
    """
    obj, residual = objective_and_residual(x, inst)
    grad = inst.operator.adjoint_apply(residual)
    return obj, _proxgrad_from_gradient(x, grad, inst), grad


def kkt_residual(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, inst: ProxInstance, rho: float = 1.0
) -> tuple[float, float, float]:
    """Residuals of the two-block optimality system at ``(x1, x2, y)``.

    Returns ``(stationarity2, stationarity1, feasibility)``:

    * ``stationarity2 = ||M^T(M x2 - b) + rho (x2 - x1) - y||_2``, the
      smooth block's stationarity;
    * ``stationarity1``: per group, the distance of
      ``y_{j(g)} + rho (x1 - x2)_{j(g)}`` from the subdifferential of
      ``lam w_g ||.||_2`` at ``x1_{j(g)}`` (gradient residual on nonzero
      blocks, norm excess over the threshold on zero blocks), aggregated
      in l2 over groups;
    * ``feasibility = ||x1 - x2||_2``.

    Conic multipliers are eliminated analytically.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    n = inst.n
    if x1.shape != (n,) or x2.shape != (n,) or y.shape != (n,):
        raise DimensionMismatch("x1, x2, y must all have the stacked length")
    op = inst.operator
    gs = inst.group_set

    stat2 = float(np.linalg.norm(op.adjoint_apply(op.apply(x2) - inst.b) + rho * (x2 - x1) - y))

    dual_blocks = y + rho * (x1 - x2)
    per_group = np.zeros(gs.num_groups)
    for j, (lo, hi) in enumerate(gs.index_ranges):
        t = inst.lam * gs.weights[j]
        block = x1[lo:hi]
        dual = dual_blocks[lo:hi]
        norm_block = np.linalg.norm(block)
        if norm_block > 0:
            per_group[j] = np.linalg.norm(dual + t * block / norm_block)
        else:
            per_group[j] = max(0.0, np.linalg.norm(dual) - t)
    stat1 = float(np.linalg.norm(per_group))

    feas = float(np.linalg.norm(x1 - x2))
    return stat2, stat1, feas


def fit_linear_rate(
    trace: ConvergenceTrace,
    f_star: float,
    tail_fraction: float = 0.5,
    min_gap: float = 1e-14,
) -> RateFit:
    """Fit ``ln(f(x^k) - f_star)`` against ``k`` over the trailing records.

    Gaps are clamped at zero and records with gap ``<= min_gap`` dropped
    before selecting the trailing ``tail_fraction`` of what remains.  A
    zero-variance tail is a degenerate perfect fit (slope from the normal
    equations, ``r_squared = 1``).

    Raises :class:`InsufficientData` when fewer than 5 usable points remain.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    gaps = np.maximum(trace.objectives - f_star, 0.0)
    usable = gaps > min_gap
    ks = trace.iters[usable]
    logs = np.log(gaps[usable])
    m = len(ks)
    start = m - max(int(math.ceil(m * tail_fraction)), 0)
    ks, logs = ks[start:], logs[start:]
    if len(ks) < 5:
        raise InsufficientData(f"only {len(ks)} usable records, need at least 5")

    kf = ks.astype(float)
    slope, intercept = np.polyfit(kf, logs, 1)
    fitted = slope * kf + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    mean = float(logs.mean())
    ss_tot = float(np.sum((logs - mean) ** 2))
    # variance at rounding-noise level is a flat series: degenerate perfect fit
    noise_floor = len(logs) * (1e-13 * (1.0 + abs(mean))) ** 2
    r2 = 1.0 if ss_tot <= noise_floor else 1.0 - ss_res / ss_tot
    return RateFit(log_rate=float(slope), r_squared=float(r2), tail_start=int(ks[0]))
