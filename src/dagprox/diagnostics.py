"""Optimality certificates, convergence traces, and empirical rate fits."""

from __future__ import annotations

import csv
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InsufficientData
from .graph import _check_vector, _parse_file
from .kernels import ProxInstance, _check_lam, _segment_norms, blockwise_soft_threshold, objective_and_residual

__all__ = [
    "TraceRecord",
    "ConvergenceTrace",
    "RateFit",
    "proxgrad_norm",
    "kkt_residual",
    "fit_linear_rate",
]

#: default gap floor of :func:`fit_linear_rate` relative to ``max(1, |f_star|)``,
#: far above the rounding of ``f_star``
RATE_MIN_GAP_REL = 1e-13

_ROW_FORMAT = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"


class TraceRecord(NamedTuple):
    iter: int
    wall_s: float
    objective: float
    primal_res: float
    dual_res: float
    proxgrad_norm: float


TRACE_HEADER = list(TraceRecord._fields)


class ConvergenceTrace:
    """Per-iteration record of objective, residuals, and optimality measure.

    Iterations increase strictly and every value is finite, so whatever
    :meth:`write_csv` writes, :meth:`read_csv` reads back; the constructor
    checks ``records`` as :meth:`append` does, and :meth:`append` is the only
    way in.

    The trace is stored as typed columns, one per :class:`TraceRecord`
    field: iterations in an ``array('q')``, exact past ``2**53``, and the
    five floats in ``array('d')``s, 48 B per record.  :attr:`iters` and
    :attr:`objectives` copy a column out as a numpy array; :attr:`records`,
    iteration and indexing build :class:`TraceRecord` objects only when read.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self._columns = (array("q"),) + tuple(array("d") for _ in TraceRecord._fields[1:])
        for record in records:
            self.append(record)

    def append(self, record: TraceRecord) -> None:
        iters, walls, objectives, primals, duals, proxgrads = self._columns
        if iters and record.iter <= iters[-1]:
            raise ValueError("trace iterations must be strictly increasing")
        if not all(map(math.isfinite, record)):
            raise ValueError(f"non-finite trace record at iter {record.iter}")
        k, wall_s, objective, primal_res, dual_res, proxgrad_norm = record
        # one call per column: a loop over the columns costs about 0.3 us more a record
        iters.append(k)
        walls.append(wall_s)
        objectives.append(objective)
        primals.append(primal_res)
        duals.append(dual_res)
        proxgrads.append(proxgrad_norm)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord._make, zip(*self._columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(TraceRecord._make, zip(*(c[i] for c in self._columns))))
        return TraceRecord._make(c[i] for c in self._columns)

    @property
    def records(self) -> list[TraceRecord]:
        """Every record, built on each read."""
        return list(self)

    @property
    def last_iter(self) -> Optional[int]:
        """Iteration of the last record; ``None`` for an empty trace."""
        iters = self._columns[0]
        return iters[-1] if iters else None

    @property
    def iters(self) -> np.ndarray:
        return np.array(self._columns[0], dtype=np.intp)

    @property
    def objectives(self) -> np.ndarray:
        return np.array(self._columns[TraceRecord._fields.index("objective")], dtype=float)

    def write_csv(self, path) -> None:
        """Write the trace as CSV with 17-significant-digit floats."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_HEADER) + "\n")
            # streamed row by row: one joined string would hold the whole file
            fh.writelines(_ROW_FORMAT % row for row in zip(*self._columns))

    @classmethod
    def read_csv(cls, path) -> "ConvergenceTrace":
        """Read a :meth:`write_csv` file; every error names ``path`` and the line."""
        return _parse_file(path, cls._parse_csv)

    @classmethod
    def _parse_csv(cls, lines) -> "ConvergenceTrace":
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"line 1: expected the trace header, got {header or 'nothing'}")
        trace = cls()
        for row in reader:
            if len(row) != len(TRACE_HEADER):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(TRACE_HEADER)}")
            try:
                trace.append(TraceRecord(int(row[0]), *map(float, row[1:])))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        return trace


class TraceRecorder:
    """Keeps every ``every``-th iteration of a loop, plus its last, in :attr:`trace`.

    ``record(k, values, final=True)`` marks the last iterate, kept unless the
    stride kept it; ``every = 0`` keeps nothing.  A kept record gets ``wall_s``,
    the seconds since the recorder was made, and the values
    ``(objective, primal_res, dual_res, proxgrad_norm)`` that ``values()``
    returns; ``values`` is called for no other record.
    """

    __slots__ = ("every", "trace", "_t0")

    def __init__(self, every: int):
        self.every = every
        self.trace = ConvergenceTrace()
        self._t0 = time.perf_counter()

    def record(self, k: int, values: Callable[[], tuple], final: bool = False) -> None:
        # loops call with increasing k, so only a final call can repeat a record
        if not self.every or (self.trace.last_iter == k if final else k % self.every):
            return
        self.trace.append(TraceRecord(k, time.perf_counter() - self._t0, *values()))


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
    return objective_and_proxgrad(np.asarray(x, dtype=float), inst)[1]


def objective_and_proxgrad(x: np.ndarray, inst: ProxInstance) -> tuple[float, float, np.ndarray]:
    """Objective, :func:`proxgrad_norm` and the gradient ``M^T(M x - b)``, from one operator pass.

    A proximal-gradient step from ``x`` needs exactly this gradient, so a
    solver that tests optimality at its next gradient point takes it from here.
    """
    obj, residual = objective_and_residual(x, inst)
    grad = inst.operator.adjoint_apply(residual)
    gs = inst.group_set
    diff = x - blockwise_soft_threshold(x - grad, inst.lam * gs.weights, gs)
    return obj, math.sqrt(diff @ diff), grad  # the float np.linalg.norm returns


def kkt_residual(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, inst: ProxInstance, rho: float = 1.0
) -> tuple[float, float, float]:
    """Residuals of the two-block optimality system at ``(x1, x2, y)``.

    Returns ``(stationarity2, stationarity1, feasibility)``:

    * ``stationarity2 = ||M^T(M x2 - b) + rho (x2 - x1) - y||_2``, the
      smooth block's stationarity;
    * ``stationarity1``: per group, the distance of ``z = y + rho (x1 - x2)``
      from the subdifferential of ``lam w_g ||.||_2`` at ``x1_{j(g)}``, i.e.
      ``||z_g + lam w_g x1_g / ||x1_g|| ||`` on nonzero blocks and
      ``max(0, ||z_g|| - lam w_g)`` on zero blocks, in l2 over groups;
    * ``feasibility = ||x1 - x2||_2``.

    Conic multipliers are eliminated analytically; every per-group term is a
    segment operation over the stacked vectors, which must be finite.
    ``rho`` must be finite and ``>= 0``; ``rho = 0`` gives the split
    problem's plain KKT system.
    """
    _check_lam(rho, "rho")
    n = inst.n
    x1, x2, y = _check_vector(x1, n, "x1"), _check_vector(x2, n, "x2"), _check_vector(y, n, "y")
    op = inst.operator
    gs = inst.group_set

    stat2 = float(np.linalg.norm(op.adjoint_apply(op.apply(x2) - inst.b) + rho * (x2 - x1) - y))

    t = inst.lam * gs.weights
    block_norms = _segment_norms(x1, gs)
    nonzero = block_norms > 0
    # on a zero block the x1 term vanishes, so the residual is the dual block itself
    scale = np.divide(t, block_norms, out=np.zeros(gs.num_groups), where=nonzero)
    residual_norms = _segment_norms(y + rho * (x1 - x2) + np.repeat(scale, gs.sizes) * x1, gs)
    per_group = np.where(nonzero, residual_norms, np.maximum(residual_norms - t, 0.0))
    stat1 = float(np.linalg.norm(per_group))

    feas = float(np.linalg.norm(x1 - x2))
    return stat2, stat1, feas


def fit_linear_rate(
    trace: ConvergenceTrace,
    f_star: float,
    tail_fraction: float = 0.5,
    min_gap: Optional[float] = None,
) -> RateFit:
    """Fit ``ln(f(x^k) - f_star)`` against ``k`` over the trailing records.

    Gaps are clamped at zero and records with gap ``<= min_gap`` dropped
    before selecting the trailing ``tail_fraction`` of what remains.
    ``min_gap`` defaults to ``RATE_MIN_GAP_REL * max(1, |f_star|)``, so
    the fit never reaches the points that one ulp of ``f_star`` moves.  A
    zero-variance tail is a degenerate perfect fit (slope from the normal
    equations, ``r_squared = 1``).

    Raises :class:`InsufficientData` when fewer than 5 usable points remain.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if min_gap is None:
        min_gap = RATE_MIN_GAP_REL * max(1.0, abs(f_star))
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
