"""Benchmark topologies and the replication study driver.

Four graph families are provided: a two-layer tree (one root, all other
nodes its children), a complete binary tree, one root feeding two equal
paths, and a seeded random DAG (edge coin-flips on a fixed topological
order).  A benchmark run samples the prox input from a seeded standard
normal, once per replication, and feeds the *same* input to every
requested solver so runs are exactly comparable and reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import fit_linear_rate
from .errors import InsufficientData
from .graph import Dag, GroupSet, _check_int, ancestor_groups, validate_dag
from .kernels import ProxInstance, SumOperator, _check_lam
from .solvers import SOLVER_NAMES, ProxResult, SolveOptions, solve_prox

__all__ = [
    "two_layer",
    "binary_tree",
    "root_two_paths",
    "random_dag",
    "make_topology",
    "BenchmarkSpec",
    "InstanceRun",
    "BenchmarkRun",
    "reference_solution",
    "run_benchmark",
    "iterations_to_gap",
    "summary_rows",
    "write_summary_csv",
    "EPSILONS",
]

#: objective-gap thresholds tabulated in benchmark summaries
EPSILONS = tuple(10.0 ** (-e) for e in range(2, 9))


def two_layer(d: int) -> Dag:
    """One root with ``d - 1`` children."""
    if _check_int(d, "d") < 2:
        raise ValueError("two_layer needs d >= 2")
    return validate_dag(d, [(0, i) for i in range(1, d)])


def binary_tree(depth: int) -> Dag:
    """Complete binary tree with ``depth`` levels (``2**depth - 1`` nodes)."""
    if _check_int(depth, "depth") < 1:
        raise ValueError("binary_tree needs depth >= 1")
    n = 2**depth - 1
    edges = [((c - 1) // 2, c) for c in range(1, n)]
    return validate_dag(n, edges)


def root_two_paths(d: int) -> Dag:
    """A root feeding two chains of ``(d - 1) / 2`` nodes each."""
    if _check_int(d, "d") < 3 or d % 2 == 0:
        raise ValueError("root_two_paths needs odd d >= 3")
    k = (d - 1) // 2
    edges = [(0, 1), (0, k + 1)]
    edges += [(i, i + 1) for i in range(1, k)]
    edges += [(i, i + 1) for i in range(k + 1, 2 * k)]
    return validate_dag(d, edges)


def random_dag(num_nodes: int, edge_prob: float = 0.3, seed: int = 0) -> Dag:
    """Seeded Erdos-Renyi DAG: coin-flip edges respecting the index order."""
    if _check_int(num_nodes, "num_nodes") < 1:
        raise ValueError("random_dag needs num_nodes >= 1")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = [
        (i, j)
        for i in range(num_nodes)
        for j in range(i + 1, num_nodes)
        if rng.random() < edge_prob
    ]
    return validate_dag(num_nodes, edges)


def make_topology(
    name: str,
    nodes: Optional[int] = None,
    depth: Optional[int] = None,
    edge_prob: float = 0.3,
    seed: int = 0,
) -> Dag:
    """Build a named benchmark topology with its conventional default size.

    ``binary_tree`` is sized by ``depth``, every other topology by
    ``nodes``; the size the topology does not take must stay ``None``.
    """
    if name == "binary_tree":
        if nodes is not None:
            raise ValueError("binary_tree takes depth, not nodes")
        return binary_tree(7 if depth is None else depth)
    if name not in ("two_layer", "root_two_paths", "random_dag"):
        raise ValueError(f"unknown topology {name!r}")
    if depth is not None:
        raise ValueError(f"{name} takes nodes, not depth")
    if name == "two_layer":
        return two_layer(101 if nodes is None else nodes)
    if name == "root_two_paths":
        return root_two_paths(101 if nodes is None else nodes)
    return random_dag(8 if nodes is None else nodes, edge_prob, seed)


@dataclass
class BenchmarkSpec:
    """A replication study on one topology.

    Construction rejects an empty solver list, a solver listed twice,
    unknown solver names, ``reps < 1``, a non-finite or negative ``lam``
    and, when ``sharing`` is among the solvers, ADMM steps outside
    ``0 < alpha < rho``.  Topology parameters are checked when
    :meth:`build_dag` runs, which :func:`run_benchmark` does before it
    writes anything.
    """

    topology: str
    nodes: Optional[int] = None
    depth: Optional[int] = None
    edge_prob: float = 0.3
    seed: int = 0
    reps: int = 10
    lam: float = 0.5
    solvers: tuple[str, ...] = SOLVER_NAMES
    options: SolveOptions = field(default_factory=lambda: SolveOptions(trace_every=1))

    def __post_init__(self):
        if not self.solvers or len(set(self.solvers)) < len(self.solvers):
            raise ValueError(
                f"solvers must list at least one solver, each once, got {list(self.solvers)}"
            )
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise ValueError(
                f"unknown solver(s) {', '.join(unknown)} (choose from {', '.join(SOLVER_NAMES)})"
            )
        if _check_int(self.reps, "reps") < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        _check_lam(self.lam)
        if "sharing" in self.solvers:
            self.options.require_admm_steps()

    def build_dag(self) -> Dag:
        return make_topology(self.topology, self.nodes, self.depth, self.edge_prob, self.seed)


@dataclass
class InstanceRun:
    """All solver outputs for one replication (one sampled input)."""

    rep: int
    b: np.ndarray
    f_star: float
    results: dict[str, ProxResult]
    reference: Optional[ProxResult] = None


@dataclass
class BenchmarkRun:
    spec: BenchmarkSpec
    dag: Dag
    group_set: GroupSet
    instances: list[InstanceRun]


def reference_solution(inst: ProxInstance, tol: float = 1e-12, max_iter: int = 500_000) -> ProxResult:
    """High-accuracy reference objective for gap curves and rate fits.

    Runs the sharing solver at ``tol``, at O(n) per iteration.
    """
    opts = SolveOptions(
        tol_primal=tol, tol_dual=tol, tol_opt=tol, max_iter=max_iter, trace_every=0
    )
    return solve_prox(inst, "sharing", opts)


def sample_input(d: int, seed: int, rep: int) -> np.ndarray:
    """The replication's prox input: a named-stream standard normal draw."""
    return np.random.default_rng([seed, rep]).standard_normal(d)


def run_benchmark(spec: BenchmarkSpec, out_dir=None) -> BenchmarkRun:
    """Run every requested solver on every replication of a benchmark spec.

    When ``out_dir`` is given, one trace CSV per (solver, replication) is
    written there.  Each replication draws one input vector and runs all
    solvers on it; the reference objective ``f_star`` comes from a
    1e-12-tolerance run.
    """
    dag = spec.build_dag()
    group_set = ancestor_groups(dag)
    op = SumOperator(group_set)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    instances: list[InstanceRun] = []
    for rep in range(spec.reps):
        b = sample_input(dag.d, spec.seed, rep)
        inst = ProxInstance(b=b, lam=spec.lam, group_set=group_set, operator=op)
        reference = reference_solution(inst)
        results: dict[str, ProxResult] = {}
        for name in spec.solvers:
            res = solve_prox(inst, name, spec.options)
            results[name] = res
            if out_dir is not None and len(res.trace):
                res.trace.write_csv(out_dir / f"trace_{spec.topology}_{name}_rep{rep}.csv")
        instances.append(
            InstanceRun(
                rep=rep, b=b, f_star=reference.objective,
                results=results, reference=reference,
            )
        )
    return BenchmarkRun(spec=spec, dag=dag, group_set=group_set, instances=instances)


def iterations_to_gap(result: ProxResult, f_star: float, eps: float) -> Optional[int]:
    """First traced iteration whose objective gap is at most ``eps``."""
    hits = _first_iterations_to_gaps(
        result.trace.iters, result.trace.objectives, f_star, [eps]
    )
    return hits[0]


def _first_iterations_to_gaps(iters, objectives, f_star, epsilons) -> list[Optional[int]]:
    reached = objectives - f_star
    out: list[Optional[int]] = []
    for eps in epsilons:
        mask = reached <= eps
        if mask.any():
            out.append(int(iters[int(np.argmax(mask))]))
        else:
            out.append(None)
    return out


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "nan"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def summary_rows(run: BenchmarkRun) -> list[dict]:
    """Per-solver summary: mean iterations to each gap level, rate fit, recovery.

    ``iters_to_*`` entries average over the replications that reached the
    level.  ``beta_minus_b_inf`` is the worst-case ``||beta - b||_inf``
    across replications (the recovery check for lam = 0 runs).
    """
    rows = []
    for name in run.spec.solvers:
        row: dict[str, object] = {
            "topology": run.spec.topology,
            "solver": name,
            "d": run.dag.d,
            "n": run.group_set.n,
            "reps": run.spec.reps,
            "lambda": run.spec.lam,
        }
        finals = [inst.results[name].objective for inst in run.instances]
        row["final_objective_mean"] = float(np.mean(finals))
        per_eps: dict[float, list[int]] = {eps: [] for eps in EPSILONS}
        for inst in run.instances:
            trace = inst.results[name].trace
            hits = _first_iterations_to_gaps(
                trace.iters, trace.objectives, inst.f_star, EPSILONS
            )
            for eps, hit in zip(EPSILONS, hits):
                if hit is not None:
                    per_eps[eps].append(hit)
        for eps in EPSILONS:
            reached = per_eps[eps]
            row[f"iters_to_{eps:.0e}"] = (
                float(np.mean(reached)) if reached else float("nan")
            )
        rates, r2s = [], []
        for inst in run.instances:
            try:
                rf = fit_linear_rate(inst.results[name].trace, inst.f_star)
            except InsufficientData:
                continue
            rates.append(rf.log_rate)
            r2s.append(rf.r_squared)
        row["rate"] = float(np.mean(rates)) if rates else float("nan")
        row["r_squared"] = float(np.mean(r2s)) if r2s else float("nan")
        row["beta_minus_b_inf"] = float(
            max(
                np.max(np.abs(inst.results[name].beta - inst.b))
                for inst in run.instances
            )
        )
        rows.append(row)
    return rows


def write_summary_csv(rows: list[dict], path) -> None:
    """Deterministic summary CSV (no wall-clock columns, fixed float format)."""
    if not rows:
        raise ValueError("no summary rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])
