"""Per-layer metrics derived from a traced run's span tree.

The span tree (spans.py) has one top-level node per harness phase:
``setup``, ``timed``, ``checks`` and one ``scale_<size>`` node per point of
the kernel scaling series.  Layer metrics come from the ``timed`` phase
unless their name says otherwise.  A layer a workload never reaches reads
0 (no calls, no seconds).
"""

from __future__ import annotations

from pathlib import Path

from dagprox import bench, graph, kernels, solvers

import spans
from workloads import LAM

SOLVERS = ("bcd", "rbcd", "sharing", "pgm", "fista")
KERNELS = ("apply", "adjoint_apply", "blockwise_soft_threshold", "group_soft_threshold")
SCALING_KERNELS = ("apply", "adjoint_apply", "blockwise_soft_threshold")
#: (label, family, size): binary-tree depth or chain node count
SCALING = (
    ("tree7", "tree", 7), ("tree10", "tree", 10),
    ("tree13", "tree", 13), ("tree14", "tree", 14),
    ("chain100", "chain", 100), ("chain500", "chain", 500),
    ("chain1000", "chain", 1000), ("chain1500", "chain", 1500),
)
SCALING_ITERS = 10


def _phases(tree: spans.SpanTree, names) -> list[spans.Node]:
    return [c for c in tree.root.children.values() if c.name in names]


def _named(roots, name: str) -> list[spans.Node]:
    return [n for r in roots for n in r.walk() if n.name == name]


def _calls_total(nodes) -> tuple[int, float]:
    return sum(n.count for n in nodes), sum(n.total for n in nodes)


def _us_per_call(nodes) -> float:
    calls, total = _calls_total(nodes)
    return 1e6 * total / calls if calls else 0.0


def fired(tree: spans.SpanTree, phases) -> set[str]:
    return {n.name for r in _phases(tree, phases) for n in r.walk() if n.count}


def _outer_solver_spans(node: spans.Node):
    """Outermost solver spans, leaving out bench's reference solves."""
    for child in node.children.values():
        if child.name == "bench.reference_solution":
            continue
        if child.layer == "solvers":
            yield child
        else:
            yield from _outer_solver_spans(child)


def trace_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("trace_*.csv"))


def sharing_bytes_per_iter(group_set) -> int:
    """Computed (modelled, not measured) bytes one sharing iteration moves.

    ``apply`` reads x and the coordinate index (n each) and writes d;
    ``adjoint_apply`` reads d and the index and writes n;
    ``blockwise_soft_threshold`` reads and writes n plus three per-group
    arrays.  All entries are 8 bytes; temporaries are not counted.
    """
    n, d, g = group_set.n, group_set.d, group_set.num_groups
    return 8 * (6 * n + 2 * d + 3 * g)


def _sharing_work(wl, ops, group_sets) -> list[tuple[object, int]]:
    if wl.name == "fit_path":
        return [(group_sets[0], sum(op.inner_iterations or 0 for op in ops))]
    return [
        (op.payload["result"].group_set, op.iterations)
        for op in ops
        if op.payload and op.label.endswith(("/sharing", "/reference"))
    ]


def per_layer(tree, wl, state, ops, group_sets, trace_bytes: int) -> dict[str, float]:
    (timed,) = _phases(tree, ("timed",))
    built = _phases(tree, ("setup", "timed"))
    m: dict[str, float] = {}

    m["graph.ancestor_groups.s"] = _calls_total(_named(built, "graph.ancestor_groups"))[1]
    m["graph.hierarchy_check.s"] = _calls_total(_named(
        _phases(tree, ("setup", "timed", "checks")), "graph.check_hierarchy_conformance"
    ))[1]
    m["graph.n.count"] = sum(gs.n for gs in group_sets)
    m["graph.num_groups.count"] = sum(gs.num_groups for gs in group_sets)

    for k in KERNELS:
        nodes = _named([timed], f"kernels.{k}")
        m[f"kernels.{k}.calls"] = _calls_total(nodes)[0]
        m[f"kernels.{k}.us_per_call"] = _us_per_call(nodes)
    work = _sharing_work(wl, ops, group_sets)
    iters = sum(it for _, it in work)
    moved = sum(sharing_bytes_per_iter(gs) * it for gs, it in work)
    sharing_nodes = _named([timed], "solvers.sharing")
    kernel_s = sum(
        c.total for s in sharing_nodes for c in s.children.values()
        if c.name in ("kernels.apply", "kernels.adjoint_apply", "kernels.blockwise_soft_threshold")
    )
    m["kernels.sharing_iter.computed_bytes"] = moved / iters if iters else 0.0
    m["kernels.sharing_iter.computed_GB_per_s"] = moved / kernel_s / 1e9 if kernel_s else 0.0
    m["kernels.operator_norm_sq.s"] = _calls_total(_named([timed], "kernels.operator_norm_sq"))[1]
    evaluator = _named([timed], "kernels.penalty_evaluator")
    m["kernels.penalty_evaluator.calls"], m["kernels.penalty_evaluator.s"] = _calls_total(evaluator)
    m["kernels.penalty_evaluator.iters"] = sum(
        c.count for e in evaluator for c in e.children.values()
        if c.name == "kernels.blockwise_soft_threshold"
    )

    for k in ("objective_and_proxgrad", "trace_append"):
        nodes = _named([timed], f"diagnostics.{k}")
        m[f"diagnostics.{k}.calls"] = _calls_total(nodes)[0]
        m[f"diagnostics.{k}.us_per_call"] = _us_per_call(nodes)
    m["diagnostics.write_csv.s"] = _calls_total(_named([timed], "diagnostics.write_csv"))[1]
    m["diagnostics.trace.bytes"] = trace_bytes

    outer = list(_outer_solver_spans(timed))
    for s in SOLVERS:
        nodes = [n for n in outer if n.name == f"solvers.{s}"]
        its = sum(n.work for n in nodes)
        solve_s = sum(n.total for n in nodes)
        m[f"solvers.{s}.iterations"] = its
        m[f"solvers.{s}.solve_s"] = solve_s
        m[f"solvers.{s}.us_per_iter"] = 1e6 * solve_s / its if its else 0.0
        m[f"solvers.{s}.self_s"] = sum(
            x.exclusive() for n in nodes for x in n.walk() if x.layer == "solvers"
        )

    fits = _named([timed], "learn.fit")
    inner = [c for f in fits for c in f.children.values() if c.name == "solvers.sharing"]
    m["learn.fit.outer_iters"] = sum(f.work for f in fits)
    m["learn.fit.inner_iters"] = sum(c.work for c in inner)
    m["learn.inner_solve.s"] = sum(c.total for c in inner)
    m["learn.loss_gradient.s"] = _calls_total(_named([timed], "learn.loss_gradient"))[1]
    m["learn.fit.self_s"] = sum(f.exclusive() for f in fits)
    m["learn.fit.inner_warnings"] = state.get("inner_warnings", 0)

    m["bench.reference.s"] = _calls_total(_named([timed], "bench.reference_solution"))[1]
    m["bench.summary.s"] = sum(
        _calls_total(_named([timed], f"bench.{k}"))[1]
        for k in ("summary_rows", "write_summary_csv")
    )
    return m


def _scaling_dag(family: str, size: int):
    if family == "tree":
        return bench.binary_tree(size)
    return graph.validate_dag(size, [(i, i + 1) for i in range(size - 1)])


def scaling_series(tree: spans.SpanTree, seed: int) -> dict[str, float]:
    """A fixed number of sharing iterations per size; µs per kernel call."""
    out: dict[str, float] = {}
    opts = solvers.SolveOptions(max_iter=SCALING_ITERS, tol_primal=0.0, tol_dual=0.0)
    for label, family, size in SCALING:
        dag = _scaling_dag(family, size)
        gs = graph.ancestor_groups(dag)
        inst = kernels.ProxInstance(
            b=bench.sample_input(dag.d, seed, 0), lam=LAM, group_set=gs
        )
        with tree.phase(f"scale_{label}") as node:
            res = solvers.prox_log_admm_sharing(inst, opts)
        if res.iterations != SCALING_ITERS:
            raise RuntimeError(f"scaling {label}: ran {res.iterations} iterations")
        out[f"kernels.scale_{label}.n"] = gs.n
        for k in SCALING_KERNELS:
            out[f"kernels.scale_{label}_{k}.us_per_call"] = _us_per_call(
                _named([node], f"kernels.{k}")
            )
        del dag, gs, inst, res  # free the large sizes before building the next
    return out
