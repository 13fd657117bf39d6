"""The traced benchmark run rebinds public dagprox names; they must all exist.

``perfbench/spans.py`` wraps every traced function wherever the package
binds it.  Deleting or renaming one of those names breaks every traced
benchmark run, so the binding check runs here as an ordinary test.  The
workloads themselves also run here, shrunk, so a name, keyword or option
field they pass that the package no longer takes fails a test instead of
the benchmark.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import dagprox as dp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_every_traced_binding_is_wrapped(spans):
    installation = spans.Installation(spans.SpanTree())
    try:
        installation.install()
        assert spans.stale_bindings(installation.originals) == []
    finally:
        installation.remove()


def _span_tree(spans, run, dag):
    """The span tree of ``run(dag)`` under the wrappers."""
    tree = spans.SpanTree()
    installation = spans.Installation(tree)
    try:
        installation.install()
        run(dag)
    finally:
        installation.remove()
    return tree


def _fired_spans(spans, run) -> set[str]:
    """Span names reached by ``run(chain)`` on a 3-node chain under the wrappers.

    The study and fit_path workloads expect the asserted spans to fire:
    inlining one of them into a solver or learner loop would stop every
    traced run of that workload.
    """
    chain = dp.validate_dag(3, [(0, 1), (1, 2)])
    return {node.name for node in _span_tree(spans, run, chain).root.walk()}


def _solve(method):
    def run(chain):
        inst = dp.ProxInstance(b=np.ones(3), lam=0.1, group_set=dp.ancestor_groups(chain))
        dp.solve_prox(inst, method)

    return run


def test_pgm_step_reaches_the_traced_norm(spans):
    assert {
        "solvers.pgm", "kernels.operator_norm_sq", "kernels.blockwise_soft_threshold",
        "kernels.apply", "kernels.adjoint_apply",
    } <= _fired_spans(spans, _solve("pgm"))


def test_bcd_sweep_reaches_the_traced_kernels(spans):
    assert {
        "solvers.bcd", "kernels.group_soft_threshold", "diagnostics.objective_and_proxgrad",
    } <= _fired_spans(spans, _solve("bcd"))


def test_chain_fit_reaches_the_traced_evaluator(spans):
    # the closed-form penalty of nested groups lives inside the evaluator's
    # method, so the fit_path span still fires
    loss = dp.LeastSquaresLoss(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert {
        "learn.fit", "solvers.sharing", "kernels.penalty_evaluator",
        "kernels.blockwise_soft_threshold", "kernels.objective_f",
    } <= _fired_spans(spans, lambda chain: dp.fit(loss, chain, 0.1))


def test_tree_fit_evaluator_iterates_through_the_traced_kernel(spans):
    # perfbench/layers.py counts the evaluator's soft-threshold children as
    # kernels.penalty_evaluator.iters; a tree's ancestor groups are not
    # nested, so its evaluator iterates
    tree = dp.validate_dag(4, [(0, 1), (0, 2), (1, 3)])
    loss = dp.LeastSquaresLoss(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]))
    root = _span_tree(spans, lambda dag: dp.fit(loss, dag, 0.1), tree).root
    evaluators = [node for node in root.walk() if node.name == "kernels.penalty_evaluator"]
    assert evaluators
    for node in evaluators:
        assert node.children["kernels.blockwise_soft_threshold"].count >= 10


def test_sharing_refreshes_few_groups_under_the_wrappers(spans):
    # perfbench counts kernels.blockwise_soft_threshold under solvers.sharing;
    # it runs only on the steps that refresh every group, so on a tree whose
    # groups stay mostly zero it runs on fewer steps than the solve takes
    solved = []

    def run(dag):
        gs = dp.ancestor_groups(dag)
        inst = dp.ProxInstance(b=dp.bench.sample_input(gs.d, 0, 0), lam=0.5, group_set=gs)
        solved.append(dp.prox_log_admm_sharing(inst))

    root = _span_tree(spans, run, dp.bench.binary_tree(9)).root
    sharing = root.children["solvers.sharing"]
    assert sharing.count == 1 and sharing.work == solved[0].iterations
    assert 0 < sharing.children["kernels.blockwise_soft_threshold"].count < sharing.work


def _shrunk_workloads(workloads) -> dict:
    """Fresh instances of the benchmark's workloads, each a pass of well under a second."""
    prox_tree = workloads.ProxTree()
    prox_tree.depth, prox_tree.inputs = 5, 2
    study = workloads.Study()
    study.topologies = ("random_dag",)
    return {"prox_tree": prox_tree, "study": study, "fit_path": workloads.FitPath()}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["prox_tree", "study", "fit_path"])
def test_shrunk_workload_passes_its_checks(spans, tmp_path, name, traced):
    import workloads

    wl = _shrunk_workloads(workloads)[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    tree = spans.SpanTree()
    installation = spans.Installation(tree)
    try:
        if traced:
            installation.install()
        state = wl.setup(0, PERFBENCH.parent)
        ops = wl.run_pass(state, tmp_path)
        reasons = {op.label: workloads.failures(wl, state, op, reference) for op in ops}
    finally:
        installation.remove()
    assert ops
    assert {label: r for label, r in reasons.items() if r} == {}
    if traced:
        assert wl.expected_spans <= {node.name for node in tree.root.walk() if node.count}


def test_criterion6_units_read_the_hitting_record(monkeypatch):
    # the traced study reports criterion 6's wall seconds from the trace
    # record at the hitting iteration
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    runs = {
        topo: dp.bench.run_benchmark(
            dp.bench.BenchmarkSpec(topo, reps=1, solvers=("sharing", "bcd"), **size)
        )
        for topo, size in (("binary_tree", {"depth": 4}), ("root_two_paths", {"nodes": 9}))
    }
    units = workloads.criterion6_units(runs)
    for topo, run in runs.items():
        inst = run.instances[0]
        for name in ("sharing", "bcd"):
            trace = inst.results[name].trace
            hit = dp.bench.iterations_to_gap(inst.results[name], inst.f_star, 1e-6)
            (record,) = [r for r in trace if r.iter == hit]
            key = f"bench.c6_{topo}_{name}"
            assert units[f"{key}.iters_to_gap"] == hit
            assert units[f"{key}.block_updates"] == hit * run.group_set.num_groups
            assert units[f"{key}.wall_s"] == record.wall_s > 0
