"""The traced benchmark run rebinds public dagprox names; they must all exist.

``perfbench/spans.py`` wraps every traced function wherever the package
binds it.  Deleting or renaming one of those names breaks every traced
benchmark run, so the binding check runs here as an ordinary test.
"""

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


def _fired_spans(spans, method) -> set[str]:
    """Span names reached by one solve of a 3-node chain under the wrappers.

    The study workload expects the asserted spans to fire: inlining one of
    them into a solver loop would stop every traced study run.
    """
    tree = spans.SpanTree()
    installation = spans.Installation(tree)
    gs = dp.ancestor_groups(dp.validate_dag(3, [(0, 1), (1, 2)]))
    inst = dp.ProxInstance(b=np.ones(3), lam=0.1, group_set=gs)
    try:
        installation.install()
        dp.solve_prox(inst, method)
    finally:
        installation.remove()
    return {node.name for node in tree.root.walk()}


def test_pgm_step_reaches_the_traced_norm(spans):
    assert {
        "solvers.pgm", "kernels.operator_norm_sq", "kernels.blockwise_soft_threshold",
        "kernels.apply", "kernels.adjoint_apply",
    } <= _fired_spans(spans, "pgm")


def test_bcd_sweep_reaches_the_traced_kernels(spans):
    assert {
        "solvers.bcd", "kernels.group_soft_threshold", "diagnostics.objective_and_proxgrad",
    } <= _fired_spans(spans, "bcd")
