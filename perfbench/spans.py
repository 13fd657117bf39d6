"""Span recording for the traced run, installed from outside the package.

Every traced layer boundary is a public dagprox function or method.  Python
binds names at import time (``solvers`` holds its own reference to
``kernels.blockwise_soft_threshold``, ``_DISPATCH`` holds the solver
functions, ``learn`` holds ``prox_log_admm_sharing``), so a wrapper must
replace *every* binding of the original object, not just the defining
module's.  ``Installation.install`` does that and :func:`stale_bindings` proves it.

Spans are aggregated in memory as a call tree: one node per distinct path
of span names, holding a call count, the summed duration and a work count
(solver iterations).  A node's exclusive time is its duration minus the
durations of its direct children, which is how self times are derived.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class Node:
    __slots__ = ("name", "count", "total", "work", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.work = 0
        self.children: dict[str, Node] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def exclusive(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "work": self.work,
            "children": [c.to_json() for c in self.children.values()],
        }


class SpanTree:
    """In-memory span aggregate with a stack of open spans."""

    def __init__(self):
        self.root = Node("root")
        self._stack = [self.root]

    def wrap(self, fn, name: str, work=None):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            stack.append(node)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                node.count += 1
                stack.pop()
            if work is not None:
                node.work += work(out)
            return out

        return span

    def phase(self, name: str):
        """Context manager opening a top-level harness span."""
        return _Phase(self, name)


class _Phase:
    def __init__(self, tree: SpanTree, name: str):
        self.tree, self.name = tree, name

    def __enter__(self):
        self.node = Node(self.name)
        self.tree.root.children[self.name] = self.node
        self.tree._stack.append(self.node)
        self.t0 = perf_counter()
        return self.node

    def __exit__(self, *exc):
        self.node.total += perf_counter() - self.t0
        self.node.count += 1
        self.tree._stack.pop()
        return False


def _iterations(result) -> int:
    return int(result.iterations)


def _outer_iterations(result) -> int:
    return int(result.outer_iterations)


def targets():
    """``(owner, attribute, span name, work)`` for every traced boundary.

    ``owner`` is a module (the function is rebound wherever it is imported)
    or a class (the method is replaced on the class).
    """
    from dagprox import bench, diagnostics, graph, kernels, learn, solvers

    return [
        (graph, "validate_dag", "graph.validate_dag", None),
        (graph, "ancestor_groups", "graph.ancestor_groups", None),
        (graph, "check_hierarchy_conformance", "graph.check_hierarchy_conformance", None),
        (kernels.SumOperator, "apply", "kernels.apply", None),
        (kernels.SumOperator, "adjoint_apply", "kernels.adjoint_apply", None),
        (kernels, "blockwise_soft_threshold", "kernels.blockwise_soft_threshold", None),
        (kernels, "group_soft_threshold", "kernels.group_soft_threshold", None),
        (kernels, "objective_f", "kernels.objective_f", None),
        (kernels, "operator_norm_sq", "kernels.operator_norm_sq", None),
        (kernels.LatentPenaltyEvaluator, "value", "kernels.penalty_evaluator", None),
        (diagnostics, "objective_and_proxgrad", "diagnostics.objective_and_proxgrad", None),
        (diagnostics, "proxgrad_norm", "diagnostics.proxgrad_norm", None),
        (diagnostics.ConvergenceTrace, "append", "diagnostics.trace_append", None),
        (diagnostics.ConvergenceTrace, "write_csv", "diagnostics.write_csv", None),
        (solvers, "prox_log_bcd", "solvers.bcd", _iterations),
        (solvers, "_solve_rbcd", "solvers.rbcd", _iterations),
        (solvers, "prox_log_admm_unscaled", "solvers.admm", _iterations),
        (solvers, "prox_log_admm_sharing", "solvers.sharing", _iterations),
        (solvers, "prox_log_pgm", "solvers.pgm", _iterations),
        (solvers, "_solve_fista", "solvers.fista", _iterations),
        (learn, "fit", "learn.fit", _outer_iterations),
        (learn, "lambda_max", "learn.lambda_max", None),
        (learn.LeastSquaresLoss, "gradient", "learn.loss_gradient", None),
        (learn.LeastSquaresLoss, "value", "learn.loss_value", None),
        (bench, "run_benchmark", "bench.run_benchmark", None),
        (bench, "reference_solution", "bench.reference_solution", None),
        (bench, "summary_rows", "bench.summary_rows", None),
        (bench, "write_summary_csv", "bench.write_summary_csv", None),
    ]


def _package_namespaces():
    """Every loaded dagprox module dict, plus the solver dispatch table."""
    spaces = [
        vars(mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dagprox" or name.startswith("dagprox."))
    ]
    spaces.append(sys.modules["dagprox.solvers"]._DISPATCH)
    return spaces


class Installation:
    """The wrappers of one :class:`SpanTree`; ``remove`` restores the originals."""

    def __init__(self, tree: SpanTree):
        self.tree = tree
        self.originals: list = []
        self._undo: list = []

    def install(self) -> "Installation":
        for owner, attr, name, work in targets():
            original = vars(owner)[attr]
            wrapper = self.tree.wrap(original, name, work)
            self.originals.append(original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append(functools.partial(setattr, owner, attr, original))
                continue
            for space in _package_namespaces():
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapper
                        self._undo.append(functools.partial(space.__setitem__, key, original))
        return self

    def remove(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def stale_bindings(originals) -> list[str]:
    """Names in the package that still reach an unwrapped original."""
    ids = {id(o) for o in originals}
    stale = []
    for space in _package_namespaces():
        for key, value in space.items():
            if id(value) in ids:
                stale.append(f"{space.get('__name__', '_DISPATCH')}.{key}")
    return stale
