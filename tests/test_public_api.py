"""The public surface: every exported name resolves, and none is listed twice.

A name left in an ``__all__`` after its definition is deleted breaks
``from dagprox import *`` only when someone tries it; this catches it at once.
Every public entry that takes a penalty level ``lam`` rejects one that is
not finite and >= 0 with the same message; the guard below makes a new
entry join that list or say why it is exempt.  Importing the package, the
CLI included, loads no SciPy submodule: only ``LogisticLoss`` and the dense
test reference need one, and they import it where they use it.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dagprox as dp
from dagprox.kernels import LatentPenaltyEvaluator

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dp.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"dagprox.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(exported) == len(set(exported))


def test_package_exports_resolve_once():
    assert [n for n in dp.__all__ if not hasattr(dp, n)] == []
    assert len(dp.__all__) == len(set(dp.__all__))


@pytest.mark.parametrize(
    "call",
    [lambda: dp.SolveOptions(seed=1), lambda: dp.OuterOptions(inner_tol_coeff=0.0),
     lambda: dp.OuterOptions(inner_tol_floor=0.0),
     lambda: dp.ancestor_groups(dp.validate_dag(1, []), weights=[1.0])],
    ids=["SolveOptions(seed=)", "OuterOptions(inner_tol_coeff=)", "OuterOptions(inner_tol_floor=)",
         "ancestor_groups(weights=)"],
)
def test_fixed_settings_take_no_keyword(call):
    # the randomized BCD seed, the inner tolerance schedule and the ancestor
    # group weights are module constants or build_index_map's job
    with pytest.raises(TypeError):
        call()


# the README quick-tour DAG and a point on its support
QUICK_TOUR = dp.ancestor_groups(dp.validate_dag(4, [(0, 2), (1, 2), (1, 3)]))
BETA = np.array([1.0, -2.0, 0.5, 3.0])

#: every public entry with a ``lam`` parameter, as a call on ``(lam, tmp_path)``
LAM_ENTRIES = {
    "kernels.ProxInstance": lambda lam, _: dp.ProxInstance(b=BETA, lam=lam, group_set=QUICK_TOUR),
    "kernels.LatentPenaltyEvaluator.value": (
        lambda lam, _: LatentPenaltyEvaluator(QUICK_TOUR).value(BETA, lam)
    ),
    "kernels.log_penalty_value": lambda lam, _: dp.log_penalty_value(BETA, QUICK_TOUR, lam),
    "learn.fit": lambda lam, _: dp.fit(dp.LeastSquaresLoss(np.eye(4), BETA), QUICK_TOUR, lam),
    "learn.save_model": (
        lambda lam, tmp: dp.learn.save_model(tmp / "model.txt", BETA, lam, "least-squares", QUICK_TOUR)
    ),
    "bench.BenchmarkSpec": lambda lam, _: dp.bench.BenchmarkSpec("two_layer", lam=lam),
}

#: entries that take ``lam`` without checking it, and why
LAM_EXEMPT = {
    # its callers pass an already-checked lam, and it runs on every
    # objective evaluation of every solver
    "kernels.penalty_value",
    # a result record: it stores the lam that fit checked
    "learn.FitResult",
}


def public_lam_entries() -> set[str]:
    """``module.name`` or ``module.Class.method`` of every exported callable taking ``lam``.

    A class counts through its constructor and its public methods.
    """
    found = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"dagprox.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            entries = {f"{name}.{attr}": obj}
            if inspect.isclass(obj):
                entries.update(
                    (f"{name}.{attr}.{m}", f)
                    for m, f in vars(obj).items()
                    if not m.startswith("_") and inspect.isfunction(f)
                )
            for label, fn in entries.items():
                if not callable(fn):
                    continue
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "lam" in params:
                    found.add(label)
    return found


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("entry", sorted(LAM_ENTRIES))
def test_invalid_lam_rejected(entry, lam, tmp_path):
    with pytest.raises(ValueError, match=r"^lam must be finite and >= 0, got "):
        LAM_ENTRIES[entry](lam, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_every_public_lam_entry_checks_it():
    assert public_lam_entries() == set(LAM_ENTRIES) | LAM_EXEMPT


def test_import_loads_no_scipy_submodules():
    src = Path(dp.__file__).resolve().parents[1]
    code = (
        "import sys, dagprox, dagprox.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
