"""The public surface: every exported name resolves, and none is listed twice.

A name left in an ``__all__`` after its definition is deleted breaks
``from dagprox import *`` only when someone tries it; this catches it at once.
"""

import importlib
import pkgutil

import pytest

import dagprox as dp

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
