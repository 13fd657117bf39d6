import warnings
from pathlib import Path

import pytest
from hypothesis import settings

import dagprox as dp

# every run draws the same examples, so a red property test is red on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# Hypothesis imports libcst to print a patch for a failing example.  libcst
# 1.0.1 warns at import that mypy_extensions.TypedDict is deprecated, and the
# DeprecationWarning filter would turn that into an INTERNALERROR that ends the
# session.  Import it once here with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def odd_group_sets():
    """Group systems with a repeated group, coordinates in no group, or neither."""
    return [
        dp.build_index_map([[0, 1], [1, 2], [0, 1], [4]], weights=[1.0, 0.5, 2.0, 1.5], d=6),
        dp.build_index_map([[0], [0, 1, 2], [0, 1, 2], [2, 3]], d=5),
        dp.ancestor_groups(dp.bench.random_dag(8, edge_prob=0.3, seed=1)),
    ]
