from pathlib import Path

import pytest

import dagprox as dp


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
