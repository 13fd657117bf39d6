import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dagprox as dp
from oracles import (
    closure_sets,
    edge_scan_parents,
    kahn_fifo_order,
    textbook_hierarchy,
    textbook_restrict,
)


@pytest.fixture
def fig1b():
    # four nodes, edges 0->2, 1->2, 1->3 (diamond-ish hierarchy)
    return dp.validate_dag(4, [(0, 2), (1, 2), (1, 3)])


class TestValidateDag:
    def test_two_node_chain(self):
        dag = dp.validate_dag(2, [(0, 1)])
        assert dag.topo_order == (0, 1)
        assert dag.d == 2

    def test_two_cycle_rejected(self):
        with pytest.raises(dp.CycleDetected):
            dp.validate_dag(2, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(dp.CycleDetected):
            dp.validate_dag(2, [(0, 0)])

    def test_reversed_chain_keeps_kahns_order(self):
        # every edge points from a higher id to a lower one, so no index order holds
        dag = dp.validate_dag(6, [(i + 1, i) for i in range(5)])
        assert dag.topo_order == (5, 4, 3, 2, 1, 0)

    def test_fig1b_shape(self, fig1b):
        assert fig1b.num_nodes == 4
        order = list(fig1b.topo_order)
        for u, v in fig1b.edges:
            assert order.index(u) < order.index(v)

    def test_endpoint_out_of_range(self):
        with pytest.raises(dp.IndexOutOfRange):
            dp.validate_dag(3, [(0, 3)])

    def test_duplicate_edge(self):
        with pytest.raises(dp.DuplicateEdge):
            dp.validate_dag(3, [(0, 1), (0, 1)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5], ids=["triple", "single", "int"])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        # a triple lost its third entry; the others raised a bare IndexError and TypeError
        with pytest.raises(ValueError, match=re.escape(f"edge must be a (parent, child) pair, got {edge!r}")):
            dp.validate_dag(3, [(0, 1), edge])

    def test_zero_nodes(self):
        with pytest.raises(ValueError):
            dp.validate_dag(0, [])

    @pytest.mark.parametrize(
        "build, name",
        [(lambda: dp.validate_dag(2.5, [(0, 1)]), "num_nodes"),
         (lambda: dp.validate_dag(2, [(0, 1.7)]), "edge endpoint"),
         (lambda: dp.validate_dag(2, [(0, 1)], node_dims=[1.5, 2]), "node_dims entry"),
         (lambda: dp.build_index_map([[0.5, 1.9]]), "group coordinate"),
         (lambda: dp.build_index_map([[0, 1]], d=2.5), "d"),
         (lambda: dp.bench.BenchmarkSpec("two_layer", reps=2.5), "reps"),
         (lambda: dp.bench.binary_tree(2.5), "depth"),
         (lambda: dp.bench.two_layer(5.0), "d")],
        ids=["num_nodes", "endpoint", "node_dims", "coordinate", "d", "reps",
             "binary_tree", "two_layer"],
    )
    def test_non_integers_rejected(self, build, name):
        # int() would truncate these, and range() would fail later with a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build()

    def test_bad_node_dims(self):
        with pytest.raises(dp.DimensionMismatch):
            dp.validate_dag(2, [(0, 1)], node_dims=[1])
        with pytest.raises(dp.DimensionMismatch):
            dp.validate_dag(2, [(0, 1)], node_dims=[1, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_parents_match_edge_scan_oracle(self, seed):
        # the edges come in a shuffled order, which the parent lists must keep
        base = dp.bench.random_dag(30, edge_prob=0.25, seed=seed)
        perm = np.random.default_rng(seed).permutation(len(base.edges))
        edges = [base.edges[k] for k in perm]
        dag = dp.validate_dag(30, edges)
        assert [dag.parents(i) for i in range(30)] == edge_scan_parents(30, edges)

    def test_node_offsets(self):
        dag = dp.validate_dag(3, [(0, 1)], node_dims=[2, 3, 1])
        assert dag.node_offsets.tolist() == [0, 2, 5]
        assert [dag.node_coords(i) for i in range(3)] == [range(0, 2), range(2, 5), range(5, 6)]

    @pytest.mark.parametrize(
        "node, error, message",
        [(-1, dp.IndexOutOfRange, r"^node -1 outside \[0, 3\)$"),
         (3, dp.IndexOutOfRange, r"^node 3 outside \[0, 3\)$"),
         (1.5, ValueError, "^node must be an integer, got 1.5$"),
         ("1", ValueError, "^node must be an integer, got '1'$")],
        ids=["negative", "past the end", "float", "str"],
    )
    def test_node_ids_are_checked(self, node, error, message):
        # -1 read the last node, 3 raised a bare IndexError
        dag = dp.validate_dag(3, [(0, 1), (1, 2)], node_dims=[1, 2, 1])
        for query in (dag.parents, dag.node_coords):
            with pytest.raises(error, match=message):
                query(node)

    def test_a_bool_node_id_reads_as_its_int(self):
        # node_coords(True) raised a numpy TypeError; parents(True) already read node 1
        dag = dp.validate_dag(3, [(0, 1), (1, 2)], node_dims=[1, 2, 1])
        assert (dag.parents(True), dag.node_coords(True)) == ((0,), range(1, 3))

    def test_d_is_computed_once(self):
        dag = dp.validate_dag(3, [(0, 1)], node_dims=[2, 3, 1])
        assert dag.d == 6
        assert vars(dag)["d"] == 6

    @pytest.mark.parametrize("depth", range(1, 14))
    def test_binary_tree_edges_match_the_parent_scan(self, depth):
        # the edges, in child order, equal a scan of every parent's two children;
        # depth 13 is the tree of the prox_tree benchmark
        n = 2**depth - 1
        edges = [(p, c) for p in range(n) for c in (2 * p + 1, 2 * p + 2) if c < n]
        tree, scanned = dp.bench.binary_tree(depth), dp.validate_dag(n, edges)
        assert tree == scanned
        assert tree.parent_lists == scanned.parent_lists


#: sha256 of the canonical text of ancestor group systems, recorded while
#: GroupSet still kept one array per group: the stacked storage keeps the bytes
GOLDEN_HASHES = {
    "binary_tree13": "0e7b45bd08166fb1b24be5c8c175d2a3fe5b5bb1f7a5d0823c2d67efe77bc23d",
    "chain1500": "75751420f29b25f34c82f02d2ad37e7a8d352a57600f93d2800826576a80a0b7",
    "random0": "d6f352f33da72ed05f64a938c91df05d09414d2f3da9fbfdcedd441e87297da7",
    "random1": "b7f0068aca65e5b87e1e338090b440c644e977abc5507bb69a83b6bd468f683c",
    "random2": "9a46827b86c754ce82965227caae401d01236b3a1a63b8ba56dd8dfe5bc82bfb",
    "random3": "009e745cc826e8a29cf0f1840e8ec53dab5e0bf31f71f2b01a11605422256101",
}


def _chain(num_nodes):
    return dp.validate_dag(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)])


def _golden_group_set(name):
    if name == "binary_tree13":
        return dp.ancestor_groups(dp.bench.binary_tree(13))
    if name == "chain1500":
        return dp.ancestor_groups(_chain(1500))
    # 40 nodes with 1 to 4 variables each
    seed = int(name.removeprefix("random"))
    base = dp.bench.random_dag(40, edge_prob=0.2, seed=seed)
    dims = np.random.default_rng(seed).integers(1, 5, 40)
    return dp.ancestor_groups(dp.validate_dag(40, base.edges, dims))


def _assert_matches_per_node_oracle(dag, weights):
    """``ancestor_groups`` against closure sets expanded node by node to coordinates."""
    gs = dp.ancestor_groups(dag)
    if weights is not None:
        gs = dp.build_index_map(gs.groups, weights=weights, d=gs.d)
    oracle = dp.build_index_map(
        [[c for j in sorted(s) for c in dag.node_coords(j)] for s in closure_sets(dag.num_nodes, dag.edges)],
        weights=weights, d=dag.d,
    )
    assert np.array_equal(gs.stacked_coords, oracle.stacked_coords)
    assert np.array_equal(gs.sizes, oracle.sizes)
    assert gs.content_hash() == oracle.content_hash()


@st.composite
def forward_dags(draw):
    """``(num_nodes, edges, node_dims)``: 1 to 40 nodes of 1 to 3 variables, every edge ``u < v``."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = list(dict.fromkeys((min(p), max(p)) for p in pairs if p[0] != p[1]))
    return n, edges, draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))


class TestGeneratedDags:
    @given(forward_dags(), st.data())
    def test_orders_parents_groups_and_cycles_match_the_oracles(self, spec, data):
        n, forward_edges, dims = spec
        perm = data.draw(st.permutations(range(n)))
        relabelled = [(perm[u], perm[v]) for u, v in forward_edges]
        for edges in (forward_edges, relabelled):
            dag = dp.validate_dag(n, edges, dims)
            # the index order when it is topological, Kahn's FIFO order otherwise
            if all(u < v for u, v in edges):
                assert dag.topo_order == tuple(range(n))
            else:
                assert dag.topo_order == kahn_fifo_order(n, edges)
            assert list(dag.parent_lists) == edge_scan_parents(n, edges)
            _assert_matches_per_node_oracle(dag, None)
            # an edge from a node to one of its ancestors, or to itself, closes a cycle
            child = data.draw(st.integers(0, n - 1))
            ancestor = data.draw(st.sampled_from(sorted(closure_sets(n, edges)[child])))
            at = data.draw(st.integers(0, len(edges)))
            with pytest.raises(dp.CycleDetected):
                dp.validate_dag(n, edges[:at] + [(child, ancestor)] + edges[at:], dims)


class TestGroups:
    def test_ancestor_groups_fig1b(self, fig1b):
        gs = dp.ancestor_groups(fig1b)
        got = [list(g) for g in gs.groups]
        assert got == [[0], [1], [0, 1, 2], [1, 3]]
        assert np.allclose(gs.weights, np.sqrt([1, 1, 3, 2]))
        assert gs.n == 7

    def test_ancestor_groups_edgeless(self):
        gs = dp.ancestor_groups(dp.validate_dag(3, []))
        assert [list(g) for g in gs.groups] == [[0], [1], [2]]

    def test_ancestor_groups_chain_vs_closure_oracle(self):
        edges = [(0, 1), (1, 2)]
        dag = dp.validate_dag(3, edges)
        gs = dp.ancestor_groups(dag)
        assert [list(g) for g in gs.groups] == [[0], [0, 1], [0, 1, 2]]
        oracle = closure_sets(3, edges)
        assert [set(g.tolist()) for g in gs.groups] == oracle

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dags_match_closure_oracle(self, seed):
        dag = dp.bench.random_dag(12, edge_prob=0.35, seed=seed)
        anc = dp.ancestor_groups(dag)
        anc_oracle = closure_sets(12, dag.edges)
        assert [set(g.tolist()) for g in anc.groups] == anc_oracle

    def test_node_in_own_group(self, fig1b):
        for i, g in enumerate(dp.ancestor_groups(fig1b).groups):
            assert i in g.tolist()

    def test_tree_nesting_along_edges(self):
        dag = dp.bench.binary_tree(4)
        gs = dp.ancestor_groups(dag)
        for u, v in dag.edges:
            gu = set(gs.groups[u].tolist())
            gv = set(gs.groups[v].tolist())
            assert gu < gv

    @pytest.mark.parametrize("seed", range(6))
    def test_multidim_expansion_matches_per_node_oracle(self, seed):
        rng = np.random.default_rng(seed)
        base = dp.bench.random_dag(15, edge_prob=0.3, seed=seed)
        dag = dp.validate_dag(15, base.edges, rng.integers(1, 5, 15))
        weights = rng.uniform(0.5, 2.0, 15) if seed % 2 else None
        _assert_matches_per_node_oracle(dag, weights)

    @pytest.mark.parametrize("multidim", [False, True], ids=["one variable", "1-4 variables"])
    @pytest.mark.parametrize("shape", ["binary_tree", "random_dag", "chain"])
    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_dags_match_per_node_oracle(self, shape, seed, multidim):
        # node ids that are not topological: a child's id may sort before its
        # parents', so its own id goes inside the parent's group, not after it
        base = {
            "binary_tree": dp.bench.binary_tree(5),
            "random_dag": dp.bench.random_dag(25, edge_prob=0.25, seed=seed),
            "chain": _chain(12),
        }[shape]
        rng = np.random.default_rng(seed)
        perm = rng.permutation(base.num_nodes)
        dims = rng.integers(1, 5, base.num_nodes) if multidim else None
        dag = dp.validate_dag(base.num_nodes, [(perm[u], perm[v]) for u, v in base.edges], dims)
        assert any(u > v for u, v in dag.edges)
        _assert_matches_per_node_oracle(dag, None)

    def test_reversed_chain_inserts_every_node_first(self):
        dag = dp.validate_dag(4, [(3, 2), (2, 1), (1, 0)], node_dims=[1, 2, 1, 3])
        assert [g.tolist() for g in dp.ancestor_groups(dag).groups] == [
            list(range(7)), [1, 2, 3, 4, 5, 6], [3, 4, 5, 6], [4, 5, 6]
        ]

    @pytest.mark.parametrize("name", ["binary_tree13", "chain1500"])
    def test_build_peak_memory_is_linear_in_stacked_size(self, name):
        # one sorted array of 8 B per entry per group, then the flattened
        # result: no Python set or list per node on the way
        dag = dp.bench.binary_tree(13) if name == "binary_tree13" else _chain(1500)
        tracemalloc.start()
        try:
            gs = dp.ancestor_groups(dag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * gs.n, peak / gs.n

    def test_multidim_node_expansion(self):
        dag = dp.validate_dag(2, [(0, 1)], node_dims=[2, 1])
        gs = dp.ancestor_groups(dag)
        assert [list(g) for g in gs.groups] == [[0, 1], [0, 1, 2]]
        assert dag.d == 3

    def test_groups_are_views_of_the_stacked_coords(self, fig1b):
        for gs in (dp.ancestor_groups(fig1b), dp.build_index_map([[0], [2, 1], [0, 1]])):
            assert all(np.shares_memory(g, gs.stacked_coords) for g in gs.groups)
            assert np.array_equal(np.concatenate(gs.groups), gs.stacked_coords)

    def test_retained_memory_is_linear_in_stacked_size(self):
        # the stacked coordinates plus a few length-m arrays; no per-group objects
        dag = dp.bench.binary_tree(10)
        tracemalloc.start()
        try:
            gs = dp.ancestor_groups(dag)
            op = dp.SumOperator(gs)
            gs.starts, op.cover_counts
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (gs.n, gs.num_groups) == (9217, 1023)
        assert held <= 2 * (gs.n + gs.num_groups) * 8, held

    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_content_hash_is_pinned(self, name):
        gs = _golden_group_set(name)
        assert gs.content_hash() == GOLDEN_HASHES[name]
        assert dp.build_index_map(gs.groups, gs.weights, gs.d).canonical_text() == gs.canonical_text()


class TestIndexMap:
    def test_three_overlapping_groups(self):
        # 1-based {{1},{1,2},{1,3}} from the worked example, 0-based here
        gs = dp.build_index_map([[0], [0, 1], [0, 2]])
        assert gs.n == 5
        assert gs.index_ranges == ((0, 1), (1, 3), (3, 5))

    def test_single_full_group(self):
        gs = dp.build_index_map([list(range(7))], d=7)
        assert gs.n == 7
        assert gs.index_ranges == ((0, 7),)

    def test_repeated_group_is_legal(self):
        gs = dp.build_index_map([[0], [0], [0]], d=1)
        assert gs.n == 3
        assert gs.index_ranges == ((0, 1), (1, 2), (2, 3))

    def test_empty_group_rejected(self):
        with pytest.raises(dp.EmptyGroup):
            dp.build_index_map([[0], []])
        with pytest.raises(ValueError, match="^a group system needs at least one group$"):
            dp.build_index_map([], d=3)
        with pytest.raises(ValueError, match="^a group system needs at least one group$"):
            dp.build_index_map([])

    @pytest.mark.parametrize("group, shape", [([[1, 2]], "(1, 2)"), (2, "()")], ids=["nested", "scalar"])
    def test_group_that_is_not_flat_rejected(self, group, shape):
        # np.unique flattened [[1, 2]] into the group {1, 2}
        with pytest.raises(ValueError, match=re.escape(f"flat sequence of coordinates, got shape {shape}")):
            dp.build_index_map([[0, 1], group])

    def test_out_of_range_coordinate(self):
        with pytest.raises(dp.IndexOutOfRange):
            dp.build_index_map([[0, 5]], d=3)
        with pytest.raises(dp.IndexOutOfRange):
            dp.build_index_map([[-1]])

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            dp.build_index_map([[0]], weights=[0.0])
        with pytest.raises(dp.DimensionMismatch):
            dp.build_index_map([[0]], weights=[1.0, 2.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_ranges_partition(self, seed):
        rng = np.random.default_rng(seed)
        groups = [
            rng.choice(15, size=rng.integers(1, 6), replace=False)
            for _ in range(rng.integers(2, 9))
        ]
        gs = dp.build_index_map(groups, d=15)
        covered = []
        for (lo, hi), g in zip(gs.index_ranges, gs.groups):
            assert hi - lo == len(g)
            covered.extend(range(lo, hi))
        assert covered == list(range(gs.n))

    def test_shuffled_is_permutation(self):
        gs = dp.build_index_map([[0], [0, 1], [1, 2]], d=3)
        sh = gs.restrict(np.random.default_rng(7).permutation(gs.num_groups))[0]
        assert sh.num_groups == gs.num_groups
        assert {frozenset(g.tolist()) for g in sh.groups} == {
            frozenset(g.tolist()) for g in gs.groups
        }
        again = gs.restrict(np.random.default_rng(7).permutation(gs.num_groups))[0]
        assert all(np.array_equal(a, b) for a, b in zip(sh.groups, again.groups))

    def test_uncovered_reported(self):
        gs = dp.build_index_map([[0], [2]], d=4)
        assert gs.uncovered().tolist() == [1, 3]


def _restrict_cases(odd_group_sets):
    """``(group_set, keep)`` pairs: permutations, subsets and repeated ids."""
    dims_dag = dp.validate_dag(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)],
                               node_dims=[2, 1, 3, 1, 2, 2])
    rng = np.random.default_rng(5)
    cases = []
    for gs in [*odd_group_sets, dp.ancestor_groups(dims_dag)]:
        m = gs.num_groups
        cases += [
            (gs, rng.permutation(m)),
            (gs, np.sort(rng.choice(m, size=m // 2, replace=False))),
            (gs, rng.integers(0, m, size=2 * m)),
            (gs, [m - 1, 0, m - 1]),
        ]
    return cases


class TestRestrict:
    """``GroupSet.restrict`` against the group-by-group rebuild of the kept groups."""

    def test_all_groups_in_order_keep_the_layout(self, odd_group_sets):
        for gs in odd_group_sets:
            sub, entries = gs.restrict(np.arange(gs.num_groups))
            assert np.array_equal(sub.stacked_coords, gs.stacked_coords)
            assert np.array_equal(sub.sizes, gs.sizes)
            assert np.array_equal(sub.weights, gs.weights)
            assert sub.d == gs.d
            assert np.array_equal(entries, np.arange(gs.n))

    def test_matches_the_group_by_group_rebuild(self, odd_group_sets):
        for gs, keep in _restrict_cases(odd_group_sets):
            sub, entries = gs.restrict(keep)
            oracle = textbook_restrict(gs, np.asarray(keep))
            assert sub.stacked_coords.tobytes() == oracle.stacked_coords.tobytes()
            assert sub.sizes.tobytes() == oracle.sizes.tobytes()
            assert sub.weights.tobytes() == oracle.weights.tobytes()
            assert sub.d == oracle.d
            assert sub.content_hash() == oracle.content_hash()

    def test_entries_carry_a_stacked_vector(self, odd_group_sets):
        rng = np.random.default_rng(9)
        for gs, keep in _restrict_cases(odd_group_sets):
            sub, entries = gs.restrict(keep)
            x = rng.standard_normal(gs.n)
            assert np.array_equal(gs.stacked_coords[entries], sub.stacked_coords)
            for (lo, hi), j in zip(sub.index_ranges, keep):
                a, b = gs.index_ranges[j]
                assert np.array_equal(x[entries][lo:hi], x[a:b])

    @pytest.mark.parametrize("keep", [[], np.array([], dtype=np.intp)], ids=["list", "array"])
    def test_empty_keep(self, keep, odd_group_sets):
        # the sharing loop's lazy step may certify every group
        gs = odd_group_sets[0]
        sub, entries = gs.restrict(keep)
        assert (sub.num_groups, sub.n, sub.d) == (0, 0, gs.d)
        assert entries.size == 0 and entries.dtype.kind == "i"
        assert sub.weights.shape == (0,) and np.array_equal(sub.cover_counts, np.zeros(gs.d))

    @pytest.mark.parametrize("bad", [-1, 4, 1.5], ids=["negative", "num_groups", "fraction"])
    def test_bad_ids_rejected(self, bad, odd_group_sets):
        gs = odd_group_sets[0]
        assert gs.num_groups == 4
        with pytest.raises(dp.IndexOutOfRange):
            gs.restrict([0, bad])


def pairwise_nested(groups) -> bool:
    sets = [set(g.tolist()) for g in groups]
    return all(a <= b or b <= a for a in sets for b in sets)


class TestNestedOrder:
    def test_shuffled_chain_is_ordered_by_inclusion(self):
        dag = dp.validate_dag(6, [(i, i + 1) for i in range(5)], node_dims=[2, 1, 3, 1, 1, 2])
        gs = dp.ancestor_groups(dag)
        gs = gs.restrict(np.random.default_rng(3).permutation(gs.num_groups))[0]
        order = gs.nested_order
        sets = [set(gs.groups[j].tolist()) for j in order]
        assert all(a < b for a, b in zip(sets, sets[1:]))

    @pytest.mark.parametrize(
        "groups, nested",
        [
            ([[0]], True),
            ([[0, 1], [0], [0, 1]], True),
            ([[2, 3], [0, 1, 2, 3]], True),
            ([[0], [1]], False),
            ([[0], [1], [0, 1]], False),
            ([[0, 1], [1, 2]], False),
        ],
    )
    def test_small_families(self, groups, nested):
        gs = dp.build_index_map(groups, d=5)
        assert (gs.nested_order is not None) == nested

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_inclusion(self, seed):
        rng = np.random.default_rng(seed)
        d = 8
        perm = rng.permutation(d)
        sizes = np.sort(rng.choice(np.arange(1, d), size=rng.integers(2, 6), replace=False))
        groups = [perm[:k] for k in sizes]
        if seed % 2:  # the smallest group swaps a coordinate for one in no group
            groups[0] = np.append(groups[0][1:], perm[-1])
        gs = dp.build_index_map(groups, d=d)
        gs = gs.restrict(np.random.default_rng(seed).permutation(gs.num_groups))[0]
        order = gs.nested_order
        assert (order is not None) == pairwise_nested(gs.groups)
        if order is not None:
            sets = [set(gs.groups[j].tolist()) for j in order]
            assert all(a <= b for a, b in zip(sets, sets[1:]))

    def test_tree_is_not_nested(self, fig1b):
        assert dp.ancestor_groups(fig1b).nested_order is None

    def test_not_computed_while_building_groups(self):
        dag = dp.validate_dag(5, [(i, i + 1) for i in range(4)])
        gs = dp.ancestor_groups(dag)
        dp.lambda_max(dp.LeastSquaresLoss(np.eye(5), np.ones(5)), gs)
        assert "nested_order" not in vars(gs)


class TestHierarchyConformance:
    def test_chain_all_nonzero(self):
        dag = dp.validate_dag(2, [(0, 1)])
        rep = dp.check_hierarchy_conformance(dag, np.array([1.0, 1.0]))
        assert rep.num_violations == 0

    def test_fig1b_strong_vs_weak(self, fig1b):
        # node 2 nonzero, parent 0 zero, parent 1 nonzero
        beta = np.array([0.0, 1.0, 1.0, 0.0])
        strong = dp.check_hierarchy_conformance(fig1b, beta, mode="strong")
        weak = dp.check_hierarchy_conformance(fig1b, beta, mode="weak")
        assert strong.num_violations == 1
        assert strong.violations[0].child == 2
        assert strong.violations[0].parents == (0,)
        assert weak.num_violations == 0

    def test_weak_violation_when_all_parents_zero(self, fig1b):
        beta = np.array([0.0, 0.0, 1.0, 0.0])
        weak = dp.check_hierarchy_conformance(fig1b, beta, mode="weak")
        assert weak.num_violations == 1
        assert weak.violations[0].child == 2

    def test_zero_beta_clean(self, fig1b):
        for mode in ("strong", "weak"):
            rep = dp.check_hierarchy_conformance(fig1b, np.zeros(4), mode=mode)
            assert rep.num_violations == 0

    def test_threshold_applies(self, fig1b):
        beta = np.array([5e-9, 1.0, 1.0, 0.0])
        rep = dp.check_hierarchy_conformance(fig1b, beta, threshold=1e-8)
        assert rep.num_violations == 1  # parent 0 counts as zero

    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags_match_the_node_scan(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 30))
        edges = [
            (i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
            if rng.random() < 0.2
        ]
        dag = dp.validate_dag(num_nodes, edges, rng.integers(1, 5, num_nodes))
        beta = rng.standard_normal(dag.d) * (rng.random(dag.d) < 0.2)
        beta[rng.random(dag.d) < 0.1] = 1e-8  # exactly at the threshold: zero
        for mode in ("strong", "weak"):
            rep = dp.check_hierarchy_conformance(dag, beta, 1e-8, mode)
            nonzero, violations = textbook_hierarchy(dag, beta, 1e-8, mode)
            assert rep.nonzero_nodes == nonzero
            assert [(v.child, v.parents) for v in rep.violations] == violations
            assert all(type(i) is int for i in rep.nonzero_nodes)

    def test_dimension_mismatch(self, fig1b):
        with pytest.raises(dp.DimensionMismatch):
            dp.check_hierarchy_conformance(fig1b, np.zeros(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_rejected(self, bad):
        # NaN fails every comparison with the threshold, so it would read as a zero node
        chain = dp.validate_dag(3, [(0, 1), (1, 2)])
        with pytest.raises(dp.NonFiniteInput):
            dp.check_hierarchy_conformance(chain, np.array([bad, 1.0, 1.0]))

    def test_bad_mode_and_threshold(self, fig1b):
        with pytest.raises(ValueError):
            dp.check_hierarchy_conformance(fig1b, np.zeros(4), mode="both")
        with pytest.raises(ValueError):
            dp.check_hierarchy_conformance(fig1b, np.zeros(4), threshold=0.0)


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, fig1b):
        path = tmp_path / "g.txt"
        dp.write_edge_list(fig1b, path)
        again = dp.read_edge_list(path)
        assert again == fig1b
        dp.write_edge_list(again, tmp_path / "g2.txt")
        assert (tmp_path / "g.txt").read_text() == (tmp_path / "g2.txt").read_text()

    def test_edge_list_round_trip_keeps_node_dims(self, tmp_path):
        dag = dp.validate_dag(3, [(0, 1), (0, 2)], node_dims=[2, 1, 3])
        path = tmp_path / "g.txt"
        dp.write_edge_list(dag, path)
        assert path.read_text() == "nodes 3\ndims 2 1 3\n0 1\n0 2\n"
        again = dp.read_edge_list(path)
        assert again == dag
        assert again.node_dims == (2, 1, 3)

    def test_edge_list_comments_and_dims(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\nnodes 2\ndims 2 1  # trailing\n0 1\n")
        dag = dp.read_edge_list(path)
        assert dag.node_dims == (2, 1)
        assert dag.edges == ((0, 1),)

    def test_edge_list_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            dp.read_edge_list(path)

    @pytest.mark.parametrize(
        "text, error",
        [("nodes 2\n0 1\n1 0\n", dp.CycleDetected), ("nodes 2\n0 1\n0 1\n", dp.DuplicateEdge),
         ("nodes 2\n0 5\n", dp.IndexOutOfRange), ("nodes 2\ndims 1\n", dp.DimensionMismatch),
         ("nodes 0\n", ValueError), ("nodes\n", ValueError), ("nodes 2\n0 1.5\n", ValueError),
         ("nodes 2\ndims 1 1\ndims 3 3\n", ValueError), ("nodes 2\nnodes 2\n", ValueError),
         ("dims 1 1\nnodes 2\n", ValueError), ("nodes 3\n0 1 2\n", ValueError),
         ("# only a comment\n\n", ValueError)],
        ids=["cycle", "duplicate", "out of range", "dims", "no nodes", "bare nodes", "float",
             "repeated dims", "repeated nodes", "dims before nodes", "three ids", "no lines"],
    )
    def test_edge_list_errors_keep_their_type_and_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            dp.read_edge_list(path)

    def test_group_file_round_trip(self, tmp_path):
        gs = dp.build_index_map([[0], [0, 1], [1, 2]], weights=[1.0, 2.5, 0.75], d=3)
        path = tmp_path / "groups.txt"
        dp.write_group_file(gs, path)
        again = dp.read_group_file(path, d=3)
        assert all(np.array_equal(a, b) for a, b in zip(gs.groups, again.groups))
        assert np.allclose(gs.weights, again.weights)

    def test_group_file_rejects_bad_weight(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("-1.0: 0 1\n")
        with pytest.raises(ValueError):
            dp.read_group_file(path)

    @pytest.mark.parametrize(
        "text, error",
        [("-1.0: 0 1\n", ValueError), ("1.0: 0 x\n", ValueError), ("1.0:\n", dp.EmptyGroup),
         ("w: 0\n", ValueError), ("1.0 0 1\n", ValueError), ("# only a comment\n", ValueError),
         ("1.0: -1\n", dp.IndexOutOfRange), ("1.0: 0 7\n", dp.IndexOutOfRange),
         ("0: 0 1\n", ValueError), ("nan: 0 1\n", ValueError), ("inf: 0 1\n", ValueError)],
        ids=["negative weight", "non-integer index", "empty group", "non-numeric weight",
             "no colon", "no groups", "negative index", "index beyond d", "zero weight",
             "nan weight", "inf weight"],
    )
    def test_group_file_errors_keep_their_type_and_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "groups.txt"
        path.write_text(text)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            dp.read_group_file(path, d=3)
