import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagprox as dp
from dagprox import bench
from dagprox.bench import reference_solution
from dagprox.kernels import PENALTY_TOL, blockwise_soft_threshold, nested_prox, penalty_value
from oracles import (
    brute_force_two_group_log_penalty,
    dense_m,
    latent_penalty_bracket,
    prox_kkt_residuals,
    textbook_group_soft_threshold,
)


@pytest.fixture
def fig1b_groups():
    dag = dp.validate_dag(4, [(0, 2), (1, 2), (1, 3)])
    return dp.ancestor_groups(dag)


def random_group_set(seed, d=12, max_groups=8):
    rng = np.random.default_rng(seed)
    groups = [
        rng.choice(d, size=rng.integers(1, d // 2 + 1), replace=False)
        for _ in range(rng.integers(2, max_groups))
    ]
    return dp.build_index_map(groups, d=d)


class TestSumOperator:
    @pytest.mark.parametrize("seed", range(6))
    def test_apply_matches_dense_oracle(self, seed):
        gs = random_group_set(seed)
        op = dp.SumOperator(gs)
        m = dense_m(gs)
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal(gs.n)
        v = rng.standard_normal(gs.d)
        assert np.allclose(op.apply(x), m @ x, atol=1e-13)
        assert np.allclose(op.adjoint_apply(v), m.T @ v, atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_consistency(self, seed):
        gs = random_group_set(200 + seed)
        op = dp.SumOperator(gs)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(gs.n)
        y = rng.standard_normal(gs.d)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint_apply(y))
        assert abs(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(x) * np.linalg.norm(y))

    def test_cover_counts(self, fig1b_groups):
        op = dp.SumOperator(fig1b_groups)
        assert op.cover_counts.tolist() == [2, 3, 1, 1]

    def test_shape_checks(self, fig1b_groups):
        op = dp.SumOperator(fig1b_groups)
        with pytest.raises(dp.DimensionMismatch):
            op.apply(np.zeros(op.n + 1))
        with pytest.raises(dp.DimensionMismatch):
            op.adjoint_apply(np.zeros(op.d + 1))


class TestGroupSoftThreshold:
    def test_boundary_is_zero(self):
        assert np.array_equal(dp.group_soft_threshold(np.array([3.0, 4.0]), 5.0), [0.0, 0.0])

    def test_zero_threshold_identity(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(dp.group_soft_threshold(v, 0.0), v)

    def test_shrinkage_factor(self):
        out = dp.group_soft_threshold(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0], atol=1e-15)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(dp.NonFiniteInput):
                dp.group_soft_threshold(np.array([bad, 1.0]), 1.0)
            # an overflowing finite entry must not hide the bad one
            with pytest.raises(dp.NonFiniteInput), np.errstate(over="ignore", invalid="ignore"):
                dp.group_soft_threshold(np.array([1e200, bad]), 1.0)

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_bad_threshold_rejected(self, t):
        with pytest.raises(ValueError):
            dp.group_soft_threshold(np.array([1.0]), t)

    def test_overflowing_norm_returns_input(self):
        # ||v||^2 overflows to inf: the shrink factor is 1 - t/inf = 1
        v = np.array([1e200, -1e200, 1e200])
        with np.errstate(over="ignore"):
            out = dp.group_soft_threshold(v, 3.0)
        assert out is not v
        assert out.tobytes() == v.tobytes()

    def test_bit_identical_to_textbook(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = rng.standard_normal(rng.integers(1, 40)) * 10.0 ** rng.integers(-5, 5)
            t = float(rng.uniform(0, 1.5)) * np.linalg.norm(v)
            for arg in (v, v[::2], v[::-1], v[1::3]):
                if arg.size:
                    expected = textbook_group_soft_threshold(arg, t)
                    assert dp.group_soft_threshold(arg, t).tobytes() == expected.tobytes()

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.floats(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonexpansive(self, u, v, t):
        k = min(len(u), len(v))
        a, b = np.array(u[:k]), np.array(v[:k])
        d_out = np.linalg.norm(
            dp.group_soft_threshold(a, t) - dp.group_soft_threshold(b, t)
        )
        assert d_out <= np.linalg.norm(a - b) + 1e-12

    def test_blockwise_matches_per_group(self):
        gs = random_group_set(3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(gs.n)
        thr = rng.uniform(0, 2, gs.num_groups)
        out = blockwise_soft_threshold(x, thr, gs)
        for (lo, hi), t in zip(gs.index_ranges, thr):
            assert np.allclose(out[lo:hi], dp.group_soft_threshold(x[lo:hi], t), atol=1e-14)


class TestObjective:
    def test_zero_latent(self):
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        b = np.array([1.0, -2.0])
        inst = dp.ProxInstance(b=b, lam=0.7, group_set=gs)
        assert dp.objective_f(np.zeros(gs.n), inst) == pytest.approx(0.5 * (1 + 4))

    def test_exact_fit_no_penalty(self):
        gs = dp.build_index_map([[0, 1, 2]], d=3)
        b = np.array([1.0, 2.0, 3.0])
        inst = dp.ProxInstance(b=b, lam=0.0, group_set=gs)
        assert dp.objective_f(b.copy(), inst) == 0.0

    def test_worked_example_against_dense_oracle(self):
        # groups {0},{0,1} (1-based {1},{1,2}), w=(1, sqrt 2), lam=1, b=(1,1)
        gs = dp.build_index_map([[0], [0, 1]], weights=[1.0, np.sqrt(2)], d=2)
        b = np.array([1.0, 1.0])
        inst = dp.ProxInstance(b=b, lam=1.0, group_set=gs)
        x = np.array([0.5, 0.25, 0.25])
        m = dense_m(gs)
        oracle = (
            1.0 * np.linalg.norm(x[0:1])
            + np.sqrt(2) * np.linalg.norm(x[1:3])
            + 0.5 * np.linalg.norm(m @ x - b) ** 2
        )
        val = dp.objective_f(x, inst)
        assert val == pytest.approx(oracle, rel=1e-15)
        assert val == pytest.approx(1.3125, rel=1e-15)

    def test_dimension_mismatch(self):
        gs = dp.build_index_map([[0]], d=1)
        inst = dp.ProxInstance(b=np.array([1.0]), lam=0.0, group_set=gs)
        with pytest.raises(dp.DimensionMismatch):
            dp.objective_f(np.zeros(2), inst)

    def test_lower_bound_is_distance_to_range(self):
        # coordinate 2 uncovered: any x leaves at least b_2^2 / 2
        gs = dp.build_index_map([[0], [1]], d=3)
        b = np.array([1.0, -1.0, 2.0])
        inst = dp.ProxInstance(b=b, lam=0.0, group_set=gs)
        floor = 0.5 * b[2] ** 2
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert dp.objective_f(rng.standard_normal(gs.n), inst) >= floor - 1e-12
        assert dp.objective_f(b[:2].copy(), inst) == pytest.approx(floor)


class TestLogPenalty:
    def test_zero_beta(self):
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        assert dp.log_penalty_value(np.zeros(2), gs, 1.0) == 0.0

    def test_single_group_is_weighted_norm(self):
        gs = dp.build_index_map([[0, 1, 2]], weights=[1.0], d=3)
        beta = np.array([3.0, 0.0, 4.0])
        val = dp.log_penalty_value(beta, gs, 2.0)
        assert val == pytest.approx(2.0 * 5.0, abs=1e-8)

    def test_two_group_brute_force(self):
        w = np.array([1.0, 1.0])
        gs = dp.build_index_map([[0], [0, 1]], weights=w, d=2)
        beta = np.array([1.0, 1.0])
        oracle = brute_force_two_group_log_penalty(beta, w)
        val = dp.log_penalty_value(beta, gs, 1.0)
        # the nested groups put all of beta in {0, 1}
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert oracle == pytest.approx(val, abs=1e-5)

    def test_two_group_brute_force_nontrivial_split(self):
        # heavier second group forces part of beta_0 into the first group
        w = np.array([1.0, 3.0])
        gs = dp.build_index_map([[0], [0, 1]], weights=w, d=2)
        beta = np.array([2.0, 0.5])
        oracle = brute_force_two_group_log_penalty(beta, w, span=4.0)
        val = dp.log_penalty_value(beta, gs, 1.0)
        # stationarity of |a| + 3 ||(2 - a, 0.5)|| gives 2 - a = 0.5 / sqrt(8)
        assert val == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
        assert oracle == pytest.approx(val, abs=1e-5)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
    def test_positive_homogeneity(self, scale):
        gs = random_group_set(11, d=8)
        rng = np.random.default_rng(2)
        beta = np.zeros(8)
        covered = np.flatnonzero(gs.cover_counts > 0)
        beta[covered] = rng.standard_normal(covered.size)
        base = dp.log_penalty_value(beta, gs, 1.0)
        scaled = dp.log_penalty_value(scale * beta, gs, 1.0)
        assert scaled == pytest.approx(scale * base, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_upper_bounded_by_any_feasible_decomposition(self, seed):
        gs = random_group_set(300 + seed, d=10)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(gs.n)
        beta = dp.SumOperator(gs).apply(x)
        val = dp.log_penalty_value(beta, gs, 1.0)
        assert val <= penalty_value(x, gs, 1.0) + 1e-7

    def test_uncovered_support_returns_inf(self):
        gs = dp.build_index_map([[0]], d=2)
        assert dp.log_penalty_value(np.array([1.0, 1.0]), gs, 1.0) == np.inf
        assert dp.log_penalty_value(np.array([1.0, 0.0]), gs, 1.0) == pytest.approx(1.0, abs=1e-9)


class TestOperatorNorm:
    def test_single_full_group(self):
        gs = dp.build_index_map([[0, 1, 2]], d=3)
        assert dp.operator_norm_sq(dp.SumOperator(gs)) == pytest.approx(1.0, rel=1e-9)

    def test_k_copies_of_one_coordinate(self):
        gs = dp.build_index_map([[0]] * 6, d=1)
        assert dp.operator_norm_sq(dp.SumOperator(gs)) == pytest.approx(6.0, rel=1e-9)

    def test_fig1b_against_dense_eigensolver(self, fig1b_groups):
        op = dp.SumOperator(fig1b_groups)
        m = dense_m(fig1b_groups)
        oracle = float(np.linalg.eigvalsh(m.T @ m)[-1])
        assert dp.operator_norm_sq(op) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_max_cover_count(self, seed):
        gs = random_group_set(400 + seed)
        op = dp.SumOperator(gs)
        assert dp.operator_norm_sq(op) == pytest.approx(
            float(op.cover_counts.max()), rel=1e-9
        )


class TestProxInstance:
    def test_validation(self):
        gs = dp.build_index_map([[0]], d=1)
        with pytest.raises(dp.DimensionMismatch):
            dp.ProxInstance(b=np.zeros(2), lam=1.0, group_set=gs)
        with pytest.raises(
            dp.DimensionMismatch, match=r"^b has shape \(2,\) \(length 2\), expected \(4,\)$"
        ):
            dp.ProxInstance(b=np.zeros(2), lam=1.0, group_set=chain_groups(4))
        with pytest.raises(dp.NonFiniteInput):
            dp.ProxInstance(b=np.array([np.inf]), lam=1.0, group_set=gs)
        with pytest.raises(ValueError):
            dp.ProxInstance(b=np.zeros(1), lam=-0.5, group_set=gs)

    def test_operator_group_set_must_match(self):
        gs1 = dp.build_index_map([[0]], d=1)
        gs2 = dp.build_index_map([[0]], d=1)
        op = dp.SumOperator(gs1)
        with pytest.raises(dp.DimensionMismatch):
            dp.ProxInstance(b=np.zeros(1), lam=0.0, group_set=gs2, operator=op)


def chain_groups(num_nodes, dims=None, weights=None):
    dag = dp.validate_dag(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)], dims)
    gs = dp.ancestor_groups(dag)
    return gs if weights is None else dp.build_index_map(gs.groups, weights=weights, d=gs.d)


def assert_prox_kkt(b, lam, gs, tol=1e-12):
    theta, beta, x = nested_prox(dp.ProxInstance(b=b, lam=lam, group_set=gs))
    assert np.array_equal(beta, b - theta)
    scale = max(1.0, float(np.linalg.norm(b)))
    for name, value in prox_kkt_residuals(b, lam, gs, theta, x).items():
        assert value <= tol * scale, name
    return theta, beta, x


class TestNestedProx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_chain_matches_sharing_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 16))
        dims = rng.integers(1, 4, num_nodes)
        weights = rng.uniform(0.2, 3.0, num_nodes) if seed % 2 else None
        gs = chain_groups(num_nodes, dims, weights)
        gs = gs.restrict(np.random.default_rng(seed).permutation(gs.num_groups))[0]
        b = rng.standard_normal(gs.d) * rng.uniform(0.5, 4.0)
        lam = float(rng.uniform(0.05, 1.5))
        _, beta, x = assert_prox_kkt(b, lam, gs)
        inst = dp.ProxInstance(b=b, lam=lam, group_set=gs)
        ref = reference_solution(inst)
        assert np.max(np.abs(beta - ref.beta)) <= 1e-10
        assert dp.objective_f(x, inst) <= ref.objective + 1e-12 * max(1.0, ref.objective)

    @pytest.mark.parametrize("solver", dp.SOLVER_NAMES)
    def test_every_solver_reaches_the_closed_form(self, solver):
        gs = chain_groups(12)
        b = np.random.default_rng(4).standard_normal(12)
        opts = dp.SolveOptions(max_iter=200_000, tol_opt=1e-10, tol_primal=1e-10, tol_dual=1e-10)
        res = dp.solve_prox(dp.ProxInstance(b=b, lam=0.4, group_set=gs), solver, opts)
        assert res.converged
        closed_form = nested_prox(dp.ProxInstance(b=b, lam=0.4, group_set=gs))[1]
        assert np.max(np.abs(res.beta - closed_form)) <= 1e-7

    def test_lambda_zero_returns_the_input_on_the_cover(self):
        gs = dp.build_index_map([[0, 1], [0], [0, 1, 3]], d=5)
        b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
        with np.errstate(all="raise"):
            theta, beta, x = assert_prox_kkt(b, 0.0, gs)
        assert np.array_equal(beta, [1.0, -2.0, 0.0, 0.5, 0.0])
        assert np.array_equal(theta, [0.0, 0.0, 3.0, 0.0, 0.0])

    def test_zero_input_gives_zeros(self):
        gs = chain_groups(5)
        theta, beta, x = assert_prox_kkt(np.zeros(5), 0.7, gs)
        assert not np.any(theta) and not np.any(beta) and not np.any(x)

    @pytest.mark.parametrize("zero_shells", [[0], [2], [0, 1], [4], [1, 3]])
    def test_shell_with_zero_input(self, zero_shells):
        gs = chain_groups(6, dims=[2] * 6)
        b = np.random.default_rng(11).standard_normal(12)
        for k in zero_shells:
            b[2 * k : 2 * k + 2] = 0.0
        for lam in (0.05, 0.3, 1.0):
            assert_prox_kkt(b, lam, gs)

    def test_repeated_groups_bind_at_the_smallest_weight(self):
        gs = dp.build_index_map([[0, 1], [0], [0, 1], [0]], weights=[2.0, 1.0, 0.5, 3.0], d=2)
        b = np.array([3.0, 4.0])
        theta, beta, _ = assert_prox_kkt(b, 1.0, gs)
        # [0, 1] with weight 0.5 binds: theta is b scaled to norm 0.5
        assert np.allclose(theta, 0.1 * b, rtol=1e-15)
        assert np.allclose(beta, 0.9 * b, rtol=1e-15)

    def test_uncovered_coordinates_stay_zero(self):
        gs = dp.build_index_map([[1], [1, 3]], d=5)
        b = np.array([2.0, 1.5, -1.0, 0.5, 4.0])
        theta, beta, _ = assert_prox_kkt(b, 0.4, gs)
        assert beta[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
        assert theta[[0, 2, 4]].tolist() == [2.0, -1.0, 4.0]

    def test_single_node_is_a_group_soft_threshold(self):
        gs = chain_groups(1, dims=[3])
        b = np.array([1.0, -2.0, 2.0])
        for lam in (0.5, 1.0, 2.0):
            _, beta, _ = assert_prox_kkt(b, lam, gs)
            expected = dp.group_soft_threshold(b, lam * np.sqrt(3.0))
            assert np.allclose(beta, expected, rtol=0, atol=1e-15)

    def test_above_lambda_max_gives_zero(self):
        gs = chain_groups(8)
        b = np.random.default_rng(2).standard_normal(8)
        lam_max = max(np.linalg.norm(b[g]) / w for g, w in zip(gs.groups, gs.weights))
        theta, beta, x = assert_prox_kkt(b, 1.001 * lam_max, gs)
        assert not np.any(beta) and not np.any(x)
        assert np.array_equal(theta, b)

    def test_deep_chain(self):
        gs = chain_groups(1500)
        assert gs.n == 1500 * 1501 // 2
        b = np.random.default_rng(8).standard_normal(1500)
        for lam in (0.01, 0.1):
            _, beta, _ = assert_prox_kkt(b, lam, gs, tol=1e-11)
            assert np.any(beta)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_match_the_unit_prox(self, scale):
        # the prox is positively homogeneous in (b, lam); unscaled, the squared
        # energies overflow at 1e200 and underflow at 1e-200
        gs = chain_groups(4)
        b = np.array([1.0, -2.0, 0.5, 3.0])
        _, unit, _ = nested_prox(dp.ProxInstance(b=b, lam=0.5, group_set=gs))
        assert np.allclose(unit, [0.735, -1.470, 0.368, 2.205], atol=5e-4)
        _, beta, _ = nested_prox(dp.ProxInstance(b=scale * b, lam=0.5 * scale, group_set=gs))
        assert np.allclose(beta / scale, unit, rtol=1e-12, atol=0)

    def test_unnested_groups_rejected(self, fig1b_groups):
        with pytest.raises(ValueError, match="inclusion"):
            nested_prox(dp.ProxInstance(b=np.ones(4), lam=0.5, group_set=fig1b_groups))

    @pytest.mark.parametrize(
        "b, lam, error",
        [
            ([1.0, np.nan, 3.0], 0.5, dp.NonFiniteInput),
            ([1.0, 2.0], 0.5, dp.DimensionMismatch),
            ([1.0, 2.0, 3.0], np.nan, ValueError),
            ([1.0, 2.0, 3.0], -1.0, ValueError),
        ],
    )
    def test_bad_input_rejected_before_the_block_rule(self, b, lam, error):
        # nested_prox takes only a checked ProxInstance: on the 3-node chain a
        # NaN entry, a short b or a bad lam never reaches the closed form
        gs = chain_groups(3)
        with pytest.raises(error):
            nested_prox(dp.ProxInstance(b=np.array(b), lam=lam, group_set=gs))
        with pytest.raises(TypeError):
            nested_prox(np.array(b), lam, gs)


def assert_in_bracket(beta, gs, tol=1e-12, gap=0.0):
    """The value lies in the oracle's bracket, widened above by ``gap``.

    ``gap`` is the evaluator's own relative duality gap: 0 where the value
    is closed form, :data:`PENALTY_TOL` where the loop certifies it.
    """
    value = dp.log_penalty_value(beta, gs, 1.0)
    lower, upper = latent_penalty_bracket(beta, gs)
    slack = tol * max(1.0, upper)
    assert lower - slack <= value <= upper + slack + gap * value
    return value


class TestNestedPenalty:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_chain_within_the_admm_bracket(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(2, 10))
        dims = rng.integers(1, 4, num_nodes)
        gs = chain_groups(num_nodes, dims, rng.uniform(0.2, 3.0, num_nodes))
        gs = gs.restrict(np.random.default_rng(seed).permutation(gs.num_groups))[0]
        beta = rng.standard_normal(gs.d) * rng.uniform(0.3, 4.0)
        offsets = np.cumsum(dims) - dims
        for k in rng.choice(num_nodes, size=seed % 3, replace=False):  # zero shells
            beta[offsets[k] : offsets[k] + dims[k]] = 0.0
        assert_in_bracket(beta, gs)

    def test_repeated_groups(self):
        gs = dp.build_index_map([[0, 1], [0], [0, 1], [0]], weights=[2.0, 1.0, 0.5, 3.0], d=2)
        value = assert_in_bracket(np.array([3.0, 4.0]), gs)
        # the copy of [0, 1] with weight 0.5 carries all of beta
        assert value == pytest.approx(2.5, rel=1e-15)

    def test_uncovered_zero_coordinates(self):
        gs = dp.build_index_map([[1], [1, 3]], weights=[0.7, 1.9], d=5)
        assert_in_bracket(np.array([0.0, 1.5, 0.0, -0.5, 0.0]), gs)

    def test_single_group_is_a_weighted_norm(self):
        gs = chain_groups(1, dims=[3], weights=[1.7])
        beta = np.array([2.0, -1.0, 2.0])
        assert assert_in_bracket(beta, gs) == pytest.approx(1.7 * 3.0, rel=1e-15)

    @pytest.mark.parametrize("scale", [2.0**-30, 0.5, 3.0, 1e6])
    def test_positive_homogeneity(self, scale):
        rng = np.random.default_rng(5)
        gs = chain_groups(7, rng.integers(1, 4, 7), rng.uniform(0.2, 3.0, 7))
        beta = rng.standard_normal(gs.d)
        base = dp.log_penalty_value(beta, gs, 1.0)
        assert dp.log_penalty_value(scale * beta, gs, 2.0) == pytest.approx(
            2.0 * scale * base, rel=1e-14
        )

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
    def test_power_of_two_scales_are_exact(self, exponent):
        # squared entries would underflow to 0 or overflow to inf
        rng = np.random.default_rng(6)
        gs = chain_groups(5, rng.integers(1, 4, 5))
        beta = rng.standard_normal(gs.d)
        scaled = dp.log_penalty_value(np.ldexp(beta, exponent), gs, 1.0)
        assert scaled == math.ldexp(dp.log_penalty_value(beta, gs, 1.0), exponent)

    def test_takes_no_evaluator_iteration(self, monkeypatch, fig1b_groups):
        gs = chain_groups(6, dims=[2] * 6)
        beta = np.random.default_rng(3).standard_normal(12)
        exact = dp.log_penalty_value(beta, gs, 1.0)
        monkeypatch.setattr(dp.kernels, "PENALTY_MAX_ITER", 0)
        assert dp.log_penalty_value(beta, gs, 1.0) == exact
        with pytest.raises(dp.NoConvergence):
            dp.log_penalty_value(np.ones(4), fig1b_groups, 1.0)


#: group families whose ancestor or random groups are not nested
UNNESTED = {
    "fig1b": lambda: dp.ancestor_groups(dp.validate_dag(4, [(0, 2), (1, 2), (1, 3)])),
    **{f"random{seed}": (lambda seed=seed: random_group_set(seed)) for seed in range(21, 25)},
    "two_layer21": lambda: dp.ancestor_groups(bench.two_layer(21)),
    "binary_tree4": lambda: dp.ancestor_groups(bench.binary_tree(4)),
    "root_two_paths11": lambda: dp.ancestor_groups(bench.root_two_paths(11)),
}

FIG1B_BETA = np.array([1.0, -2.0, 0.5, 3.0])


class TestUnnestedPenalty:
    @pytest.mark.parametrize("family", UNNESTED)
    def test_within_the_admm_bracket(self, family):
        gs = UNNESTED[family]()
        assert gs.nested_order is None
        rng = np.random.default_rng(gs.n)
        beta = np.where(gs.cover_counts > 0, rng.standard_normal(gs.d), 0.0)
        assert_in_bracket(beta, gs, gap=PENALTY_TOL)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_match_the_unit_value(self, fig1b_groups, scale):
        # unscaled, the penalty overflows at 1e200 and the iteration stalls
        # at 1e-200
        base = dp.log_penalty_value(FIG1B_BETA, fig1b_groups, 1.0)
        scaled = dp.log_penalty_value(scale * FIG1B_BETA, fig1b_groups, 1.0)
        assert scaled / scale == pytest.approx(base, rel=PENALTY_TOL)

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
    def test_power_of_two_scales_are_exact(self, fig1b_groups, exponent):
        scaled = dp.log_penalty_value(np.ldexp(FIG1B_BETA, exponent), fig1b_groups, 1.0)
        assert scaled == math.ldexp(dp.log_penalty_value(FIG1B_BETA, fig1b_groups, 1.0), exponent)

    def test_keeps_no_state_between_calls(self, fig1b_groups):
        evaluator = dp.kernels.LatentPenaltyEvaluator(fig1b_groups)
        first = evaluator.value(FIG1B_BETA, 1.0)
        evaluator.value(np.array([0.3, 1.0, -4.0, 2.0]), 1.0)
        assert evaluator.value(FIG1B_BETA, 1.0) == first

    def test_non_finite_hint_rejected(self, fig1b_groups):
        evaluator = dp.kernels.LatentPenaltyEvaluator(fig1b_groups)
        with pytest.raises(dp.NonFiniteInput, match="latent_hint"):
            evaluator.value(FIG1B_BETA, 1.0, latent_hint=np.full(fig1b_groups.n, np.nan))

    def test_wrong_length_hint_rejected(self, fig1b_groups):
        evaluator = dp.kernels.LatentPenaltyEvaluator(fig1b_groups)
        with pytest.raises(dp.DimensionMismatch, match="^latent_hint has shape"):
            evaluator.value(FIG1B_BETA, 1.0, latent_hint=np.ones(3))

    def test_zero_penalty_level_takes_no_evaluator_iteration(self, monkeypatch, fig1b_groups):
        monkeypatch.setattr(dp.kernels, "PENALTY_MAX_ITER", 0)
        assert dp.log_penalty_value(FIG1B_BETA, fig1b_groups, 0.0) == 0.0
        off_cover = dp.build_index_map([[0, 1], [1, 2]], d=4)
        assert dp.log_penalty_value(FIG1B_BETA, off_cover, 0.0) == math.inf

    def test_budget_exhaustion_names_the_gap_reached(self, monkeypatch, fig1b_groups):
        monkeypatch.setattr(dp.kernels, "PENALTY_MAX_ITER", 20)
        with pytest.raises(dp.NoConvergence, match=r"relative gap \S+ > 1e-10 after 20 iter"):
            dp.log_penalty_value(FIG1B_BETA, fig1b_groups, 1.0)
