import numpy as np
import pytest

import dagprox as dp
from dagprox.solvers import SOLVER_NAMES
from oracles import textbook_bcd, textbook_pgm

# the dense reference is reached directly: it is not a dispatchable solver
ADMM_SOLVERS = {"admm": dp.prox_log_admm_unscaled, "sharing": dp.prox_log_admm_sharing}

TIGHT = dp.SolveOptions(
    max_iter=200_000, tol_opt=1e-10, tol_primal=1e-10, tol_dual=1e-10
)


@pytest.fixture(scope="module")
def small_instance():
    dag = dp.bench.random_dag(8, edge_prob=0.3, seed=1)
    gs = dp.ancestor_groups(dag)
    b = np.random.default_rng(42).standard_normal(dag.d)
    return dp.ProxInstance(b=b, lam=0.5, group_set=gs)


@pytest.fixture(scope="module")
def chain_instance():
    dag = dp.validate_dag(6, [(i, i + 1) for i in range(5)])
    gs = dp.ancestor_groups(dag)
    b = np.random.default_rng(7).standard_normal(dag.d)
    return dp.ProxInstance(b=b, lam=0.4, group_set=gs)


@pytest.fixture(scope="module")
def two_layer_instance():
    gs = dp.ancestor_groups(dp.bench.two_layer(21))
    return dp.ProxInstance(b=dp.bench.sample_input(gs.d, 0, 0), lam=0.5, group_set=gs)


class TestClosedFormCases:
    @pytest.mark.parametrize("method", SOLVER_NAMES)
    def test_lambda_zero_recovers_input(self, method, small_instance):
        inst = dp.ProxInstance(
            b=small_instance.b, lam=0.0, group_set=small_instance.group_set
        )
        res = dp.solve_prox(inst, method, TIGHT)
        assert np.max(np.abs(res.beta - inst.b)) <= 1e-8

    def test_bcd_zero_input_converges_immediately(self, small_instance):
        inst = dp.ProxInstance(
            b=np.zeros(small_instance.d), lam=0.5, group_set=small_instance.group_set
        )
        res = dp.prox_log_bcd(inst)
        assert res.converged and res.iterations <= 1
        assert np.array_equal(res.beta, np.zeros(inst.d))

    @pytest.mark.parametrize("method", SOLVER_NAMES)
    def test_single_full_group_closed_form(self, method):
        gs = dp.build_index_map([list(range(5))], weights=[1.3], d=5)
        b = np.random.default_rng(3).standard_normal(5)
        lam = 0.8
        inst = dp.ProxInstance(b=b, lam=lam, group_set=gs)
        expected = dp.group_soft_threshold(b, lam * 1.3)
        res = dp.solve_prox(inst, method, TIGHT)
        assert np.max(np.abs(res.beta - expected)) <= 1e-8

    @pytest.mark.parametrize("method", ("bcd", "pgm"))
    def test_large_lambda_zeroes_in_two_iterations(self, method, small_instance):
        gs = small_instance.group_set
        lam_zero = max(
            np.linalg.norm(small_instance.b[g]) / w
            for g, w in zip(gs.groups, gs.weights)
        )
        inst = dp.ProxInstance(b=small_instance.b, lam=1.01 * lam_zero, group_set=gs)
        res = dp.solve_prox(inst, method)
        assert res.converged and res.iterations <= 2
        assert np.array_equal(res.beta, np.zeros(inst.d))

    def test_sharing_zeroes_at_large_lambda(self, small_instance):
        gs = small_instance.group_set
        lam_zero = max(
            np.linalg.norm(small_instance.b[g]) / w
            for g, w in zip(gs.groups, gs.weights)
        )
        inst = dp.ProxInstance(b=small_instance.b, lam=1.01 * lam_zero, group_set=gs)
        res = dp.prox_log_admm_sharing(inst)
        assert res.converged
        assert np.max(np.abs(res.beta)) <= 1e-8


class TestCrossSolverAgreement:
    def test_two_layer_bcd_matches_sharing(self):
        dag = dp.bench.two_layer(101)
        gs = dp.ancestor_groups(dag)
        b = np.random.default_rng(0).standard_normal(dag.d)
        inst = dp.ProxInstance(b=b, lam=0.5, group_set=gs)
        f_bcd = dp.prox_log_bcd(inst, TIGHT).objective
        f_sh = dp.prox_log_admm_sharing(inst, TIGHT).objective
        assert abs(f_bcd - f_sh) <= 1e-6 * max(1.0, abs(f_sh))

    def test_unscaled_matches_bcd_oracle(self, small_instance):
        oracle = dp.prox_log_bcd(
            small_instance,
            dp.SolveOptions(max_iter=200_000, tol_opt=1e-12),
        )
        res = dp.prox_log_admm_unscaled(small_instance, TIGHT)
        assert np.max(np.abs(res.beta - oracle.beta)) <= 1e-8

    def test_binary_tree_pgm_matches_sharing_needs_more_iters(self):
        dag = dp.bench.binary_tree(7)
        gs = dp.ancestor_groups(dag)
        b = np.random.default_rng(5).standard_normal(dag.d)
        inst = dp.ProxInstance(b=b, lam=0.5, group_set=gs)
        opts = dp.SolveOptions(max_iter=200_000, tol_opt=1e-9,
                               tol_primal=1e-9, tol_dual=1e-9)
        res_sh = dp.prox_log_admm_sharing(inst, opts)
        res_pg = dp.prox_log_pgm(inst, opts)
        rel = abs(res_pg.objective - res_sh.objective) / max(1.0, abs(res_sh.objective))
        assert rel <= 1e-6
        assert res_pg.iterations > res_sh.iterations


class TestSharingUnscaledEquivalence:
    def test_trajectories_match_exactly(self, small_instance):
        opts = dp.SolveOptions(rho=1.0, alpha=0.5, max_iter=300,
                               tol_primal=0.0, tol_dual=0.0)
        seen = []
        dp.prox_log_admm_unscaled(
            small_instance, opts,
            callback=lambda k, x1, x2, y: seen.append((x1.copy(), x2.copy(), y.copy())),
        )
        worst = 0.0

        def compare(k, x1, x2, y):
            nonlocal worst
            ref = seen[k - 1]
            worst = max(
                worst,
                np.max(np.abs(x1 - ref[0])),
                np.max(np.abs(x2 - ref[1])),
                np.max(np.abs(y - ref[2])),
            )

        dp.prox_log_admm_sharing(small_instance, opts, callback=compare)
        assert len(seen) == 300
        assert worst <= 1e-12

    def test_matched_iteration_counts_and_beta(self, chain_instance):
        opts = dp.SolveOptions(max_iter=100_000)
        ra = dp.prox_log_admm_unscaled(chain_instance, opts)
        rs = dp.prox_log_admm_sharing(chain_instance, opts)
        assert ra.iterations == rs.iterations
        assert np.max(np.abs(ra.beta - rs.beta)) <= 1e-12
        assert np.max(np.abs(ra.state.y - rs.state.y)) <= 1e-10


class TestIterateProperties:
    @pytest.mark.parametrize("method", ("bcd", "pgm"))
    def test_objective_monotone(self, method, small_instance):
        opts = dp.SolveOptions(max_iter=5000, trace_every=1)
        res = dp.solve_prox(small_instance, method, opts)
        objs = res.trace.objectives
        assert np.all(np.diff(objs) <= 1e-12)

    @pytest.mark.parametrize("method", ADMM_SOLVERS)
    def test_final_feasibility_residual(self, method, small_instance):
        opts = dp.SolveOptions(max_iter=100_000)
        res = ADMM_SOLVERS[method](small_instance, opts)
        assert res.converged
        assert np.linalg.norm(res.state.x1 - res.state.x2) <= opts.tol_primal

    def test_prox_nonexpansive_in_b(self, small_instance):
        gs = small_instance.group_set
        rng = np.random.default_rng(11)
        opts = dp.SolveOptions(max_iter=100_000)
        for _ in range(10):
            b1 = rng.standard_normal(gs.d)
            b2 = rng.standard_normal(gs.d)
            r1 = dp.prox_log_admm_sharing(dp.ProxInstance(b=b1, lam=0.5, group_set=gs), opts)
            r2 = dp.prox_log_admm_sharing(dp.ProxInstance(b=b2, lam=0.5, group_set=gs), opts)
            assert np.linalg.norm(r1.beta - r2.beta) <= np.linalg.norm(b1 - b2) + 2e-8

    def test_beta_equals_latent_sum_and_objective_consistent(self, small_instance):
        res = dp.prox_log_admm_sharing(small_instance)
        assert np.max(np.abs(res.latent_matrix().sum(axis=1) - res.beta)) <= 1e-12
        assert res.objective == pytest.approx(
            dp.objective_f(res.x, small_instance), abs=1e-15
        )
        sizes = [len(seg) for seg in res.latent]
        assert sizes == [len(g) for g in small_instance.group_set.groups]


class TestOptionsAndErrors:
    @pytest.mark.parametrize("method", ADMM_SOLVERS)
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, -0.1])
    def test_invalid_dual_step(self, method, alpha, small_instance):
        opts = dp.SolveOptions(rho=1.0, alpha=alpha)
        with pytest.raises(dp.InvalidStep):
            ADMM_SOLVERS[method](small_instance, opts)

    def test_default_alpha_is_half_rho(self):
        assert dp.SolveOptions(rho=2.0).resolved_alpha() == 1.0

    def test_factor_cap(self):
        n = dp.kernels.DENSE_CAP + 1
        inst = dp.ProxInstance(
            b=np.ones(n), lam=0.5, group_set=dp.build_index_map([list(range(n))], d=n)
        )
        with pytest.raises(dp.CapExceeded):
            dp.prox_log_admm_unscaled(inst)

    def test_negative_step_pgm(self, small_instance):
        with pytest.raises(dp.InvalidStep):
            dp.prox_log_pgm(small_instance, step=-1.0)

    def test_unknown_solver(self, small_instance):
        with pytest.raises(ValueError):
            dp.solve_prox(small_instance, "newton")

    def test_bad_options(self):
        for rho in (0.0, float("nan"), float("inf")):
            with pytest.raises(dp.InvalidStep):
                dp.SolveOptions(rho=rho)
        for name in ("tol_opt", "tol_primal", "tol_dual"):
            with pytest.raises(ValueError, match=name):
                dp.SolveOptions(**{name: float("nan")})
        with pytest.raises(ValueError):
            dp.SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            dp.SolveOptions(trace_every=-1)


class TestRandomizedBcd:
    def test_seed_determinism(self, small_instance):
        opts = dp.SolveOptions(seed=9, max_iter=20_000)
        r1 = dp.prox_log_bcd(small_instance, opts, randomized=True)
        r2 = dp.prox_log_bcd(small_instance, opts, randomized=True)
        assert np.array_equal(r1.beta, r2.beta)
        assert r1.iterations == r2.iterations

    def test_different_seed_same_solution(self, small_instance):
        a = dp.prox_log_bcd(small_instance, dp.SolveOptions(seed=1, max_iter=20_000), randomized=True)
        b = dp.prox_log_bcd(small_instance, dp.SolveOptions(seed=2, max_iter=20_000), randomized=True)
        assert abs(a.objective - b.objective) <= 1e-9 * max(1.0, abs(a.objective))


class TestWarmStart:
    def test_sharing_warm_start_resumes(self, small_instance):
        first = dp.prox_log_admm_sharing(small_instance)
        resumed = dp.prox_log_admm_sharing(small_instance, state=first.state)
        assert resumed.iterations <= 2
        assert np.max(np.abs(resumed.beta - first.beta)) <= 1e-8

    def test_sharing_warm_start_tracks_perturbed_input(self, small_instance):
        first = dp.prox_log_admm_sharing(small_instance)
        nearby = dp.ProxInstance(
            b=small_instance.b + 1e-3,
            lam=small_instance.lam,
            group_set=small_instance.group_set,
        )
        warm = dp.prox_log_admm_sharing(nearby, state=first.state)
        cold = dp.prox_log_admm_sharing(nearby)
        assert warm.converged
        assert np.max(np.abs(warm.beta - cold.beta)) <= 1e-7
        assert warm.iterations < cold.iterations


class TestTracing:
    def test_trace_every_stride_plus_final(self, small_instance):
        opts = dp.SolveOptions(trace_every=5, max_iter=100_000)
        res = dp.prox_log_admm_sharing(small_instance, opts)
        iters = res.trace.iters.tolist()
        assert iters[-1] == res.iterations
        assert all(k % 5 == 0 for k in iters[:-1])

    def test_no_trace_by_default(self, small_instance):
        res = dp.prox_log_admm_sharing(small_instance)
        assert len(res.trace) == 0

    def test_pgm_explicit_step_matches_default(self, small_instance):
        opts = dp.SolveOptions(trace_every=1, max_iter=2000)
        auto = dp.prox_log_pgm(small_instance, opts)
        manual = dp.prox_log_pgm(
            small_instance, opts, step=1.0 / small_instance.operator.norm_sq()
        )
        assert np.array_equal(auto.trace.objectives, manual.trace.objectives)


class TestTextbookLoops:
    """BCD and PGM reproduce their textbook loops bit for bit.

    The solvers skip work the textbook form repeats: ISTA takes its gradient
    from the stopping test, a BCD block is gathered and scattered once.
    None of that may change a bit of the iterates or of the trace.
    """

    MAX_ITER = 3000
    TOL = 1e-10

    # case: (solver name, SolveOptions fields, textbook loop, its keywords)
    CASES = {
        "bcd": ("bcd", {}, textbook_bcd, {}),
        "rbcd-seed0": ("rbcd", {"seed": 0}, textbook_bcd, {"randomized": True, "seed": 0}),
        "rbcd-seed1": ("rbcd", {"seed": 1}, textbook_bcd, {"randomized": True, "seed": 1}),
        "pgm": ("pgm", {}, textbook_pgm, {}),
        "fista": ("fista", {}, textbook_pgm, {"accelerated": True}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "instance", ["small_instance", "chain_instance", "two_layer_instance"]
    )
    def test_bit_identical_to_textbook(self, case, instance, request):
        inst = request.getfixturevalue(instance)
        method, fields, textbook, keywords = self.CASES[case]
        opts = dp.SolveOptions(
            max_iter=self.MAX_ITER, tol_opt=self.TOL, trace_every=1, **fields
        )
        res = dp.solve_prox(inst, method, opts)
        iters, x, records = textbook(inst, self.MAX_ITER, self.TOL, **keywords)
        assert res.iterations == iters
        assert res.x.tobytes() == x.tobytes()
        assert [(r.objective, r.proxgrad_norm) for r in res.trace] == records
