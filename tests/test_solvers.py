import gc
import tracemalloc

import numpy as np
import pytest

import dagprox as dp
from dagprox.solvers import SOLVER_NAMES
from oracles import textbook_bcd, textbook_latent_matrix, textbook_pgm, textbook_sharing

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

    @pytest.mark.parametrize("method", ("bcd", "rbcd", "pgm", "fista"))
    def test_descent_zero_input_converges_immediately(self, method, small_instance):
        inst = dp.ProxInstance(
            b=np.zeros(small_instance.d), lam=0.5, group_set=small_instance.group_set
        )
        res = dp.solve_prox(inst, method, dp.SolveOptions(trace_every=1))
        assert (res.status, res.iterations) == ("converged", 0)
        assert not res.x.any() and np.array_equal(res.beta, np.zeros(inst.d))
        assert res.trace.iters.tolist() == [0]

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
        inst = with_lambda(small_instance, 1.01 * lambda_max(small_instance))
        res = dp.solve_prox(inst, method)
        assert res.converged and res.iterations <= 2
        assert np.array_equal(res.beta, np.zeros(inst.d))

    def test_sharing_zeroes_at_large_lambda(self, small_instance):
        inst = with_lambda(small_instance, 1.01 * lambda_max(small_instance))
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
        latent = textbook_latent_matrix(res.x, small_instance.group_set)
        assert np.max(np.abs(latent.sum(axis=1) - res.beta)) <= 1e-12
        assert res.objective == pytest.approx(
            dp.objective_f(res.x, small_instance), abs=1e-15
        )


class TestOptionsAndErrors:
    @pytest.mark.parametrize("method", ADMM_SOLVERS)
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, -0.1])
    def test_invalid_dual_step(self, method, alpha, small_instance):
        opts = dp.SolveOptions(rho=1.0, alpha=alpha)
        with pytest.raises(dp.InvalidStep):
            ADMM_SOLVERS[method](small_instance, opts)

    def test_default_alpha_is_half_rho(self):
        assert dp.SolveOptions(rho=2.0).require_admm_steps() == 1.0

    def test_factor_cap(self):
        n = dp.kernels.DENSE_CAP + 1
        inst = dp.ProxInstance(
            b=np.ones(n), lam=0.5, group_set=dp.build_index_map([list(range(n))], d=n)
        )
        with pytest.raises(dp.CapExceeded):
            dp.prox_log_admm_unscaled(inst)

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
        # accepted here, these would fail only inside a solver's range() call
        for name, value in [("max_iter", float("nan")), ("max_iter", 2.5), ("max_iter", 100.0),
                            ("trace_every", 1.5), ("trace_every", "1")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                dp.SolveOptions(**{name: value})

    def test_numpy_integer_loop_counts_accepted(self):
        opts = dp.SolveOptions(max_iter=np.int64(5), trace_every=np.int32(1))
        assert opts.max_iter == 5 and opts.trace_every == 1


class TestRandomizedBcd:
    def test_seed_determinism(self, small_instance, monkeypatch):
        monkeypatch.setattr(dp.solvers, "RBCD_SEED", 9)
        opts = dp.SolveOptions(max_iter=20_000)
        r1 = dp.prox_log_bcd(small_instance, opts, randomized=True)
        r2 = dp.prox_log_bcd(small_instance, opts, randomized=True)
        assert np.array_equal(r1.beta, r2.beta)
        assert r1.iterations == r2.iterations

    def test_different_seed_same_solution(self, small_instance, monkeypatch):
        opts = dp.SolveOptions(max_iter=20_000)
        monkeypatch.setattr(dp.solvers, "RBCD_SEED", 1)
        a = dp.prox_log_bcd(small_instance, opts, randomized=True)
        monkeypatch.setattr(dp.solvers, "RBCD_SEED", 2)
        b = dp.prox_log_bcd(small_instance, opts, randomized=True)
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


@pytest.fixture(scope="module")
def tree_instance():
    gs = dp.ancestor_groups(dp.bench.binary_tree(7))
    return dp.ProxInstance(b=dp.bench.sample_input(gs.d, 0, 0), lam=0.5, group_set=gs)


@pytest.fixture(scope="module")
def uncovered_instance():
    # coordinates 2 and 4 lie in no group: their c = 0 entries of g never reach x
    gs = dp.build_index_map([[1], [1, 3], [0, 1]], d=5)
    return dp.ProxInstance(b=np.array([2.0, 1.5, -1.0, 0.5, 4.0]), lam=0.4, group_set=gs)


class TestSharingResiduals:
    """The sharing loop reads both residuals off d-length sums.

    They must still be the textbook ``||x1 - x2||`` and
    ``rho ||x2_k - x2_(k-1)||`` of the iterates it hands the callback.
    """

    @pytest.mark.parametrize("rho", [1.0, 2.5])
    @pytest.mark.parametrize(
        "instance", ["small_instance", "chain_instance", "tree_instance", "uncovered_instance"]
    )
    def test_traced_residuals_match_the_iterates(self, instance, rho, request):
        inst = request.getfixturevalue(instance)
        opts = dp.SolveOptions(rho=rho, trace_every=1)
        seen = []
        res = dp.prox_log_admm_sharing(
            inst, opts, callback=lambda k, x1, x2, y: seen.append((x1.copy(), x2.copy()))
        )
        assert res.converged and len(seen) == res.iterations
        x2_prev = np.zeros(inst.n)
        primal, dual = [], []
        for x1, x2 in seen:
            primal.append(np.linalg.norm(x1 - x2))
            dual.append(rho * np.linalg.norm(x2 - x2_prev))
            x2_prev = x2
        traced = [(r.primal_res, r.dual_res) for r in res.trace]
        np.testing.assert_allclose(traced, np.column_stack([primal, dual]), rtol=1e-9, atol=1e-14)

    @pytest.mark.parametrize("instance", ["small_instance", "chain_instance", "tree_instance"])
    def test_untraced_run_takes_the_traced_path(self, instance, request):
        # without a trace the dual residual is computed only once the primal
        # test passes; the iterates and the stop must not notice
        inst = request.getfixturevalue(instance)
        quiet = dp.prox_log_admm_sharing(inst)
        traced = dp.prox_log_admm_sharing(inst, dp.SolveOptions(trace_every=1))
        assert quiet.iterations == traced.iterations
        assert quiet.x.tobytes() == traced.x.tobytes()


def copies_agree(y, inst) -> bool:
    """Whether every latent copy of a coordinate holds the same bits in ``y``."""
    coords = inst.group_set.stacked_coords
    per_coordinate = np.empty(inst.d)
    per_coordinate[coords] = y
    return np.array_equal(y, per_coordinate[coords])


class TestSharingDualState:
    """The multiplier lives in R^d: one value per coordinate, copied to its groups."""

    def test_returned_dual_is_one_value_per_coordinate(self, small_instance):
        assert copies_agree(dp.prox_log_admm_sharing(small_instance).state.y, small_instance)

    def test_warm_start_keeps_the_mean_of_disagreeing_copies(self, small_instance):
        op = small_instance.operator
        cold = dp.prox_log_admm_sharing(small_instance)
        # z - M^T(M z / c) has zero sum over every coordinate's copies
        z = np.random.default_rng(5).standard_normal(small_instance.n)
        z -= op.adjoint_apply(op.apply(z) / op.cover_counts)
        y = cold.state.y + z
        assert not copies_agree(y, small_instance)
        warm = dp.prox_log_admm_sharing(
            small_instance, state=dp.SolverState(x1=cold.state.x1, x2=cold.state.x2, y=y)
        )
        assert warm.converged
        assert np.max(np.abs(warm.beta - cold.beta)) <= 1e-7


class TestSharingIterationCounts:
    """Iteration counts at tol 1e-8, as the per-copy multiplier loop took them.

    Keeping the multiplier in R^d changes rounding only; a count that moves
    here means the stopping rule or the iteration changed.
    """

    COUNTS = {
        ("two_layer", 0): 81, ("two_layer", 1): 112, ("two_layer", 2): 82,
        ("binary_tree", 0): 318, ("binary_tree", 1): 428, ("binary_tree", 2): 339,
        ("root_two_paths", 0): 1597, ("root_two_paths", 1): 1447, ("root_two_paths", 2): 1183,
    }

    @pytest.mark.parametrize("topology, seed", sorted(COUNTS))
    def test_counts_unchanged(self, topology, seed):
        gs = dp.ancestor_groups(dp.bench.make_topology(topology))
        inst = dp.ProxInstance(b=dp.bench.sample_input(gs.d, seed, 0), lam=0.5, group_set=gs)
        res = dp.prox_log_admm_sharing(inst, dp.SolveOptions(tol_primal=1e-8, tol_dual=1e-8))
        assert res.converged
        assert res.iterations == self.COUNTS[topology, seed]


class TestTracing:
    LOOPS = ("bcd", "pgm", "fista", "sharing", "fit")

    # converged runs, and runs capped at 9, where the final iterate is also a
    # stride record, and at 10, where it is not
    @pytest.mark.parametrize(
        "loop, cap",
        [pytest.param(loop, None, id=loop) for loop in LOOPS]
        + [pytest.param(loop, cap, id=f"{loop}-max_iter{cap}") for loop in LOOPS for cap in (9, 10)],
    )
    def test_trace_every_stride_plus_final(self, small_instance, loop, cap):
        every = 3
        if loop == "fit":
            gs = small_instance.group_set
            rng = np.random.default_rng(3)
            loss = dp.LeastSquaresLoss(rng.standard_normal((30, gs.d)), rng.standard_normal(30))
            outer = dp.OuterOptions(trace_every=every, max_iter=cap or 500)
            res = dp.fit(loss, gs, 0.5, outer)
            trace, iterations = res.outer_trace, res.outer_iterations
        else:
            opts = dp.SolveOptions(trace_every=every, max_iter=cap or 100_000)
            res = dp.solve_prox(small_instance, loop, opts)
            trace, iterations = res.trace, res.iterations
        if cap is not None:
            assert iterations == cap
        iters = trace.iters
        assert np.all(np.diff(iters) > 0)
        assert np.all(iters[:-1] % every == 0)
        assert iters[-1] == iterations
        assert np.all(np.diff([r.wall_s for r in trace]) >= 0)

    def test_no_trace_by_default(self, small_instance):
        res = dp.prox_log_admm_sharing(small_instance)
        assert len(res.trace) == 0


class TestTextbookLoops:
    """BCD and PGM reproduce their textbook loops bit for bit.

    The solvers skip work the textbook form repeats: ISTA takes its gradient
    from the stopping test, a BCD block is gathered and scattered once.
    None of that may change a bit of the iterates or of the trace.
    """

    MAX_ITER = 3000
    TOL = 1e-10

    # case: (solver name, solvers constants it patches, textbook loop, its keywords)
    CASES = {
        "bcd": ("bcd", {}, textbook_bcd, {}),
        "rbcd-seed0": ("rbcd", {}, textbook_bcd, {"randomized": True, "seed": 0}),
        "rbcd-seed1": ("rbcd", {"RBCD_SEED": 1}, textbook_bcd, {"randomized": True, "seed": 1}),
        "pgm": ("pgm", {}, textbook_pgm, {}),
        "fista": ("fista", {}, textbook_pgm, {"accelerated": True}),
    }

    # converged runs keep their ids; capped runs at tol_opt = 0 add a suffix
    RUNS = [pytest.param(case, None, id=case) for case in sorted(CASES)] + [
        pytest.param(case, cap, id=f"{case}-max_iter{cap}") for case in sorted(CASES) for cap in (1, 2)
    ]

    @pytest.mark.parametrize("case, cap", RUNS)
    @pytest.mark.parametrize(
        "instance", ["small_instance", "chain_instance", "two_layer_instance"]
    )
    def test_bit_identical_to_textbook(self, case, cap, instance, request, monkeypatch):
        inst = request.getfixturevalue(instance)
        method, patches, textbook, keywords = self.CASES[case]
        for name, value in patches.items():
            monkeypatch.setattr(dp.solvers, name, value)
        max_iter, tol = (self.MAX_ITER, self.TOL) if cap is None else (cap, 0.0)
        opts = dp.SolveOptions(max_iter=max_iter, tol_opt=tol, trace_every=1)
        res = dp.solve_prox(inst, method, opts)
        iters, x, records = textbook(inst, max_iter, tol, **keywords)
        assert res.iterations == iters
        assert res.x.tobytes() == x.tobytes()
        assert [(r.objective, r.proxgrad_norm) for r in res.trace] == records
        if cap is not None:
            # tol_opt = 0 passes only an exact certificate, which BCD reaches
            # on the chain in its second sweep
            exact = res.trace[-1].proxgrad_norm == 0.0
            assert res.status == ("converged" if exact else "max_iter")
            assert (res.iterations, res.trace.last_iter) == (cap, cap)


@pytest.fixture(scope="module")
def repeated_instance():
    # the same group twice: its coordinates have two copies in each
    gs = dp.build_index_map([[0, 1], [1, 2], [0, 1], [2]], d=3)
    return dp.ProxInstance(b=np.array([1.5, -2.0, 0.7]), lam=0.5, group_set=gs)


@pytest.fixture(scope="module")
def single_node_instance():
    gs = dp.ancestor_groups(dp.validate_dag(1, []))
    return dp.ProxInstance(b=np.array([-1.3]), lam=0.5, group_set=gs)


@pytest.fixture(scope="module")
def tree9_instance():
    # 511 groups, most of them zero throughout: most steps refresh few groups
    gs = dp.ancestor_groups(dp.bench.binary_tree(9))
    return dp.ProxInstance(b=dp.bench.sample_input(gs.d, 0, 0), lam=0.5, group_set=gs)


def lambda_max(inst) -> float:
    """The least penalty at which the prox of ``inst.b`` is zero."""
    gs = inst.group_set
    return max(np.linalg.norm(inst.b[g]) / w for g, w in zip(gs.groups, gs.weights))


def with_lambda(inst, lam) -> dp.ProxInstance:
    return dp.ProxInstance(b=inst.b, lam=lam, group_set=inst.group_set, operator=inst.operator)


def count_dense_steps(monkeypatch) -> list:
    """Record every dense soft-threshold step the sharing solver takes."""
    calls = []
    dense = dp.solvers.blockwise_soft_threshold

    def counted(*args):
        calls.append(1)
        return dense(*args)

    monkeypatch.setattr(dp.solvers, "blockwise_soft_threshold", counted)
    return calls


class TestTextbookSharing:
    """The sharing loop reproduces its dense textbook loop value for value.

    The solver soft-thresholds only the groups that can be nonzero and
    certifies that the others stay zero.  Iteration counts, iterates, the
    returned state and the trace must not notice.  Values are compared, not
    bytes: a certified group keeps +0.0 where the dense step writes -0.0.
    """

    MAX_ITER = 3000

    @staticmethod
    def assert_same(res, ref):
        assert (res.status, res.iterations) == (ref.status, ref.iterations)
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.beta, ref.beta)
        assert np.array_equal(res.state.x2, ref.state.x2)
        assert np.array_equal(res.state.y, ref.state.y)

        def records(trace):
            return [(r.primal_res, r.dual_res, r.objective, r.proxgrad_norm) for r in trace]

        assert records(res.trace) == records(ref.trace)

    @pytest.mark.parametrize(
        "start, trace_every", [("cold", 1), ("cold", 0), ("warm", 1)], ids=["cold", "untraced", "warm"]
    )
    @pytest.mark.parametrize("lam", ["0", "0.5", "lam_max", "2*lam_max"])
    @pytest.mark.parametrize(
        "instance",
        [
            "small_instance", "chain_instance", "tree_instance", "uncovered_instance",
            "repeated_instance", "single_node_instance", "tree9_instance",
        ],
    )
    def test_matches_textbook(self, instance, lam, start, trace_every, request):
        inst = request.getfixturevalue(instance)
        top = lambda_max(inst)
        inst = with_lambda(inst, {"0": 0.0, "0.5": 0.5, "lam_max": top, "2*lam_max": 2 * top}[lam])
        opts = dp.SolveOptions(max_iter=self.MAX_ITER, trace_every=trace_every)
        state = None
        if start == "warm":
            state = dp.prox_log_admm_sharing(inst, dp.SolveOptions(max_iter=40)).state
        self.assert_same(
            dp.prox_log_admm_sharing(inst, opts, state=state),
            textbook_sharing(inst, opts, state=state),
        )

    def test_most_steps_refresh_few_groups(self, tree9_instance, monkeypatch):
        dense = count_dense_steps(monkeypatch)
        res = dp.prox_log_admm_sharing(tree9_instance)
        assert res.converged
        assert len(dense) < res.iterations / 10

    def test_norm_settling_at_the_threshold(self, chain_instance):
        # at lam_max every latent is zero and the largest group's ||t_g||
        # converges to lam w_g: each step must refresh it and agree
        inst = with_lambda(chain_instance, lambda_max(chain_instance))
        opts = dp.SolveOptions(max_iter=600, tol_primal=0.0, tol_dual=0.0, trace_every=1)
        res = dp.prox_log_admm_sharing(inst, opts)
        self.assert_same(res, textbook_sharing(inst, opts))
        assert not np.any(res.x)
        t = res.state.x2 - res.state.y  # M^T (g - w): x1 = 0 and rho = 1
        gs = inst.group_set
        norms = np.sqrt(np.add.reduceat(t * t, gs.starts))
        thresholds = inst.lam * gs.weights
        assert np.all(norms <= thresholds)
        assert np.min((thresholds - norms) / np.spacing(thresholds)) <= 8

    @pytest.mark.parametrize(
        "attr, value", [("DEAD_BOUND_MARGIN", float("nan")), ("DEAD_BOUND_MAX_AGE", 1)]
    )
    def test_failed_certificates_take_the_dense_step(self, attr, value, tree9_instance, monkeypatch):
        # a NaN bound or threshold fails ~(bound <= threshold); an age of 1
        # refreshes every group on every step
        monkeypatch.setattr(dp.solvers, attr, value)
        dense = count_dense_steps(monkeypatch)
        opts = dp.SolveOptions(trace_every=1)
        res = dp.prox_log_admm_sharing(tree9_instance, opts)
        assert len(dense) == res.iterations
        self.assert_same(res, textbook_sharing(tree9_instance, opts))

    def test_forced_refresh_keeps_the_iterates(self, tree9_instance, monkeypatch):
        monkeypatch.setattr(dp.solvers, "DEAD_BOUND_MAX_AGE", 7)
        dense = count_dense_steps(monkeypatch)
        opts = dp.SolveOptions(trace_every=1)
        res = dp.prox_log_admm_sharing(tree9_instance, opts)
        assert res.iterations // 7 < len(dense) < res.iterations
        self.assert_same(res, textbook_sharing(tree9_instance, opts))

    def test_warm_start_that_cancels_the_first_prox_input(self, chain_instance):
        # x2 = -M^T t_1 zeroes every group's first prox input, yet ||t_g|| is
        # above the threshold: the zero norms of step 1 certify nothing, and
        # with g_1 = 0 every group turns nonzero on step 2
        op = chain_instance.operator
        inst = dp.ProxInstance(b=np.ones(op.d), lam=0.5, group_set=chain_instance.group_set)
        ones = op.adjoint_apply(np.ones(op.d))
        state = dp.SolverState(x1=None, x2=-ones, y=-ones)  # w_0 = -1, t_1 = 1
        opts = dp.SolveOptions(trace_every=1)
        self.assert_same(
            dp.prox_log_admm_sharing(inst, opts, state=state),
            textbook_sharing(inst, opts, state=state),
        )

    def test_group_dying_next_to_its_own_latent(self):
        # group {0}, threshold 1: t = 21, 1.5, -0.5, -1.375 on steps 1-4 and
        # x1 = 0, 0.5, 0, nonzero.  Step 3 zeroes it with ||x1 + t|| = 0 while
        # ||t|| = 0.5, and |t_4 - t_3| = 0.875: only the norm of t itself may
        # seed a certificate.  Group {1} (t = 0, threshold 2.5) stays zero,
        # but its bound grows by 2 on step 3 and crosses on step 4, so step 4
        # needs a new layout: one without group {0} would skip its revival.
        gs = dp.build_index_map([[0], [1]], weights=[1.0, 2.5], d=2)
        inst = dp.ProxInstance(b=np.array([-5.0, 0.0]), lam=1.0, group_set=gs)
        state = dp.SolverState(x1=None, x2=np.array([-21.0, 0.0]), y=np.array([-21.0, 0.0]))
        opts = dp.SolveOptions(trace_every=1)
        self.assert_same(
            dp.prox_log_admm_sharing(inst, opts, state=state),
            textbook_sharing(inst, opts, state=state),
        )

    def test_non_finite_iterate_at_the_textbook_iteration(self):
        gs = dp.ancestor_groups(dp.validate_dag(3, [(0, 1), (1, 2)]))
        inst = dp.ProxInstance(b=np.full(3, 1e200), lam=0.5, group_set=gs)
        messages = []
        for solve in (dp.prox_log_admm_sharing, textbook_sharing):
            with np.errstate(over="ignore"), pytest.raises(dp.NonFiniteIterate) as info:
                solve(inst)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "iteration 1" in messages[0]


@pytest.fixture(scope="module")
def tree10_instance():
    gs = dp.ancestor_groups(dp.bench.binary_tree(10))
    return dp.ProxInstance(b=dp.bench.sample_input(gs.d, 0, 0), lam=0.5, group_set=gs)


def record_layouts(monkeypatch) -> list:
    """Record ``(layout, norms)`` at every lazy step: the layout it reads and their norms.

    ``GroupSet.restrict`` is wrapped to collect the layouts the sharing loop
    builds, and the loop's segment norms to see which one each step reads.
    """
    built, reads = [], []
    restrict, segment_norms = dp.GroupSet.restrict, dp.solvers._segment_norms

    def spy_restrict(self, keep):
        layout, entries = restrict(self, keep)
        built.append(layout)
        return layout, entries

    def spy_norms(x, group_set):
        norms = segment_norms(x, group_set)
        if built and group_set is built[-1]:
            reads.append((group_set, norms))
        return norms

    monkeypatch.setattr(dp.GroupSet, "restrict", spy_restrict)
    monkeypatch.setattr(dp.solvers, "_segment_norms", spy_norms)
    return reads


class TestPackedSteps:
    """The lazy steps keep their groups' entries packed between steps.

    They write them into ``x1`` only where it is read, and keep a layout
    while it holds every group the certificate asks for.  Whether a run
    reads ``x1`` every step (traced, with a callback) or only at the end,
    its iterations, iterates and state are the dense textbook loop's.
    """

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    def test_every_reader_sees_the_textbook_iterates(self, lam, tree10_instance, monkeypatch):
        inst = with_lambda(tree10_instance, lam)
        layouts = record_layouts(monkeypatch)
        seen = []
        runs = {
            "untraced": (dp.SolveOptions(), None),
            "trace1": (dp.SolveOptions(trace_every=1), None),
            "trace7": (dp.SolveOptions(trace_every=7), None),
            "callback": (dp.SolveOptions(), lambda k, x1, x2, y: seen.append(k)),
        }
        for name, (opts, callback) in runs.items():
            res = dp.prox_log_admm_sharing(inst, opts, callback=callback)
            assert res.converged, name
            TestTextbookSharing.assert_same(res, textbook_sharing(inst, opts))
        assert seen == list(range(1, res.iterations + 1))
        # a layout was kept on a later step that left some of its groups zero
        # (rho = 1, so a group's threshold is lam w)
        read_before, kept_with_zero_groups = set(), False
        for layout, norms in layouts:
            if id(layout) in read_before:
                live = np.count_nonzero(norms > inst.lam * layout.weights)
                kept_with_zero_groups |= live < layout.num_groups
            read_before.add(id(layout))
        assert kept_with_zero_groups


class TestCompactState:
    """A sharing result keeps O(d) state beside its latent.

    ``x2`` and ``y`` are built on first read, from the same expressions as
    the callback's, so they hold the same bits.
    """

    @pytest.mark.parametrize("rho", [1.0, 2.5])
    def test_blocks_built_on_read_match_the_last_step(self, rho, tree9_instance):
        opts = dp.SolveOptions(rho=rho)
        last = []

        def keep_last(k, x1, x2, y):
            last[:] = [x2, y]

        dp.prox_log_admm_sharing(tree9_instance, opts, callback=keep_last)
        state = dp.prox_log_admm_sharing(tree9_instance, opts).state
        d = tree9_instance.d
        assert state._x2 is None and state._y is None
        assert state._g.shape == state._rho_w.shape == (d,)
        assert state.x2.tobytes() == last[0].tobytes()
        assert state.y.tobytes() == last[1].tobytes()
        assert state.x2 is state.x2 and state.y is state.y

    @pytest.mark.parametrize("instance", ["small_instance", "tree9_instance", "uncovered_instance"])
    def test_warm_start_matches_the_arrays_it_returns(self, instance, request):
        inst = request.getfixturevalue(instance)
        nearby = dp.ProxInstance(b=inst.b + 1e-3, lam=inst.lam, group_set=inst.group_set)
        cold = dp.prox_log_admm_sharing(inst, dp.SolveOptions(max_iter=40))
        compact = dp.prox_log_admm_sharing(nearby, state=cold.state)
        arrays = dp.SolverState(x1=cold.state.x1, x2=cold.state.x2.copy(), y=cold.state.y.copy())
        explicit = dp.prox_log_admm_sharing(nearby, state=arrays)
        assert compact.iterations == explicit.iterations
        assert compact.x.tobytes() == explicit.x.tobytes()
        assert compact.beta.tobytes() == explicit.beta.tobytes()

    def test_retained_results_hold_n_plus_o_d(self, tree9_instance):
        inst = tree9_instance
        n, d = inst.n, inst.d
        dp.prox_log_admm_sharing(inst)  # fill the group set's cached layouts
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = [dp.prox_log_admm_sharing(inst) for _ in range(8)]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert all(res.converged for res in kept)
        assert held <= 8 * (n + 4 * d) * 8 * 1.1
