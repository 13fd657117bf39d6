import re
import warnings

import numpy as np
import pytest

import dagprox as dp
from oracles import central_difference_gradient, latent_penalty_bracket, warm_started_fit


def chain_dag(n):
    return dp.validate_dag(n, [(i, i + 1) for i in range(n - 1)])


#: a 6-node tree: its ancestor groups are not nested
TREE_EDGES = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(17)
    dag = chain_dag(6)
    a = rng.standard_normal((30, 6))
    beta = np.zeros(6)
    beta[:3] = [1.0, -0.8, 0.6]
    y = a @ beta + 0.05 * rng.standard_normal(30)
    return dag, dp.LeastSquaresLoss(a, y)


class TestLosses:
    @pytest.mark.parametrize("loss_kind", ["ls", "logistic"])
    def test_gradient_matches_central_differences(self, loss_kind):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((25, 7))
        if loss_kind == "ls":
            loss = dp.LeastSquaresLoss(a, rng.standard_normal(25))
        else:
            loss = dp.LogisticLoss(a, rng.choice([-1.0, 1.0], size=25))
        for _ in range(50):
            beta = rng.standard_normal(7)
            g = loss.gradient(beta)
            g_fd = central_difference_gradient(loss.value, beta, h=1e-6)
            rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
            assert rel <= 1e-4

    def test_least_squares_value_nonnegative_and_exact(self):
        a = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        loss = dp.LeastSquaresLoss(a, y)
        assert loss.value(y) == 0.0
        assert loss.value(np.zeros(3)) == pytest.approx(0.5 * 14.0)
        assert loss.lipschitz_hint() == pytest.approx(1.0)

    def test_logistic_value_at_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 5))
        loss = dp.LogisticLoss(a, rng.choice([-1.0, 1.0], size=40))
        assert loss.value(np.zeros(5)) == pytest.approx(40 * np.log(2.0), rel=1e-14)

    def test_logistic_stable_at_large_margins(self):
        a = np.array([[100.0], [-100.0]])
        loss = dp.LogisticLoss(a, np.array([1.0, -1.0]))
        with np.errstate(over="raise", invalid="raise"):
            v = loss.value(np.array([2.0]))
            g = loss.gradient(np.array([2.0]))
        assert np.isfinite(v) and v >= 0.0
        assert np.all(np.isfinite(g))
        # both samples are confidently correct: near-zero loss and gradient
        assert v <= 1e-80
        # mirrored labels give a confidently wrong fit with linear-in-margin loss
        v_wrong = loss.value(np.array([-2.0]))
        assert v_wrong == pytest.approx(400.0, rel=1e-10)

    def test_logistic_label_validation(self):
        with pytest.raises(ValueError):
            dp.LogisticLoss(np.eye(2), np.array([0.0, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(dp.DimensionMismatch):
            dp.LeastSquaresLoss(np.eye(3), np.zeros(2))
        with pytest.raises(dp.NonFiniteInput):
            dp.LeastSquaresLoss(np.full((2, 2), np.nan), np.zeros(2))


class TestLambdaMax:
    def test_zero_gradient_gives_zero(self):
        dag = chain_dag(3)
        loss = dp.LeastSquaresLoss(np.eye(3), np.zeros(3))
        assert dp.lambda_max(loss, dag) == 0.0

    def test_single_group_is_dual_norm(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        loss = dp.LeastSquaresLoss(a, y)
        gs = dp.build_index_map([list(range(4))], weights=[1.0], d=4)
        assert dp.lambda_max(loss, gs) == pytest.approx(np.linalg.norm(a.T @ y), rel=1e-12)

    def test_loss_over_the_wrong_number_of_variables_rejected(self):
        # 3 design columns against a 5-node chain: both entries probe the loss alike
        loss = dp.LeastSquaresLoss(np.ones((4, 3)), np.ones(4))
        for entry in (dp.lambda_max, lambda loss, dag: dp.fit(loss, dag, 0.1)):
            with pytest.raises(dp.DimensionMismatch, match="loss is over 3 variables"):
                entry(loss, chain_dag(5))

    def test_non_finite_gradient_rejected(self):
        loss = dp.LeastSquaresLoss(np.eye(3), np.ones(3))
        loss.gradient = lambda beta: np.array([0.0, np.nan, 1.0])
        with pytest.raises(dp.NonFiniteInput, match="^loss gradient at zero contains"):
            dp.lambda_max(loss, chain_dag(3))

    def test_fit_above_lambda_max_returns_zero(self, small_problem):
        dag, loss = small_problem
        lam = 1.01 * dp.lambda_max(loss, dag)
        result = dp.fit(loss, dag, lam)
        assert np.max(np.abs(result.beta)) <= 1e-8
        assert result.support.size == 0
        assert result.hierarchy.num_violations == 0


class TestFit:
    def test_identity_design_lambda_zero(self):
        y = np.array([1.0, -2.0, 0.5, 3.0])
        loss = dp.LeastSquaresLoss(np.eye(4), y)
        result = dp.fit(loss, chain_dag(4), 0.0, outer=dp.OuterOptions(tol=1e-8))
        assert result.converged
        assert np.max(np.abs(result.beta - y)) <= 1e-6

    def test_identity_single_group_reduces_to_prox(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(5)
        loss = dp.LeastSquaresLoss(np.eye(5), y)
        gs = dp.build_index_map([list(range(5))], weights=[1.0], d=5)
        lam = 0.7
        result = dp.fit(loss, gs, lam, outer=dp.OuterOptions(tol=1e-10))
        expected = dp.group_soft_threshold(y, lam)
        assert np.max(np.abs(result.beta - expected)) <= 1e-8
        assert result.hierarchy is None

    def test_outer_objective_monotone_with_floor_tolerance(self, small_problem, monkeypatch):
        dag, loss = small_problem
        lam = 0.1 * dp.lambda_max(loss, dag)
        monkeypatch.setattr(dp.learn, "INNER_TOL_COEFF", 1e-10)
        monkeypatch.setattr(dp.learn, "INNER_TOL_FLOOR", 1e-10)
        outer = dp.OuterOptions(max_iter=200, tol=1e-8)
        result = dp.fit(loss, dag, lam, outer=outer)
        objs = result.outer_trace.objectives
        assert np.all(np.diff(objs) <= 1e-8)

    def test_accelerated_agrees_with_plain(self, small_problem):
        dag, loss = small_problem
        lam = 0.05 * dp.lambda_max(loss, dag)
        plain = dp.fit(loss, dag, lam)
        accel = dp.fit(loss, dag, lam, accelerated=True)
        rel = abs(plain.objective - accel.objective) / max(1.0, abs(plain.objective))
        assert rel <= 1e-6

    def test_accelerated_usually_needs_fewer_outer_iterations(self):
        rng = np.random.default_rng(23)
        wins = 0
        total = 10
        for trial in range(total):
            dag = chain_dag(8)
            a = rng.standard_normal((40, 8))
            beta = np.zeros(8)
            beta[:4] = rng.uniform(0.5, 1.5, 4)
            y = a @ beta + 0.05 * rng.standard_normal(40)
            loss = dp.LeastSquaresLoss(a, y)
            lam = 0.1 * dp.lambda_max(loss, dag)
            outer = dp.OuterOptions(max_iter=2000, tol=1e-7)
            plain = dp.fit(loss, dag, lam, outer=outer)
            accel = dp.fit(loss, dag, lam, outer=outer, accelerated=True)
            if accel.outer_iterations <= plain.outer_iterations:
                wins += 1
        assert wins >= 0.8 * total

    def test_tree_fit_support_conforms_to_hierarchy(self, small_problem):
        dag, loss = small_problem
        for frac in (0.02, 0.1, 0.3):
            lam = frac * dp.lambda_max(loss, dag)
            result = dp.fit(loss, dag, lam)
            assert result.hierarchy.num_violations == 0

    def test_inner_budget_warning(self, monkeypatch, small_problem):
        # on a chain the closed-form warm start converges in one inner step,
        # so the budget is exhausted on a tree instead
        _, loss = small_problem
        tree = dp.validate_dag(6, TREE_EDGES)
        lam = 0.1 * dp.lambda_max(loss, tree)
        monkeypatch.setattr(dp.learn, "INNER_MAX_ITER", 3)
        monkeypatch.setattr(dp.learn, "INNER_TOL_COEFF", 0.0)
        monkeypatch.setattr(dp.learn, "INNER_TOL_FLOOR", 1e-10)
        outer = dp.OuterOptions(max_iter=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dp.fit(loss, tree, lam, outer=outer)
        assert sum(issubclass(w.category, dp.InnerSolverWarning) for w in caught) == 5

    @pytest.mark.parametrize("frac", [0.0, 0.02, 0.1, 0.3])
    def test_chain_fit_takes_one_inner_iteration_per_step(self, small_problem, frac):
        dag, loss = small_problem
        result = dp.fit(loss, dag, frac * dp.lambda_max(loss, dag))
        assert result.converged
        assert result.inner_iters == result.outer_iterations

    @pytest.mark.parametrize("frac", [0.02, 0.1, 0.3])
    def test_tree_fit_keeps_the_previous_warm_start(self, small_problem, frac):
        _, loss = small_problem
        tree = dp.validate_dag(6, TREE_EDGES)
        lam = frac * dp.lambda_max(loss, tree)
        result = dp.fit(loss, tree, lam)
        beta, outer_iters, inner_iters = warm_started_fit(
            loss, dp.ancestor_groups(tree), lam, dp.OuterOptions()
        )
        assert result.beta.tobytes() == beta.tobytes()
        assert (result.outer_iterations, result.inner_iters) == (outer_iters, inner_iters)

    @pytest.mark.parametrize("frac", [0.02, 0.1, 0.3])
    def test_tree_fit_objective_within_the_oracle_bracket(self, small_problem, frac):
        _, loss = small_problem
        tree = dp.validate_dag(6, TREE_EDGES)
        lam = frac * dp.lambda_max(loss, tree)
        result = dp.fit(loss, tree, lam)
        lower, upper = latent_penalty_bracket(result.beta, dp.ancestor_groups(tree))
        penalty = result.objective - loss.value(result.beta)
        assert lam * lower * (1.0 - 1e-10) <= penalty <= lam * upper * (1.0 + 1e-10)

    def test_negative_lambda_rejected(self, small_problem):
        dag, loss = small_problem
        with pytest.raises(ValueError):
            dp.fit(loss, dag, -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_nonfinite_lambda_rejected_before_any_work(self, lam):
        calls = []
        loss = dp.LeastSquaresLoss(np.eye(6), np.ones(6))
        loss.gradient = lambda beta: calls.append(beta)
        with pytest.raises(ValueError, match=f"got {lam}"):
            dp.fit(loss, chain_dag(6), lam)
        assert calls == []

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", 0), ("max_iter", -1), ("tol", -1.0), ("tol", float("nan")),
         ("trace_every", -1), ("max_iter", 2.5), ("max_iter", float("nan")), ("trace_every", 1.5)],
    )
    def test_bad_outer_options_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dp.OuterOptions(**{field: value})

    @pytest.mark.parametrize("hint", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_loss_without_a_finite_positive_lipschitz_hint_rejected(self, hint):
        loss = dp.LeastSquaresLoss(np.eye(3), np.ones(3))
        loss.lipschitz_hint = lambda: hint
        with pytest.raises(ValueError, match="Lipschitz"):
            dp.fit(loss, chain_dag(3), 0.1)

    def test_gradient_dimension_checked(self):
        dag = chain_dag(3)
        loss = dp.LeastSquaresLoss(np.eye(4), np.zeros(4))
        with pytest.raises(dp.DimensionMismatch):
            dp.fit(loss, dag, 0.1)

    def test_inner_iterations_accumulated(self, small_problem):
        dag, loss = small_problem
        result = dp.fit(loss, dag, 0.1 * dp.lambda_max(loss, dag))
        assert result.inner_iters > 0
        assert result.outer_trace.records[-1].iter == result.outer_iterations

    @pytest.mark.parametrize("edges", [None, TREE_EDGES], ids=["chain", "tree"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_one_gradient_per_outer_step(self, small_problem, edges, accelerated):
        # the dimension probe's gradient at 0 is the first step's gradient
        dag, loss = small_problem
        if edges is not None:
            dag = dp.validate_dag(6, edges)
        calls = []
        counted = dp.LeastSquaresLoss(loss.design, loss.response)
        counted.gradient = lambda beta: calls.append(beta.copy()) or loss.gradient(beta)
        lam = 0.1 * dp.lambda_max(loss, dag)
        result = dp.fit(counted, dag, lam, accelerated=accelerated)
        assert len(calls) == result.outer_iterations
        assert not np.any(calls[0])

    def test_trace_does_not_feed_back(self, small_problem):
        dag, loss = small_problem
        lam = 0.1 * dp.lambda_max(loss, dag)
        traced = dp.fit(loss, dag, lam, outer=dp.OuterOptions(trace_every=1))
        untraced = dp.fit(loss, dag, lam, outer=dp.OuterOptions(trace_every=0))
        assert len(traced.outer_trace.records) == traced.outer_iterations
        assert not untraced.outer_trace.records
        assert np.array_equal(traced.beta, untraced.beta)
        assert np.array_equal(traced.support, untraced.support)
        assert traced.outer_iterations == untraced.outer_iterations
        assert traced.inner_iters == untraced.inner_iters
        # the certifying evaluator runs once per fit from the same state
        assert traced.objective == untraced.objective


@pytest.fixture(scope="module")
def chain_path(fixtures_dir):
    """The chain20 10-lambda sweep, with the point of every outer step."""
    design = dp.learn.load_design_matrix(fixtures_dir / "chain20_design.csv")
    response = dp.learn.load_response(fixtures_dir / "chain20_response.csv")
    dag = dp.read_edge_list(fixtures_dir / "chain20_graph.txt")
    loss = dp.LeastSquaresLoss(design, response)
    inner_solve = dp.learn.prox_log_admm_sharing
    points = []  # one list of outer-step points per fit

    def recording_solve(*args, **kwargs):
        res = inner_solve(*args, **kwargs)
        points[-1].append(res.beta)
        return res

    lam_hi = dp.lambda_max(loss, dag)
    sweep = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp.learn, "prox_log_admm_sharing", recording_solve)
        for lam in lam_hi * np.logspace(-3, 0, 10):
            points.append([])
            sweep.append((lam, dp.fit(loss, dag, lam), points[-1]))
    return dag, loss, sweep


class TestChainRecoveryFixture:
    def test_sweep_recovers_hierarchical_support(self, fixtures_dir, chain_path):
        truth = np.loadtxt(fixtures_dir / "chain20_truth.csv")
        true_support = set(np.flatnonzero(np.abs(truth) > 0).tolist())

        _, _, sweep = chain_path
        found = False
        for _, result, _ in sweep:
            assert result.hierarchy.num_violations == 0
            if true_support <= set(result.support.tolist()):
                found = True
        assert found

    def test_latent_trace_objective_within_inner_tolerance(self, chain_path):
        # Each trace point takes Omega from the prox latent, an exact
        # decomposition of beta, so it may not undercut the certified value
        # by more than the evaluator's own tolerance, and it is tight to the
        # inner tolerance tol_k of its step.  The chain's groups are nested,
        # so every step's prox and the evaluator's Omega are exact to
        # rounding, and the relative gap lies in [-1.2e-13, 2.3e-13];
        # C = 32 is the bound for inexact steps.
        dag, loss, sweep = chain_path
        groups = dp.ancestor_groups(dag)
        for lam, result, points in sweep:
            records = result.outer_trace.records
            assert len(records) == len(points) == result.outer_iterations
            evaluator = dp.kernels.LatentPenaltyEvaluator(groups)
            for rec, beta in zip(records, points):
                certified = loss.value(beta) + evaluator.value(beta, lam)
                gap = (rec.objective - certified) / max(1.0, abs(certified))
                tol_k = max(dp.learn.INNER_TOL_FLOOR, dp.learn.INNER_TOL_COEFF / rec.iter**2)
                assert gap >= -1e-9
                assert gap <= 32.0 * tol_k


class TestDataAndModelFiles:
    def test_design_and_response_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 3))
        y = rng.choice([-1.0, 1.0], size=6)
        np.savetxt(tmp_path / "a.csv", a, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",", fmt="%.17g")
        assert np.allclose(dp.learn.load_design_matrix(tmp_path / "a.csv"), a)
        assert np.allclose(dp.learn.load_response(tmp_path / "y.csv"), y)

    def test_logistic_labels_validated_on_load(self, tmp_path):
        np.savetxt(tmp_path / "y.csv", np.array([0.0, 1.0]), delimiter=",")
        y = dp.learn.load_response(tmp_path / "y.csv")
        with pytest.raises(ValueError, match=r"-1 or \+1"):
            dp.LogisticLoss(np.eye(2), y)

    @pytest.mark.parametrize("text", ["1,2\n3,4\n", "1,2,3,4\n"], ids=["two rows", "one row"])
    def test_response_with_several_columns_rejected(self, tmp_path, text):
        path = tmp_path / "y.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: response has [24] columns"):
            dp.learn.load_response(path)

    @pytest.mark.parametrize("load", [dp.learn.load_design_matrix, dp.learn.load_response])
    def test_data_file_errors_name_the_file(self, tmp_path, load):
        path = tmp_path / "data.csv"
        path.write_text("1\nx\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: could not convert"):
            load(path)

    @pytest.mark.parametrize("text", ["", "\n", "# no values\n\n# at all\n"],
                             ids=["empty", "blank line", "comments only"])
    @pytest.mark.parametrize("load", [dp.learn.load_design_matrix, dp.learn.load_response])
    def test_data_file_without_data_names_the_file(self, tmp_path, load, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data$"):
            load(path)

    def test_data_after_leading_comments_is_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# header\n\n1,2\n# between\n3,4\n")
        assert dp.learn.load_design_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text, message",
        [("# d: 2\n0.5\nabc\n", "line 3: could not convert string to float: 'abc'"),
         ("# d: two\n0.5\n", "invalid literal for int() with base 10: 'two'"),
         ("", "no data"),
         ("# d: 2\n0.5\n1.5\n", "missing '# lambda:' header line"),
         ("# d: 2\n# lambda: -1\n0.5\n1.5\n", "lambda must be finite and >= 0, got -1.0")],
        ids=["value", "d_header", "empty", "no_lambda", "negative_lambda"],
    )
    def test_bad_model_file_is_named(self, tmp_path, text, message):
        # an empty file loaded as beta = [], lam = nan; the others did not name the file
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            dp.learn.load_model(path)

    def test_non_finite_model_values_rejected(self, tmp_path):
        # this file loaded as beta = [nan, inf] with lam = nan
        path = tmp_path / "model.txt"
        path.write_text("# d: 2\nnan\ninf\n")
        with pytest.raises(dp.NonFiniteInput, match=f"^{re.escape(str(path))}: beta contains non-finite"):
            dp.learn.load_model(path)

    @pytest.mark.parametrize(
        "beta, error",
        [(np.ones(5), dp.DimensionMismatch), (np.array([0.5, np.nan]), dp.NonFiniteInput)],
        ids=["length", "nan"],
    )
    def test_save_model_rejects_a_beta_that_does_not_fit(self, tmp_path, beta, error):
        # such a beta was written under the hash of a 2-coordinate system
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        with pytest.raises(error, match="^beta "):
            dp.learn.save_model(tmp_path / "model.txt", beta, 1.0, "least-squares", gs)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("label", ["least-squares\n3.0", "least-squares\r3.0"], ids=["lf", "cr"])
    def test_save_model_rejects_a_multiline_loss_label(self, tmp_path, label):
        # the first label's file failed its own load_model with "header d=2 but 3 values"
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        with pytest.raises(ValueError, match="^loss_type must be one line"):
            dp.learn.save_model(tmp_path / "model.txt", np.array([0.25, -1.5]), 1.0, label, gs)
        assert list(tmp_path.iterdir()) == []

    def test_model_file_round_trip(self, tmp_path):
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        beta = np.array([0.25, -1.5])
        path = tmp_path / "model.txt"
        dp.learn.save_model(path, beta, 0.125, "least-squares", gs)
        loaded = dp.learn.load_model(path)
        assert np.array_equal(loaded["beta"], beta)
        assert loaded["lam"] == 0.125
        assert loaded["loss"] == "least-squares"
        assert loaded["groups_sha256"] == gs.content_hash()
