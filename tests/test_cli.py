import re

import numpy as np
import pytest
from click.testing import CliRunner

import dagprox as dp
from dagprox.cli import main
from oracles import textbook_latent_matrix


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fig1b_graph(tmp_path):
    path = tmp_path / "fig1b.txt"
    dag = dp.validate_dag(4, [(0, 2), (1, 2), (1, 3)])
    dp.write_edge_list(dag, path)
    return path


def parse_column(text):
    return np.array([float(t) for t in text.strip().splitlines()])


def read_latent(path):
    """``(groups, coords, values)`` of a ``--latent-out`` file, after its header."""
    lines = path.read_text().splitlines()
    assert lines[0] == "group,coordinate,value"
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]


def read_summary(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestProxCommand:
    def test_zero_input_gives_zero(self, runner, fig1b_graph):
        result = runner.invoke(
            main, ["prox", "--graph", str(fig1b_graph), "--b", "0,0,0,0", "--lambda", "0.5"]
        )
        assert result.exit_code == 0, result.output
        assert np.array_equal(parse_column(result.output), np.zeros(4))

    def test_lambda_zero_identity(self, runner, fig1b_graph, tmp_path):
        b = np.array([0.3, -1.2, 0.8, 2.0])
        b_file = tmp_path / "b.csv"
        np.savetxt(b_file, b, delimiter=",", fmt="%.17g")
        result = runner.invoke(
            main,
            ["prox", "--graph", str(fig1b_graph), "--b-file", str(b_file),
             "--lambda", "0", "--tol", "1e-10"],
        )
        assert result.exit_code == 0, result.output
        assert np.max(np.abs(parse_column(result.output) - b)) <= 1e-8

    def test_matches_bcd_oracle(self, runner, fig1b_graph):
        result = runner.invoke(
            main,
            ["prox", "--graph", str(fig1b_graph), "--b", "1,1,1,1", "--lambda", "0.5"],
        )
        assert result.exit_code == 0, result.output
        dag = dp.read_edge_list(fig1b_graph)
        inst = dp.ProxInstance(b=np.ones(4), lam=0.5, group_set=dp.ancestor_groups(dag))
        oracle = dp.prox_log_bcd(inst, dp.SolveOptions(max_iter=200_000, tol_opt=1e-12))
        assert np.max(np.abs(parse_column(result.output) - oracle.beta)) <= 1e-8

    def test_latent_output_and_out_file(self, runner, fig1b_graph, tmp_path):
        out = tmp_path / "beta.csv"
        latent = tmp_path / "latent.csv"
        result = runner.invoke(
            main,
            ["prox", "--graph", str(fig1b_graph), "--b", "1,1,1,1", "--lambda", "0.5",
             "--out", str(out), "--latent-out", str(latent)],
        )
        assert result.exit_code == 0, result.output
        beta = parse_column(out.read_text())
        groups, coords, values = read_latent(latent)
        assert np.max(np.abs(np.bincount(coords, weights=values, minlength=4) - beta)) <= 1e-12
        # the rows are the nonzero entries of the solve's latent, one per stacked copy
        gs = dp.ancestor_groups(dp.read_edge_list(fig1b_graph))
        inst = dp.ProxInstance(b=np.ones(4), lam=0.5, group_set=gs)
        x = dp.prox_log_admm_sharing(inst, dp.SolveOptions(max_iter=100_000)).x
        got = np.zeros((gs.d, gs.num_groups))
        got[coords, groups] = values
        assert np.array_equal(got, textbook_latent_matrix(x, gs))
        assert len(values) == np.count_nonzero(x)

    def test_latent_output_grows_with_the_stacked_size(self, runner, tmp_path):
        # binary_tree(13) has d = |G| = 8,191: a d-by-|G| matrix would take 537 MB
        dag = dp.bench.binary_tree(13)
        gs = dp.ancestor_groups(dag)
        graph, b_file, out, latent = (tmp_path / f for f in ("g.txt", "b.csv", "beta.csv", "latent.csv"))
        dp.write_edge_list(dag, graph)
        np.savetxt(b_file, dp.bench.sample_input(gs.d, 0, 0), fmt="%.17g")
        result = runner.invoke(
            main,
            ["prox", "--graph", str(graph), "--b-file", str(b_file), "--lambda", "0.5",
             "--out", str(out), "--latent-out", str(latent)],
        )
        assert result.exit_code == 0, result.output
        groups, coords, values = read_latent(latent)
        assert 0 < len(values) <= gs.n == 98_305
        beta = parse_column(out.read_text())
        assert np.max(np.abs(np.bincount(coords, weights=values, minlength=gs.d) - beta)) <= 1e-12

    def test_group_file_input(self, runner, tmp_path):
        groups = tmp_path / "groups.txt"
        groups.write_text("1.0: 0 1 2\n")
        result = runner.invoke(
            main, ["prox", "--groups", str(groups), "--b", "3,0,4", "--lambda", "0.5"]
        )
        assert result.exit_code == 0, result.output
        expected = dp.group_soft_threshold(np.array([3.0, 0.0, 4.0]), 0.5)
        assert np.max(np.abs(parse_column(result.output) - expected)) <= 1e-8

    def test_missing_graph_is_validation_error(self, runner):
        result = runner.invoke(
            main, ["prox", "--graph", "no_such_file.txt", "--b", "1", "--lambda", "0.5"]
        )
        assert result.exit_code == 2
        assert "no_such_file.txt" in result.output

    def test_cyclic_graph_is_validation_error(self, runner, tmp_path):
        bad = tmp_path / "cyclic.txt"
        bad.write_text("nodes 2\n0 1\n1 0\n")
        result = runner.invoke(
            main, ["prox", "--graph", str(bad), "--b", "1,1", "--lambda", "0.5"]
        )
        assert result.exit_code == 2
        assert "cycle" in result.output.lower()

    def test_wrong_length_input(self, runner, fig1b_graph):
        result = runner.invoke(
            main, ["prox", "--graph", str(fig1b_graph), "--b", "1,1", "--lambda", "0.5"]
        )
        assert result.exit_code == 2
        assert "length 2" in result.output

    def test_requires_exactly_one_input_source(self, runner, fig1b_graph):
        result = runner.invoke(
            main, ["prox", "--graph", str(fig1b_graph), "--lambda", "0.5"]
        )
        assert result.exit_code == 2

    def test_solver_runtime_failure_exits_one(self, runner, tmp_path):
        # squared residuals of 1e200-sized iterates overflow to inf
        graph = tmp_path / "chain.txt"
        dp.write_edge_list(dp.validate_dag(3, [(0, 1), (1, 2)]), graph)
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = runner.invoke(
                main,
                ["prox", "--graph", str(graph), "--b", "1e200,1e200,1e200",
                 "--lambda", "0.5", "--solver", "sharing"],
            )
        assert result.exit_code == 1
        assert "non-finite" in result.output


class TestFitCommand:
    def test_identity_single_group_reduces_to_prox(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(5)
        np.savetxt(tmp_path / "a.csv", np.eye(5), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",", fmt="%.17g")
        (tmp_path / "groups.txt").write_text("1.0: 0 1 2 3 4\n")
        model = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["fit", "--loss", "least-squares", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--groups", str(tmp_path / "groups.txt"),
             "--lambda", "0.7", "--tol", "1e-9", "--out", str(model)],
        )
        assert result.exit_code == 0, result.output
        loaded = dp.learn.load_model(model)
        expected = dp.group_soft_threshold(y, 0.7)
        assert np.max(np.abs(loaded["beta"] - expected)) <= 1e-8
        assert "strong_violations=n/a" in result.output

    def test_logistic_lambda_frac_above_max_gives_empty_support(self, runner, tmp_path, fig1b_graph):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 4))
        labels = rng.choice([-1.0, 1.0], size=30)
        np.savetxt(tmp_path / "a.csv", a, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", labels, delimiter=",", fmt="%.17g")
        model = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["fit", "--loss", "logistic", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph),
             "--lambda-frac", "1.01", "--out", str(model)],
        )
        assert result.exit_code == 0, result.output
        assert "support=0" in result.output
        assert "strong_violations=0" in result.output

    def test_chain_fixture_reports_zero_violations(self, runner, fixtures_dir, tmp_path):
        model = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["fit", "--loss", "least-squares",
             "--design", str(fixtures_dir / "chain20_design.csv"),
             "--response", str(fixtures_dir / "chain20_response.csv"),
             "--graph", str(fixtures_dir / "chain20_graph.txt"),
             "--lambda-frac", "0.05", "--out", str(model)],
        )
        assert result.exit_code == 0, result.output
        assert "strong_violations=0" in result.output
        loaded = dp.learn.load_model(model)
        assert loaded["beta"].size == 20
        assert loaded["loss"] == "least-squares"

    def test_bad_labels_rejected(self, runner, tmp_path, fig1b_graph):
        np.savetxt(tmp_path / "a.csv", np.eye(4), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", np.array([0.0, 1.0, 1.0, 0.0]), delimiter=",")
        result = runner.invoke(
            main,
            ["fit", "--loss", "logistic", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph),
             "--lambda", "0.1"],
        )
        assert result.exit_code == 2
        assert "-1 or +1" in result.output

    def test_requires_one_lambda_flavor(self, runner, tmp_path, fig1b_graph):
        np.savetxt(tmp_path / "a.csv", np.eye(4), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", np.ones(4), delimiter=",")
        args = ["fit", "--loss", "least-squares", "--design", str(tmp_path / "a.csv"),
                "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph)]
        assert runner.invoke(main, args).exit_code == 2
        assert runner.invoke(main, args + ["--lambda", "0.1", "--lambda-frac", "0.5"]).exit_code == 2

    def test_dimension_mismatch_rejected(self, runner, tmp_path, fig1b_graph):
        np.savetxt(tmp_path / "a.csv", np.eye(3), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", np.ones(3), delimiter=",")
        result = runner.invoke(
            main,
            ["fit", "--loss", "least-squares", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph),
             "--lambda", "0.1"],
        )
        assert result.exit_code == 2
        assert "columns" in result.output

    @pytest.mark.parametrize("flag", ["--max-iter=0", "--max-iter=-1", "--tol=-1"])
    def test_bad_outer_options_are_usage_errors(self, runner, tmp_path, fig1b_graph, flag):
        np.savetxt(tmp_path / "a.csv", np.eye(4), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", np.ones(4), delimiter=",")
        result = runner.invoke(
            main,
            ["fit", "--loss", "least-squares", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph),
             "--lambda", "0.1", "--out", str(tmp_path / "model.txt"), flag],
        )
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "model.txt").exists()


    def test_capped_run_warns(self, runner, tmp_path, fig1b_graph):
        np.savetxt(tmp_path / "a.csv", np.eye(4), delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", np.array([3.0, -2.0, 1.0, 4.0]), delimiter=",")
        result = runner.invoke(
            main,
            ["fit", "--loss", "least-squares", "--design", str(tmp_path / "a.csv"),
             "--response", str(tmp_path / "y.csv"), "--graph", str(fig1b_graph),
             "--lambda", "0.1", "--tol", "0", "--max-iter", "3",
             "--out", str(tmp_path / "model.txt")],
        )
        assert result.exit_code == 0, result.output
        assert "warning: fit hit max_iter=3" in result.output
        assert (tmp_path / "model.txt").exists()


class TestProxBenchCommand:
    def test_small_benchmark_outputs(self, runner, tmp_path):
        out = tmp_path / "bench"
        result = runner.invoke(
            main,
            ["prox-bench", "--topology", "random_dag", "--nodes", "8", "--seed", "1",
             "--reps", "2", "--solvers", "sharing,bcd", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "summary.csv").exists()
        for name in ("sharing", "bcd"):
            for rep in range(2):
                assert (out / f"trace_random_dag_{name}_rep{rep}.csv").exists()
        rows = read_summary(out / "summary.csv")
        objs = {r["solver"]: float(r["final_objective_mean"]) for r in rows}
        assert abs(objs["sharing"] - objs["bcd"]) <= 1e-6 * max(1.0, abs(objs["bcd"]))

    def test_lambda_zero_recovery_column(self, runner, tmp_path):
        out = tmp_path / "bench0"
        result = runner.invoke(
            main,
            ["prox-bench", "--topology", "random_dag", "--nodes", "8", "--seed", "3",
             "--reps", "2", "--lambda", "0", "--solvers", "sharing",
             "--tol", "1e-10", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_summary(out / "summary.csv")
        assert float(rows[0]["beta_minus_b_inf"]) <= 1e-8

    def test_binary_tree_depth_seven_dimension(self, runner, tmp_path):
        out = tmp_path / "bench_tree"
        result = runner.invoke(
            main,
            ["prox-bench", "--topology", "binary_tree", "--depth", "7", "--reps", "1",
             "--solvers", "sharing", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_summary(out / "summary.csv")
        assert rows[0]["d"] == "127"

    def test_identical_seeds_are_byte_identical(self, runner, tmp_path):
        args = ["prox-bench", "--topology", "random_dag", "--nodes", "8", "--seed", "7",
                "--reps", "3", "--solvers", "sharing,bcd,fista"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert runner.invoke(main, args + ["--out-dir", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out-dir", str(out2)]).exit_code == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        # traces may differ only in the wall-clock column
        for trace_file in sorted(out1.glob("trace_*.csv")):
            t1 = dp.ConvergenceTrace.read_csv(trace_file)
            t2 = dp.ConvergenceTrace.read_csv(out2 / trace_file.name)
            for a, b in zip(t1, t2):
                assert a._replace(wall_s=0.0) == b._replace(wall_s=0.0)

    def test_uncovered_input_warns(self, runner, tmp_path):
        groups = tmp_path / "groups.txt"
        groups.write_text("1.0: 0\n")
        result = runner.invoke(
            main,
            ["prox", "--groups", str(groups), "--b", "1,1", "--lambda", "0.1"],
        )
        # coordinate 1 is outside the cover: reported, not enforced
        assert result.exit_code == 0, result.output
        assert "outside the group cover" in result.output

    def test_unknown_solver_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["prox-bench", "--topology", "random_dag", "--solvers", "sharing,newton",
             "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 2
        assert "newton" in result.output

    def test_bad_topology_params_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["prox-bench", "--topology", "root_two_paths", "--nodes", "4",
             "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("solvers", [(), ("bcd", "bcd")], ids=["empty", "repeated"])
    def test_spec_names_a_bad_solver_list(self, solvers):
        with pytest.raises(ValueError, match=re.escape(str(list(solvers)))):
            dp.bench.BenchmarkSpec("two_layer", solvers=solvers)

    def test_topology_takes_only_its_own_size(self):
        assert dp.bench.make_topology("binary_tree", depth=4).d == 15
        assert dp.bench.make_topology("root_two_paths", nodes=9).d == 9
        with pytest.raises(ValueError, match="binary_tree takes depth, not nodes"):
            dp.bench.make_topology("binary_tree", nodes=50)
        with pytest.raises(ValueError, match="two_layer takes nodes, not depth"):
            dp.bench.make_topology("two_layer", depth=3)


PROX = ["prox", "--b", "1,1,1,1"]
FIT = ["fit", "--loss", "least-squares"]
BENCH = ["prox-bench", "--topology", "random_dag", "--nodes", "4", "--solvers", "sharing"]


@pytest.mark.parametrize(
    "args",
    [
        PROX + ["--lambda", "nan"],
        PROX + ["--lambda", "inf"],
        PROX + ["--lambda", "-1"],
        ["prox", "--b", "nan,1,1,1", "--lambda", "0.5"],
        PROX + ["--lambda", "0.5", "--tol", "nan"],
        PROX + ["--lambda", "0.5", "--rho", "nan"],
        PROX + ["--lambda", "0.5", "--alpha", "2", "--solver", "sharing"],
        FIT + ["--lambda", "nan"],
        FIT + ["--lambda-frac", "-1"],
        FIT + ["--lambda", "0.1", "--tol", "nan"],
        BENCH + ["--lambda", "nan"],
        BENCH + ["--reps", "0"],
        # rejected before any DAG is built or reference solved
        ["prox-bench", "--topology", "random_dag", "--reps", "2", "--solvers", ","],
        ["prox-bench", "--topology", "random_dag", "--reps", "1", "--solvers", "bcd,bcd"],
        ["prox-bench", "--topology", "binary_tree", "--nodes", "50", "--reps", "1"],
        ["prox-bench", "--topology", "two_layer", "--depth", "3", "--reps", "1"],
        # bcd runs first: a bad sharing step must stop it before any trace is written
        ["prox-bench", "--topology", "random_dag", "--nodes", "4", "--reps", "1",
         "--solvers", "bcd,sharing", "--alpha", "2"],
    ],
    ids=lambda args: " ".join(args),
)
def test_edge_inputs_are_usage_errors(runner, tmp_path, fig1b_graph, args):
    np.savetxt(tmp_path / "a.csv", np.eye(4), delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "y.csv", np.ones(4), delimiter=",")
    written = tmp_path / "written"
    extra = {
        "prox": ["--graph", str(fig1b_graph), "--out", str(written)],
        "fit": ["--design", str(tmp_path / "a.csv"), "--response", str(tmp_path / "y.csv"),
                "--graph", str(fig1b_graph), "--out", str(written)],
        "prox-bench": ["--out-dir", str(written)],
    }[args[0]]
    result = runner.invoke(main, args + extra)
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not written.exists()


@pytest.mark.parametrize(
    "text",
    [b"nodes 2\n0 1\n1 0\n", b"nodes\n", b"nodes 3\n0 x\n", b"nodes 2\n0 2\n",
     b"nodes 2\ndims 1 one\n", b"nodes 2\n\xff\xfe\n"],
    ids=["cycle", "bare nodes line", "non-integer endpoint", "endpoint out of range",
         "non-integer dims", "not utf-8"],
)
def test_graph_file_errors_name_the_file(runner, tmp_path, text):
    graph = tmp_path / "bad_graph.txt"
    graph.write_bytes(text)
    result = runner.invoke(main, ["prox", "--graph", str(graph), "--b", "1,1", "--lambda", "0.5"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{graph}: " in result.output


@pytest.mark.parametrize("command", ["prox", "fit"])
def test_response_with_two_columns_names_the_file(runner, tmp_path, fig1b_graph, command):
    # four values in two columns used to load as a length-4 vector
    column = tmp_path / "two_columns.csv"
    column.write_text("1,1\n1,1\n")
    np.savetxt(tmp_path / "a.csv", np.eye(2, 4), delimiter=",", fmt="%.17g")
    args = {
        "prox": ["prox", "--b-file", str(column), "--lambda", "0.5"],
        "fit": FIT + ["--design", str(tmp_path / "a.csv"), "--response", str(column),
                      "--lambda", "0.5", "--out", str(tmp_path / "model.txt")],
    }[command]
    result = runner.invoke(main, args + ["--graph", str(fig1b_graph)])
    assert result.exit_code == 2, result.output
    assert f"{column}: response has 2 columns, expected 1" in result.output


@pytest.mark.parametrize("text", ["", "# no values\n\n"], ids=["empty", "comments only"])
@pytest.mark.parametrize("command", ["prox", "fit"])
def test_data_file_without_data_names_the_file(runner, tmp_path, fig1b_graph, command, text):
    # the empty file is prox's b and fit's design matrix
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    np.savetxt(tmp_path / "y.csv", np.ones(2), delimiter=",", fmt="%.17g")
    args = {
        "prox": ["prox", "--b-file", str(empty), "--lambda", "0.5"],
        "fit": FIT + ["--design", str(empty), "--response", str(tmp_path / "y.csv"),
                      "--lambda", "0.5", "--out", str(tmp_path / "model.txt")],
    }[command]
    result = runner.invoke(main, args + ["--graph", str(fig1b_graph)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{empty}: no data" in result.output


@pytest.mark.parametrize(
    "text",
    [b"1.0: 0 x\n", b"1.0:\n", b"w: 0\n", b"1.0: 0 5\n", b"1.0: 0\n\xff\xfe\n"],
    ids=["non-integer index", "empty group", "non-numeric weight", "index out of range",
         "not utf-8"],
)
def test_group_file_errors_name_the_file(runner, tmp_path, text):
    groups = tmp_path / "bad_groups.txt"
    groups.write_bytes(text)
    result = runner.invoke(main, ["prox", "--groups", str(groups), "--b", "1,1", "--lambda", "0.5"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{groups}: " in result.output
