import csv
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dagprox as dp
from dagprox.diagnostics import _ROW_FORMAT, TraceRecord
from oracles import dense_m, geometric_trace, textbook_kkt_residual


@pytest.fixture(scope="module")
def random8_instance():
    dag = dp.bench.random_dag(8, edge_prob=0.3, seed=1)
    gs = dp.ancestor_groups(dag)
    b = np.random.default_rng(8).standard_normal(dag.d)
    return dp.ProxInstance(b=b, lam=0.5, group_set=gs)


class TestProxGradNorm:
    def test_zero_at_closed_form_minimizer(self):
        gs = dp.build_index_map([list(range(4))], weights=[1.0], d=4)
        b = np.array([2.0, -1.0, 0.5, 3.0])
        lam = 0.6
        inst = dp.ProxInstance(b=b, lam=lam, group_set=gs)
        x_star = dp.group_soft_threshold(b, lam)
        assert dp.proxgrad_norm(x_star, inst) <= 1e-12

    def test_lambda_zero_is_plain_gradient_norm(self, random8_instance):
        inst = dp.ProxInstance(
            b=random8_instance.b, lam=0.0, group_set=random8_instance.group_set
        )
        rng = np.random.default_rng(2)
        x = rng.standard_normal(inst.n)
        op = inst.operator
        grad = op.adjoint_apply(op.apply(x) - inst.b)
        assert dp.proxgrad_norm(x, inst) == pytest.approx(np.linalg.norm(grad), rel=1e-14)

    def test_matches_dense_computation(self, random8_instance):
        inst = random8_instance
        m = dense_m(inst.group_set)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(inst.n)
        v = x - m.T @ (m @ x - inst.b)
        prox = np.empty_like(v)
        for (lo, hi), w in zip(inst.group_set.index_ranges, inst.group_set.weights):
            prox[lo:hi] = dp.group_soft_threshold(v[lo:hi], inst.lam * w)
        assert dp.proxgrad_norm(x, inst) == pytest.approx(
            np.linalg.norm(x - prox), rel=1e-12
        )

    def test_certifies_local_optimality(self, random8_instance):
        inst = random8_instance
        res = dp.prox_log_bcd(
            inst, dp.SolveOptions(max_iter=100_000, tol_opt=1e-12)
        )
        assert dp.proxgrad_norm(res.x, inst) <= 1e-11
        f_star = dp.objective_f(res.x, inst)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            delta = rng.standard_normal(inst.n)
            delta *= rng.uniform(0, 1e-3) / np.linalg.norm(delta)
            assert f_star <= dp.objective_f(res.x + delta, inst) + 1e-10

    def test_dimension_mismatch(self, random8_instance):
        with pytest.raises(dp.DimensionMismatch):
            dp.proxgrad_norm(np.zeros(3), random8_instance)


class TestKktResidual:
    def test_trivial_stationary_point(self):
        gs = dp.build_index_map([[0], [0, 1]], d=2)
        inst = dp.ProxInstance(b=np.zeros(2), lam=1.0, group_set=gs)
        z = np.zeros(gs.n)
        assert dp.kkt_residual(z, z, z, inst, rho=1.0) == (0.0, 0.0, 0.0)

    def test_zero_point_with_analytic_multiplier(self, random8_instance):
        # at beta = 0 the stationarity certificate is y = -M^T b; with
        # lam >= max_g ||(M^T b)_g|| / w_g all three residuals vanish
        gs = random8_instance.group_set
        op = random8_instance.operator
        mtb = op.adjoint_apply(random8_instance.b)
        lam_zero = max(
            np.linalg.norm(mtb[lo:hi]) / w
            for (lo, hi), w in zip(gs.index_ranges, gs.weights)
        )
        inst = dp.ProxInstance(b=random8_instance.b, lam=1.01 * lam_zero, group_set=gs)
        z = np.zeros(gs.n)
        s2, s1, feas = dp.kkt_residual(z, z, -mtb, inst, rho=1.0)
        assert s2 <= 1e-12 and s1 <= 1e-12 and feas == 0.0
        res = dp.prox_log_admm_sharing(inst)
        assert np.max(np.abs(res.beta)) <= 1e-10

    def test_converged_run_residuals_small(self, random8_instance):
        tol = 1e-8
        opts = dp.SolveOptions(tol_primal=tol, tol_dual=tol, max_iter=100_000)
        res = dp.prox_log_admm_sharing(random8_instance, opts)
        assert res.converged
        s2, s1, feas = dp.kkt_residual(
            res.state.x1, res.state.x2, res.state.y, random8_instance, rho=opts.rho
        )
        assert max(s2, s1, feas) <= 10 * tol

    def test_residuals_grow_away_from_solution(self, random8_instance):
        opts = dp.SolveOptions(tol_primal=1e-10, tol_dual=1e-10, max_iter=200_000)
        res = dp.prox_log_admm_sharing(random8_instance, opts)
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(random8_instance.n)
        direction /= np.linalg.norm(direction)
        totals = []
        for t in (0.0, 1e-3, 1e-2):
            s2, s1, feas = dp.kkt_residual(
                res.state.x1 + t * direction,
                res.state.x2 + t * direction,
                res.state.y,
                random8_instance,
                rho=opts.rho,
            )
            totals.append(s2 + s1 + feas)
        slope = (totals[2] - totals[0]) / 1e-2
        assert slope > 0.0
        assert totals[1] > totals[0]

    def test_dimension_mismatch(self, random8_instance):
        n = random8_instance.n
        with pytest.raises(dp.DimensionMismatch):
            dp.kkt_residual(np.zeros(n), np.zeros(n), np.zeros(n - 1), random8_instance)

    @pytest.mark.parametrize("which", ["x1", "x2", "y"])
    def test_non_finite_block_rejected(self, random8_instance, which):
        # unchecked, a NaN block would read as (nan, 0.0, nan)
        blocks = {name: np.zeros(random8_instance.n) for name in ("x1", "x2", "y")}
        blocks[which][2] = np.nan
        with pytest.raises(dp.NonFiniteInput, match=f"^{which} contains non-finite entries"):
            dp.kkt_residual(*blocks.values(), random8_instance)

    def test_matches_the_group_loop(self, odd_group_sets):
        rng = np.random.default_rng(19)
        kinds = set()
        for k in range(60):
            gs = odd_group_sets[k % len(odd_group_sets)]
            inst = dp.ProxInstance(
                b=rng.standard_normal(gs.d), lam=rng.uniform(0.1, 2.0), group_set=gs
            )
            if k % 3 == 0:  # a solver's iterate: the prox zeroes some blocks
                state = dp.prox_log_admm_sharing(
                    inst, dp.SolveOptions(max_iter=int(rng.integers(1, 40)))
                ).state
                x1, x2, y = state.x1, state.x2, state.y
            else:
                zero = np.repeat(rng.random(gs.num_groups) < 0.4, gs.sizes)
                x1 = np.where(zero, 0.0, rng.standard_normal(gs.n))
                x2 = x1 + (k % 2) * 0.1 * rng.standard_normal(gs.n)
                y = rng.standard_normal(gs.n)
            kinds.update(dp.kernels._segment_norms(x1, gs) > 0)
            got = dp.kkt_residual(x1, x2, y, inst, rho=1.5)
            ref = textbook_kkt_residual(x1, x2, y, inst, rho=1.5)
            for a, b in zip(got, ref):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        assert kinds == {False, True}  # both branches of the subdifferential ran


class TestRateFit:
    def test_exact_geometric_decay(self):
        trace = geometric_trace(2.0, 3.0, 0.9, 200, dp.ConvergenceTrace, TraceRecord)
        fit = dp.fit_linear_rate(trace, 2.0, tail_fraction=0.5)
        assert fit.log_rate == pytest.approx(np.log(0.9), abs=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.tail_start == 100

    def test_constant_trace_degenerate_fit(self):
        trace = geometric_trace(1.0, 0.5, 1.0, 50, dp.ConvergenceTrace, TraceRecord)
        fit = dp.fit_linear_rate(trace, 1.0)
        assert abs(fit.log_rate) <= 1e-12
        assert fit.r_squared == 1.0

    def test_insufficient_data(self):
        trace = geometric_trace(0.0, 1.0, 0.5, 4, dp.ConvergenceTrace, TraceRecord)
        with pytest.raises(dp.InsufficientData):
            dp.fit_linear_rate(trace, 0.0)

    def test_small_gaps_dropped(self):
        # decays below the default floor (1e-13 at f_star = 0) after ~59
        # iterations; those records are ignored
        trace = geometric_trace(0.0, 1.0, 0.6, 200, dp.ConvergenceTrace, TraceRecord)
        fit = dp.fit_linear_rate(trace, 0.0, tail_fraction=1.0)
        assert fit.log_rate == pytest.approx(np.log(0.6), abs=1e-9)

    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_default_floor_ignores_ulp_moves_of_f_star(self, ulps):
        # the gap decays geometrically onto a rounding plateau 2 ulp above
        # f_star; an absolute floor of 1e-14 (1.4 ulp of 35.5) keeps or drops
        # the plateau as f_star moves by one ulp
        f_star = 35.5
        ulp = np.spacing(f_star)
        trace = dp.ConvergenceTrace()
        for k in range(400):
            obj = max(f_star + 3.0 * 0.9**k, f_star + 2 * ulp)
            trace.append(TraceRecord(k, 0.0, obj, 0.0, 0.0, 0.0))
        base = dp.fit_linear_rate(trace, f_star).log_rate
        moved = dp.fit_linear_rate(trace, f_star + ulps * ulp).log_rate
        assert base == pytest.approx(np.log(0.9), rel=1e-3)
        assert moved == pytest.approx(base, rel=1e-3)

    def test_tail_fraction_selects_later_phase(self):
        # slow decay for 100 iterations, then fast decay
        trace = dp.ConvergenceTrace()
        gap = 1.0
        for k in range(200):
            ratio = 0.99 if k < 100 else 0.8
            gap *= ratio
            trace.append(TraceRecord(k, float(k), 5.0 + gap, 0.0, 0.0, 0.0))
        fit = dp.fit_linear_rate(trace, 5.0, tail_fraction=0.3)
        assert fit.log_rate == pytest.approx(np.log(0.8), abs=1e-6)

    def test_bad_tail_fraction(self):
        trace = geometric_trace(0.0, 1.0, 0.5, 30, dp.ConvergenceTrace, TraceRecord)
        with pytest.raises(ValueError):
            dp.fit_linear_rate(trace, 0.0, tail_fraction=0.0)

    def test_sharing_trace_is_empirically_linear(self, random8_instance):
        opts = dp.SolveOptions(trace_every=1, max_iter=100_000)
        res = dp.prox_log_admm_sharing(random8_instance, opts)
        f_star = dp.bench.reference_solution(random8_instance).objective
        fit = dp.fit_linear_rate(res.trace, f_star, tail_fraction=0.5, min_gap=1e-12)
        assert fit.r_squared >= 0.95
        assert fit.log_rate < 0


class TestSummaryRates:
    def test_rates_hold_when_f_star_moves_by_an_ulp(self):
        # an absolute 1e-14 gap floor sits near one ulp of f_star ~ 35 on
        # two_layer, so its fitted tail moved with f_star's last digit and the
        # rates by up to 37% here
        run = dp.bench.run_benchmark(dp.bench.BenchmarkSpec("two_layer", reps=2))
        base = dp.bench.summary_rows(run)
        for ulps in (-2, -1, 1, 2):
            moved = []
            for inst in run.instances:
                f_star = inst.f_star
                for _ in range(abs(ulps)):
                    f_star = np.nextafter(f_star, ulps * np.inf)
                moved.append(replace(inst, f_star=f_star))
            for row, ref in zip(dp.bench.summary_rows(replace(run, instances=moved)), base):
                assert row["rate"] == pytest.approx(ref["rate"], rel=1e-3), (ulps, row["solver"])


class TestEpsilonOptimality:
    """The objective series and the reference ``f_star`` behind the study's gap tables."""

    def test_monotone_solver_series_non_increasing(self, random8_instance):
        res = dp.prox_log_bcd(
            random8_instance, dp.SolveOptions(trace_every=1, max_iter=100_000)
        )
        assert len(res.trace) > 1
        assert np.all(np.diff(res.trace.objectives) <= 1e-12)

    def test_reference_refinement_stability(self, random8_instance):
        f_10x = dp.bench.reference_solution(random8_instance, tol=1e-9).objective
        f_5x = dp.bench.reference_solution(random8_instance, tol=2e-9).objective
        assert abs(f_10x - f_5x) <= 1e-9


class TestTraceContainer:
    def test_csv_round_trip(self, tmp_path, random8_instance):
        res = dp.prox_log_admm_sharing(
            random8_instance, dp.SolveOptions(trace_every=1, max_iter=100_000)
        )
        path = tmp_path / "trace.csv"
        res.trace.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,wall_s,objective,primal_res,dual_res,proxgrad_norm"
        again = dp.ConvergenceTrace.read_csv(path)
        assert len(again) == len(res.trace)
        assert np.array_equal(again.objectives, res.trace.objectives)
        assert np.array_equal(again.iters, res.trace.iters)

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # the reference is the csv-module form with 17 significant digits;
        # 2**62 is exact only in an integer column
        values = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1]
        iters = [0, 1, 2, 3, 2**62]
        records = [
            TraceRecord(k, *(values[(j + i) % len(values)] for i in range(5)))
            for j, k in enumerate(iters)
        ]
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "wall_s", "objective", "primal_res", "dual_res", "proxgrad_norm"])
            for r in records:
                writer.writerow([r.iter] + [f"{v:.17g}" for v in r[1:]])
        path = tmp_path / "trace.csv"
        dp.ConvergenceTrace(records).write_csv(path)
        assert path.read_bytes() == expected.read_bytes()
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        assert rows == [_ROW_FORMAT % r for r in records]
        again = dp.ConvergenceTrace.read_csv(path)
        assert again.records == records
        assert again.iters.tolist() == iters
        assert [str(v) for r in again for v in r] == [str(v) for r in records for v in r]

    @pytest.mark.parametrize(
        "text, message",
        [("", "line 1: expected the trace header, got nothing$"),
         ("1,0,1,0,0,0\n2,0,x,0,0,0\n", "line 3: could not convert string to float: 'x'"),
         ("1,0,1,0,0,0\n2,0,inf,0,0,0\n", "line 3: non-finite trace record at iter 2")],
        ids=["empty", "non-numeric", "non-finite"],
    )
    def test_bad_field_names_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        header = "iter,wall_s,objective,primal_res,dual_res,proxgrad_norm\n"
        path.write_text(header + text if text else "")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            dp.ConvergenceTrace.read_csv(path)

    def test_short_row_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,wall_s,objective,primal_res,dual_res,proxgrad_norm\n"
                        "1,0,1,0,0,0\n2,0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3 has 3 fields"):
            dp.ConvergenceTrace.read_csv(path)

    def test_iterations_strictly_increasing(self):
        trace = dp.ConvergenceTrace()
        trace.append(TraceRecord(1, 0.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            trace.append(TraceRecord(1, 0.0, 0.9, 0.0, 0.0, 0.0))

    def test_non_finite_rejected(self):
        trace = dp.ConvergenceTrace()
        with pytest.raises(ValueError):
            trace.append(TraceRecord(0, 0.0, float("nan"), 0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "records",
        [
            [TraceRecord(0, 0.0, float("nan"), 0.0, 0.0, 0.0)],
            [TraceRecord(2, 0.0, 1.0, 0.0, 0.0, 0.0), TraceRecord(1, 0.0, 0.9, 0.0, 0.0, 0.0)],
        ],
        ids=["non_finite", "non_increasing"],
    )
    def test_constructor_rejects_what_append_rejects(self, records):
        # a trace that could be built could be written but not read back
        with pytest.raises(ValueError):
            dp.ConvergenceTrace(records)


class TestTraceColumns:
    """The column store reads back exactly what a list of records held."""

    @staticmethod
    def _records(num):
        return [
            TraceRecord(3 * k + 1, 1e-3 * k, 1.0 / (k + 1), 0.5**k, -0.0, float(k))
            for k in range(num)
        ]

    def test_every_read_path_matches_the_record_list(self):
        records = self._records(40)
        trace = dp.ConvergenceTrace(records)
        assert len(trace) == len(records)
        assert trace.records == records
        assert list(trace) == records
        for i in (0, 7, 39, -1, -40):
            assert trace[i] == records[i]
            assert type(trace[i]) is TraceRecord
        with pytest.raises(IndexError):
            trace[40]
        for sl in (slice(None), slice(5, 9), slice(20, None), slice(None, -3), slice(None, None, -7)):
            assert trace[sl] == records[sl]
        assert trace.last_iter == records[-1].iter
        assert trace.iters.dtype == np.intp
        assert trace.iters.tolist() == [r.iter for r in records]
        assert trace.objectives.tolist() == [r.objective for r in records]
        # criterion 3 fits the rate on the second half of a sharing trace
        tail = dp.ConvergenceTrace(trace.records[len(records) // 2:])
        assert tail.records == records[len(records) // 2:]
        assert tail.iters.tolist() == [r.iter for r in records[len(records) // 2:]]

    def test_empty_trace(self):
        trace = dp.ConvergenceTrace()
        assert len(trace) == 0 and not trace.records and list(trace) == []
        assert trace.last_iter is None
        assert trace.iters.dtype == np.intp and trace.iters.size == 0
        assert trace.objectives.size == 0
        assert trace[:] == []

    def test_reads_see_later_appends(self):
        trace = dp.ConvergenceTrace(self._records(3))
        iters = trace.iters
        trace.append(TraceRecord(100, 0.0, 1.0, 0.0, 0.0, 0.0))
        assert iters.tolist() == [1, 4, 7]
        assert trace.iters.tolist() == [1, 4, 7, 100]
        assert trace[-1].iter == trace.last_iter == 100

    def test_rejected_append_leaves_the_trace_unchanged(self):
        trace = dp.ConvergenceTrace(self._records(3))
        for bad in (
            TraceRecord(2**63, 0.0, 1.0, 0.0, 0.0, 0.0),
            TraceRecord(50, 0.0, 1.0, float("inf"), 0.0, 0.0),
            TraceRecord(5, 0.0, 1.0, 0.0, 0.0, 0.0),
        ):
            with pytest.raises((ValueError, OverflowError)):
                trace.append(bad)
        assert trace.records == self._records(3)

    def test_memory_per_record(self):
        num = 100_000
        tracemalloc.start()
        try:
            trace = dp.ConvergenceTrace()
            before = tracemalloc.get_traced_memory()[0]
            for k in range(num):
                trace.append(TraceRecord(k, 1e-6 * k, 1.0 + 1.0 / (k + 1), 0.5, 0.25, 0.125))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # six 8-byte columns plus the arrays' growth slack
        assert len(trace) == num
        assert grown <= 64 * num, grown / num
