"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared benchmark study (four topologies, ten seeded replications, all
five solvers, full traces) is built once per session; run with ``-s`` or
``-rA`` to see the per-criterion lines.  The module is marked ``slow``, so
``pytest -m "not slow"`` runs every other test.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

import dagprox as dp
from dagprox import bench
from dagprox.cli import main as cli_main

pytestmark = pytest.mark.slow

TOPOLOGIES = ("two_layer", "binary_tree", "root_two_paths", "random_dag")
LARGE_TOPOLOGIES = ("two_layer", "binary_tree", "root_two_paths")
TREE_TOPOLOGIES = ("two_layer", "binary_tree", "root_two_paths")
REPS = 10
LAM = 0.5
TOL = 1e-8
RHO, ALPHA = 1.0, 0.5


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def study():
    """All benchmark runs: {topology: BenchmarkRun}, plus total wall time."""
    opts = dp.SolveOptions(
        rho=RHO, alpha=ALPHA, max_iter=250_000,
        tol_opt=TOL, tol_primal=TOL, tol_dual=TOL, trace_every=1,
    )
    runs = {}
    t0 = time.perf_counter()
    for topo in TOPOLOGIES:
        spec = bench.BenchmarkSpec(topology=topo, reps=REPS, lam=LAM, options=opts)
        runs[topo] = bench.run_benchmark(spec)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chain_fit_sweep(fixtures_dir):
    """Ten log-spaced penalty levels on the committed chain-recovery dataset."""
    design = dp.learn.load_design_matrix(fixtures_dir / "chain20_design.csv")
    response = dp.learn.load_response(fixtures_dir / "chain20_response.csv")
    truth = np.loadtxt(fixtures_dir / "chain20_truth.csv")
    dag = dp.read_edge_list(fixtures_dir / "chain20_graph.txt")
    loss = dp.LeastSquaresLoss(design, response)
    lam_hi = dp.lambda_max(loss, dag)
    fits = [
        (lam, dp.fit(loss, dag, lam, outer=dp.OuterOptions(max_iter=300, tol=1e-6)))
        for lam in lam_hi * np.logspace(-3, 0, 10)
    ]
    return fits, truth


def test_criterion_1_cross_solver_equivalence(study):
    runs, wall = study
    worst_obj = worst_beta = 0.0
    for topo in TOPOLOGIES:
        for inst in runs[topo].instances:
            objs = np.array([inst.results[m].objective for m in bench.SOLVER_NAMES])
            rel = (objs.max() - objs.min()) / max(1.0, abs(objs.min()))
            worst_obj = max(worst_obj, rel)
            betas = [inst.results[m].beta for m in bench.SOLVER_NAMES]
            for i in range(len(betas)):
                for j in range(i + 1, len(betas)):
                    worst_beta = max(worst_beta, float(np.max(np.abs(betas[i] - betas[j]))))
    ok = worst_obj <= 1e-6 and worst_beta <= 1e-5
    assert report(
        1, "cross-solver oracle equivalence", ok,
        f"worst rel objective {worst_obj:.2e} (tol 1e-6), "
        f"worst beta l_inf {worst_beta:.2e} (tol 1e-5), study wall {wall:.0f}s",
    )


def test_criterion_2_sharing_unscaled_exactness(study):
    runs, _ = study
    opts = dp.SolveOptions(
        rho=RHO, alpha=ALPHA, max_iter=220, tol_primal=0.0, tol_dual=0.0
    )
    worst = 0.0
    checked = 0
    for topo in TOPOLOGIES:
        run = runs[topo]
        gs = run.group_set
        op = dp.SumOperator(gs)
        for inst_run in run.instances:
            inst = dp.ProxInstance(b=inst_run.b, lam=LAM, group_set=gs, operator=op)
            seen = []
            dp.prox_log_admm_unscaled(
                inst, opts,
                callback=lambda k, x1, x2, y: seen.append((x1.copy(), x2.copy(), y.copy())),
            )
            deviation = 0.0

            def compare(k, x1, x2, y):
                nonlocal deviation
                r = seen[k - 1]
                deviation = max(
                    deviation,
                    float(np.max(np.abs(x1 - r[0]))),
                    float(np.max(np.abs(x2 - r[1]))),
                    float(np.max(np.abs(y - r[2]))),
                )

            dp.prox_log_admm_sharing(inst, opts, callback=compare)
            assert len(seen) == 220
            worst = max(worst, deviation)
            checked += 1
    ok = checked == 4 * REPS and worst <= 1e-10
    assert report(
        2, "sharing <-> unscaled trajectory exactness", ok,
        f"{checked} instances x 220 iterations, worst l_inf deviation {worst:.2e} (tol 1e-10)",
    )


def test_criterion_3_empirical_linear_rate(study):
    runs, _ = study
    worst_r2 = 1.0
    for topo in TOPOLOGIES:
        for inst in runs[topo].instances:
            trace = inst.results["sharing"].trace
            # trailing 50% of the traced iterations, gaps above 1e-12
            tail = dp.ConvergenceTrace(trace.records[len(trace.records) // 2:])
            fit = dp.fit_linear_rate(tail, inst.f_star, tail_fraction=1.0, min_gap=1e-12)
            worst_r2 = min(worst_r2, fit.r_squared)
    ok = worst_r2 >= 0.95
    assert report(
        3, "empirical linear convergence of sharing", ok,
        f"min R^2 over {4 * REPS} traces = {worst_r2:.4f} (floor 0.95)",
    )


def test_criterion_4_lyapunov_monotonicity(study):
    runs, _ = study
    opts = dp.SolveOptions(
        rho=RHO, alpha=ALPHA, max_iter=100_000,
        tol_primal=TOL, tol_dual=TOL,
    )
    worst_increase = -np.inf
    for topo in TOPOLOGIES:
        run = runs[topo]
        op = dp.SumOperator(run.group_set)
        for inst_run in run.instances:
            ref = inst_run.reference.state
            gap_star = ref.x1 - ref.x2
            inst = dp.ProxInstance(
                b=inst_run.b, lam=LAM, group_set=run.group_set, operator=op
            )
            values = []

            def track(k, x1, x2, y):
                v = (
                    np.linalg.norm(y - ref.y) ** 2
                    + ALPHA * RHO * np.linalg.norm(x2 - ref.x2) ** 2
                    + ALPHA * (RHO - ALPHA) * np.linalg.norm((x1 - x2) - gap_star) ** 2
                )
                values.append(v)

            dp.prox_log_admm_sharing(inst, opts, callback=track)
            diffs = np.diff(np.array(values))
            worst_increase = max(worst_increase, float(diffs.max(initial=-np.inf)))
    ok = worst_increase <= 1e-9
    assert report(
        4, "Lyapunov sequence non-increasing", ok,
        f"worst per-step increase {worst_increase:.2e} (slack 1e-9)",
    )


def test_criterion_5_kkt_certification(study):
    runs, _ = study
    worst = 0.0
    checked = skipped = 0
    for topo in TOPOLOGIES:
        run = runs[topo]
        op = dp.SumOperator(run.group_set)
        for inst_run in run.instances:
            inst = dp.ProxInstance(
                b=inst_run.b, lam=LAM, group_set=run.group_set, operator=op
            )
            for name in bench.SOLVER_NAMES:
                res = inst_run.results[name]
                if not res.converged:
                    skipped += 1
                    continue
                if res.state is not None:
                    s2, s1, feas = dp.kkt_residual(
                        res.state.x1, res.state.x2, res.state.y, inst, rho=RHO
                    )
                else:
                    y = op.adjoint_apply(op.apply(res.x) - inst.b)
                    s2, s1, feas = dp.kkt_residual(res.x, res.x, y, inst, rho=RHO)
                worst = max(worst, s2, s1, feas)
                checked += 1
    ok = worst <= 10 * TOL
    assert report(
        5, "KKT residuals of converged runs", ok,
        f"{checked} converged runs ({skipped} non-converged exempt), "
        f"worst residual {worst:.2e} (bound {10 * TOL:.0e})",
    )


def test_criterion_6_relative_solver_ordering(study):
    runs, _ = study
    failures = []
    details = []
    for topo in LARGE_TOPOLOGIES:
        run = runs[topo]
        medians = {}
        for name in ("sharing", "bcd", "pgm", "fista"):
            hits = [
                bench.iterations_to_gap(inst.results[name], inst.f_star, 1e-6)
                for inst in run.instances
            ]
            medians[name] = float(np.median([h if h is not None else np.inf for h in hits]))
        details.append(f"{topo}: " + ", ".join(f"{k}={v:.0f}" for k, v in medians.items()))
        for name in ("bcd", "pgm", "fista"):
            if not medians["sharing"] <= medians[name]:
                failures.append(f"{topo}: sharing={medians['sharing']:.0f} > {name}={medians[name]:.0f}")
    ok = not failures
    report(6, "median iterations-to-1e-6: sharing <= bcd/pgm/fista", ok, "; ".join(details))
    assert ok, (
        "sharing is not fastest in sweep-counted iterations: "
        + "; ".join(failures)
        + " -- BCD's Gauss-Seidel sweep (one iteration = one full pass, the unit "
        "its iteration cap is defined in) propagates information along the "
        "hierarchy faster per pass on deep/chain-like trees than one ADMM "
        "iteration does; no group stacking order or penalty parameter changes "
        "this, and the ADMM dominates both proximal-gradient baselines "
        "everywhere.  See 'Known red' in README.md."
    )


def test_criterion_7_prox_properties(study):
    runs, _ = study
    dag = bench.make_topology("random_dag")
    gs = dp.ancestor_groups(dag)
    op = dp.SumOperator(gs)
    opts = dp.SolveOptions(max_iter=200_000, tol_primal=TOL, tol_dual=TOL)

    rng = np.random.default_rng(2024)
    worst_expansion = -np.inf
    for _ in range(100):
        b1 = rng.standard_normal(gs.d)
        b2 = rng.standard_normal(gs.d)
        r1 = dp.prox_log_admm_sharing(
            dp.ProxInstance(b=b1, lam=LAM, group_set=gs, operator=op), opts
        )
        r2 = dp.prox_log_admm_sharing(
            dp.ProxInstance(b=b2, lam=LAM, group_set=gs, operator=op), opts
        )
        worst_expansion = max(
            worst_expansion,
            float(np.linalg.norm(r1.beta - r2.beta) - np.linalg.norm(b1 - b2)),
        )
    nonexpansive_ok = worst_expansion <= 2 * TOL

    tight = dp.SolveOptions(max_iter=300_000, tol_primal=1e-10, tol_dual=1e-10, tol_opt=1e-10)
    worst_identity = worst_zeroing = 0.0
    for topo in TOPOLOGIES:
        run = runs[topo]
        op_t = dp.SumOperator(run.group_set)
        b = run.instances[0].b
        ident = dp.prox_log_admm_sharing(
            dp.ProxInstance(b=b, lam=0.0, group_set=run.group_set, operator=op_t), tight
        )
        worst_identity = max(worst_identity, float(np.max(np.abs(ident.beta - b))))
        lam_zero = max(
            np.linalg.norm(b[g]) / w
            for g, w in zip(run.group_set.groups, run.group_set.weights)
        )
        zeroed = dp.prox_log_admm_sharing(
            dp.ProxInstance(b=b, lam=1.01 * lam_zero, group_set=run.group_set, operator=op_t),
            opts,
        )
        worst_zeroing = max(worst_zeroing, float(np.max(np.abs(zeroed.beta))))
    ok = nonexpansive_ok and worst_identity <= 1e-8 and worst_zeroing <= 1e-8
    assert report(
        7, "prox map properties", ok,
        f"nonexpansiveness excess {worst_expansion:.2e} (slack {2 * TOL:.0e}), "
        f"lam=0 identity error {worst_identity:.2e}, zeroing error {worst_zeroing:.2e} (tol 1e-8)",
    )


def test_criterion_8_hierarchy_conformance(study, chain_fit_sweep):
    runs, _ = study
    total_violations = 0
    checked = 0
    for topo in TREE_TOPOLOGIES:
        run = runs[topo]
        for inst_run in run.instances:
            for name in bench.SOLVER_NAMES:
                rep_report = dp.check_hierarchy_conformance(
                    run.dag, inst_run.results[name].beta, threshold=1e-8, mode="strong"
                )
                total_violations += rep_report.num_violations
                checked += 1
    fits, _ = chain_fit_sweep
    for _, fit_result in fits:
        total_violations += fit_result.hierarchy.num_violations
        checked += 1
    ok = total_violations == 0
    assert report(
        8, "strong-hierarchy conformance of all outputs", ok,
        f"{checked} outputs checked, {total_violations} violations",
    )


def test_criterion_9_learner_correctness(chain_fit_sweep):
    rng = np.random.default_rng(31)
    a = rng.standard_normal((40, 9))
    losses = (
        dp.LeastSquaresLoss(a, rng.standard_normal(40)),
        dp.LogisticLoss(a, rng.choice([-1.0, 1.0], size=40)),
    )
    worst_rel = 0.0
    h = 1e-6
    for loss in losses:
        for _ in range(50):
            beta = rng.standard_normal(9)
            g = loss.gradient(beta)
            g_fd = np.zeros(9)
            for i in range(9):
                e = np.zeros(9)
                e[i] = h
                g_fd[i] = (loss.value(beta + e) - loss.value(beta - e)) / (2 * h)
            worst_rel = max(
                worst_rel, np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
            )
    grad_ok = worst_rel <= 1e-4

    fits, truth = chain_fit_sweep
    true_support = set(np.flatnonzero(np.abs(truth) > 0).tolist())
    recovery_ok = any(
        true_support <= set(res.support.tolist())
        and res.hierarchy.num_violations == 0
        for _, res in fits
    )
    ok = grad_ok and recovery_ok
    assert report(
        9, "learner gradients and chain recovery", ok,
        f"worst finite-difference rel err {worst_rel:.2e} (tol 1e-4), "
        f"support recovered at some lambda: {recovery_ok}",
    )


def test_criterion_10_summary_determinism(tmp_path):
    runner = CliRunner()
    args = [
        "prox-bench", "--topology", "random_dag", "--nodes", "8", "--seed", "11",
        "--reps", "3", "--solvers", "sharing,bcd,pgm",
    ]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(cli_main, args + ["--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        outs.append((out / "summary.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert report(
        10, "byte-identical summaries for identical seeds", ok,
        f"{len(outs[0])} bytes compared",
    )
