"""Run one dagprox benchmark workload.

    python3 perfbench/run.py --workload prox_tree --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) from the checkout's
``src`` tree in a single process with one BLAS thread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Lines before it are the environment stamp and
the behaviour record.  The full result, and the span tree of a traced run,
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_PASSES = 20


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def time_setups(wl, seed: int):
    """Wall seconds of ``wl.setup_repeats`` set-ups, and the last state built.

    The run takes one batch before and one after the timed passes: on a
    host whose speed drifts over tens of seconds, a set-up of a few
    milliseconds measured at one moment reads that moment's speed.
    """
    times = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        state = wl.setup(seed, ROOT)
        times.append(perf_counter() - t0)
    return times, state


def measure_passes(wl, state, seconds: float, reference: dict):
    """Repeat the timed phase until ``seconds`` would be exceeded; check each pass."""
    from workloads import failures

    times, cpu, ops_out, failed = [], [], [], []
    start = perf_counter()
    while True:
        out_dir = OUT / wl.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        t0, c0 = perf_counter(), process_time()
        ops = wl.run_pass(state, out_dir)
        times.append(perf_counter() - t0)
        cpu.append(process_time() - c0)
        for op in ops:
            reasons = failures(wl, state, op, reference)
            if reasons:
                failed.append((op.label, reasons))
            op.payload = {}
        ops_out.extend(ops)
        elapsed = perf_counter() - start
        if len(times) >= MAX_PASSES or elapsed + statistics.median(times) > seconds:
            return times, cpu, ops_out, failed


def traced_run(wl, seed: int, reference: dict, untraced_s: float, group_sets) -> dict:
    """One traced setup, pass and check; then the kernel scaling series."""
    import layers
    import spans
    from workloads import failures

    tree = spans.SpanTree()
    installed = spans.Installation(tree).install()
    try:
        stale = spans.stale_bindings(installed.originals)
        if stale:
            raise RuntimeError(f"unwrapped bindings remain: {', '.join(stale)}")
        with tree.phase("setup"):
            state = wl.setup(seed, ROOT)
        out_dir = OUT / wl.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        with tree.phase("timed") as timed:
            ops = wl.run_pass(state, out_dir)
        failed = []
        with tree.phase("checks"):
            for op in ops:
                reasons = failures(wl, state, op, reference)
                if reasons:
                    failed.append((op.label, reasons))
        missing = wl.expected_spans - layers.fired(tree, ("setup", "timed", "checks"))
        if missing:
            raise RuntimeError(f"expected spans never fired: {', '.join(sorted(missing))}")
        scaling = layers.scaling_series(tree, seed)
    finally:
        installed.remove()
    metrics = layers.per_layer(
        tree, wl, state, ops, group_sets, trace_bytes=layers.trace_bytes(out_dir)
    )
    metrics.update(scaling)
    metrics["harness.trace_overhead.frac"] = timed.total / untraced_s - 1.0
    return {"metrics": metrics, "ops": ops, "failed": failed, "spans": tree.root.to_json()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dagprox" / "__init__.py").is_file():
        _fail(f"no dagprox package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import dagprox
    from dagprox import graph

    if Path(dagprox.__file__).resolve().parent != ROOT / "src" / "dagprox":
        _fail(f"imported dagprox from {dagprox.__file__}, not from this checkout")

    from workloads import WORKLOADS, criterion6_units

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    setup_times, state = time_setups(wl, args.seed)
    group_sets = state["group_sets"] or [graph.ancestor_groups(state["dag"])]

    times, cpu, ops, failed = measure_passes(wl, state, args.seconds, reference)
    c6 = state.get("c6") or criterion6_units(None)
    summary_sha = state.get("summary_sha256")
    del state
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    time_to_solution = statistics.median(times)
    setup_times += time_setups(wl, args.seed)[0]

    result = {"environment": env, "workload": wl.name, "pass_s": times, "pass_cpu_s": cpu,
              "setup_s": setup_times}
    if args.trace:
        traced = traced_run(wl, args.seed, reference, time_to_solution, group_sets)
        traced["metrics"].update(c6)
        ops += traced["ops"]
        failed += traced["failed"]
        result["spans"] = traced["spans"]
        values = traced["metrics"]
    else:
        values = {
            "time_to_solution_s": time_to_solution,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "solved_frac": 1.0 - len(failed) / len(ops),
        }
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        _fail(
            "metrics differ from BENCHMARK.json: "
            f"unreported {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    metrics = {k: {"value": float(values[k]), "unit": declared[k]} for k in declared}

    for op in ops:
        print("# op " + json.dumps(op.record()))
    if summary_sha is not None:
        print(f"# summary.csv sha256 {summary_sha}")
    for label, reasons in failed:
        print(f"# FAILED {label}: {'; '.join(reasons)}")

    final = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    result.update(final)
    result["behaviour"] = [op.record() for op in ops]
    result["summary_sha256"] = summary_sha
    result["failures"] = [{"label": lb, "reasons": rs} for lb, rs in failed]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
