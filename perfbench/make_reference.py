"""Regenerate perfbench/reference.json, the stored reference objectives.

    python3 perfbench/make_reference.py

Runs the workloads whose inputs do not depend on the seed (the study's
three fixed topologies and the fit path) once and stores each operation's
final objective.  The benchmark then fails any operation whose objective
moves from its stored value by more than ``OBJECTIVE_REL_TOL``.  Only
regenerate when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in ("study", "fit_path"):
            wl = WORKLOADS[name]
            state = wl.setup(0, HERE.parent)
            ops = wl.run_pass(state, Path(tmp))
            bad = [op.label for op in ops if op.status != "converged"]
            if bad:
                raise SystemExit(f"not converged: {', '.join(bad)}")
            reference[name] = {
                op.label: op.objective for op in ops if not op.label.startswith("random_dag/")
            }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
