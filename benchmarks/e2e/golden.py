"""Goldens of the end-to-end benchmark, and the output comparison.

``PYTHONPATH=src python benchmarks/e2e/golden.py`` regenerates
``golden/seed0.json``: every workload's seed-0 pass computed in the
reference configuration (serial, lanes off, surrogate off, memory cache
only, so ``br-campaign`` runs the plain bisection).  ``run.py`` checks
seed-0 outputs against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0.json"

#: Largest relative deviation of a border from its golden value.
BR_DEV_REL = 1e-6


def diff_outputs(got, want, path: str = "") -> tuple[float, list[str]]:
    """Compare two pass outputs: the largest relative deviation of any
    float, and the paths where anything else differs."""
    if isinstance(want, float) and isinstance(got, float):
        scale = abs(want) or 1.0
        return abs(got - want) / scale, []
    if isinstance(want, dict) and isinstance(got, dict):
        worst, bad = 0.0, []
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                bad.append(f"{path}/{key}")
                continue
            dev, sub = diff_outputs(got[key], want[key], f"{path}/{key}")
            worst = max(worst, dev)
            bad.extend(sub)
        return worst, bad
    return 0.0, [] if got == want else [path or "/"]


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def check(name: str, inputs: dict, outputs: dict) -> dict:
    """The golden verdict for one workload's outputs.

    Applies only when ``inputs`` are the golden's own (seed 0 at the
    default sizes); otherwise the report says the run was checked
    reference-free.
    """
    golden = load().get(name)
    if golden is None or golden["inputs"] != inputs:
        return {"golden": "skipped: not the seed-0 inputs "
                          "(reference-free checks only)"}
    dev, bad = diff_outputs(outputs, golden["outputs"])
    ok = not bad and dev <= BR_DEV_REL
    return {"golden": "ok" if ok else "MISMATCH", "br_dev_rel": dev,
            "golden_diffs": bad}


def regenerate() -> dict:
    from benchmarks.e2e.workloads import REFERENCE_ENGINE, WORKLOADS, \
        fresh_engine
    out = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.make_inputs(0)
        with fresh_engine(None, **REFERENCE_ENGINE):
            outputs = workload.run(inputs)
        out[name] = {"inputs": inputs, "outputs": outputs}
        print(f"{name}: {json.dumps(outputs)[:120]}", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(regenerate(), indent=1, sort_keys=True)
                      + "\n")
