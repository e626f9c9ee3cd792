"""Solver benchmark: the serial transient step loop on two hot paths.

Times the two electrical hot paths the solver kernels were built for and
writes the numbers to ``reports/solver.txt`` (repo root, the acceptance
artifact) and ``BENCH_solver.json``:

* the ``w0 w1 r1`` operation-cycle sequence on the reference cell open
  (the unit of work behind every electrical sweep) — cold runs, i.e. a
  fresh column model (and compiled :class:`~repro.spice.mna.System`) per
  repetition — with the Newton iterations and steps of a run, read from
  the run registry (they repeat exactly);
* the Fig. 2 electrical plane path (:func:`repro.experiments
  .fig2_result_planes` on a reduced resistance grid) — the sweep shape
  that reuses one system across hundreds of chained cycles.

There is one serial step loop, so the report holds absolute times, not
speedups.  Parity: the timed ``w0 w1 r1`` run must match its entry in
``tests/golden/spice_transients.json`` (time grids and sensed bits
exactly, voltages within the golden's 1e-11 V) through the golden replay
test's own comparator.

Run standalone (CI runs ``--quick --check-parity``)::

    PYTHONPATH=src python benchmarks/bench_solver.py [--quick] [--check]
"""

from __future__ import annotations

import json
import platform
import sys

try:
    from benchmarks._common import (REPO_ROOT, best_of, emit, fail,
                                    make_parser)
except ImportError:                               # run as a script
    from _common import REPO_ROOT, best_of, emit, fail, make_parser

sys.path.insert(0, str(REPO_ROOT))  # the golden replay lives in tests/

import numpy as np  # noqa: E402

from repro.diagnostics import reset_diagnostics  # noqa: E402
from repro.experiments.figures import fig2_result_planes  # noqa: E402
from tests.spice.test_golden_transients import (  # noqa: E402
    CYCLE_OPS,
    GOLDEN,
    mismatches,
    record_cycles,
    run_cycles,
)


def _counted_cycles():
    """One ``w0 w1 r1`` run with its Newton iterations and steps."""
    diag = reset_diagnostics()
    seq = run_cycles()
    return (seq, diag.counts.get("kernel.plan_iteration_assembly", 0),
            diag.counts.get("transient.steps", 0))


def _run_planes(points: int):
    return fig2_result_planes(backend="electrical", points=points)


def run_benchmark(quick: bool = False) -> dict:
    rounds = 3 if quick else 5
    points = 4 if quick else 6

    cycles_s, (seq, newton_iters, steps) = best_of(_counted_cycles, rounds)
    golden = json.loads(GOLDEN.read_text())["cases"]["w0_w1_r1"]
    bad = mismatches(record_cycles(seq), golden)

    plane_rounds = 1 if quick else 2
    planes_s, _ = best_of(lambda: _run_planes(points), plane_rounds)

    return {
        "quick": quick,
        "rounds": rounds,
        "plane_rounds": plane_rounds,
        "points": points,
        "parity": not bad,
        "mismatches": bad[:5],
        "cycles_s": cycles_s,
        "newton_iters": newton_iters,
        "steps": steps,
        "planes_s": planes_s,
    }


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    parity = ("matches tests/golden/spice_transients.json" if res["parity"]
              else "MISMATCH: " + "; ".join(res["mismatches"]))
    lines = [
        f"solver benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
        "",
        f"{CYCLE_OPS!r} cycle sequence (electrical, reference cell open)",
        f"  best of {res['rounds']} cold runs (fresh model + compiled "
        f"system each): {res['cycles_s'] * 1e3:8.1f} ms",
        f"  Newton iterations / steps per run: {res['newton_iters']} / "
        f"{res['steps']} ({res['newton_iters'] / res['steps']:.2f} a step)",
        f"  golden parity: {parity}",
        "",
        f"fig2 electrical plane path ({res['points']}-point grid)",
        f"  best of {res['plane_rounds']} runs: "
        f"{res['planes_s'] * 1e3:8.1f} ms",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    emit("solver", render(res), res)

    if (args.check or args.check_parity) and not res["parity"]:
        return fail("the timed w0 w1 r1 run departs from the golden")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
