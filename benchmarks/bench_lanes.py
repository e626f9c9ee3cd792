"""Lane-kernel benchmark: batched multi-lane sweeps vs the per-lane path.

Measures what the lane layer was built for and writes the numbers to
``reports/lanes.txt`` (repo root, the acceptance artifact) plus a
machine-readable ``BENCH_lanes.json``:

* the Fig. 2 electrical plane sweep (:func:`repro.experiments
  .fig2_result_planes` on a 32-point resistance grid) through a fresh
  cache-less engine, once with ``lanes=32`` (every sweep batch stacks
  into multi-lane transients) and once with ``lanes=0`` (the serial
  solver-kernel path) — same requests, same results, different
  kernels;
* adaptive border-resistance refinement (:func:`repro.core
  .find_border_adaptive`) vs the dense grid scan on the Table 1 defect
  catalog, counting simulated operation cycles through the engine's
  statistics — the BRs must be identical, the adaptive scan must spend
  at most a third of the cycles;
* narrow lane groups on the O3 column at nominal stress: ``r`` and
  ``w0 w0`` over 2 to 16 lanes (the widths a BR bisection or a
  3-point plane batches), the lane time against the serial time of the
  same lanes.  These lines are informational, like the speedup.

Parity between the lane and per-lane plane sweeps is checked against
the documented fp tolerance (``1e-5`` on node voltages — see DESIGN.md
section 5d); the border estimates must agree to the same relative
tolerance.

Run standalone (CI runs ``--quick --check-parity``)::

    PYTHONPATH=src python benchmarks/bench_lanes.py [--quick] [--check]
"""

from __future__ import annotations

import platform
import time

try:
    from benchmarks._common import best_of, emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import best_of, emit, fail, make_parser

import numpy as np  # noqa: E402

from repro.core.border import find_border_adaptive  # noqa: E402
from repro.dram import ColumnRunner  # noqa: E402
from repro.dram.column import DefectSite  # noqa: E402
from repro.dram.runner import LaneRunner  # noqa: E402
from repro.analysis.curves import border_crossing_scan  # noqa: E402
from repro.analysis.planes import log_grid  # noqa: E402
from repro.defects import ALL_DEFECTS  # noqa: E402
from repro.engine import BatchExecutor, EngineModel  # noqa: E402
from repro.experiments.figures import fig2_result_planes  # noqa: E402
from repro.stress import NOMINAL_STRESS  # noqa: E402

#: Lanes stacked per transient — the acceptance target is >= 16.
#: The kernel's advantage grows with width (per-step numpy dispatch is
#: amortized over more lanes), so the benchmark runs the grid at full
#: batch width.
LANE_WIDTH = 32

#: Documented lane-vs-per-lane tolerance on node voltages (DESIGN.md 5d).
LANE_TOL = 1e-5

#: Dense-grid resolution for the adaptive-BR comparison.
BR_POINTS = 24

#: Narrow lane groups: (ops, widths) in full and quick mode.
NARROW = (("r", (2, 3, 4, 8, 16)), ("w0 w0", (2, 3, 4, 8, 16)))
NARROW_QUICK = (("r", (2, 4)),)

#: The narrow groups' resistances span the Fig. 2 grid; every lane
#: starts from a stored 1.
NARROW_RANGE = (30e3, 2e6)
NARROW_INIT_VC = NOMINAL_STRESS.vdd


# ----------------------------------------------------------------------
# Fig. 2 plane sweep: lanes=16 vs the per-lane kernel path
# ----------------------------------------------------------------------
def _run_planes(lanes: int, points: int):
    """One cold Fig. 2 electrical sweep through a cache-less engine."""
    engine = BatchExecutor(cache=None, lanes=lanes)
    return fig2_result_planes(backend="electrical", points=points,
                              engine=engine)


def _plane_curves(study) -> list[list[float | None]]:
    """The numeric curves a parity check must preserve."""
    planes = study.planes
    return [planes.w0.curve(1), planes.w0.curve(2),
            planes.w1.curve(1), planes.w1.curve(2),
            planes.r.vsa.thresholds]


def _planes_parity(lane_study, legacy_study) -> tuple[bool, float]:
    """Compare lane vs per-lane sweeps within the documented tolerance.

    Returns ``(ok, max_abs_diff)`` over every curve value; the border
    estimates are additionally compared at the same relative tolerance.
    """
    max_diff = 0.0
    ok = True
    for a_curve, b_curve in zip(_plane_curves(lane_study),
                                _plane_curves(legacy_study)):
        for a, b in zip(a_curve, b_curve):
            if (a is None) != (b is None):
                ok = False
                continue
            if a is None:
                continue
            max_diff = max(max_diff, abs(a - b))
    ok &= max_diff <= LANE_TOL
    ba, bb = lane_study.border, legacy_study.border
    if (ba is None) != (bb is None):
        ok = False
    elif ba is not None:
        ok &= abs(ba - bb) <= LANE_TOL * bb
    return ok, max_diff


# ----------------------------------------------------------------------
# Adaptive BR refinement vs the dense grid scan (Table 1 defects)
# ----------------------------------------------------------------------
def _br_model(defect):
    """A fresh cache-less behavioral engine model (exact cycle counts)."""
    engine = BatchExecutor(cache=None)
    return EngineModel(defect, backend="behavioral", engine=engine)


def _adaptive_vs_dense(defects) -> dict:
    """Run both BR searches per defect, tallying engine cycle counts."""
    rows = []
    adaptive_cycles = dense_cycles = 0
    identical = True
    for defect in defects:
        model = _br_model(defect)
        scan = find_border_adaptive(model, defect, points=BR_POINTS)
        a_cycles = model.engine.stats.cycles_simulated
        adaptive_cycles += a_cycles

        model = _br_model(defect)
        r_lo, r_hi = defect.kind.search_range
        dense = border_crossing_scan(model, log_grid(r_lo, r_hi, BR_POINTS),
                                     dense=True)
        d_cycles = model.engine.stats.cycles_simulated
        dense_cycles += d_cycles

        same = scan.border == dense.border
        identical &= same
        rows.append({"defect": defect.name, "border": scan.border,
                     "adaptive_cycles": a_cycles, "dense_cycles": d_cycles,
                     "identical": same})
    return {
        "defects": rows,
        "adaptive_cycles": adaptive_cycles,
        "dense_cycles": dense_cycles,
        "cycle_ratio": adaptive_cycles / dense_cycles,
        "identical_brs": identical,
    }


# ----------------------------------------------------------------------
# Narrow lane groups: lane vs serial time of the same lanes
# ----------------------------------------------------------------------
def _narrow_lane(ops: str, resistances) -> float:
    """Seconds for one lane batch of ``resistances`` (a fresh runner)."""
    runner = LaneRunner(defect_kind="open_sn")
    lanes_in = [(r, NARROW_INIT_VC) for r in resistances]
    t0 = time.perf_counter()
    _, counters = runner.run_sequences(ops, lanes_in)
    elapsed = time.perf_counter() - t0
    if counters["lanes_isolated"]:
        raise RuntimeError(f"narrow {ops!r} group isolated a lane")
    return elapsed


def _narrow_serial(ops: str, resistances) -> float:
    """Seconds for the same lanes one by one on the serial path."""
    runners = [ColumnRunner(defect=DefectSite("open_sn", 0, r))
               for r in resistances]
    t0 = time.perf_counter()
    for runner in runners:
        runner.run_sequence(ops, init_vc=NARROW_INIT_VC)
    return time.perf_counter() - t0


def _narrow_groups(quick: bool, rounds: int) -> list[dict]:
    """Best-of-``rounds`` lane and serial times per (ops, width).

    Each round times the lane batch and then the same lanes serially,
    so a slow spell of the host reaches both sides of a ratio alike.
    """
    rows = []
    for ops, widths in (NARROW_QUICK if quick else NARROW):
        for width in widths:
            rs = log_grid(*NARROW_RANGE, width)
            lane_s = serial_s = float("inf")
            for _ in range(rounds):
                lane_s = min(lane_s, _narrow_lane(ops, rs))
                serial_s = min(serial_s, _narrow_serial(ops, rs))
            rows.append({"ops": ops, "width": width, "lane_s": lane_s,
                         "serial_s": serial_s,
                         "ratio": serial_s / lane_s})
    return rows


def run_benchmark(quick: bool = False) -> dict:
    points = LANE_WIDTH          # one full-width lane group per sweep
    rounds = 1 if quick else 2

    lane_s = legacy_s = float("inf")
    for _ in range(rounds):      # interleaved, like the narrow groups
        t, lane_study = best_of(lambda: _run_planes(LANE_WIDTH, points), 1)
        lane_s = min(lane_s, t)
        t, legacy_study = best_of(lambda: _run_planes(0, points), 1)
        legacy_s = min(legacy_s, t)
    parity_ok, max_diff = _planes_parity(lane_study, legacy_study)

    defects = ALL_DEFECTS[:4] if quick else ALL_DEFECTS
    br = _adaptive_vs_dense(defects)
    narrow_rounds = 1 if quick else 5
    narrow = _narrow_groups(quick, narrow_rounds)

    return {
        "quick": quick,
        "rounds": rounds,
        "points": points,
        "lane_width": LANE_WIDTH,
        "lane_tol": LANE_TOL,
        "planes_lane_s": lane_s,
        "planes_legacy_s": legacy_s,
        "planes_speedup": legacy_s / lane_s,
        "parity_ok": parity_ok,
        "parity_max_diff": max_diff,
        "br_points": BR_POINTS,
        "br_defects": len(defects),
        "br_adaptive_cycles": br["adaptive_cycles"],
        "br_dense_cycles": br["dense_cycles"],
        "br_cycle_ratio": br["cycle_ratio"],
        "br_identical": br["identical_brs"],
        "br_rows": br["defects"],
        "narrow_rounds": narrow_rounds,
        "narrow": narrow,
    }


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    lines = [
        f"lane kernel benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
        f"timing: best of {res['rounds']} interleaved runs, fresh "
        f"cache-less engine each",
        "",
        f"fig2 electrical plane sweep ({res['points']}-point grid, "
        f"{res['lane_width']} lanes)",
        f"  per-lane kernel path (lanes=0)  : "
        f"{res['planes_legacy_s'] * 1e3:8.1f} ms",
        f"  batched lane kernel (lanes={res['lane_width']:2d}) : "
        f"{res['planes_lane_s'] * 1e3:8.1f} ms",
        f"  speedup                         : "
        f"{res['planes_speedup']:8.2f}x   (target >= 3x)",
        f"  result parity                   : "
        f"{'within' if res['parity_ok'] else 'EXCEEDS'} "
        f"{res['lane_tol']:g} tolerance "
        f"(max |dV| = {res['parity_max_diff']:.3g})",
        "",
        f"adaptive BR refinement vs dense {res['br_points']}-point scan "
        f"({res['br_defects']} Table 1 defects, behavioral)",
        f"  dense grid cycles               : "
        f"{res['br_dense_cycles']:8d}",
        f"  adaptive scan cycles            : "
        f"{res['br_adaptive_cycles']:8d}",
        f"  cycle ratio                     : "
        f"{res['br_cycle_ratio']:8.2f}    (target <= 0.33)",
        f"  borders identical               : "
        f"{'yes' if res['br_identical'] else 'NO'}",
    ]
    for row in res["br_rows"]:
        border = "-" if row["border"] is None \
            else format(row["border"], ".4g")
        lines.append(f"    {row['defect']:12s} BR={border:>10s} ohm   "
                     f"{row['adaptive_cycles']:4d} vs "
                     f"{row['dense_cycles']:4d} cycles   "
                     f"{'ok' if row['identical'] else 'MISMATCH'}")
    lines += [
        "",
        f"narrow lane groups (O3 column, nominal stress, "
        f"{NARROW_RANGE[0] / 1e3:g} k-{NARROW_RANGE[1] / 1e6:g} M ohm, "
        f"best of {res['narrow_rounds']} interleaved rounds; "
        f"informational)",
        "  ops     lanes    lane ms  serial ms  serial/lane",
    ]
    for row in res["narrow"]:
        lines.append(f"  {row['ops']:6s} {row['width']:6d} "
                     f"{row['lane_s'] * 1e3:10.1f} "
                     f"{row['serial_s'] * 1e3:10.1f} "
                     f"{row['ratio']:12.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    payload = {k: v for k, v in res.items() if k != "br_rows"}
    payload["parity"] = ("within-tolerance" if res["parity_ok"]
                         else "mismatch")
    emit("lanes", render(res), payload)

    strict = args.check or args.check_parity
    if strict and not (res["parity_ok"] and res["br_identical"]):
        return fail("lane parity or BR identity broken")
    if args.check and (res["planes_speedup"] < 3.0
                       or res["br_cycle_ratio"] > 1.0 / 3.0):
        return fail("speedup / cycle-ratio targets missed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
