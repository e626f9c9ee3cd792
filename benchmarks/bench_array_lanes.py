"""Array-scale lane batching: speculative BR bisection vs the serial path.

Measures the workload PR 9 exists for — the activation-disturbance
border-resistance study (:func:`repro.experiments.array
.activation_disturb_br`) on an R×C array, every array-routed defect
kind — once through a serial engine (``lanes=0``: one netlist rebuild
and one transient per probe) and once through a lane-batched engine
(``lanes=16``: the bisection speculatively probes the midpoint tree of
its bracket, the probes stack as lanes of one batched transient, and
successive generations warm-start from the previous one's converged
trajectories).  Writes ``reports/array_lanes.txt`` (repo root, the
acceptance artifact) and ``reports/array_lanes.txt`` plus a
machine-readable ``BENCH_array_lanes.json`` twin.

The headline leg runs **untrimmed** (``trim="off"``): that is where the
netlists are large enough for the sparse lane system (shared symbolic
factorization, per-lane numeric refactorization) to matter, and where
the serial path pays the full rebuild cost per probe.  The trimmed leg
(``trim="force"``) rides the dense lane kernel on the small active
window — its speedup is reported but not gated (the window is small
enough that per-step numpy dispatch dominates).

Three parity legs guard the speedup:

* **BR identity** — the speculative bisection consumes bitwise the same
  probe resistances as the serial loop (see
  :func:`repro.analysis.border.bisect_lattice`), so the returned
  border must be *exactly* equal, per kind, on both trim policies;
* **trajectory** — :class:`~repro.dram.runner.ArrayLaneRunner` recorded
  waveforms vs the serial :class:`~repro.dram.runner.ArrayRunner`, per
  kind and per lane, within the documented 1e-5 lane tolerance, with
  identical sensed bits;
* **degradation** — without scipy the sparse lane system falls back to
  the dense kernel (``make_lane_system``) and the parity legs must
  still hold (the speedup gate only applies in full mode).

Run standalone (CI runs ``--quick --check``)::

    PYTHONPATH=src python benchmarks/bench_array_lanes.py [--quick] [--check]
"""

from __future__ import annotations

import platform
import time

try:
    from benchmarks._common import emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import emit, fail, make_parser

import numpy as np  # noqa: E402

from repro.dram.column import DEFECT_KINDS, DefectSite  # noqa: E402
from repro.dram.runner import ArrayLaneRunner, ArrayRunner  # noqa: E402
from repro.engine import BatchExecutor  # noqa: E402
from repro.experiments.array import activation_disturb_br  # noqa: E402
from repro.spice.backends import scipy_available  # noqa: E402
from repro.stress import NOMINAL_STRESS  # noqa: E402

#: Lane width of the batched engine (acceptance target's width).
LANE_WIDTH = 16

#: Documented lane-vs-serial tolerance on node voltages (DESIGN.md 5d/5h).
LANE_TOL = 1e-5

#: Bisection convergence of the BR study legs (the CLI default).
BR_REL_TOL = 0.05

#: Defect-resistance lanes of the trajectory-parity leg (log-spread
#: across the typical border decade).
TRAJ_LANES = (1e4, 3e5, 1e7)


def _center(n: int) -> int:
    return (n // 2) * n + n // 2


def _study(lanes: int, *, n: int, kinds, trim: str):
    """One full BR study: wall time, per-kind borders, engine stats."""
    engine = BatchExecutor(cache=None, lanes=lanes)
    t0 = time.perf_counter()
    borders = {
        kind: activation_disturb_br(kind, geometry=(n, n), cell=_center(n),
                                    trim=trim, engine=engine,
                                    rel_tol=BR_REL_TOL)
        for kind in kinds}
    elapsed = time.perf_counter() - t0
    return elapsed, borders, engine.stats


def _br_leg(n: int, kinds, trim: str) -> dict:
    serial_s, serial_br, _ = _study(0, n=n, kinds=kinds, trim=trim)
    lane_s, lane_br, stats = _study(LANE_WIDTH, n=n, kinds=kinds, trim=trim)
    identical = all(serial_br[k] == lane_br[k] for k in kinds)
    return {
        "trim": trim,
        "serial_s": serial_s,
        "lane_s": lane_s,
        "speedup": serial_s / lane_s,
        "borders": {k: serial_br[k] for k in kinds},
        "br_identical": identical,
        "lane_groups": stats.lane_groups,
        "lane_sparse_groups": stats.lane_sparse_groups,
        "lane_warm_hits": stats.lane_warm_hits,
        "lane_warm_misses": stats.lane_warm_misses,
    }


def _trajectory_parity(n: int, kinds) -> dict:
    """Lane-vs-serial recorded waveforms, both trim policies."""
    worst = 0.0
    sensed_ok = True
    for trim in ("off", "force"):
        for kind in kinds:
            lane_runner = ArrayLaneRunner(
                defect_kind=kind, cell=_center(n), geometry=(n, n),
                trim=trim, record=True)
            lane_rows, _ = lane_runner.run_sequences(
                "r", [(r, NOMINAL_STRESS.vdd) for r in TRAJ_LANES])
            for r, row in zip(TRAJ_LANES, lane_rows):
                serial = ArrayRunner(
                    defect=DefectSite(kind, _center(n), r),
                    geometry=(n, n), trim=trim, record=True)
                ref = serial.run_sequence("r", init_vc=NOMINAL_STRESS.vdd)
                for a, b in zip(row.results, ref.results):
                    worst = max(worst,
                                float(np.abs(a.vc - b.vc).max()),
                                float(np.abs(a.extra["bl"]
                                             - b.extra["bl"]).max()))
                    sensed_ok &= a.sensed == b.sensed
    return {"max_dv": worst, "sensed_ok": sensed_ok,
            "ok": sensed_ok and worst <= LANE_TOL}


def run_benchmark(quick: bool = False) -> dict:
    if quick:
        n_study, n_traj = 8, 6
        kinds = ("open_sn", "short_gnd", "bridge_wl")
    else:
        n_study, n_traj = 16, 6
        kinds = DEFECT_KINDS

    headline = _br_leg(n_study, kinds, "off")
    trimmed = _br_leg(n_study, kinds, "force")
    trajectory = _trajectory_parity(n_traj, kinds)

    parity_ok = (headline["br_identical"] and trimmed["br_identical"]
                 and trajectory["ok"])
    return {
        "quick": quick,
        "array": f"{n_study}x{n_study}",
        "kinds": list(kinds),
        "lane_width": LANE_WIDTH,
        "scipy": scipy_available(),
        "headline": headline,
        "trimmed": trimmed,
        "trajectory_parity": trajectory,
        "parity_ok": parity_ok,
    }


def _leg_lines(label: str, leg: dict) -> list[str]:
    return [
        f"{label} (trim={leg['trim']})",
        f"  serial (lanes=0)                : "
        f"{leg['serial_s'] * 1e3:8.1f} ms",
        f"  lane-batched (lanes={LANE_WIDTH})         : "
        f"{leg['lane_s'] * 1e3:8.1f} ms",
        f"  speedup                         : {leg['speedup']:8.2f}x",
        f"  border identity                 : "
        f"{'exact, all kinds' if leg['br_identical'] else 'MISMATCH'}",
        f"  lane groups                     : {leg['lane_groups']} "
        f"({leg['lane_sparse_groups']} sparse), "
        f"{leg['lane_warm_hits']} warm hits / "
        f"{leg['lane_warm_misses']} misses",
    ]


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    traj = res["trajectory_parity"]
    lines = [
        f"array-scale lane batching benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}"
        f"{' / scipy' if res['scipy'] else ' / no scipy'}",
        f"workload: {res['array']} activation-disturb BR study, "
        f"{len(res['kinds'])} defect kinds, rel_tol={BR_REL_TOL}",
        "",
    ]
    lines += _leg_lines("headline: untrimmed array, sparse lanes",
                        res["headline"])
    lines += [""]
    lines += _leg_lines("trimmed active window, dense lanes "
                        "(informational)", res["trimmed"])
    lines += [
        "",
        f"  headline speedup target         : >= 3x (full mode): "
        f"{'met' if res['headline']['speedup'] >= 3.0 else 'missed'}",
        f"  lane-vs-serial trajectory max dv: {traj['max_dv']:.2e} V"
        f"   (tolerance {LANE_TOL:.0e})",
        f"  sensed bits                     : "
        f"{'identical' if traj['sensed_ok'] else 'MISMATCH'}",
        f"  parity                          : "
        f"{'ok' if res['parity_ok'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    emit("array_lanes", render(res),
         dict(res, parity="ok" if res["parity_ok"] else "mismatch"))

    if (args.check or args.check_parity) and not res["parity_ok"]:
        return fail("lane-vs-serial parity or BR identity broken")
    if args.check and not args.quick and res["headline"]["speedup"] < 3.0:
        return fail("array lane speedup target (3x, untrimmed) missed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
