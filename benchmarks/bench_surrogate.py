"""Surrogate-first answer tier: served fraction, identity, cold speedup.

Measures the workload the surrogate tier exists for, in two legs:

* **Direction serving** — every Table-1 {defect, ST} direction query
  (14 defects × 4 ST axes), answered three ways.  The electrical
  reference flow (write/read panels on the SPICE-level column, border
  tie-breaks by electrical bisection) sets the ground truth.  Then one
  serve-mode campaign runs the query set twice through
  :meth:`repro.surrogate.SurrogateTier.serve_direction` (behavioral
  twin panels, tie-breaks from calibrated BR predictions): the *cold*
  pass serves what its uncertainty gate allows and falls back to the
  electrical flow for the rest, journaling every fallback border as a
  calibration point; the *warm* pass — a resumed campaign re-asking
  the same questions — serves tie-breaks from the journaled electrical
  borders (exact reconstruction, sigma 0).  Gated: ≥ 60% of the warm
  pass served surrogate-only (zero electrical simulations), and
  **every** served direction, both passes, identical to the electrical
  reference.
* **Cold seven-kind BR study** — the seven Table-1 defect kinds' border
  resistances at the nominal SC, serial electrical bisection vs a
  *cold* ``prior``-mode tier (empty journal, packaged seed calibration
  only) seeding the bracket.  Gated: ≥ 3x end-to-end, with every
  border **exactly** equal to the serial search (the prior-guided
  descent replays the same bisection lattice, so this is bitwise
  identity, not a tolerance).  The two legs run about a minute apart,
  so each is timed inside a machine-speed probe
  (``benchmarks/e2e/speed.SpeedProbe``) and the gate reads the ratio of
  the host-scaled times; the report prints each leg's counted Newton
  iterations beside it, a machine-independent view of the same ratio.

Writes ``reports/surrogate.txt`` (repo root, the acceptance artifact)
plus a machine-readable ``BENCH_surrogate.json`` twin.  ``--quick``
shrinks the defect sets for CI; ``--check-parity`` gates identity only
(CI runners are too noisy for wall-clock gates), ``--check`` gates
identity, served fraction and (full mode) the 3x speedup.

Run standalone (CI runs ``--quick --check-parity``)::

    PYTHONPATH=src python benchmarks/bench_surrogate.py [--quick] [--check]
"""

from __future__ import annotations

import platform
import time

try:
    from benchmarks._common import emit, fail, make_parser
    from benchmarks.e2e.speed import SpeedProbe
except ImportError:                               # run as a script
    from _common import emit, fail, make_parser
    from e2e.speed import SpeedProbe

import numpy as np  # noqa: E402

from repro.analysis.detection import derive_detection_condition  # noqa: E402
from repro.analysis.interface import electrical_model  # noqa: E402
from repro.core.border import (  # noqa: E402
    find_border_resistance,
    more_effective,
)
from repro.core.directions import analyze_direction  # noqa: E402
from repro.core.optimizer import (  # noqa: E402
    DEFAULT_ST_KINDS,
    probe_resistance,
)
from repro.defects.catalog import ALL_DEFECTS, Defect  # noqa: E402
from repro.diagnostics import reset_diagnostics  # noqa: E402
from repro.engine import (  # noqa: E402
    BatchExecutor,
    ResultCache,
    set_default_engine,
)
from repro.stress import NOMINAL_STRESS  # noqa: E402
from repro.surrogate import SurrogateTier, set_active_tier  # noqa: E402

#: Bisection convergence of every border search in this benchmark (the
#: CLI default — and the tolerance the packaged seeds were measured at).
BR_REL_TOL = 0.05

#: Gate (a): minimum fraction of direction queries served surrogate-only.
SERVED_FRACTION_TARGET = 0.60

#: Gate (b): minimum end-to-end speedup of the cold prior-mode BR study.
COLD_SPEEDUP_TARGET = 3.0


def _fresh_engine() -> BatchExecutor:
    """A private engine per leg so no leg rides another's cache."""
    engine = BatchExecutor(cache=ResultCache(), workers=1)
    set_default_engine(engine)
    return engine


# ----------------------------------------------------------------------
# leg 1: Table-1 direction queries, electrical reference vs serve mode
# ----------------------------------------------------------------------
def _electrical_directions(defects) -> tuple[float, dict, dict]:
    """The reference: per-{defect, ST} directions, all-electrical."""
    _fresh_engine()
    set_active_tier(None)
    t0 = time.perf_counter()
    chosen: dict[tuple[str, str], float] = {}
    context: dict[str, tuple[int, float]] = {}
    for defect in defects:
        model = electrical_model(defect, stress=NOMINAL_STRESS)
        border = find_border_resistance(model, defect,
                                        stress=NOMINAL_STRESS,
                                        rel_tol=BR_REL_TOL,
                                        surrogate=False)
        r_probe = probe_resistance(defect, border)
        model.set_stress(NOMINAL_STRESS)
        detection = derive_detection_condition(model, r_probe)
        fault_value = detection.expected if detection is not None else 0
        context[defect.name] = (fault_value, r_probe)
        model.set_defect_resistance(r_probe)
        for kind in DEFAULT_ST_KINDS:
            call = analyze_direction(model, kind, fault_value,
                                     base=NOMINAL_STRESS)
            if call.needs_border_tiebreak:
                best_value, best_border = None, None
                for value in call.tiebreak_candidates:
                    sc = NOMINAL_STRESS.with_value(kind, value)
                    b = find_border_resistance(model, defect, stress=sc,
                                               rel_tol=BR_REL_TOL,
                                               surrogate=False)
                    if best_border is None or more_effective(defect, b,
                                                             best_border):
                        best_value, best_border = value, b
                call.chosen_value = best_value
                model.set_defect_resistance(r_probe)
            chosen[(defect.name, kind.value)] = call.chosen_value
    return time.perf_counter() - t0, chosen, context


def _campaign_pass(tier, defects, context) -> tuple[float, dict, dict]:
    """One serve-mode pass over every {defect, ST} direction query.

    A query the tier refuses falls back to the electrical flow — the
    same panels + tie-break bisections the optimizer runs — with the
    tier's prior view seeding the brackets and journaling every border
    as a calibration point (the active-learning loop the next pass
    profits from).
    """
    t0 = time.perf_counter()
    served: dict[tuple[str, str], float] = {}
    fellback: dict[tuple[str, str], float] = {}
    for defect in defects:
        fault_value, r_probe = context[defect.name]
        model = None
        for kind in DEFAULT_ST_KINDS:
            call = tier.serve_direction(defect, kind, fault_value,
                                        base=NOMINAL_STRESS,
                                        r_probe=r_probe,
                                        rel_tol=BR_REL_TOL)
            if call is not None:
                served[(defect.name, kind.value)] = call.chosen_value
                continue
            if model is None:
                model = electrical_model(defect, stress=NOMINAL_STRESS)
                model.set_defect_resistance(r_probe)
            ecall = analyze_direction(model, kind, fault_value,
                                      base=NOMINAL_STRESS)
            if ecall.needs_border_tiebreak:
                best_value, best_border = None, None
                for value in ecall.tiebreak_candidates:
                    sc = NOMINAL_STRESS.with_value(kind, value)
                    b = find_border_resistance(
                        model, defect, stress=sc, rel_tol=BR_REL_TOL,
                        surrogate=tier.prior_view())
                    if best_border is None or more_effective(defect, b,
                                                             best_border):
                        best_value, best_border = value, b
                ecall.chosen_value = best_value
                model.set_defect_resistance(r_probe)
            fellback[(defect.name, kind.value)] = ecall.chosen_value
    return time.perf_counter() - t0, served, fellback


def _direction_leg(defects) -> dict:
    electrical_s, reference, context = _electrical_directions(defects)

    # One serve-mode campaign, two passes over the same query set: the
    # cold pass journals its fallbacks' electrical borders, the warm
    # pass (a resumed campaign re-asking its questions) serves from
    # the journal with exact reconstructed results.
    engine = _fresh_engine()
    tier = SurrogateTier("serve", stats=engine.stats)
    set_active_tier(None)      # the tier is driven directly
    cold_s, cold_served, cold_fell = _campaign_pass(tier, defects,
                                                    context)
    warm_s, warm_served, warm_fell = _campaign_pass(tier, defects,
                                                    context)

    total = len(reference)
    mismatches = sorted(
        f"{d}/{k} ({label})"
        for label, answers in (("cold", cold_served),
                               ("warm", warm_served))
        for (d, k), v in answers.items() if v != reference[(d, k)])
    return {
        "queries": total,
        "cold_served": len(cold_served),
        "cold_fraction": len(cold_served) / total if total else 0.0,
        "served": len(warm_served),
        "served_fraction": len(warm_served) / total if total else 0.0,
        "fallbacks": len(warm_fell),
        "directions_identical": not mismatches,
        "mismatches": mismatches,
        "electrical_s": electrical_s,
        "cold_s": cold_s,
        "serve_s": warm_s,
        "surrogate_refits": engine.stats.surrogate_refits,
    }


# ----------------------------------------------------------------------
# leg 2: cold seven-kind BR study, serial vs prior-seeded bisection
# ----------------------------------------------------------------------
def _cold_study(defects, mode: str) -> tuple[SpeedProbe, dict, object, int]:
    """One cold pass over the kinds' nominal borders (fresh engine),
    timed inside a :class:`SpeedProbe`; also returns the pass's counted
    Newton iterations."""
    engine = _fresh_engine()
    tier = None
    if mode == "prior":
        tier = SurrogateTier("prior", stats=engine.stats)
        set_active_tier(tier)
    else:
        set_active_tier(None)
    diag = reset_diagnostics()
    try:
        with SpeedProbe() as probe:
            borders = {}
            for defect in defects:
                model = electrical_model(defect, stress=NOMINAL_STRESS)
                borders[defect.name] = find_border_resistance(
                    model, defect, stress=NOMINAL_STRESS,
                    rel_tol=BR_REL_TOL,
                    surrogate=False if mode == "serial" else None)
    finally:
        set_active_tier(None)
    iterations = diag.counts.get("kernel.plan_iteration_assembly", 0)
    return probe, borders, engine.stats, iterations


def _cold_leg(defects) -> dict:
    serial, serial_borders, _, serial_iters = _cold_study(defects, "serial")
    prior, prior_borders, stats, prior_iters = _cold_study(defects, "prior")
    identical = all(serial_borders[n] == prior_borders[n]
                    for n in serial_borders)
    return {
        "kinds": [d.name for d in defects],
        "serial_s": serial.scaled,
        "prior_s": prior.scaled,
        "serial_raw_s": serial.elapsed,
        "prior_raw_s": prior.elapsed,
        "speedup": serial.scaled / prior.scaled,
        "serial_newton_iters": serial_iters,
        "prior_newton_iters": prior_iters,
        "borders": {n: b.resistance for n, b in serial_borders.items()},
        "borders_identical": identical,
        "surrogate_refits": stats.surrogate_refits,
    }


def run_benchmark(quick: bool = False) -> dict:
    if quick:
        names = ("O1 (true)", "O3 (true)", "Sg (true)", "B1 (true)")
        dir_defects = [d for d in ALL_DEFECTS if d.name in names]
        cold_defects = dir_defects[:2]
    else:
        dir_defects = list(ALL_DEFECTS)
        cold_defects = [d for d in ALL_DEFECTS
                        if d.name.endswith("(true)")]

    directions = _direction_leg(dir_defects)
    cold = _cold_leg(cold_defects)
    parity_ok = (directions["directions_identical"]
                 and cold["borders_identical"])
    return {
        "quick": quick,
        "rel_tol": BR_REL_TOL,
        "defects": [d.name for d in dir_defects],
        "directions": directions,
        "cold7": cold,
        "parity_ok": parity_ok,
    }


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    d = res["directions"]
    c = res["cold7"]
    lines = [
        f"surrogate answer tier benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()} / numpy {np.__version__}",
        f"workload: {d['queries']} Table-1 direction queries "
        f"({len(res['defects'])} defects x {len(DEFAULT_ST_KINDS)} STs) "
        f"+ {len(c['kinds'])}-kind cold BR study, rel_tol={BR_REL_TOL}",
        "",
        "direction serving (serve-mode campaign, two passes)",
        f"  cold pass served                : {d['cold_served']}/"
        f"{d['queries']} ({d['cold_fraction']:.0%}), "
        f"{d['surrogate_refits']} calibration points journaled",
        f"  warm pass served surrogate-only : {d['served']}/"
        f"{d['queries']} ({d['served_fraction']:.0%}; "
        f"target >= {SERVED_FRACTION_TARGET:.0%})",
        f"  warm-pass electrical fallbacks  : {d['fallbacks']}",
        f"  served directions vs electrical : "
        f"{'identical' if d['directions_identical'] else 'MISMATCH: ' + ', '.join(d['mismatches'])}",
        f"  electrical reference            : {d['electrical_s']:8.1f} s",
        f"  cold pass (serves + fallbacks)  : {d['cold_s']:8.1f} s",
        f"  warm pass                       : {d['serve_s']:8.1f} s",
        "",
        "cold BR study (prior mode, empty journal, packaged seeds;",
        "host times scaled to the speed probe's reference)",
        f"  serial electrical bisection     : {c['serial_s']:8.1f} s "
        f"(raw {c['serial_raw_s']:.1f} s), "
        f"{c['serial_newton_iters']} Newton iterations",
        f"  prior-seeded bisection          : {c['prior_s']:8.1f} s "
        f"(raw {c['prior_raw_s']:.1f} s), "
        f"{c['prior_newton_iters']} Newton iterations",
        f"  speedup                         : {c['speedup']:8.2f}x "
        f"(target >= {COLD_SPEEDUP_TARGET:.0f}x, full mode); "
        f"Newton iterations "
        f"{c['serial_newton_iters'] / max(c['prior_newton_iters'], 1):.2f}x",
        f"  border identity                 : "
        f"{'exact, all kinds' if c['borders_identical'] else 'MISMATCH'}",
        f"  calibration points journaled    : {c['surrogate_refits']}",
        "",
        f"  parity                          : "
        f"{'ok' if res['parity_ok'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = make_parser(__doc__).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    emit("surrogate", render(res),
         dict(res, parity="ok" if res["parity_ok"] else "mismatch"))

    if (args.check or args.check_parity) and not res["parity_ok"]:
        return fail("surrogate-vs-electrical identity broken")
    if args.check:
        frac = res["directions"]["served_fraction"]
        if frac < SERVED_FRACTION_TARGET:
            return fail(f"served fraction {frac:.0%} below "
                        f"{SERVED_FRACTION_TARGET:.0%} target")
        if not args.quick \
                and res["cold7"]["speedup"] < COLD_SPEEDUP_TARGET:
            return fail(f"cold prior-mode speedup (host-scaled) "
                        f"{res['cold7']['speedup']:.2f}x below "
                        f"{COLD_SPEEDUP_TARGET:.0f}x target")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
