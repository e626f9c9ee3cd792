"""The four workloads of the end-to-end benchmark.

Each workload is one *pass*: a fixed set of user-level queries run on a
fresh engine, as one CLI invocation would run them after its imports.
A pass returns its outputs as plain JSON data (borders, detection
conditions, the rendered table) so the harness can check them against
the committed golden and against resumed passes.

``make_inputs(seed, **sizes)`` derives every input from the seed; seed 0
gives the canonical inputs (the paper's nominal SC, the Fig. 2/6 grids,
the array's center cell, the Fig. 6 stressed corner).  Other seeds move
the inputs only slightly, so every query keeps its shape (the same
probe lattice and the same decisions) and the work done stays
comparable across seeds.  The sizes are arguments so the harness tests
can run the same code on reduced sets.

The harness opens the engine around a pass with :func:`fresh_engine`:
checkpointed with ``Workload.engine`` for the timed passes, and with
:data:`REFERENCE_ENGINE` (serial, lanes off, surrogate off, memory
cache only) for the goldens.
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Batched-lane width of ``lane-sweeps`` (the CLI's ``--lanes 16``).
LANES = 16

#: Engine settings the goldens are computed with.
REFERENCE_ENGINE = {"lanes": 0, "surrogate": "off"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_inputs(seed, **sizes)`` returns the pass inputs,
    ``first_model(inputs)`` builds and compiles the model the first
    simulation needs (the set-up a user pays before any result),
    ``run(inputs)`` runs the pass on the installed engine and returns
    its outputs, and ``verify(inputs, outputs)``, when given, checks
    the outputs against a reference computation and returns the
    discrepancies.
    """

    name: str
    make_inputs: Callable[..., dict]
    first_model: Callable[[dict], None]
    run: Callable[[dict], dict]
    engine: dict = field(default_factory=dict)
    verify: Callable[[dict, dict], list[str]] | None = None


@contextlib.contextmanager
def fresh_engine(checkpoint: Path | None, *, resume: bool = False,
                 lanes: int = 0, surrogate: str = "off"):
    """Install a fresh process-wide engine, as a new CLI process would.

    Built models live in a process-global cache together with their
    compiled plans, factorization caches and lane warm banks; it is
    emptied so every pass starts cold instead of warmed by the last.
    """
    from repro.diagnostics import reset_diagnostics
    from repro.engine import configure_default_engine, executor
    executor._PROCESS_MODELS.clear()
    reset_diagnostics()
    engine = configure_default_engine(
        workers=1, lanes=lanes, surrogate=surrogate,
        checkpoint=None if checkpoint is None else str(checkpoint),
        resume=resume)
    try:
        yield engine
    finally:
        if engine.journal is not None:
            engine.journal.close()


def _stress(values: dict):
    from repro.stress import StressConditions
    return StressConditions(**values)


def _stress_values(stress) -> dict:
    return {"tcyc": stress.tcyc, "duty": stress.duty,
            "temp_c": stress.temp_c, "vdd": stress.vdd}


def _jittered(name: str, seed: int, stress, *,
              dv: tuple[float, float] = (-0.03, 0.03),
              dt: tuple[float, float] = (-3.0, 3.0)) -> dict:
    """``stress`` for seed 0; otherwise Vdd moved by a draw from the
    range ``dv`` (volts) and T by one from ``dt`` (degrees)."""
    if seed == 0:
        return _stress_values(stress)
    rng = _rng(name, seed)
    return _stress_values(stress.with_(
        vdd=stress.vdd + rng.uniform(*dv),
        temp_c=stress.temp_c + rng.uniform(*dt)))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _build_column(defect, stress) -> None:
    """Build and compile the electrical column of a defect."""
    from repro.dram.runner import ColumnRunner
    from repro.spice.mna import System
    runner = ColumnRunner(stress=stress, defect=defect.site(),
                          target_cell=defect.cell_index)
    System(runner.netlist.circuit)


# ----------------------------------------------------------------------
# optimize-e: the serial electrical flow of one Table-1 row
# ----------------------------------------------------------------------
def _optimize_e_inputs(seed: int, *, defect: str = "O3",
                       rel_tol: float = 0.05) -> dict:
    from repro.stress import NOMINAL_STRESS
    return {"seed": seed, "defect": defect, "rel_tol": rel_tol,
            "stress": _jittered("optimize-e", seed, NOMINAL_STRESS)}


def _optimize_e_model(inputs: dict) -> None:
    from repro.defects import Defect, DefectKind
    _build_column(Defect(DefectKind(inputs["defect"])),
                  _stress(inputs["stress"]))


def _optimize_e(inputs: dict) -> dict:
    from repro.core import border as core_border
    from repro.defects import Defect, DefectKind
    from repro.experiments.figures import make_model
    stress = _stress(inputs["stress"])
    defect = Defect(DefectKind(inputs["defect"]))
    model = make_model(defect, stress, "electrical", engine=True)
    border = core_border.find_border_resistance(
        model, defect, stress=stress, rel_tol=inputs["rel_tol"])
    return {"borders": {inputs["defect"]: border.resistance}}


# ----------------------------------------------------------------------
# lane-sweeps: batched fan-out over column and array lanes
# ----------------------------------------------------------------------
def _lane_sweeps_inputs(seed: int, *, points: int = 3,
                        geometry: tuple[int, int] = (32, 32),
                        kinds: tuple[str, ...] = ("open_sn", "bridge_wl")
                        ) -> dict:
    rows, cols = geometry
    r_lo, r_hi = 30e3, 2e6
    victim = (rows // 2) * cols + cols // 2
    if seed != 0:
        rng = _rng("lane-sweeps", seed)
        r_lo *= rng.uniform(0.9, 1.1)
        r_hi *= rng.uniform(0.9, 1.1)
        # An interior victim keeps the defect's trim halo inside the array.
        victim = rng.randint(2, rows - 3) * cols + rng.randint(2, cols - 3)
    return {"seed": seed, "points": points, "r_lo": r_lo, "r_hi": r_hi,
            "geometry": list(geometry), "victim": victim,
            "kinds": list(kinds)}


def _lane_sweeps_model(inputs: dict) -> None:
    from repro.dram.runner import LaneRunner
    from repro.experiments.figures import REFERENCE_DEFECT
    from repro.stress import NOMINAL_STRESS
    site = REFERENCE_DEFECT.site()
    LaneRunner(stress=NOMINAL_STRESS, defect_kind=site.kind,
               target_cell=site.cell)


def _lane_sweeps(inputs: dict) -> dict:
    from repro.dram.trim import resolve_trim
    from repro.experiments import array, figures
    grid = {"points": inputs["points"], "r_lo": inputs["r_lo"],
            "r_hi": inputs["r_hi"]}
    fig2 = figures.fig2_result_planes(engine=True, **grid)
    fig6 = figures.fig6_stressed_planes(engine=True, **grid)
    trim = resolve_trim(None)
    borders = {kind: array.activation_disturb_br(
        kind, geometry=tuple(inputs["geometry"]), cell=inputs["victim"],
        trim=trim) for kind in inputs["kinds"]}
    return {"planes": {"fig2": fig2.border, "fig6": fig6.border},
            "borders": borders}


def _lane_sweeps_verify(inputs: dict, outputs: dict) -> list[str]:
    """One array border recomputed serially must equal its lane result
    bitwise (a reference check that fits every seed)."""
    from repro.experiments import array
    kind = inputs["kinds"][inputs["seed"] % len(inputs["kinds"])]
    with fresh_engine(None, **REFERENCE_ENGINE):
        serial = array.activation_disturb_br(
            kind, geometry=tuple(inputs["geometry"]), cell=inputs["victim"])
    lanes = outputs["borders"][kind]
    return [] if serial == lanes else [
        f"lane border {kind} {lanes!r} != serial {serial!r}"]


# ----------------------------------------------------------------------
# br-campaign: border queries through the surrogate prior
# ----------------------------------------------------------------------
def _br_campaign_inputs(seed: int, *, kinds: tuple[str, ...] = ("Sv",),
                        rel_tol: float = 0.05) -> dict:
    from repro.experiments.figures import FIG6_STRESS
    # A smaller move than the other workloads', and only to cooler
    # corners: the prior's leaf hit rate, and with it the probe count,
    # is sensitive to the corner, and a lower Vdd at a hotter T costs Sv
    # one probe less.
    return {"seed": seed, "kinds": list(kinds), "rel_tol": rel_tol,
            "stressed": _jittered("br-campaign", seed, FIG6_STRESS,
                                  dv=(-0.01, 0.01), dt=(-1.0, 0.0))}


def _br_campaign_model(inputs: dict) -> None:
    from repro.defects import Defect, DefectKind
    from repro.stress import NOMINAL_STRESS
    _build_column(Defect(DefectKind(inputs["kinds"][0])), NOMINAL_STRESS)


def _br_campaign(inputs: dict) -> dict:
    from repro.core import border as core_border
    from repro.defects import Defect, DefectKind
    from repro.experiments.figures import make_model
    from repro.stress import NOMINAL_STRESS
    corners = (("nominal", NOMINAL_STRESS),
               ("stressed", _stress(inputs["stressed"])))
    borders = {}
    for kind in inputs["kinds"]:
        defect = Defect(DefectKind(kind))
        for label, stress in corners:
            model = make_model(defect, stress, "electrical", engine=True)
            border = core_border.find_border_resistance(
                model, defect, stress=stress, rel_tol=inputs["rel_tol"])
            borders[f"{kind}@{label}"] = border.resistance
    return {"borders": borders}


# ----------------------------------------------------------------------
# table1-resume: the behavioral Table 1 with a checkpoint
# ----------------------------------------------------------------------
def _table1_inputs(seed: int, *, rows: int = 3) -> dict:
    from repro.stress import NOMINAL_STRESS
    return {"seed": seed, "rows": rows,
            "stress": _jittered("table1-resume", seed, NOMINAL_STRESS)}


def _table1_defects(inputs: dict):
    # True placements first, so a short table still spans every kind.
    from repro.defects import ALL_DEFECTS
    return (ALL_DEFECTS[::2] + ALL_DEFECTS[1::2])[:inputs["rows"]]


def _table1_model(inputs: dict) -> None:
    from repro.behav import behavioral_model
    behavioral_model(_table1_defects(inputs)[0],
                     stress=_stress(inputs["stress"]))


def _table1_resume(inputs: dict) -> dict:
    from repro.core import optimizer
    from repro.experiments.figures import make_model
    factory = functools.partial(make_model, backend="behavioral",
                                engine=True)
    table = optimizer.optimize_all_defects(
        model_factory=factory, base_stress=_stress(inputs["stress"]),
        defects=_table1_defects(inputs))
    borders = {}
    for row in table.rows:
        borders[f"{row.defect.name}@nominal"] = row.nominal_border.resistance
        borders[f"{row.defect.name}@stressed"] = \
            row.stressed_border.resistance
    return {"table": table.render(), "borders": borders}


#: The workloads, in run order; BENCHMARK.json records why each exists.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("optimize-e", _optimize_e_inputs, _optimize_e_model,
             _optimize_e),
    Workload("lane-sweeps", _lane_sweeps_inputs, _lane_sweeps_model,
             _lane_sweeps, engine={"lanes": LANES},
             verify=_lane_sweeps_verify),
    Workload("br-campaign", _br_campaign_inputs, _br_campaign_model,
             _br_campaign, engine={"surrogate": "prior"}),
    Workload("table1-resume", _table1_inputs, _table1_model,
             _table1_resume),
)}
