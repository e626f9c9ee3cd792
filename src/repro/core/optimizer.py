"""The full per-defect stress-optimization flow (paper Sec. 4 + Table 1).

For one defect:

1. identify the nominal border resistance (BR),
2. derive the nominal detection condition just inside the failing range,
3. run the quick direction analysis per ST (write/read panels), falling
   back to BR tie-breaks on conflicts and non-monotonicities,
4. compose the stress combination (SC) from the chosen extremes,
5. re-identify BR under the SC and re-derive the detection condition
   (which may need more charge operations — Fig. 6).

The BR searches of steps 3 and 5 are seeded with the nominal BR (or
with the surrogate tier's estimate for their SC, when a tier applies):
they verify the leaf it points at instead of bisecting the whole range
and, under a monotone fault predicate, return the same border bit for
bit (see :func:`repro.analysis.border.bisect_lattice`).

:func:`optimize_all_defects` runs the flow over the whole Fig. 7 catalog
and renders the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.analysis.border import BorderResult
from repro.analysis.detection import (
    DetectionCondition,
    derive_detection_condition,
)
from repro.analysis.interface import ColumnModel
from repro.core.border import find_border_resistance, more_effective
from repro.core.directions import DirectionCall, analyze_direction
from repro.core.stresses import (
    NOMINAL_STRESS,
    StressConditions,
    StressKind,
)
from repro.defects.catalog import ALL_DEFECTS, Defect, DefectKind, Placement
from repro.diagnostics import diagnostics
from repro.engine import FailedResult, parallel_map

#: Default ST axes optimized, in the paper's Table-1 column order.
DEFAULT_ST_KINDS = (StressKind.VDD, StressKind.TCYC, StressKind.DUTY,
                    StressKind.TEMP)


def _default_model_factory(defect: Defect,
                           stress: StressConditions) -> ColumnModel:
    """Behavioral by default — see :mod:`repro.behav`."""
    from repro.behav import behavioral_model
    return behavioral_model(defect, stress=stress)


def probe_resistance(defect: Defect, border: BorderResult,
                     margin: float = 1.3) -> float:
    """A resistance just inside the failing range of a border result."""
    r_lo, r_hi = defect.kind.search_range
    if border.always_faulty:
        return (r_lo * r_hi) ** 0.5
    if not border.found:
        return r_hi if defect.fails_high else r_lo
    raw = border.resistance * margin if defect.fails_high \
        else border.resistance / margin
    return min(max(raw, r_lo), r_hi)


@dataclass
class OptimizationRow:
    """One Table-1 row: a defect's full optimization outcome."""

    defect: Defect
    nominal_border: BorderResult
    nominal_detection: DetectionCondition | None
    fault_value: int
    directions: dict[StressKind, DirectionCall]
    stressed_conditions: StressConditions
    stressed_border: BorderResult
    stressed_detection: DetectionCondition | None
    tiebreak_borders: dict[StressKind, dict[float, BorderResult]] = \
        field(default_factory=dict)

    @property
    def n_failed_probes(self) -> int:
        """Probes lost to simulation failures across this row's searches."""
        total = (self.nominal_border.n_failed_probes
                 + self.stressed_border.n_failed_probes)
        for per_value in self.tiebreak_borders.values():
            total += sum(b.n_failed_probes for b in per_value.values())
        return total

    @property
    def improved(self) -> bool:
        """Did the SC extend the failing resistance range?"""
        nom, st = self.nominal_border, self.stressed_border
        if st.always_faulty:
            return not nom.always_faulty
        if not (nom.found and st.found):
            return False
        if self.defect.fails_high:
            return st.resistance < nom.resistance
        return st.resistance > nom.resistance

    def direction_arrows(self) -> dict[StressKind, str]:
        return {k: c.arrow for k, c in self.directions.items()}

    def describe(self) -> str:
        arrows = " ".join(f"{k.value}{c.arrow}"
                          for k, c in self.directions.items())
        nom = self.nominal_border.describe()
        st = self.stressed_border.describe()
        det = (self.stressed_detection.notation()
               if self.stressed_detection else "-")
        return (f"{self.defect.name}: nominal {nom}; stress {arrows}; "
                f"stressed {st}; detection {det}")


def optimize_defect(defect: Defect | DefectKind, *,
                    placement: Placement = Placement.TRUE,
                    model_factory: Callable[[Defect, StressConditions],
                                            ColumnModel] | None = None,
                    base_stress: StressConditions = NOMINAL_STRESS,
                    st_kinds=DEFAULT_ST_KINDS,
                    br_rel_tol: float = 0.05,
                    on_error: str = "raise") -> OptimizationRow:
    """Run the full optimization flow for one defect.

    ``defect`` may be a bare :class:`DefectKind` (combined with
    ``placement``) or a fully-specified :class:`Defect`.
    ``model_factory`` selects the simulation backend (behavioral by
    default; pass :func:`repro.analysis.electrical_model` for the
    SPICE-level column).  ``on_error="isolate"`` makes the border
    searches survive failed probes at reduced accuracy.
    """
    if isinstance(defect, DefectKind):
        defect = Defect(defect, placement)
    factory = model_factory or _default_model_factory
    model = factory(defect, base_stress)

    # 1. nominal border + detection condition
    nominal_border = find_border_resistance(model, defect,
                                            stress=base_stress,
                                            rel_tol=br_rel_tol,
                                            on_error=on_error)
    r_probe = probe_resistance(defect, nominal_border)
    model.set_stress(base_stress)
    nominal_detection = derive_detection_condition(model, r_probe)

    # 2. fault polarity: the value whose storage the defect destroys
    fault_value = (nominal_detection.expected
                   if nominal_detection is not None else 0)

    # 3. per-ST direction analysis at the probe resistance
    model.set_defect_resistance(r_probe)
    from repro.surrogate.tier import resolve_tier
    tier = resolve_tier(None)
    if tier is not None and not (tier.serves and tier.applies_to(model)):
        tier = None
    directions: dict[StressKind, DirectionCall] = {}
    tiebreaks: dict[StressKind, dict[float, BorderResult]] = {}
    for kind in st_kinds:
        if tier is not None:
            served = tier.serve_direction(defect, kind, fault_value,
                                          base=base_stress,
                                          r_probe=r_probe,
                                          rel_tol=br_rel_tol)
            if served is not None:
                directions[kind] = served
                continue
        call = analyze_direction(model, kind, fault_value,
                                 base=base_stress)
        if call.needs_border_tiebreak:
            per_value: dict[float, BorderResult] = {}
            best_value, best_border = None, None
            for value in call.tiebreak_candidates:
                sc = base_stress.with_value(kind, value)
                # A tie-break the surrogate could not separate must be
                # decided by real electrical borders — the prior view
                # keeps the bracket seeding (and journals the results)
                # without surrogate-only serving.
                border = find_border_resistance(
                    model, defect, stress=sc, rel_tol=br_rel_tol,
                    on_error=on_error, prior=nominal_border.resistance,
                    surrogate=tier.prior_view() if tier is not None
                    else None)
                per_value[value] = border
                if best_border is None or more_effective(defect, border,
                                                         best_border):
                    best_value, best_border = value, border
            call.chosen_value = best_value
            tiebreaks[kind] = per_value
            model.set_defect_resistance(r_probe)
        directions[kind] = call

    # 4. compose the SC and re-analyse under it
    stressed = base_stress
    for kind, call in directions.items():
        stressed = stressed.with_value(kind, call.chosen_value)
    stressed_border = find_border_resistance(model, defect,
                                             stress=stressed,
                                             rel_tol=br_rel_tol,
                                             on_error=on_error,
                                             prior=nominal_border.resistance)

    # 5. stressed detection condition, derived inside the newly-failing
    #    range (between the stressed and nominal borders when possible)
    r_str = probe_resistance(defect, stressed_border)
    if nominal_border.found and stressed_border.found:
        r_str = (nominal_border.resistance
                 * stressed_border.resistance) ** 0.5
    model.set_stress(stressed)
    stressed_detection = derive_detection_condition(model, r_str)

    model.set_stress(base_stress)
    return OptimizationRow(
        defect=defect,
        nominal_border=nominal_border,
        nominal_detection=nominal_detection,
        fault_value=fault_value,
        directions=directions,
        stressed_conditions=stressed,
        stressed_border=stressed_border,
        stressed_detection=stressed_detection,
        tiebreak_borders=tiebreaks,
    )


@dataclass
class OptimizationTable:
    """The full Table 1: one row per (defect kind, placement).

    ``failures`` holds a :class:`~repro.engine.failures.FailedResult`
    per defect whose whole flow failed under ``on_error="isolate"``
    (those defects have no row); clean runs leave it empty.
    """

    rows: list[OptimizationRow]
    failures: list[FailedResult] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        """Defects dropped from the table by simulation failures."""
        return len(self.failures)

    @property
    def n_failed_probes(self) -> int:
        """Failed probes absorbed by the surviving rows' searches."""
        return sum(row.n_failed_probes for row in self.rows)

    def row(self, kind: DefectKind, placement: Placement
            ) -> OptimizationRow:
        for row in self.rows:
            if (row.defect.kind is kind
                    and row.defect.placement is placement):
                return row
        raise KeyError(f"no row for {kind} {placement}")

    def render(self) -> str:
        """Text rendering in the shape of the paper's Table 1."""
        from repro.report.tables import render_optimization_table
        return render_optimization_table(self)


def _optimize_row(defect: Defect | DefectKind, *, on_error: str,
                  **flow) -> OptimizationRow | FailedResult:
    """One defect's Table-1 row (module-level: picklable for the pool).

    Under ``on_error="isolate"`` a defect whose whole flow fails comes
    back as a :class:`FailedResult`, recorded in the run diagnostics.
    """
    try:
        return optimize_defect(defect, on_error=on_error, **flow)
    except Exception as exc:
        if on_error != "isolate":
            raise
        name = (defect if isinstance(defect, Defect)
                else Defect(defect)).name
        failure = FailedResult(
            error_type=type(exc).__name__, message=str(exc),
            rescue_trail=tuple(getattr(exc, "rescue_trail", None) or ()),
            request_summary=f"optimize {name}")
        diagnostics().record_failure(failure.error_type,
                                     failure.describe())
        return failure


def optimize_all_defects(*, model_factory=None,
                         base_stress: StressConditions = NOMINAL_STRESS,
                         st_kinds=DEFAULT_ST_KINDS,
                         br_rel_tol: float = 0.05,
                         defects=ALL_DEFECTS,
                         workers: int = 1,
                         on_error: str = "raise") -> OptimizationTable:
    """Run the optimization flow over the Fig. 7 catalog (Table 1).

    Every defect's flow is independent, so ``workers > 1`` fans the
    per-defect × per-ST work out over a process pool (``model_factory``
    must then be picklable — a module-level function or
    ``functools.partial``; closures fall back to the in-process loop).
    Row order, and therefore the rendered table, is identical either
    way.  Workers share the default engine's durable store, if it has
    one, but not its journal (:func:`repro.engine.parallel_map`).

    ``on_error="isolate"`` contains failures at two levels: probe
    failures degrade the affected border search, and a defect whose
    flow still fails is dropped into ``OptimizationTable.failures``
    instead of aborting the whole table.
    """
    row = partial(_optimize_row, model_factory=model_factory,
                  base_stress=base_stress, st_kinds=st_kinds,
                  br_rel_tol=br_rel_tol, on_error=on_error)
    outcomes = parallel_map(row, defects, workers=workers)
    return OptimizationTable(
        [o for o in outcomes if not isinstance(o, FailedResult)],
        failures=[o for o in outcomes if isinstance(o, FailedResult)])
