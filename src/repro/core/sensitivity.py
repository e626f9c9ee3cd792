"""Quantitative stress sensitivity of the border resistance.

The paper's direction analysis answers *which way* to push each ST; a
test engineer negotiating tester limits also wants to know *how much* a
stress buys.  This module estimates the sensitivity

    ``S(kind) = d(BR) / d(ST)``

by central finite differences of the border resistance around a stress
point, normalised per "specified excursion" (the ST's low→high span), so
the sensitivities of different stresses are directly comparable:

    ``S_norm(kind) = (BR(high) - BR(low)) / BR(nominal)``

A negative normalised sensitivity for an open means pushing the ST from
low to high *shrinks* the border (extends the failing range upward... see
:meth:`StressSensitivity.favours_high`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.interface import ColumnModel
from repro.core.border import find_border_resistance
from repro.core.stresses import (
    NOMINAL_STRESS,
    STRESS_RANGES,
    StressConditions,
    StressKind,
)
from repro.defects.catalog import Defect


@dataclass(frozen=True)
class StressSensitivity:
    """Border sensitivity of one defect to one stress axis."""

    kind: StressKind
    defect: Defect
    br_low: float | None
    br_nominal: float | None
    br_high: float | None

    @property
    def defined(self) -> bool:
        return None not in (self.br_low, self.br_nominal, self.br_high)

    @property
    def normalised(self) -> float | None:
        """``(BR(high) - BR(low)) / BR(nominal)`` over the spec range."""
        if not self.defined:
            return None
        return (self.br_high - self.br_low) / self.br_nominal

    @property
    def favours_high(self) -> bool | None:
        """True when the high extreme extends the failing range."""
        if not self.defined:
            return None
        if self.defect.fails_high:   # opens: smaller border is better
            return self.br_high < self.br_low
        return self.br_high > self.br_low

    def describe(self) -> str:
        if not self.defined:
            return f"{self.kind.value}: border not found at some value"
        pick = "high" if self.favours_high else "low"
        return (f"{self.kind.value}: BR {self.br_low:.3g} / "
                f"{self.br_nominal:.3g} / {self.br_high:.3g} ohm "
                f"(low/nom/high), normalised {self.normalised:+.2%}, "
                f"favours {pick}")


@dataclass
class SensitivityReport:
    """Sensitivities of one defect over all stress axes."""

    defect: Defect
    sensitivities: dict[StressKind, StressSensitivity]

    def ranked(self) -> list[StressSensitivity]:
        """Most influential stress first (by |normalised| sensitivity)."""
        defined = [s for s in self.sensitivities.values() if s.defined]
        return sorted(defined, key=lambda s: -abs(s.normalised))

    def render(self) -> str:
        lines = [f"border sensitivity of {self.defect.name}:"]
        lines.extend("  " + s.describe() for s in self.ranked())
        return "\n".join(lines)


def stress_sensitivity(
        model_factory: Callable[[Defect, StressConditions], ColumnModel],
        defect: Defect, *,
        kinds=tuple(StressKind),
        base: StressConditions = NOMINAL_STRESS,
        rel_tol: float = 0.04) -> SensitivityReport:
    """Finite-difference BR sensitivities over the specified ST ranges.

    The nominal BR seeds each low and high search: same borders, fewer
    probes.
    """
    model = model_factory(defect, base)

    def border_at(sc: StressConditions,
                  prior: float | None = None) -> float | None:
        return find_border_resistance(model, defect, stress=sc,
                                      rel_tol=rel_tol,
                                      prior=prior).resistance

    br_nominal = border_at(base)
    out: dict[StressKind, StressSensitivity] = {}
    for kind in kinds:
        rng = STRESS_RANGES[kind]
        br_low = border_at(base.with_value(kind, rng.low), br_nominal)
        br_high = border_at(base.with_value(kind, rng.high), br_nominal)
        out[kind] = StressSensitivity(kind, defect, br_low, br_nominal,
                                      br_high)
    return SensitivityReport(defect, out)
