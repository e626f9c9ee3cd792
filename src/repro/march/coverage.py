"""Fault coverage of march tests over a defect-resistance grid.

The testing meaning of the paper's Table 1: an optimized stress
combination enlarges the failing resistance range, so a given march test
detects *more* of the defect population.  Coverage here is measured over
a log grid of defect resistances: the fraction of grid points at which
the test detects the defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.analysis.interface import ColumnModel
from repro.stress import StressConditions
from repro.defects.catalog import Defect
from repro.engine import parallel_map
from repro.march.notation import MarchTest
from repro.march.runner import run_march


@dataclass
class CoverageReport:
    """Detection outcomes of one march test over a resistance grid."""

    test: MarchTest
    defect: Defect
    stress: StressConditions
    resistances: list[float]
    detected: list[bool] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Detected fraction of the probed resistance grid."""
        if not self.detected:
            return 0.0
        return sum(self.detected) / len(self.detected)

    def detected_range(self) -> tuple[float, float] | None:
        """Smallest and largest detected resistance (None if nothing)."""
        hits = [r for r, d in zip(self.resistances, self.detected) if d]
        if not hits:
            return None
        return (min(hits), max(hits))

    def describe(self) -> str:
        rng = self.detected_range()
        extra = "" if rng is None else \
            f", detects R in [{rng[0]:.3g}, {rng[1]:.3g}]"
        return (f"{self.test.name} on {self.defect.name} @ "
                f"{self.stress.describe()}: coverage "
                f"{self.coverage:.0%}{extra}")


def _detected_at(r: float, *, test: MarchTest, model_factory,
                 defect: Defect, stress: StressConditions, n_cells: int,
                 defective_address: int) -> bool:
    """Detection at one resistance (module-level: picklable)."""
    model = model_factory(defect.with_resistance(r), stress)
    return run_march(test, model, n_cells=n_cells,
                     defective_address=defective_address).detected


def fault_coverage(test: MarchTest,
                   model_factory: Callable[[Defect, StressConditions],
                                           ColumnModel],
                   defect: Defect, stress: StressConditions, *,
                   resistances: Sequence[float],
                   n_cells: int = 4,
                   defective_address: int = 1,
                   workers: int = 1) -> CoverageReport:
    """Run ``test`` at each resistance and record detection.

    March runs are state-chained (one long operation stream per device),
    so the engine cannot memoize inside a run; ``workers > 1`` instead
    fans the independent per-resistance runs out over a process pool.
    """
    detected_at = partial(_detected_at, test=test,
                          model_factory=model_factory, defect=defect,
                          stress=stress, n_cells=n_cells,
                          defective_address=defective_address)
    return CoverageReport(test, defect, stress, list(resistances),
                          detected=parallel_map(detected_at, resistances,
                                                workers=workers))
