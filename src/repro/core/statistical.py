"""Statistical stress-combination optimization — the prior-art baseline.

The paper's introduction criticises earlier studies ([Schanstra99],
[Goto97]) for optimizing stresses *statistically*: run a test over a
defect population at every candidate SC and pick the single combination
with the best aggregate coverage.  Such "general conclusions … are not
representative of the behaviour of a particular defect".

This module implements that baseline faithfully so the benchmarks can
compare it against the paper's per-defect method:

* the candidate SCs are the corner combinations of the specified ST
  ranges (2^k corners),
* the defect population samples every catalog defect over its resistance
  range,
* the score of an SC is the number of (defect, resistance) points at
  which a probe test detects a fault.

The headline result reproduced by ``bench_statistical_baseline``: the
single statistically-best SC matches the per-defect optimum for *most*
defects but is strictly worse for the defects whose best direction
disagrees with the majority (e.g. the Vdd direction of ``Sg``) — which
is exactly the paper's argument for per-defect optimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.border import battery_walk
from repro.analysis.interface import ColumnModel
from repro.analysis.planes import log_grid
from repro.core.stresses import (
    NOMINAL_STRESS,
    STRESS_RANGES,
    StressConditions,
    StressKind,
)
from repro.defects.catalog import ALL_DEFECTS, Defect
from repro.engine import BatchExecutor, ResultCache, default_engine, \
    parallel_map, set_default_engine

#: Probe battery used to score SCs, in the order it runs.  Besides the
#: border-search family it includes delay (nop) variants that sensitise
#: retention-flavoured defects — those prefer *longer* cycles, which is
#: what creates the per-defect conflicts the aggregate SC cannot satisfy.
PROBE_SEQUENCES = ("w1 r1 r1", "w0 r0 r0", "w1 nop^3 r1", "w0 nop^3 r0",
                   "w1^4 w0 r0", "w0^4 w1 r1")


def corner_combinations(kinds: Sequence[StressKind] = tuple(StressKind),
                        base: StressConditions = NOMINAL_STRESS
                        ) -> list[StressConditions]:
    """All 2^k extreme-corner SCs of the given stress axes."""
    corners = []
    axes = [(kind, STRESS_RANGES[kind].extremes) for kind in kinds]
    for values in itertools.product(*(ext for _, ext in axes)):
        sc = base
        for (kind, _), value in zip(axes, values):
            sc = sc.with_value(kind, value)
        corners.append(sc)
    return corners


@dataclass
class PopulationPoint:
    """One member of the defect population."""

    defect: Defect

    @property
    def label(self) -> str:
        return f"{self.defect.name} R={self.defect.resistance:.3g}"


def sample_population(defects: Sequence[Defect] = ALL_DEFECTS,
                      points_per_defect: int = 5,
                      model_factory: Callable[[Defect, StressConditions],
                                              ColumnModel] | None = None,
                      focus_span: float = 3.0) -> list[PopulationPoint]:
    """Sample each defect's resistance range.

    Without a ``model_factory`` the whole search range is log-sampled.
    With one, the population focuses on each defect's *marginal band* —
    ``[BR/focus_span, BR*focus_span]`` around the nominal border — which
    is both the realistic escape population (gross defects are caught at
    any SC) and the band where the SC choice actually matters.
    """
    from repro.core.border import find_border_resistance

    population = []
    for defect in defects:
        lo, hi = defect.kind.search_range
        if model_factory is not None:
            model = model_factory(defect, NOMINAL_STRESS)
            border = find_border_resistance(model, defect,
                                            stress=NOMINAL_STRESS,
                                            sequences=PROBE_SEQUENCES,
                                            rel_tol=0.1)
            if border.found:
                lo = max(lo, border.resistance / focus_span)
                hi = min(hi, border.resistance * focus_span)
        for r_ohm in log_grid(lo, hi, points_per_defect):
            population.append(
                PopulationPoint(defect.with_resistance(r_ohm)))
    return population


_detects = battery_walk(PROBE_SEQUENCES)


@dataclass
class StatisticalResult:
    """Outcome of the statistical (aggregate) optimization."""

    candidates: list[StressConditions]
    #: detected counts per candidate SC (aligned with ``candidates``)
    scores: list[int]
    population_size: int
    #: per-(candidate, defect-name) detected counts
    per_defect: dict[str, list[int]] = field(default_factory=dict)

    @property
    def best_index(self) -> int:
        return max(range(len(self.scores)), key=self.scores.__getitem__)

    @property
    def best_sc(self) -> StressConditions:
        return self.candidates[self.best_index]

    @property
    def best_score(self) -> int:
        return self.scores[self.best_index]

    def best_for_defect(self, name: str) -> StressConditions:
        """The SC that would have been best for one defect alone."""
        counts = self.per_defect[name]
        return self.candidates[max(range(len(counts)),
                                   key=counts.__getitem__)]

    def aggregate_loss(self, name: str) -> int:
        """Detections lost on ``name`` by using the aggregate-best SC."""
        counts = self.per_defect[name]
        return max(counts) - counts[self.best_index]

    def describe(self) -> str:
        lines = [f"statistical optimization over "
                 f"{len(self.candidates)} corner SCs, population "
                 f"{self.population_size}:",
                 f"  best SC: {self.best_sc.describe()} "
                 f"({self.best_score}/{self.population_size} detected)"]
        for name in sorted(self.per_defect):
            loss = self.aggregate_loss(name)
            if loss:
                lines.append(f"  {name}: aggregate SC loses {loss} "
                             f"detection(s) vs its own best")
        return "\n".join(lines)


def _detect_row_task(args) -> tuple[list[bool], object]:
    """Score one population point over every candidate SC.

    Module-level so :func:`repro.engine.parallel_map` can ship it to a
    process pool; installs a fresh serial engine in the worker so a
    pooled parent cannot recurse into nested pools.
    """
    defect, candidates, model_factory = args
    previous = default_engine()
    engine = BatchExecutor(cache=ResultCache(), workers=1)
    set_default_engine(engine)
    try:
        row = [_detects(model_factory(defect, sc)) for sc in candidates]
    finally:
        set_default_engine(previous)
    return row, engine.stats


def statistical_optimization(
        model_factory: Callable[[Defect, StressConditions], ColumnModel],
        *, defects: Sequence[Defect] = ALL_DEFECTS,
        kinds: Sequence[StressKind] = (StressKind.VDD, StressKind.TCYC,
                                       StressKind.TEMP),
        points_per_defect: int = 5,
        base: StressConditions = NOMINAL_STRESS,
        workers: int = 1) -> StatisticalResult:
    """Run the prior-art aggregate optimization.

    Every (population point × candidate SC) probe is independent, so
    ``workers > 1`` fans the per-point scoring out over a process pool;
    scores are tallied in population order either way, so the result is
    identical to the serial run.
    """
    candidates = corner_combinations(kinds, base)
    population = sample_population(defects, points_per_defect,
                                   model_factory=model_factory)
    scores = [0] * len(candidates)
    per_defect: dict[str, list[int]] = {}

    if workers <= 1:
        rows = []
        for point in population:
            rows.append([_detects(model_factory(point.defect, sc))
                         for sc in candidates])
    else:
        tasks = [(point.defect, candidates, model_factory)
                 for point in population]
        stats = default_engine().stats
        rows = []
        for row, worker_stats in parallel_map(_detect_row_task, tasks,
                                              workers=workers):
            rows.append(row)
            stats.merge(worker_stats)

    for point, row in zip(population, rows):
        name = point.defect.name
        counts = per_defect.setdefault(name, [0] * len(candidates))
        for i, detected in enumerate(row):
            if detected:
                scores[i] += 1
                counts[i] += 1
    return StatisticalResult(candidates, scores, len(population),
                             per_defect)
