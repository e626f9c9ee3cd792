"""Monte-Carlo robustness of the stress-direction calls.

The paper's method derives directions from a single (typical-corner)
technology model.  Before committing a production test program, an
engineer wants to know whether those directions survive process
variation.  This module perturbs the technology parameters that dominate
the mechanisms — thresholds, cell/bit-line capacitance, reference offset,
leakage — re-runs the border comparison per sample, and reports how often
each direction call holds.

Sampling is deterministic per seed (``numpy.random.default_rng``) so
reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.analysis.interface import ColumnModel
from repro.core.border import find_border_resistance, more_effective
from repro.core.stresses import (
    NOMINAL_STRESS,
    STRESS_RANGES,
    StressConditions,
    StressKind,
)
from repro.defects.catalog import Defect
from repro.diagnostics import diagnostics, get_logger
from repro.dram.tech import TechnologyParams, default_tech
from repro.engine import parallel_map


@dataclass(frozen=True)
class VariationSpec:
    """Relative 1-sigma spreads of the varied technology parameters."""

    vth_sigma: float = 0.04          # threshold voltages
    cap_sigma: float = 0.05          # cs / cbl
    offset_sigma: float = 0.10       # reference offset
    leak_sigma: float = 0.30         # junction leakage (log-normal-ish)

    def sample(self, base: TechnologyParams,
               rng: np.random.Generator) -> TechnologyParams:
        """One perturbed technology instance."""
        def rel(sigma):
            return float(1.0 + sigma * rng.standard_normal())

        nmos = base.nmos.with_(
            vth0=max(base.nmos.vth0 * rel(self.vth_sigma), 0.1))
        pmos = base.pmos.with_(
            vth0=max(base.pmos.vth0 * rel(self.vth_sigma), 0.1))
        return base.with_(
            nmos=nmos,
            pmos=pmos,
            access_vth0=max(base.access_vth0 * rel(self.vth_sigma), 0.2),
            cs=base.cs * max(rel(self.cap_sigma), 0.5),
            cbl=base.cbl * max(rel(self.cap_sigma), 0.5),
            v_ref_offset=max(base.v_ref_offset * rel(self.offset_sigma),
                             0.01),
            leak_isat=base.leak_isat
            * float(np.exp(self.leak_sigma * rng.standard_normal())),
        )


@dataclass
class DirectionRobustness:
    """Per-sample agreement of one ST's direction call."""

    kind: StressKind
    reference_value: float
    agree: int = 0
    disagree: int = 0
    undecided: int = 0

    @property
    def samples(self) -> int:
        return self.agree + self.disagree + self.undecided

    @property
    def confidence(self) -> float:
        """Fraction of decided samples agreeing with the reference."""
        decided = self.agree + self.disagree
        return self.agree / decided if decided else 0.0

    def describe(self) -> str:
        return (f"{self.kind.value}: {self.agree}/{self.samples} agree "
                f"({self.undecided} undecided), confidence "
                f"{self.confidence:.0%}")


@dataclass
class MonteCarloReport:
    """Robustness of a defect's direction calls under variation.

    ``failed_samples`` counts perturbed technologies whose analysis
    failed outright under ``on_error="isolate"``; those samples carry
    no votes, so confidence is computed over the survivors.
    """

    defect: Defect
    seed: int
    samples: int
    robustness: dict[StressKind, DirectionRobustness] = \
        field(default_factory=dict)
    border_samples: list[float] = field(default_factory=list)
    failed_samples: int = 0

    def render(self) -> str:
        lines = [f"Monte-Carlo ({self.samples} samples, seed "
                 f"{self.seed}) for {self.defect.name}:"]
        if self.border_samples:
            arr = np.asarray(self.border_samples)
            lines.append(
                f"  nominal border: median {np.median(arr):.3g} ohm, "
                f"spread [{arr.min():.3g}, {arr.max():.3g}]")
        lines.extend("  " + r.describe()
                     for r in self.robustness.values())
        if self.failed_samples:
            lines.append(f"  {self.failed_samples} samples failed to "
                         f"simulate and were dropped")
        return "\n".join(lines)


def _border_winner(model_factory, defect: Defect,
                   base: StressConditions, tech: TechnologyParams,
                   kind: StressKind, rel_tol: float,
                   on_error: str = "raise",
                   prior: float | None = None) -> float | None:
    """Border-winning ST value on one technology (None = tie).

    ``prior``, the technology's nominal BR, seeds both extremes' searches.
    """
    model = model_factory(defect, base, tech)
    rng_range = STRESS_RANGES[kind]
    borders = {}
    for value in rng_range.extremes:
        sc = base.with_value(kind, value)
        borders[value] = find_border_resistance(model, defect, stress=sc,
                                                rel_tol=rel_tol,
                                                on_error=on_error,
                                                prior=prior)
    lo, hi = rng_range.extremes
    if more_effective(defect, borders[lo], borders[hi]):
        return lo
    if more_effective(defect, borders[hi], borders[lo]):
        return hi
    return None


def _mc_sample(tech: TechnologyParams, *, model_factory, defect: Defect,
               base: StressConditions, kinds, rel_tol: float,
               on_error: str):
    """One Monte-Carlo sample (module-level: picklable for the pool):
    the technology's nominal border (None if not found) and the
    border-winning value per ST.

    Under ``on_error="isolate"`` a sample whose analysis still fails is
    recorded in the run diagnostics and returns ``None``, so the study
    drops it (counted in ``MonteCarloReport.failed_samples``) instead of
    losing the run.
    """
    try:
        model = model_factory(defect, base, tech)
        border = find_border_resistance(model, defect, stress=base,
                                        rel_tol=rel_tol,
                                        on_error=on_error)
        winners = {kind: _border_winner(model_factory, defect, base,
                                        tech, kind, rel_tol, on_error,
                                        prior=border.resistance)
                   for kind in kinds}
    except Exception as exc:
        if on_error != "isolate":
            raise
        error_type = type(exc).__name__
        diagnostics().record_failure(
            error_type, f"mc sample for {defect.name}: {exc}")
        get_logger("core").warning(
            "monte-carlo sample for %s failed (%s: %s)", defect.name,
            error_type, exc)
        return None
    return (border.resistance if border.found else None), winners


def direction_robustness(
        model_factory: Callable[[Defect, StressConditions,
                                 TechnologyParams], ColumnModel],
        defect: Defect, *,
        kinds=(StressKind.TCYC, StressKind.TEMP, StressKind.VDD),
        samples: int = 12, seed: int = 2003,
        variation: VariationSpec | None = None,
        base: StressConditions = NOMINAL_STRESS,
        rel_tol: float = 0.08,
        workers: int = 1,
        on_error: str = "raise") -> MonteCarloReport:
    """Check how often the typical-corner directions survive variation.

    ``model_factory(defect, stress, tech)`` must build a column model on
    a *specific* technology instance.  The reference direction per ST is
    the border comparison on the unperturbed technology; each sample
    re-runs the comparison on a perturbed one.

    All technologies are drawn from the rng *before* any analysis runs,
    so the sampled population is byte-identical regardless of
    ``workers``; with ``workers > 1`` the per-sample comparisons fan out
    over a process pool (``model_factory`` must then be picklable).

    ``on_error="isolate"`` drops samples whose analysis fails (reported
    as ``failed_samples``) instead of aborting the study; the reference
    comparison on the unperturbed technology still raises — without it
    there is nothing to compare against.
    """
    variation = variation or VariationSpec()
    rng = np.random.default_rng(seed)
    base_tech = default_tech()

    report = MonteCarloReport(defect, seed, samples)
    reference = {kind: _border_winner(model_factory, defect, base,
                                      base_tech, kind, rel_tol)
                 for kind in kinds}
    for kind in kinds:
        report.robustness[kind] = DirectionRobustness(
            kind, reference[kind] if reference[kind] is not None
            else float("nan"))

    techs = [variation.sample(base_tech, rng) for _ in range(samples)]
    sample = partial(_mc_sample, model_factory=model_factory,
                     defect=defect, base=base, kinds=tuple(kinds),
                     rel_tol=rel_tol, on_error=on_error)
    for outcome in parallel_map(sample, techs, workers=workers):
        if outcome is None:
            report.failed_samples += 1
            continue
        border_r, winners = outcome
        if border_r is not None:
            report.border_samples.append(border_r)
        for kind in kinds:
            _tally(report.robustness[kind], winners[kind],
                   reference[kind])
    return report


def _tally(rob: DirectionRobustness, winner: float | None,
           reference: float | None) -> None:
    if winner is None or reference is None:
        rob.undecided += 1
    elif winner == reference:
        rob.agree += 1
    else:
        rob.disagree += 1
