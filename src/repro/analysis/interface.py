"""The column-model protocol shared by analysis and optimization.

Two implementations exist:

* the *electrical* model — :class:`repro.dram.runner.ColumnRunner` driving
  the SPICE-level column (ground truth, slower),
* the *behavioral* model — :class:`repro.behav.model.BehavioralColumn`
  (fixed-step per-phase integration, far faster; used for wide sweeps,
  Shmoo grids and march-test evaluation).

Analysis and optimization code accepts anything satisfying
:class:`ColumnModel`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.stress import NOMINAL_STRESS, StressConditions
from repro.defects.catalog import Defect
from repro.dram.ops import SequenceResult
from repro.dram.runner import ColumnRunner
from repro.dram.tech import TechnologyParams


@runtime_checkable
class ColumnModel(Protocol):
    """What analysis code needs from a column simulation."""

    stress: StressConditions
    tech: TechnologyParams

    def set_stress(self, stress: StressConditions) -> None: ...

    def set_defect_resistance(self, resistance: float) -> None: ...

    def run_sequence(self, ops, init_vc: float,
                     background: int = 0) -> SequenceResult: ...

    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict: ...

    def run_op(self, op, state: dict) -> tuple: ...


class CycleCountingModel:
    """Transparent wrapper counting simulated operation cycles.

    Used by the methodology benchmarks to compare the *cost* of the
    paper's quick direction analysis against brute-force plane generation
    — the paper's efficiency claim in Sec. 4.
    """

    def __init__(self, inner: ColumnModel):
        self._inner = inner
        self.cycles = 0

    @property
    def stress(self) -> StressConditions:
        return self._inner.stress

    @property
    def tech(self):
        return self._inner.tech

    @property
    def target_on_true(self) -> bool:
        return getattr(self._inner, "target_on_true", True)

    @property
    def defect(self):
        return getattr(self._inner, "defect", None)

    def set_stress(self, stress: StressConditions) -> None:
        self._inner.set_stress(stress)

    def set_defect_resistance(self, resistance: float) -> None:
        self._inner.set_defect_resistance(resistance)

    def run_sequence(self, ops, init_vc: float, background: int = 0):
        result = self._inner.run_sequence(ops, init_vc=init_vc,
                                          background=background)
        self.cycles += len(result.results)
        return result

    def idle_state(self, vc_target: float, background: int = 0):
        return self._inner.idle_state(vc_target, background=background)

    def run_op(self, op, state):
        self.cycles += 1
        return self._inner.run_op(op, state)


def stored_level(model: ColumnModel, value: int,
                 stress: StressConditions | None = None) -> float:
    """Physical storage voltage encoding logical ``value`` on the target.

    Cells on the complementary bit line store inverted data (differential
    write convention), so logical 1 there is 0 V at the node.  ``stress``
    overrides the model's current stress combination — batched sweeps use
    it to derive per-point rails without mutating the model.
    """
    on_true = getattr(model, "target_on_true", True)
    stored = value if on_true else 1 - value
    vdd = (stress or model.stress).vdd
    return float(stored) * vdd


def opposite_rail_init(model: ColumnModel, ops,
                       stress: StressConditions | None = None) -> float:
    """Initial cell voltage opposing the first write of a sequence.

    The paper initialises the floating cell to the rail *opposite* the
    first written value so that write is maximally stressed.  Sequences
    starting with a read default to mid-rail.  ``stress`` overrides the
    model's stress as in :func:`stored_level`.
    """
    first = ops[0]
    if not first.operation.is_write:
        return 0.5 * (stress or model.stress).vdd
    return stored_level(model, 1 - first.operation.write_value, stress)


def electrical_model(defect: Defect | None = None,
                     stress: StressConditions = NOMINAL_STRESS,
                     tech: TechnologyParams | None = None,
                     record: bool = False) -> ColumnRunner:
    """Build the electrical (SPICE-level) column model for a defect."""
    site = defect.site() if defect is not None else None
    target = defect.cell_index if defect is not None else 0
    return ColumnRunner(tech=tech, stress=stress, defect=site,
                        target_cell=target, record=record)
