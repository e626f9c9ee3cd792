"""Cycle timing generator.

Converts an operation plus stress conditions into the control-signal
waveforms of one memory cycle.  All instants scale with the cycle time, as
on a real tester where the whole pattern is retimed by the clock:

::

    0        eq_on   eq_off  wl_on      (write/sense window)      wl_off
    |---------|#######|-------|==================================|------|
              precharge        active window = duty * tcyc              tcyc

Shortening ``tcyc`` (or the duty cycle) shrinks the active window — the
timing-stress mechanism of Sec. 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stress import StressConditions
from repro.dram.ops import Op, Operation
from repro.dram.tech import TechnologyParams
from repro.spice.waveforms import Constant, PWL, Waveform

# Cycle-relative fractions of the control schedule.
EQ_ON_FRAC = 0.02
EQ_OFF_FRAC = 0.18
WL_ON_FRAC = 0.20
WL_OFF_MAX_FRAC = 0.97
WEN_DELAY_FRAC = 0.03
SHARE_FRAC = 0.10
CSL_DELAY_FRAC = 0.05
SAMPLE_BACKOFF_FRAC = 0.01
EDGE_FRAC = 0.008


def _gate(t_on: float, t_off: float, high: float, edge: float,
          low: float = 0.0) -> PWL:
    """A single on/off gate pulse as a PWL waveform."""
    return PWL([(t_on, low), (t_on + edge, high),
                (t_off, high), (t_off + edge, low)])


@dataclass
class CyclePlan:
    """Waveforms and key instants of one operation cycle.

    ``waveforms`` maps control-source device names (as created by
    :func:`repro.dram.column.build_column`) to their waveform for the cycle.
    """

    op: Op
    stress: StressConditions
    waveforms: dict[str, Waveform]
    t_wl_on: float
    t_wl_off: float
    t_sense: float | None
    t_sample: float | None

    @property
    def tcyc(self) -> float:
        return self.stress.tcyc


def wordline_window(stress: StressConditions) -> tuple[float, float]:
    """Word-line (on, off) instants for the given stress conditions."""
    tcyc = stress.tcyc
    t_on = WL_ON_FRAC * tcyc
    window = stress.duty * tcyc
    t_off = min(t_on + window, WL_OFF_MAX_FRAC * tcyc)
    return t_on, t_off


def plan_cycle(op: Op, stress: StressConditions, tech: TechnologyParams,
               target_cell: int = 0) -> CyclePlan:
    """Build the control waveforms of one cycle.

    Parameters
    ----------
    op:
        The operation applied to the target cell.
    stress:
        The stress conditions (cycle time, duty, supply; temperature is
        applied by the simulator, not the waveforms).
    tech:
        Technology parameters (boost levels, array size).
    target_cell:
        Index of the cell operated on (0..num_wordlines-1).  Even cells sit
        on the true bit line, odd cells on the complementary one.
    """
    if not 0 <= target_cell < tech.num_wordlines:
        raise ValueError(f"target_cell out of range: {target_cell}")

    tcyc = stress.tcyc
    vdd = stress.vdd
    vpp = tech.vpp(vdd)
    edge = EDGE_FRAC * tcyc

    t_eq_on = EQ_ON_FRAC * tcyc
    t_eq_off = EQ_OFF_FRAC * tcyc
    t_wl_on, t_wl_off = wordline_window(stress)

    waves: dict[str, Waveform] = {}

    # Precharge/equalise gate.
    waves["v_eq"] = _gate(t_eq_on, t_eq_off, vpp, edge)
    waves["v_pre"] = Constant(tech.vbl_pre(vdd))
    waves["v_ref"] = Constant(tech.v_ref(vdd, stress.temp_c))
    waves["v_vdd"] = Constant(vdd)

    # Word lines: only the target's line fires.
    for i in range(tech.num_wordlines):
        if i == target_cell:
            waves[f"v_wl{i}"] = _gate(t_wl_on, t_wl_off, vpp, edge)
        else:
            waves[f"v_wl{i}"] = Constant(0.0)

    target_on_true = target_cell % 2 == 0
    is_read = op.operation is Operation.R
    is_nop = op.operation is Operation.NOP
    if is_nop:
        # Idle cycle: precharge only — no word line, no sense, no write.
        waves[f"v_wl{target_cell}"] = Constant(0.0)
        for name in ("v_rwl_t", "v_rwl_c", "v_sen", "v_wen", "v_wdt",
                     "v_wdc", "v_csl"):
            waves[name] = Constant(0.0)
        waves["v_sepb"] = Constant(vdd)
        return CyclePlan(op=op, stress=stress, waveforms=waves,
                         t_wl_on=t_wl_on, t_wl_off=t_wl_off,
                         t_sense=None, t_sample=None)

    # Dummy word lines: reading a true-BL cell fires the dummy on the
    # complementary bit line (and vice versa); writes leave both off.
    waves["v_rwl_t"] = Constant(0.0)
    waves["v_rwl_c"] = Constant(0.0)
    if is_read:
        dummy = "v_rwl_c" if target_on_true else "v_rwl_t"
        waves[dummy] = _gate(t_wl_on, t_wl_off, vpp, edge)

    t_sense = None
    t_sample = None
    if is_read:
        t_sense = t_wl_on + SHARE_FRAC * tcyc
        t_csl_on = t_sense + CSL_DELAY_FRAC * tcyc
        t_sample = t_wl_off - SAMPLE_BACKOFF_FRAC * tcyc
        waves["v_sen"] = _gate(t_sense, t_wl_off, vpp, edge)
        waves["v_sepb"] = _gate(t_sense, t_wl_off, 0.0, edge, low=vdd)
        waves["v_csl"] = _gate(t_csl_on, t_wl_off, vpp, edge)
        waves["v_wen"] = Constant(0.0)
        waves["v_wdt"] = Constant(0.0)
        waves["v_wdc"] = Constant(0.0)
    else:
        # The write driver always drives the pair differentially from the
        # logical data: blt = d*vdd, blc = (1-d)*vdd.  A cell on the
        # complementary bit line therefore stores the *inverted* physical
        # level — exactly the convention behind the paper's true/comp
        # symmetry (Table 1: comp rows have 0s and 1s interchanged).
        value = op.operation.write_value
        t_we_on = t_wl_on + WEN_DELAY_FRAC * tcyc
        waves["v_wen"] = _gate(t_we_on, t_wl_off, vpp, edge)
        waves["v_wdt"] = Constant(float(value) * vdd)
        waves["v_wdc"] = Constant(float(1 - value) * vdd)
        waves["v_sen"] = Constant(0.0)
        waves["v_sepb"] = Constant(vdd)
        waves["v_csl"] = Constant(0.0)

    return CyclePlan(op=op, stress=stress, waveforms=waves,
                     t_wl_on=t_wl_on, t_wl_off=t_wl_off,
                     t_sense=t_sense, t_sample=t_sample)
