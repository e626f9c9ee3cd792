"""Phase-integrated behavioral column model.

Each operation cycle is split at the control-signal corners defined by
:mod:`repro.dram.timing` and integrated segment-by-segment with fixed
sub-steps: the storage node by forward Euler (``vc += i * dt / cs``), the
gate of a word-line open (O2) by the exact exponential update of its RC.
Within a segment the bit line is either held by the precharge/write
driver (a boundary condition) or co-integrated with the cell during
charge sharing.  The access transistor uses the *same* level-1 equations
as the electrical model (:func:`~repro.spice.mosfet.mosfet_ids`, the
drain current of :func:`~repro.spice.mosfet.mosfet_curves`), so both
models share one technology description.  The device, leakage and defect
constants are resolved once per cycle from the staged stress and defect
(:class:`_CycleConstants`), so the sub-step loops run over locals.

Approximations (validated against the electrical model in the tests):

* bit lines are ideal rails while a driver holds them;
* the sense amplifier is a calibrated race — the decision samples the
  bit-line differential one latch delay after sense enable, with the
  delay scaling like the inverse SA drive current over temperature;
* after the decision the winning rail is applied to the bit line
  immediately (restore phase);
* non-target cells do not interact with the target (the electrical model
  confirms the coupling is negligible for single-defect analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stress import NOMINAL_STRESS, StressConditions
from repro.defects.catalog import Defect
from repro.dram.column import DefectSite
from repro.dram.ops import (Op, Operation, OpResult, SequenceResult,
                            run_memoized)
from repro.dram.tech import TechnologyParams, default_tech
from repro.dram import timing
from repro.spice.devices import thermal_voltage
from repro.spice.mosfet import mosfet_ids


@dataclass
class BehavCalibration:
    """Fitted constants of the sense-decision race.

    ``latch_delay`` is the time between sense enable and the effective
    decision instant at the nominal temperature; it scales with the
    inverse of the SA NMOS drive, i.e. ``(T_K / 300.15) ** latch_texp``.
    """

    latch_delay: float = 2.6e-9
    latch_texp: float = 0.9

    def delay_at(self, temp_c: float) -> float:
        t_k = temp_c + 273.15
        return self.latch_delay * (t_k / 300.15) ** self.latch_texp


class _CycleConstants:
    """Device, leakage and defect constants of one cycle.

    Resolved from the column's staged technology, stress and defect at
    the start of every cycle, so re-staging a reused column
    (``set_stress`` / ``set_defect_resistance``) needs no invalidation.
    """

    __slots__ = ("beta", "beta_dum", "nvt", "vth", "lam", "i_leak", "cs",
                 "cbl", "vdd", "vpp", "series_r", "gate_tau", "shunt",
                 "shunt_r")

    def __init__(self, tech: TechnologyParams, stress: StressConditions,
                 defect: DefectSite | None):
        temp_c = stress.temp_c
        acc = tech.access_params
        # Temperature-resolved access devices (cell and dummy widths).
        kp = acc.kp_at(temp_c)
        self.beta = kp * (tech.access_w / tech.access_l)
        self.beta_dum = kp * (tech.dummy_access_w / tech.access_l)
        self.nvt = acc.n_ss * thermal_voltage(temp_c)
        self.vth = acc.vth_at(temp_c)
        self.lam = acc.lam
        # Storage-node junction leakage (discharges a stored high).
        self.i_leak = tech.leak_isat * 2.0 ** ((temp_c - tech.leak_tnom_c)
                                               / tech.leak_tdouble)
        self.cs, self.cbl = tech.cs, tech.cbl
        self.vdd = stress.vdd
        self.vpp = tech.vpp(stress.vdd)
        kind = defect.kind if defect is not None else None
        r = defect.resistance if defect is not None else 0.0
        #: An open in series with the access device.
        self.series_r = r if kind in ("open_bl", "open_sn") else 0.0
        #: RC of a word-line open's gate node.
        self.gate_tau = r * tech.cg_access if kind == "open_gate" else None
        #: The net a short/bridge ties the storage node to.
        self.shunt = kind if kind in ("short_gnd", "short_vdd", "bridge_bl",
                                      "bridge_wl") else None
        self.shunt_r = r

    def shunt_node(self, v_bl: float, v_wl: float) -> float | None:
        """Voltage of the shunt's far net (``None`` without a shunt)."""
        shunt = self.shunt
        if shunt is None:
            return None
        return {"short_gnd": 0.0, "short_vdd": self.vdd,
                "bridge_bl": v_bl, "bridge_wl": v_wl}[shunt]


class BehavioralColumn:
    """Drop-in fast replacement for :class:`ColumnRunner`.

    Accepts the same construction arguments (low-level
    :class:`DefectSite`) and exposes the same operation-level interface,
    so every analysis routine runs unchanged on either model.
    """

    #: Integration sub-step (seconds).
    DT_SUB = 0.5e-9

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 target_cell: int = 0,
                 calibration: BehavCalibration | None = None,
                 record: bool = False):
        self.tech = tech or default_tech()
        self.stress = stress
        self.target_cell = target_cell
        self.defect = defect
        self.calibration = calibration or BehavCalibration()
        self.record = record  # accepted for interface parity (unused)
        self._prefixes: dict = {}

    # ------------------------------------------------------------------
    # configuration (mirrors ColumnRunner)
    # ------------------------------------------------------------------
    def set_stress(self, stress: StressConditions) -> None:
        if stress != self.stress:
            self.stress = stress
            self._prefixes.clear()

    def set_defect_resistance(self, resistance: float) -> None:
        if self.defect is None:
            raise ValueError("this column has no injected defect")
        if resistance != self.defect.resistance:
            self.defect = self.defect.with_resistance(resistance)
            self._prefixes.clear()

    @property
    def target_on_true(self) -> bool:
        return self.target_cell % 2 == 0

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------
    def _phases_for(self, op: Op, t_wl_on: float, t_wl_off: float
                    ) -> list[tuple[float, float, bool, float]]:
        """Held-bit-line phases ``(t0, t1, wl_high, v_bl)`` of a write
        cycle (reads and nops are assembled inline in :meth:`_run_cycle`
        because the restore level is only known mid-cycle)."""
        tcyc = self.stress.tcyc
        vpre = self.tech.vbl_pre(self.stress.vdd)

        level = float(op.operation.write_value) * self.stress.vdd
        if not self.target_on_true:
            level = self.stress.vdd - level
        t_we_on = t_wl_on + timing.WEN_DELAY_FRAC * tcyc
        return [
            (0.0, t_wl_on, False, vpre),
            (t_wl_on, t_we_on, True, vpre),
            (t_we_on, t_wl_off, True, level),
            (t_wl_off, tcyc, False, level),
        ]

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _integrate_held(self, k: _CycleConstants, state: dict,
                        t0: float, t1: float, wl_high: bool,
                        v_bl: float) -> None:
        """Cell dynamics with the bit line held at ``v_bl``."""
        dt_sub = self.DT_SUB
        beta, nvt, vth, lam = k.beta, k.nvt, k.vth, k.lam
        series_r, i_leak, cs = k.series_r, k.i_leak, k.cs
        gate_tau, shunt_r = k.gate_tau, k.shunt_r
        v_hi = k.vdd + 0.3
        v_wl = k.vpp if wl_high else 0.0
        v_shunt = k.shunt_node(v_bl, v_wl)
        access = wl_high or gate_tau is not None
        vc = state["vc"]
        vg = state["vg"] if gate_tau is not None else v_wl
        t, t_stop = t0, t1 - 1e-15
        while t < t_stop:
            dt = t1 - t
            if dt > dt_sub:
                dt = dt_sub
            if gate_tau is not None:
                x = -dt / gate_tau
                vg += (v_wl - vg) * (1.0 - (math.exp(x) if x > -60.0
                                            else 0.0))
            i_acc = 0.0
            if access:
                # bit line -> cell: the access device's large-signal
                # conductance in series with any open
                dv = v_bl - vc
                if dv != 0.0:
                    vds = abs(dv)
                    ids = mosfet_ids(beta, nvt, vth, lam,
                                     vg - (vc if vc < v_bl else v_bl), vds)
                    if not ids <= 0.0:  # a NaN current propagates
                        g = ids / vds
                        i_acc = (g if series_r <= 0
                                 else g / (1.0 + g * series_r)) * dv
            i_shunt = 0.0 if v_shunt is None else (v_shunt - vc) / shunt_r
            i = i_acc + i_shunt - (0.0 if vc <= 0.0 else i_leak)
            vc = vc + i * dt / cs
            vc = -0.2 if vc < -0.2 else v_hi if vc > v_hi else vc
            t += dt
        state["vc"] = vc
        if gate_tau is not None:
            state["vg"] = vg

    def _integrate_share(self, k: _CycleConstants, state: dict,
                         t0: float, t1: float) -> None:
        """Charge sharing: cell and bit line co-integrate; dummy too."""
        dt_sub = self.DT_SUB
        beta, beta_dum = k.beta, k.beta_dum
        nvt, vth, lam = k.nvt, k.vth, k.lam
        series_r, i_leak, cs, cbl = k.series_r, k.i_leak, k.cs, k.cbl
        gate_tau, shunt_r, vpp = k.gate_tau, k.shunt_r, k.vpp
        vc, vbl = state["vc"], state["vbl"]
        vdum, vblr = state["vdum"], state["vblr"]
        v_shunt = k.shunt_node(vbl, vpp)
        shunt_bl = k.shunt == "bridge_bl"
        vg = state["vg"] if gate_tau is not None else vpp
        t, t_stop = t0, t1 - 1e-15
        while t < t_stop:
            dt = t1 - t
            if dt > dt_sub:
                dt = dt_sub
            if gate_tau is not None:
                x = -dt / gate_tau
                vg += (vpp - vg) * (1.0 - (math.exp(x) if x > -60.0
                                           else 0.0))
            # bit line -> cell: the access device's large-signal
            # conductance in series with any open
            i_cell = 0.0
            dv = vbl - vc
            if dv != 0.0:
                vds = abs(dv)
                ids = mosfet_ids(beta, nvt, vth, lam,
                                 vg - (vc if vc < vbl else vbl), vds)
                if not ids <= 0.0:  # a NaN current propagates
                    g = ids / vds
                    i_cell = (g if series_r <= 0
                              else g / (1.0 + g * series_r)) * dv
            if shunt_bl:  # a bit-line bridge follows the developing line
                v_shunt = vbl
            i_shunt = 0.0 if v_shunt is None else (v_shunt - vc) / shunt_r
            # Dummy path (no defect, its own width, gate at vpp).
            i_dum = 0.0
            dvd = vblr - vdum
            if dvd != 0.0:
                vds = abs(dvd)
                idum = mosfet_ids(beta_dum, nvt, vth, lam,
                                  vpp - (vdum if vdum < vblr else vblr), vds)
                if idum > 0:
                    i_dum = (idum / vds) * dvd
            vc = vc + (i_cell + i_shunt
                       - (0.0 if vc <= 0.0 else i_leak)) * dt / cs
            vbl = vbl - i_cell * dt / cbl
            vdum = vdum + i_dum * dt / cs
            vblr = vblr - i_dum * dt / cbl
            t += dt
        state["vc"], state["vbl"] = vc, vbl
        state["vdum"], state["vblr"] = vdum, vblr
        if gate_tau is not None:
            state["vg"] = vg

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _run_cycle(self, op: Op, state: dict) -> OpResult:
        stress, tech = self.stress, self.tech
        k = _CycleConstants(tech, stress, self.defect)
        temp_c = stress.temp_c
        tcyc = stress.tcyc
        t_wl_on, t_wl_off = timing.wordline_window(stress)

        sensed = None
        if op.operation is Operation.NOP:
            vpre = tech.vbl_pre(stress.vdd)
            self._integrate_held(k, state, 0.0, tcyc, False, vpre)
        elif op.operation.is_write:
            for phase in self._phases_for(op, t_wl_on, t_wl_off):
                self._integrate_held(k, state, *phase)
        else:
            vpre = tech.vbl_pre(stress.vdd)
            # idle + precharge
            self._integrate_held(k, state, 0.0, t_wl_on, False, vpre)
            # charge share until the (race-delayed) decision instant
            t_sense = t_wl_on + timing.SHARE_FRAC * tcyc
            t_dec = min(t_sense + self.calibration.delay_at(temp_c),
                        t_wl_off)
            state["vbl"] = vpre
            state["vblr"] = vpre
            state["vdum"] = tech.v_ref(stress.vdd, temp_c)
            self._integrate_share(k, state, t_wl_on, t_dec)
            stored_one = state["vbl"] > state["vblr"]
            sensed = (1 if stored_one else 0) if self.target_on_true \
                else (0 if stored_one else 1)
            # restore: the SA drives the bit line to the winning rail
            rail = stress.vdd if stored_one else 0.0
            self._integrate_held(k, state, t_dec, t_wl_off, True, rail)
            self._integrate_held(k, state, t_wl_off, tcyc, False, rail)

        return OpResult(op=op, vc_end=state["vc"], sensed=sensed)

    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Interface parity with the electrical runner."""
        state = {"vc": float(vc_target), "vbl": 0.0, "vblr": 0.0,
                 "vdum": 0.0}
        if self.defect is not None and self.defect.kind == "open_gate":
            state["vg"] = 0.0
        return state

    def run_op(self, op: Op | str, state: dict) -> tuple[OpResult, dict]:
        if isinstance(op, str):
            op = Op.parse(op)
        result = self._run_cycle(op, state)
        return result, state

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        """Interface parity, prefix memo included
        (:func:`~repro.dram.ops.run_memoized`)."""
        return run_memoized(self, self._prefixes, ops, init_vc, background)


def behavioral_model(defect: Defect | None = None,
                     stress: StressConditions = NOMINAL_STRESS,
                     tech: TechnologyParams | None = None,
                     calibration: BehavCalibration | None = None
                     ) -> BehavioralColumn:
    """Build the behavioral column model for a high-level defect."""
    site = defect.site() if defect is not None else None
    target = defect.cell_index if defect is not None else 0
    return BehavioralColumn(tech=tech, stress=stress, defect=site,
                            target_cell=target, calibration=calibration)
