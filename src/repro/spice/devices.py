"""Linear and weakly-nonlinear circuit devices.

All devices follow the stamping protocol documented in
:mod:`repro.spice.netlist`.  Capacitors use companion models (backward Euler
or trapezoidal); diodes are exponential junctions linearised per Newton
iteration and are used for storage-node junction leakage in the DRAM model.
"""

from __future__ import annotations

import math

from repro.spice.errors import NetlistError
from repro.spice.netlist import Device, Node, Stamper
from repro.spice.waveforms import Constant, Waveform

#: Boltzmann constant over electron charge (V/K).
K_OVER_Q = 8.617333262e-5

#: Clamp for exponential arguments to keep Newton iterates finite.
_EXP_CLAMP = 80.0


def thermal_voltage(temp_c: float) -> float:
    """kT/q in volts at ``temp_c`` degrees Celsius."""
    return K_OVER_Q * (temp_c + 273.15)


def _as_waveform(value) -> Waveform:
    if isinstance(value, Waveform):
        return value
    return Constant(float(value))


class Resistor(Device):
    """A linear resistor.

    Resistance must be positive; use a large value (e.g. 1e15) to model an
    essentially-open connection rather than infinity.
    """

    def __init__(self, name: str, a: Node, b: Node, resistance: float):
        super().__init__(name, (a, b))
        if not resistance > 0:
            raise NetlistError(
                f"resistor {name!r}: resistance must be > 0, got {resistance}")
        self.resistance = float(resistance)

    @property
    def a(self) -> Node:
        return self.node_list[0]

    @property
    def b(self) -> Node:
        return self.node_list[1]

    def stamp_static(self, st: Stamper) -> None:
        st.conductance(self.a, self.b, 1.0 / self.resistance)

    def current(self, x) -> float:
        """Current a→b for a given solution vector."""
        va = 0.0 if self.a.is_ground else x[self.a.index]
        vb = 0.0 if self.b.is_ground else x[self.b.index]
        return (va - vb) / self.resistance


class Capacitor(Device):
    """A linear capacitor with optional initial condition.

    In transient analysis the capacitor is replaced by its companion model:

    * backward Euler: ``geq = C/dt``, ``ieq = geq * v_prev``
    * trapezoidal:    ``geq = 2C/dt``, ``ieq = geq * v_prev + i_prev``

    where ``i_prev`` (trapezoidal only) is the device current at the previous
    accepted time point.  The compiled dynamic plan
    (:class:`~repro.spice.plans.DynamicPlan`) advances it after every
    accepted step and writes it back here, so chained transients resume
    from it.
    """

    def __init__(self, name: str, a: Node, b: Node, capacitance: float,
                 ic: float | None = None):
        super().__init__(name, (a, b))
        if not capacitance > 0:
            raise NetlistError(
                f"capacitor {name!r}: capacitance must be > 0, "
                f"got {capacitance}")
        self.capacitance = float(capacitance)
        self.ic = ic
        self._i_prev = 0.0  # trapezoidal history

    @property
    def a(self) -> Node:
        return self.node_list[0]

    @property
    def b(self) -> Node:
        return self.node_list[1]

    def stamp_dynamic(self, st: Stamper) -> None:
        dt = st.ctx.dt
        if dt is None:  # DC: capacitor is an open circuit
            return
        v_prev = st.v_prev(self.a) - st.v_prev(self.b)
        if st.ctx.method == "trap":
            geq = 2.0 * self.capacitance / dt
            ieq = geq * v_prev + self._i_prev
        else:  # backward Euler
            geq = self.capacitance / dt
            ieq = geq * v_prev
        st.conductance(self.a, self.b, geq)
        # Companion current source pushes ieq into node a (out of b).
        st.current(self.b, self.a, ieq)


class VoltageSource(Device):
    """An independent voltage source driven by a waveform (or DC level)."""

    needs_branch = True

    def __init__(self, name: str, p: Node, n: Node, waveform):
        super().__init__(name, (p, n))
        self.waveform = _as_waveform(waveform)
        self._branch: int | None = None

    @property
    def p(self) -> Node:
        return self.node_list[0]

    @property
    def n(self) -> Node:
        return self.node_list[1]

    def bind_branch(self, branch: int) -> None:
        self._branch = branch

    def stamp_static(self, st: Stamper) -> None:
        st.incidence(self.p, self.n, self._branch)

    def stamp_source(self, st: Stamper) -> None:
        st.branch_rhs(self._branch, self.waveform.value(st.ctx.time))

    def branch_current(self, x, num_nodes: int) -> float:
        """Current flowing p→n *through* the source in solution ``x``."""
        return x[num_nodes + self._branch]


class CurrentSource(Device):
    """An independent current source: ``value(t)`` flows from p to n."""

    def __init__(self, name: str, p: Node, n: Node, waveform):
        super().__init__(name, (p, n))
        self.waveform = _as_waveform(waveform)

    @property
    def p(self) -> Node:
        return self.node_list[0]

    @property
    def n(self) -> Node:
        return self.node_list[1]

    def stamp_source(self, st: Stamper) -> None:
        st.current(self.p, self.n, self.waveform.value(st.ctx.time))


class Diode(Device):
    """An exponential junction diode with temperature-dependent saturation.

    ``i = isat(T) * (exp(v / (n*vt)) - 1)``, with the saturation current
    doubling every ``isat_tdouble`` kelvin above the nominal temperature.
    Used (reverse biased) as the storage-node junction-leakage element.
    """

    def __init__(self, name: str, anode: Node, cathode: Node,
                 isat: float = 1e-14, emission: float = 1.0,
                 temp_nom_c: float = 27.0, isat_tdouble: float = 10.0):
        super().__init__(name, (anode, cathode))
        if isat <= 0:
            raise NetlistError(f"diode {name!r}: isat must be > 0")
        self.isat = float(isat)
        self.emission = float(emission)
        self.temp_nom_c = float(temp_nom_c)
        self.isat_tdouble = float(isat_tdouble)

    @property
    def anode(self) -> Node:
        return self.node_list[0]

    @property
    def cathode(self) -> Node:
        return self.node_list[1]

    def isat_at(self, temp_c: float) -> float:
        """Saturation current at ``temp_c``."""
        return self.isat * 2.0 ** ((temp_c - self.temp_nom_c)
                                   / self.isat_tdouble)

    def iv(self, v: float, temp_c: float) -> tuple[float, float]:
        """Return ``(i, gd)`` at junction voltage ``v``."""
        vt = self.emission * thermal_voltage(temp_c)
        isat = self.isat_at(temp_c)
        arg = min(v / vt, _EXP_CLAMP)
        e = math.exp(arg)
        i = isat * (e - 1.0)
        gd = isat * e / vt
        return i, gd

    def stamp_nonlinear(self, st: Stamper) -> None:
        v = st.v(self.anode) - st.v(self.cathode)
        i, gd = self.iv(v, st.ctx.temp_c)
        # Linearise: i ≈ i0 + gd (v - v0)  →  conductance gd plus the
        # residual current (i0 - gd*v0) from anode to cathode.
        st.conductance(self.anode, self.cathode, gd)
        st.current(self.anode, self.cathode, i - gd * v)
