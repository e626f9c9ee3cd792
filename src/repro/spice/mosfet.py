"""Level-1 MOSFET model with temperature-dependent mobility and threshold.

The model is the classic square-law device with three refinements that the
DRAM stress experiments need:

* **Smooth sub-threshold turn-off.**  The gate overdrive is softened with a
  ``softplus`` so the drain current decays exponentially below threshold
  instead of snapping to zero.  This keeps Newton iterations well-behaved
  and gives the access transistor a physically-plausible off-state.
* **Temperature-dependent mobility.**  ``kp(T) = kp * (T/Tnom)**mu_exp``
  (absolute temperatures, ``mu_exp ≈ -1.5`` for NMOS).  Higher temperature
  → lower mobility → lower drive current, which is the mechanism behind the
  paper's Fig. 4 write-weakening at high temperature.
* **Temperature-dependent threshold.**  ``|vth|(T) = vth0 + vth_tc*(T-Tnom)``
  with ``vth_tc < 0``: the threshold magnitude drops as temperature rises.

Both polarities are handled by a single set of equations evaluated in the
NMOS frame; PMOS devices mirror all voltages and the current direction.
Source/drain are swapped automatically when ``vds`` goes negative, so the
device is symmetric like the real structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.spice.errors import NetlistError
from repro.spice.devices import thermal_voltage
from repro.spice.netlist import Device, Node, Stamper

_EXP_CLAMP = 60.0


@dataclass(frozen=True)
class MosfetParams:
    """Technology parameters of a MOSFET.

    Attributes
    ----------
    polarity:
        ``"n"`` or ``"p"``.
    kp:
        Transconductance factor ``mu * Cox`` at the nominal temperature
        (A/V^2).
    vth0:
        Threshold-voltage *magnitude* at the nominal temperature (V);
        positive for both polarities.
    lam:
        Channel-length modulation (1/V).
    n_ss:
        Sub-threshold ideality factor (dimensionless, >= 1).
    mu_exp:
        Mobility temperature exponent (``kp`` scales with
        ``(T/Tnom)**mu_exp`` in kelvin).
    vth_tc:
        Threshold temperature coefficient (V/K, applied to the magnitude).
    temp_nom_c:
        Nominal temperature in Celsius.
    """

    polarity: str = "n"
    kp: float = 120e-6
    vth0: float = 0.5
    lam: float = 0.05
    n_ss: float = 1.5
    mu_exp: float = -1.5
    vth_tc: float = -1.5e-3
    temp_nom_c: float = 27.0

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise NetlistError(f"polarity must be 'n' or 'p', "
                               f"got {self.polarity!r}")
        if self.kp <= 0 or self.vth0 <= 0 or self.n_ss < 1.0:
            raise NetlistError("kp and vth0 must be positive, n_ss >= 1")

    def with_(self, **kwargs) -> "MosfetParams":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)

    def kp_at(self, temp_c: float) -> float:
        """Transconductance factor at ``temp_c``."""
        t_k = temp_c + 273.15
        tnom_k = self.temp_nom_c + 273.15
        return self.kp * (t_k / tnom_k) ** self.mu_exp

    def vth_at(self, temp_c: float) -> float:
        """Threshold-voltage magnitude at ``temp_c`` (clamped above 50 mV)."""
        vth = self.vth0 + self.vth_tc * (temp_c - self.temp_nom_c)
        return max(vth, 0.05)


#: Default NMOS / PMOS parameter sets for the synthetic DRAM technology.
NMOS_DEFAULT = MosfetParams(polarity="n", kp=120e-6, vth0=0.5, lam=0.05,
                            n_ss=1.5, mu_exp=-1.5, vth_tc=-1.5e-3)
PMOS_DEFAULT = MosfetParams(polarity="p", kp=40e-6, vth0=0.55, lam=0.05,
                            n_ss=1.5, mu_exp=-1.2, vth_tc=-1.2e-3)


def _softplus(x: float) -> float:
    """Numerically-stable ``log(1 + exp(x))``."""
    if x > _EXP_CLAMP:
        return x
    if x < -_EXP_CLAMP:
        return 0.0
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x > _EXP_CLAMP:
        return 1.0
    if x < -_EXP_CLAMP:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def mosfet_curves(params: MosfetParams, w_over_l: float, vgs: float,
                  vds: float, temp_c: float) -> tuple[float, float, float]:
    """Level-1 characteristics ``(ids, gm, gds)`` in the NMOS frame.

    Requires ``vds >= 0`` (the caller handles source/drain swapping and
    PMOS mirroring).  The :class:`Mosfet` device evaluates it and the fast
    behavioral column model takes the same drain current from
    :func:`mosfet_ids`, so both use *identical* device physics.
    """
    beta = params.kp_at(temp_c) * w_over_l
    nvt = params.n_ss * thermal_voltage(temp_c)
    vov = vgs - params.vth_at(temp_c)
    u = vov / nvt
    veff = nvt * _softplus(u)      # smooth overdrive (-> vov when on)
    dveff = _sigmoid(u)            # d(veff)/d(vgs)
    clm = 1.0 + params.lam * vds
    if vds < veff:  # triode
        ids = beta * (veff - 0.5 * vds) * vds * clm
        gm = beta * vds * clm * dveff
        gds = beta * ((veff - vds) * clm
                      + (veff - 0.5 * vds) * vds * params.lam)
    else:  # saturation
        half_beta_veff2 = 0.5 * beta * veff * veff
        ids = half_beta_veff2 * clm
        gm = beta * veff * clm * dveff
        gds = half_beta_veff2 * params.lam
    return ids, gm, gds


def mosfet_ids(beta: float, nvt: float, vth: float, lam: float,
               vgs: float, vds: float) -> float:
    """Drain current of :func:`mosfet_curves` alone, from resolved parameters.

    ``beta``/``nvt``/``vth``/``lam`` are the temperature-resolved device
    parameters (``kp_at(T) * w/l``, ``n_ss * vt(T)``, ``vth_at(T)``,
    channel-length modulation).  Same operations in the same
    order as :func:`mosfet_curves`, so the result is bitwise its ``ids``;
    a caller that evaluates one device many times at one temperature
    resolves the parameters once instead of per call.
    """
    veff = nvt * _softplus((vgs - vth) / nvt)
    clm = 1.0 + lam * vds
    if vds < veff:  # triode
        return beta * (veff - 0.5 * vds) * vds * clm
    return 0.5 * beta * veff * veff * clm


class Mosfet(Device):
    """A four-terminal-less (bulk tied) level-1 MOSFET.

    Terminals: drain, gate, source.  The device is quasi-static (no intrinsic
    capacitances); the DRAM netlist adds explicit node capacitances where
    dynamics matter.
    """

    def __init__(self, name: str, drain: Node, gate: Node, source: Node,
                 params: MosfetParams, w: float = 1e-6, l: float = 0.25e-6):
        super().__init__(name, (drain, gate, source))
        if w <= 0 or l <= 0:
            raise NetlistError(f"mosfet {name!r}: w and l must be positive")
        self.params = params
        self.w = float(w)
        self.l = float(l)

    @property
    def drain(self) -> Node:
        return self.node_list[0]

    @property
    def gate(self) -> Node:
        return self.node_list[1]

    @property
    def source(self) -> Node:
        return self.node_list[2]

    # ------------------------------------------------------------------
    # device equations (NMOS frame, vds >= 0)
    # ------------------------------------------------------------------
    def _eval(self, vgs: float, vds: float,
              temp_c: float) -> tuple[float, float, float]:
        """Return ``(ids, gm, gds)`` in the NMOS frame with ``vds >= 0``."""
        return mosfet_curves(self.params, self.w / self.l, vgs, vds, temp_c)

    def ids(self, vgs: float, vds: float, temp_c: float = 27.0) -> float:
        """Drain current for terminal voltages in the device's own polarity.

        For PMOS, ``vgs``/``vds`` are the usual (negative) values and the
        returned current is the (negative) drain-to-source current.
        """
        pol = 1.0 if self.params.polarity == "n" else -1.0
        vgs_n, vds_n = pol * vgs, pol * vds
        if vds_n >= 0:
            i, _, _ = self._eval(vgs_n, vds_n, temp_c)
            return pol * i
        # source/drain swap: vgd becomes the controlling voltage
        i, _, _ = self._eval(vgs_n - vds_n, -vds_n, temp_c)
        return -pol * i

    # ------------------------------------------------------------------
    # stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, st: Stamper) -> None:
        pol = 1.0 if self.params.polarity == "n" else -1.0
        vd = st.v(self.drain)
        vg = st.v(self.gate)
        vs = st.v(self.source)
        # Effective drain = terminal at higher potential in the NMOS frame.
        if pol * (vd - vs) >= 0.0:
            nd, ns = self.drain, self.source
            vnd, vns = vd, vs
        else:
            nd, ns = self.source, self.drain
            vnd, vns = vs, vd
        vgs = pol * (vg - vns)
        vds = pol * (vnd - vns)
        ids, gm, gds = self._eval(vgs, vds, st.ctx.temp_c)
        i_real = pol * ids
        # i(v) ≈ i_real + gds*(Δvds_real) + gm*(Δvgs_real); the conductance
        # and VCCS stamps supply the linear terms at the *new* iterate, so
        # the residual subtracts their value at the current iterate.
        residual = i_real - gds * (vnd - vns) - gm * (vg - vns)
        st.conductance(nd, ns, gds)
        st.transconductance(nd, ns, self.gate, ns, gm)
        st.current(nd, ns, residual)
