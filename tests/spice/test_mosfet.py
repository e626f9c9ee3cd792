"""Level-1 MOSFET model: regions, symmetry, temperature dependence."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.spice.errors import NetlistError
from repro.spice.mosfet import (
    Mosfet,
    MosfetParams,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    mosfet_curves,
    mosfet_ids,
)
from repro.spice.devices import thermal_voltage
from repro.spice.netlist import Circuit
from repro.dram.tech import default_tech


def _nmos(w=1e-6, l=0.25e-6, params=NMOS_DEFAULT):
    c = Circuit()
    return Mosfet("M", c.node("d"), c.node("g"), c.node("s"), params,
                  w=w, l=l)


def _pmos(w=1e-6, l=0.25e-6):
    c = Circuit()
    return Mosfet("M", c.node("d"), c.node("g"), c.node("s"),
                  PMOS_DEFAULT, w=w, l=l)


class TestParams:
    def test_rejects_bad_polarity(self):
        with pytest.raises(NetlistError):
            MosfetParams(polarity="x")

    def test_rejects_nonpositive_kp(self):
        with pytest.raises(NetlistError):
            MosfetParams(kp=0.0)

    def test_kp_falls_with_temperature(self):
        p = NMOS_DEFAULT
        assert p.kp_at(87.0) < p.kp_at(27.0) < p.kp_at(-33.0)

    def test_kp_nominal_unchanged(self):
        assert NMOS_DEFAULT.kp_at(27.0) == pytest.approx(NMOS_DEFAULT.kp)

    def test_vth_falls_with_temperature(self):
        p = NMOS_DEFAULT
        assert p.vth_at(87.0) < p.vth_at(27.0) < p.vth_at(-33.0)

    def test_vth_clamped_positive(self):
        p = NMOS_DEFAULT.with_(vth0=0.06, vth_tc=-1e-2)
        assert p.vth_at(200.0) == pytest.approx(0.05)

    def test_with_replaces_fields(self):
        p = NMOS_DEFAULT.with_(vth0=0.7)
        assert p.vth0 == 0.7
        assert p.kp == NMOS_DEFAULT.kp


class TestRegions:
    def test_off_below_threshold(self):
        m = _nmos()
        # Deep subthreshold: orders below on-current
        i_off = m.ids(vgs=0.0, vds=1.0)
        i_on = m.ids(vgs=2.0, vds=1.0)
        assert i_off < i_on * 1e-6

    def test_subthreshold_exponential(self):
        m = _nmos()
        i1 = m.ids(vgs=0.30, vds=1.0)
        i2 = m.ids(vgs=0.20, vds=1.0)
        assert i1 / i2 > 5.0   # decade-ish per ~100 mV at n=1.5

    def test_triode_linear_in_small_vds(self):
        m = _nmos()
        i1 = m.ids(vgs=2.0, vds=0.01)
        i2 = m.ids(vgs=2.0, vds=0.02)
        assert i2 / i1 == pytest.approx(2.0, rel=0.02)

    def test_saturation_weakly_depends_on_vds(self):
        m = _nmos(params=NMOS_DEFAULT.with_(lam=0.0))
        i1 = m.ids(vgs=1.5, vds=1.5)
        i2 = m.ids(vgs=1.5, vds=2.5)
        assert i2 == pytest.approx(i1, rel=1e-6)

    def test_channel_length_modulation(self):
        m = _nmos()
        i1 = m.ids(vgs=1.5, vds=1.5)
        i2 = m.ids(vgs=1.5, vds=2.5)
        assert i2 > i1

    def test_square_law_in_overdrive(self):
        m = _nmos(params=NMOS_DEFAULT.with_(lam=0.0))
        i1 = m.ids(vgs=NMOS_DEFAULT.vth0 + 0.5, vds=3.0)
        i2 = m.ids(vgs=NMOS_DEFAULT.vth0 + 1.0, vds=3.0)
        assert i2 / i1 == pytest.approx(4.0, rel=0.05)

    def test_width_scaling(self):
        i1 = _nmos(w=1e-6).ids(2.0, 1.0)
        i2 = _nmos(w=2e-6).ids(2.0, 1.0)
        assert i2 / i1 == pytest.approx(2.0, rel=1e-9)

    def test_continuity_at_saturation_edge(self):
        params = NMOS_DEFAULT
        w_over_l = 4.0
        vgs = 1.5
        veff = vgs - params.vth0
        i_lo, _, _ = mosfet_curves(params, w_over_l, vgs, veff - 1e-6,
                                   27.0)
        i_hi, _, _ = mosfet_curves(params, w_over_l, vgs, veff + 1e-6,
                                   27.0)
        assert i_lo == pytest.approx(i_hi, rel=1e-4)


class TestSymmetryAndPolarity:
    def test_source_drain_swap_antisymmetric(self):
        m = _nmos()
        # Swap the physical terminals (vg = 2.0 fixed): (vd, vs) = (1, 0)
        # gives vgs = 2, vds = 1; swapped (vd, vs) = (0, 1) gives vgs = 1,
        # vds = -1 and the same magnitude of current, reversed.
        i_fwd = m.ids(vgs=2.0, vds=1.0)
        i_rev = m.ids(vgs=1.0, vds=-1.0)
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_pmos_mirrors_nmos_shape(self):
        m = _pmos()
        i = m.ids(vgs=-2.0, vds=-1.0)
        assert i < 0
        assert abs(i) > 1e-6

    def test_pmos_off_at_zero_vgs(self):
        m = _pmos()
        assert abs(m.ids(vgs=0.0, vds=-1.0)) < 1e-9

    def test_zero_vds_zero_current(self):
        m = _nmos()
        assert m.ids(vgs=2.0, vds=0.0) == pytest.approx(0.0, abs=1e-15)


class TestTemperature:
    def test_on_current_falls_with_temperature(self):
        m = _nmos()
        assert m.ids(2.0, 1.0, temp_c=87.0) < m.ids(2.0, 1.0, temp_c=27.0)

    def test_subthreshold_rises_with_temperature(self):
        m = _nmos()
        # Lower vth + higher vt -> more leakage at fixed low vgs.
        assert m.ids(0.2, 1.0, temp_c=87.0) > m.ids(0.2, 1.0, temp_c=27.0)

    @given(st.floats(-40.0, 120.0))
    def test_current_finite_over_temperature(self, temp):
        m = _nmos()
        i = m.ids(1.5, 1.0, temp_c=temp)
        assert math.isfinite(i)
        assert i >= 0.0


class TestGeometryValidation:
    def test_rejects_bad_geometry(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            Mosfet("M", c.node("d"), c.node("g"), c.node("s"),
                   NMOS_DEFAULT, w=0.0)

    @given(st.floats(0.5, 3.0), st.floats(0.05, 3.5))
    def test_monotone_in_vgs(self, vgs_base, dv):
        m = _nmos()
        assert m.ids(vgs_base + dv, 1.0) >= m.ids(vgs_base, 1.0)


class TestDrainCurrentOnly:
    """:func:`mosfet_ids` is bitwise the ``ids`` of :func:`mosfet_curves`."""

    _TECH = default_tech()

    @given(params=st.sampled_from([_TECH.access_params, _TECH.nmos,
                                   _TECH.pmos]),
           w_over_l=st.floats(0.01, 20.0),
           vgs=st.floats(-5.0, 5.0), vds=st.floats(0.0, 5.0),
           temp_c=st.floats(-40.0, 150.0))
    @example(params=_TECH.access_params, w_over_l=0.0583, vgs=5.0,
             vds=0.1, temp_c=27.0)        # triode, softplus clamp u > 60
    @example(params=_TECH.access_params, w_over_l=0.0583, vgs=-5.0,
             vds=1.0, temp_c=27.0)        # clamp u < -60: no current
    @example(params=_TECH.nmos, w_over_l=4.0, vgs=0.8, vds=2.5,
             temp_c=-40.0)                # saturation, softplus core
    @example(params=_TECH.pmos, w_over_l=8.0, vgs=0.4, vds=0.0,
             temp_c=150.0)                # near threshold, vds = 0
    def test_equals_mosfet_curves_ids(self, params, w_over_l, vgs, vds,
                                      temp_c):
        want = mosfet_curves(params, w_over_l, vgs, vds, temp_c)[0]
        got = mosfet_ids(params.kp_at(temp_c) * w_over_l,
                         params.n_ss * thermal_voltage(temp_c),
                         params.vth_at(temp_c), params.lam, vgs, vds)
        assert got.hex() == want.hex()
