"""Technology parameter derivations."""

import pytest

from repro.dram.tech import TechnologyParams, default_tech


class TestLevels:
    def test_vpp_tracks_supply(self):
        tech = default_tech()
        assert tech.vpp(2.4) == pytest.approx(2.4 + tech.vpp_boost)
        assert tech.vpp(2.1) == pytest.approx(2.1 + tech.vpp_boost)

    def test_precharge_is_half_vdd(self):
        tech = default_tech()
        assert tech.vbl_pre(2.4) == pytest.approx(1.2)

    def test_reference_below_precharge(self):
        tech = default_tech()
        assert tech.v_ref(2.4) < tech.vbl_pre(2.4)

    def test_reference_offset_nominal(self):
        tech = default_tech()
        offset = tech.vbl_pre(2.4) - tech.v_ref(2.4, 27.0)
        assert offset == pytest.approx(tech.v_ref_offset)


class TestReferenceTracking:
    def test_flat_above_room_temperature(self):
        tech = default_tech()
        assert tech.v_ref(2.4, 87.0) == pytest.approx(
            tech.v_ref(2.4, 27.0))

    def test_tracks_up_below_room_temperature(self):
        """Colder -> higher reference level (smaller offset)."""
        tech = default_tech()
        assert tech.v_ref(2.4, -33.0) > tech.v_ref(2.4, 27.0)

    def test_offset_never_collapses(self):
        tech = default_tech().with_(v_ref_tc=1.0)   # absurd tracking
        assert tech.v_ref(2.4, -33.0) < tech.vbl_pre(2.4)


class TestDerivedDevices:
    def test_access_device_raised_threshold(self):
        tech = default_tech()
        assert tech.access_params.vth0 == tech.access_vth0
        assert tech.access_params.vth0 > tech.nmos.vth0

    def test_access_device_stronger_mu_exponent(self):
        tech = default_tech()
        assert tech.access_params.mu_exp < tech.nmos.mu_exp

    def test_sa_devices_milder_mu_exponent(self):
        tech = default_tech()
        assert tech.sa_nmos.mu_exp > tech.nmos.mu_exp
        assert tech.sa_pmos.mu_exp > tech.pmos.mu_exp

    def test_derived_devices_built_once_per_tech(self):
        tech = TechnologyParams()
        assert tech.access_params is tech.access_params
        assert tech.sa_nmos is tech.sa_nmos
        assert tech.sa_pmos is tech.sa_pmos
        # A modified copy derives its own devices, not its parent's.
        other = tech.with_(access_vth0=0.7, sa_mu_exp_n=-0.8)
        assert other.access_params.vth0 == 0.7
        assert other.sa_nmos.mu_exp == -0.8
        assert tech.access_params.vth0 == tech.access_vth0
        # The cached devices take no part in equality or hashing.
        fresh = tech.with_(access_vth0=0.7, sa_mu_exp_n=-0.8)
        assert other == fresh and hash(other) == hash(fresh)

    def test_with_returns_modified_copy(self):
        tech = default_tech()
        other = tech.with_(cs=99e-15)
        assert other.cs == 99e-15
        assert tech.cs != 99e-15

    def test_default_shared_instance(self):
        assert default_tech() is default_tech()
