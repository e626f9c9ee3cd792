"""SurrogateTier policy: modes, counters, serving, active registry."""

import dataclasses

import pytest

from repro.analysis.border import BorderResult
from repro.defects import Defect, DefectKind
from repro.dram.tech import default_tech
from repro.engine.cache import EngineStats
from repro.stress import NOMINAL_STRESS, StressKind
from repro.surrogate import seeds
from repro.surrogate.tier import (DEFAULT_BR_SIGMA_BOUND, SurrogateTier,
                                  active_tier, resolve_tier,
                                  set_active_tier)


@pytest.fixture
def defect():
    return Defect(DefectKind.O3, resistance=200e3)


@pytest.fixture
def stats():
    return EngineStats()


def _border(r=1.5e5):
    return BorderResult(r, True, always_faulty=False, never_faulty=False,
                        r_lo=1e3, r_hi=1e7)


class TestModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown surrogate mode"):
            SurrogateTier("turbo")

    def test_enabled_and_serves(self):
        assert not SurrogateTier("off").enabled
        assert SurrogateTier("prior").enabled
        assert not SurrogateTier("prior").serves
        assert SurrogateTier("serve").serves

    def test_prior_view_demotes_but_shares_state(self, stats):
        tier = SurrogateTier("serve", stats=stats)
        view = tier.prior_view()
        assert view is not tier
        assert view.mode == "prior" and tier.mode == "serve"
        assert view.journal is tier.journal
        assert view.stats() is stats
        # non-serve tiers need no demotion
        prior = SurrogateTier("prior")
        assert prior.prior_view() is prior


class TestRegistry:
    def test_resolve_and_registry(self, stats):
        tier = SurrogateTier("serve", stats=stats)
        previous = set_active_tier(tier)
        try:
            assert active_tier() is tier
            assert resolve_tier(None) is tier
            assert resolve_tier(False) is None
            assert resolve_tier("off") is None
            other = SurrogateTier("prior", stats=stats)
            assert resolve_tier(other) is other
            assert resolve_tier(SurrogateTier("off")) is None
            with pytest.raises(ValueError, match="surrogate policy"):
                resolve_tier("maximum")
        finally:
            set_active_tier(previous)

    def test_disabled_active_tier_resolves_to_none(self, stats):
        previous = set_active_tier(SurrogateTier("off", stats=stats))
        try:
            assert resolve_tier(None) is None
        finally:
            set_active_tier(previous)


class TestBackendGate:
    def test_backend_of(self, behav_o3):
        assert SurrogateTier.backend_of(behav_o3) == "behavioral"
        assert SurrogateTier.backend_of(object()) == "electrical"

    def test_applies_to_electrical_only(self, behav_o3, stats):
        tier = SurrogateTier("serve", stats=stats)
        assert tier.applies_to(object())
        assert not tier.applies_to(behav_o3)
        assert not SurrogateTier("off", stats=stats).applies_to(object())


class TestServeBr:
    def test_prior_mode_never_serves(self, defect, stats):
        tier = SurrogateTier("prior", stats=stats)
        assert tier.serve_br(defect, NOMINAL_STRESS) is None
        assert stats.surrogate_fallbacks == 0   # not even counted a miss

    def test_cold_tier_falls_back(self, defect, stats):
        """Seeded predictions carry SEED_SIGMA > the serve bound — a
        cold tier must route its first query to the electrical engine."""
        assert seeds.SEED_SIGMA > DEFAULT_BR_SIGMA_BOUND
        tier = SurrogateTier("serve", stats=stats)
        assert tier.serve_br(defect, NOMINAL_STRESS) is None
        assert stats.surrogate_fallbacks == 1
        assert stats.surrogate_hits == 0

    def test_exact_journal_point_serves(self, defect, stats):
        tier = SurrogateTier("serve", stats=stats)
        tier.record_br(defect, NOMINAL_STRESS, _border())
        assert stats.surrogate_refits == 1
        served = tier.serve_br(defect, NOMINAL_STRESS)
        assert served is not None
        assert served.resistance == 1.5e5
        assert served.fails_high == defect.fails_high
        assert stats.surrogate_hits == 1
        assert stats.surrogate_fallbacks == 0

    def test_record_br_dedupes_refits(self, defect, stats):
        tier = SurrogateTier("serve", stats=stats)
        tier.record_br(defect, NOMINAL_STRESS, _border())
        tier.record_br(defect, NOMINAL_STRESS, _border())
        assert stats.surrogate_refits == 1

    def test_br_prior_is_seeded_near_the_anchor(self, defect, stats):
        tier = SurrogateTier("serve", stats=stats,
                             tech=default_tech())
        prior = tier.br_prior(defect, NOMINAL_STRESS)
        assert prior is not None and prior > 0
        prediction = tier.predict_br(defect, NOMINAL_STRESS)
        assert prediction.source == "seed"

    def test_prior_view_serves_nothing_but_journals(self, defect, stats):
        tier = SurrogateTier("serve", stats=stats)
        view = tier.prior_view()
        assert view.serve_br(defect, NOMINAL_STRESS) is None
        view.record_br(defect, NOMINAL_STRESS, _border())
        # the learning landed on the shared journal: the serve tier now
        # answers the same query surrogate-only
        assert tier.serve_br(defect, NOMINAL_STRESS) is not None


class TestPriorPrecedence:
    @pytest.mark.parametrize("estimate, seeded", [(1.2e5, 1.2e5),
                                                 (None, 3.4e5)])
    def test_tier_estimate_first_then_callers_prior(
            self, defect, stats, monkeypatch, estimate, seeded):
        """Under a tier, its estimate for the queried SC seeds the
        electrical search; a caller's prior (a Table-1 row's nominal
        BR) seeds it only when the tier has no estimate."""
        import repro.core.border as core_border

        priors = []

        def search(model, *, prior, **kwargs):
            priors.append(prior)
            return _border()

        class ElectricalModel:
            backend = "electrical"

            def set_stress(self, stress):
                self.stress = stress

        monkeypatch.setattr(core_border, "border_resistance", search)
        tier = SurrogateTier("prior", stats=stats)
        monkeypatch.setattr(tier, "br_prior", lambda *a, **k: estimate)
        core_border.find_border_resistance(
            ElectricalModel(), defect, stress=NOMINAL_STRESS,
            prior=3.4e5, surrogate=tier)
        assert priors == [seeded]


class TestServeDirection:
    def test_prior_mode_never_serves(self, defect, stats):
        tier = SurrogateTier("prior", stats=stats)
        assert tier.serve_direction(defect, StressKind.TCYC, 0,
                                    base=NOMINAL_STRESS,
                                    r_probe=1e5) is None

    def test_serve_or_honest_fallback(self, defect, stats):
        """Every serve-mode direction query lands on exactly one
        counter; a served call carries a decided direction."""
        from repro.behav import behavioral_model
        from repro.analysis.detection import derive_detection_condition
        from repro.core.border import find_border_resistance
        from repro.core.optimizer import probe_resistance

        model = behavioral_model(defect)
        border = find_border_resistance(model, defect,
                                        stress=NOMINAL_STRESS,
                                        surrogate=False)
        r_probe = probe_resistance(defect, border)
        model.set_defect_resistance(r_probe)
        det = derive_detection_condition(model, r_probe)
        fault_value = det.expected if det is not None else 0

        tier = SurrogateTier("serve", stats=stats)
        for kind in (StressKind.TCYC, StressKind.DUTY):
            before = (stats.surrogate_hits, stats.surrogate_fallbacks)
            call = tier.serve_direction(defect, kind, fault_value,
                                        base=NOMINAL_STRESS,
                                        r_probe=r_probe)
            hits = stats.surrogate_hits - before[0]
            fallbacks = stats.surrogate_fallbacks - before[1]
            assert hits + fallbacks == 1
            if call is not None:
                assert hits == 1
                assert call.chosen_value is not None
            else:
                assert fallbacks == 1


class TestSeeds:
    def test_seed_guard_rejects_other_technologies(self, defect):
        assert seeds.seed_offset(defect, backend="electrical") is not None
        other = dataclasses.replace(default_tech(), vpp_boost=1.31)
        assert seeds.seed_offset(defect, backend="electrical",
                                 tech=other) is None

    def test_seed_table_covers_all_table1_defects(self):
        from repro.defects.catalog import ALL_DEFECTS
        for defect in ALL_DEFECTS:
            assert ("electrical", defect.name) in seeds.SEED_BR_OFFSETS


class TestEngineWiring:
    def test_configure_default_engine_installs_and_clears(self):
        from repro.engine.executor import (configure_default_engine,
                                           set_default_engine)
        previous_tier = active_tier()
        try:
            engine = configure_default_engine(surrogate="serve")
            tier = active_tier()
            assert tier is not None and tier.mode == "serve"
            assert tier.stats() is engine.stats
            configure_default_engine(surrogate=None)
            assert active_tier() is None
            configure_default_engine(surrogate="prior")
            assert active_tier().mode == "prior"
            configure_default_engine(surrogate="off")
            assert active_tier() is None
        finally:
            set_active_tier(previous_tier)
            set_default_engine(None)
