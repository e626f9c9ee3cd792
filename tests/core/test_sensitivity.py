"""Border-sensitivity analysis."""

import pytest

from repro.behav import behavioral_model
from repro.core import (
    NOMINAL_STRESS,
    STRESS_RANGES,
    StressKind,
    find_border_resistance,
)
from repro.core.sensitivity import (
    SensitivityReport,
    StressSensitivity,
    stress_sensitivity,
)
from repro.defects import Defect, DefectKind


def _factory(defect, stress):
    return behavioral_model(defect, stress=stress)


@pytest.fixture(scope="module")
def o3_report():
    return stress_sensitivity(_factory, Defect(DefectKind.O3),
                              kinds=(StressKind.TCYC, StressKind.VDD,
                                     StressKind.TEMP))


class TestSensitivityValues:
    def test_all_defined_for_open(self, o3_report):
        for s in o3_report.sensitivities.values():
            assert s.defined, s.kind

    def test_tcyc_sensitivity_positive(self, o3_report):
        """Longer cycles raise the border of the open (less failing)."""
        s = o3_report.sensitivities[StressKind.TCYC]
        assert s.normalised > 0

    def test_vdd_sensitivity_positive(self, o3_report):
        s = o3_report.sensitivities[StressKind.VDD]
        assert s.normalised > 0

    def test_directions_match_optimizer(self, o3_report):
        """favours_high/low must agree with Table 1 direction calls."""
        assert o3_report.sensitivities[StressKind.TCYC].favours_high \
            is False          # tcyc ↓
        assert o3_report.sensitivities[StressKind.VDD].favours_high \
            is False          # vdd ↓
        assert o3_report.sensitivities[StressKind.TEMP].favours_high \
            is True           # T ↑

    def test_ranked_by_magnitude(self, o3_report):
        ranked = o3_report.ranked()
        mags = [abs(s.normalised) for s in ranked]
        assert mags == sorted(mags, reverse=True)

    def test_render_lists_axes(self, o3_report):
        text = o3_report.render()
        for kind in (StressKind.TCYC, StressKind.VDD, StressKind.TEMP):
            assert kind.value in text


class TestUndefinedHandling:
    def test_undefined_sensitivity(self):
        s = StressSensitivity(StressKind.VDD, Defect(DefectKind.O3),
                              None, 2e5, 1e5)
        assert not s.defined
        assert s.normalised is None
        assert s.favours_high is None
        assert "not found" in s.describe()

    def test_report_skips_undefined_in_ranking(self):
        rep = SensitivityReport(Defect(DefectKind.O3), {
            StressKind.VDD: StressSensitivity(
                StressKind.VDD, Defect(DefectKind.O3), None, 2e5, 1e5),
            StressKind.TCYC: StressSensitivity(
                StressKind.TCYC, Defect(DefectKind.O3), 1e5, 2e5, 3e5),
        })
        assert len(rep.ranked()) == 1


class TestShortPolarity:
    def test_short_favours_follow_border_growth(self):
        rep = stress_sensitivity(_factory, Defect(DefectKind.SG),
                                 kinds=(StressKind.TEMP,))
        s = rep.sensitivities[StressKind.TEMP]
        if s.defined:
            # Table 1: T ↑ for Sg; its border (fails-low) must grow hot
            assert s.favours_high is True


class TestSeededSearches:
    @pytest.mark.parametrize("kind", [DefectKind.O3, DefectKind.SG])
    def test_borders_equal_unseeded_searches(self, kind):
        """The nominal BR seeds each ST's low and high search; every
        border equals a search from scratch, bit for bit."""
        defect = Defect(kind)
        report = stress_sensitivity(_factory, defect)
        model = _factory(defect, NOMINAL_STRESS)

        def bits(r):
            return None if r is None else r.hex()

        def fresh(sc):
            return bits(find_border_resistance(model, defect, stress=sc,
                                               rel_tol=0.04,
                                               prior=None).resistance)

        assert len(report.sensitivities) == len(StressKind)
        for st, s in report.sensitivities.items():
            rng = STRESS_RANGES[st]
            assert bits(s.br_nominal) == fresh(NOMINAL_STRESS)
            assert bits(s.br_low) == fresh(
                NOMINAL_STRESS.with_value(st, rng.low)), st
            assert bits(s.br_high) == fresh(
                NOMINAL_STRESS.with_value(st, rng.high)), st
