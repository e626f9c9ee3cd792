"""Monte-Carlo robustness of the direction calls."""

import pytest

from repro.behav import behavioral_model
from repro.core import NOMINAL_STRESS, StressKind, find_border_resistance
from repro.core import montecarlo
from repro.core.montecarlo import (
    DirectionRobustness,
    VariationSpec,
    _mc_sample,
    direction_robustness,
)
from repro.defects import Defect, DefectKind
from repro.diagnostics import reset_diagnostics
from repro.dram.tech import default_tech

import numpy as np


def _factory(defect, stress, tech):
    return behavioral_model(defect, stress=stress, tech=tech)


class Boom(RuntimeError):
    """A sample failure the study has no special name for."""


def _booming_factory(defect, stress, tech):
    """Builds the unperturbed reference; raises on every sample."""
    if tech != default_tech():
        raise Boom("perturbed technology")
    return _factory(defect, stress, tech)


class TestVariationSpec:
    def test_sampling_deterministic_per_seed(self):
        spec = VariationSpec()
        t1 = spec.sample(default_tech(), np.random.default_rng(7))
        t2 = spec.sample(default_tech(), np.random.default_rng(7))
        assert t1.cs == t2.cs
        assert t1.nmos.vth0 == t2.nmos.vth0

    def test_sampling_actually_varies(self):
        spec = VariationSpec()
        rng = np.random.default_rng(7)
        t1 = spec.sample(default_tech(), rng)
        t2 = spec.sample(default_tech(), rng)
        assert t1.cs != t2.cs

    def test_clamps_keep_parameters_physical(self):
        spec = VariationSpec(vth_sigma=3.0, cap_sigma=3.0,
                             offset_sigma=3.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = spec.sample(default_tech(), rng)
            assert t.nmos.vth0 >= 0.1
            assert t.cs > 0
            assert t.v_ref_offset >= 0.01


class TestRobustnessReport:
    @pytest.fixture(scope="class")
    def report(self):
        return direction_robustness(_factory, Defect(DefectKind.O3),
                                    kinds=(StressKind.TCYC,),
                                    samples=4, seed=11)

    def test_sample_accounting(self, report):
        rob = report.robustness[StressKind.TCYC]
        assert rob.samples == 4

    def test_tcyc_direction_robust(self, report):
        """The timing mechanism is first-order RC — variation must not
        flip it."""
        rob = report.robustness[StressKind.TCYC]
        assert rob.confidence >= 0.75

    def test_border_samples_recorded(self, report):
        assert len(report.border_samples) >= 3
        for border in report.border_samples:
            assert 3e4 < border < 3e6

    def test_render(self, report):
        text = report.render()
        assert "Monte-Carlo" in text
        assert "tcyc" in text

    def test_reproducible_across_runs(self):
        a = direction_robustness(_factory, Defect(DefectKind.O3),
                                 kinds=(StressKind.TCYC,), samples=3,
                                 seed=5)
        b = direction_robustness(_factory, Defect(DefectKind.O3),
                                 kinds=(StressKind.TCYC,), samples=3,
                                 seed=5)
        assert a.border_samples == b.border_samples


def _bits(border):
    r = border.resistance
    return (None if r is None else r.hex(), border.always_faulty,
            border.never_faulty)


class TestSeededSamples:
    def test_seeded_borders_equal_unseeded(self, monkeypatch):
        """Each sample's nominal border seeds both ST extremes'
        searches, in the study and in one sample run on its own; every
        seeded border equals a search from scratch, bit for bit."""
        seeded = []

        def recording(model, defect, *, prior=None, **kwargs):
            border = find_border_resistance(model, defect, prior=prior,
                                            **kwargs)
            if prior is not None:
                seeded.append((model, kwargs, prior, border))
            return border

        monkeypatch.setattr(montecarlo, "find_border_resistance",
                            recording)
        defect = Defect(DefectKind.O3)
        kinds = tuple(StressKind)
        report = direction_robustness(_factory, defect, kinds=kinds,
                                      samples=2, seed=11)
        tech = VariationSpec().sample(default_tech(),
                                      np.random.default_rng(3))
        task_border, _ = _mc_sample(
            tech, model_factory=_factory, defect=defect,
            base=NOMINAL_STRESS, kinds=kinds, rel_tol=0.08,
            on_error="raise")

        assert len(seeded) == 3 * len(kinds) * 2
        assert {prior for _, _, prior, _ in seeded} == \
            set(report.border_samples) | {task_border}
        for model, kwargs, _, border in seeded:
            fresh = find_border_resistance(model, defect, prior=None,
                                           **kwargs)
            assert _bits(border) == _bits(fresh), kwargs["stress"]


class TestIsolatedSamples:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_keep_their_kind_at_every_worker_count(self,
                                                            workers):
        """A dropped sample is recorded under its exception's type
        wherever it ran, in-process or in a pool worker."""
        diag = reset_diagnostics()
        report = direction_robustness(
            _booming_factory, Defect(DefectKind.O3),
            kinds=(StressKind.VDD,), samples=3, seed=5, workers=workers,
            on_error="isolate")
        assert report.failed_samples == 3
        assert not report.border_samples
        assert diag.failure_kinds == {"Boom": 3}


class TestDirectionRobustnessMath:
    def test_confidence_with_undecided(self):
        rob = DirectionRobustness(StressKind.VDD, 2.1, agree=3,
                                  disagree=1, undecided=2)
        assert rob.samples == 6
        assert rob.confidence == pytest.approx(0.75)

    def test_confidence_all_undecided(self):
        rob = DirectionRobustness(StressKind.VDD, 2.1, undecided=4)
        assert rob.confidence == 0.0
