"""Behavioral column model: interface parity and physics sanity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.behav import BehavCalibration, behavioral_model
from repro.defects import Defect, DefectKind, Placement
from repro.diagnostics import diagnostics
from repro.experiments.figures import FIG6_STRESS
from repro.stress import NOMINAL_STRESS


@pytest.fixture
def o3():
    return behavioral_model(Defect(DefectKind.O3, resistance=200e3))


class TestHealthyBehaviour:
    def test_roundtrip_both_values(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=10.0))
        seq = model.run_sequence("w1 r1 w0 r0", init_vc=0.0)
        assert not seq.any_fault

    def test_write1_charges(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=10.0))
        assert model.run_sequence("w1", init_vc=0.0).vc_after[0] > 2.0

    def test_nop_roughly_preserves(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=10.0))
        seq = model.run_sequence("w1 nop nop r1", init_vc=0.0)
        assert not seq.any_fault

    def test_no_defect_column(self):
        model = behavioral_model(None)
        seq = model.run_sequence("w1 r1 w0 r0", init_vc=0.0)
        assert not seq.any_fault

    def test_set_resistance_without_defect_raises(self):
        model = behavioral_model(None)
        with pytest.raises(ValueError):
            model.set_defect_resistance(1e5)


class TestDefectPhysics:
    def test_open_slows_write(self, o3):
        vc_weak = o3.run_sequence("w1", init_vc=0.0).vc_after[0]
        o3.set_defect_resistance(10.0)
        vc_strong = o3.run_sequence("w1", init_vc=0.0).vc_after[0]
        assert vc_weak < vc_strong - 0.3

    def test_strong_open_reads_one(self, o3):
        o3.set_defect_resistance(20e6)
        assert o3.run_sequence("r", init_vc=0.0).outputs[0] == 1

    def test_short_gnd_drains_one(self):
        model = behavioral_model(Defect(DefectKind.SG, resistance=3e4))
        seq = model.run_sequence("w1 nop nop r1", init_vc=0.0)
        assert seq.any_fault

    def test_short_vdd_pulls_zero_up(self):
        model = behavioral_model(Defect(DefectKind.SV, resistance=3e4))
        seq = model.run_sequence("w0 nop nop r0", init_vc=2.4)
        assert seq.any_fault

    def test_bridge_bl_pulls_toward_precharge(self):
        model = behavioral_model(Defect(DefectKind.B1, resistance=2e4))
        seq = model.run_sequence("w1 nop nop nop", init_vc=0.0)
        # the bridge drags the stored 1 toward the precharge level
        assert seq.vc_after[-1] < 1.8

    def test_gate_open_blocks_access(self):
        model = behavioral_model(Defect(DefectKind.O2, resistance=1e9))
        seq = model.run_sequence("w1", init_vc=0.0)
        assert seq.vc_after[0] < 1.0

    def test_gate_open_weak_is_fine(self):
        model = behavioral_model(Defect(DefectKind.O2, resistance=1e3))
        seq = model.run_sequence("w1 r1 w0 r0", init_vc=0.0)
        assert not seq.any_fault


class TestStressResponse:
    def test_shorter_tcyc_weakens_write(self, o3):
        o3.set_stress(NOMINAL_STRESS)
        v60 = o3.run_sequence("w0", init_vc=2.4).vc_after[0]
        o3.set_stress(NOMINAL_STRESS.with_(tcyc=55e-9))
        v55 = o3.run_sequence("w0", init_vc=2.4).vc_after[0]
        assert v55 > v60

    def test_hot_weakens_write(self, o3):
        o3.set_stress(NOMINAL_STRESS.with_(temp_c=87.0))
        hot = o3.run_sequence("w0", init_vc=2.4).vc_after[0]
        o3.set_stress(NOMINAL_STRESS.with_(temp_c=-33.0))
        cold = o3.run_sequence("w0", init_vc=2.4).vc_after[0]
        assert hot > cold

    def test_higher_vdd_weakens_w0(self, o3):
        o3.set_stress(NOMINAL_STRESS.with_(vdd=2.7))
        hi = o3.run_sequence("w0", init_vc=2.7).vc_after[0]
        o3.set_stress(NOMINAL_STRESS.with_(vdd=2.1))
        lo = o3.run_sequence("w0", init_vc=2.1).vc_after[0]
        assert hi > lo


class TestComplementaryPlacement:
    def test_logical_roundtrip(self):
        model = behavioral_model(
            Defect(DefectKind.O3, Placement.COMP, 10.0))
        seq = model.run_sequence("w1 r1 w0 r0", init_vc=2.4)
        assert not seq.any_fault

    def test_inverted_storage(self):
        model = behavioral_model(
            Defect(DefectKind.O3, Placement.COMP, 10.0))
        seq = model.run_sequence("w1", init_vc=2.4)
        assert seq.vc_after[0] < 0.3


class TestCalibration:
    def test_latch_delay_grows_with_temperature(self):
        cal = BehavCalibration()
        assert cal.delay_at(87.0) > cal.delay_at(27.0) > cal.delay_at(-33.0)

    def test_custom_calibration_changes_threshold(self):
        from repro.analysis import sense_threshold
        fast = behavioral_model(Defect(DefectKind.O3, resistance=200e3),
                                calibration=BehavCalibration(0.5e-9, 0.9))
        slow = behavioral_model(Defect(DefectKind.O3, resistance=200e3),
                                calibration=BehavCalibration(8e-9, 0.9))
        v_fast = sense_threshold(fast)
        v_slow = sense_threshold(slow)
        assert v_fast != pytest.approx(v_slow, abs=0.005)


class TestProperties:
    @given(st.floats(0.0, 2.4))
    @settings(max_examples=20, deadline=None)
    def test_w1_moves_cell_up(self, init):
        model = behavioral_model(Defect(DefectKind.O3, resistance=300e3))
        out = model.run_sequence("w1", init_vc=init).vc_after[0]
        assert out >= init - 0.25   # small leak/tail slack

    @given(st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_successive_w1_monotone(self, n):
        model = behavioral_model(Defect(DefectKind.O3, resistance=300e3))
        seq = model.run_sequence(["w1"] * n, init_vc=0.0)
        levels = seq.vc_after
        assert all(b >= a - 1e-6 for a, b in zip(levels, levels[1:]))

    @given(st.floats(5e4, 5e6))
    @settings(max_examples=20, deadline=None)
    def test_single_write_residual_monotone_in_r(self, r):
        model = behavioral_model(Defect(DefectKind.O3, resistance=r))
        vc_r = model.run_sequence("w0", init_vc=2.4).vc_after[0]
        model.set_defect_resistance(r * 2)
        vc_2r = model.run_sequence("w0", init_vc=2.4).vc_after[0]
        assert vc_2r >= vc_r - 1e-6


def _bits(seq):
    return [(r.vc_end.hex(), r.sensed) for r in seq.results]


#: Operation strings over every token the models accept.
_OPS = st.lists(st.sampled_from(["w0", "w1", "r", "r0", "r1", "nop"]),
                min_size=1, max_size=5)


class TestPrefixMemo:
    """``run_sequence`` resumes from the longest prefix it already
    simulated at the current resistance and SC, bit for bit a fresh
    run."""

    def test_shared_first_write_is_not_simulated_again(self, o3):
        fresh = behavioral_model(Defect(DefectKind.O3, resistance=200e3))
        expected = _bits(fresh.run_sequence("w1^6 w0 r0 r0", init_vc=0.0))
        o3.run_sequence("w1 r1 r1 r1", init_vc=0.0)
        before = diagnostics().counts.get("sequence.reused_cycles", 0)
        got = o3.run_sequence("w1^6 w0 r0 r0", init_vc=0.0)
        assert diagnostics().counts["sequence.reused_cycles"] - before == 1
        assert _bits(got) == expected
        assert [str(r.op) for r in got.results] == \
            ["w1"] * 6 + ["w0", "r0", "r0"]

    def test_restaging_invalidates_the_memo(self, o3):
        ops = "w1 w1 w0 r0 r0"

        def fresh(resistance, stress):
            model = behavioral_model(
                Defect(DefectKind.O3, resistance=resistance), stress=stress)
            return _bits(model.run_sequence(ops, init_vc=0.0))

        assert _bits(o3.run_sequence(ops, init_vc=0.0)) == \
            fresh(200e3, NOMINAL_STRESS)
        o3.set_defect_resistance(300e3)
        assert _bits(o3.run_sequence(ops, init_vc=0.0)) == \
            fresh(300e3, NOMINAL_STRESS)
        o3.set_defect_resistance(200e3)
        assert _bits(o3.run_sequence(ops, init_vc=0.0)) == \
            fresh(200e3, NOMINAL_STRESS)
        o3.set_stress(FIG6_STRESS)
        assert _bits(o3.run_sequence(ops, init_vc=0.0)) == \
            fresh(200e3, FIG6_STRESS)
        o3.set_stress(NOMINAL_STRESS)
        assert _bits(o3.run_sequence(ops, init_vc=0.0)) == \
            fresh(200e3, NOMINAL_STRESS)

    def test_restaging_an_equal_value_keeps_the_memo(self, o3):
        o3.run_sequence("w1 r1", init_vc=0.0)
        o3.set_defect_resistance(200e3)
        o3.set_stress(NOMINAL_STRESS.with_(vdd=2.4))
        before = diagnostics().counts.get("sequence.reused_cycles", 0)
        o3.run_sequence("w1 r1", init_vc=0.0)
        assert diagnostics().counts["sequence.reused_cycles"] - before == 2

    @given(st.lists(_OPS, min_size=1, max_size=4),
           _OPS,
           st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.2, 2.4]),
                              st.floats(-0.2, 2.7)),
                    min_size=1, max_size=2),
           st.integers(0, 1),
           st.sampled_from([DefectKind.O2, DefectKind.O3, DefectKind.SG,
                            DefectKind.B1]))
    @settings(max_examples=40, deadline=None)
    def test_memoized_runs_equal_fresh_runs(self, tails, stem, inits,
                                            background, kind):
        """Sequences sharing a stem, from a few initial voltages, on one
        reused model equal a fresh model's runs bit for bit."""
        defect = Defect(kind, resistance=150e3)
        memo = behavioral_model(defect)
        before = diagnostics().counts.get("sequence.reused_cycles", 0)
        for tail in tails:
            for ops in (stem + tail, stem, tail):
                for init_vc in inits:
                    want = behavioral_model(defect).run_sequence(
                        ops, init_vc=init_vc, background=background)
                    got = memo.run_sequence(ops, init_vc=init_vc,
                                            background=background)
                    assert _bits(got) == _bits(want), (ops, init_vc)
                    assert [r.op for r in got.results] == \
                        [r.op for r in want.results]
        # ``stem`` alone always replays the first ``stem + tail``.
        assert diagnostics().counts["sequence.reused_cycles"] > before
