"""Electrical column operation — integration tests of the full stack.

These drive real SPICE-level cycles (~0.15 s each), so they are kept
focused; the broad behavioural coverage lives in the behavioral-model
tests plus the agreement suite.
"""

import pytest

from repro.experiments.figures import FIG6_STRESS
from repro.stress import NOMINAL_STRESS
from repro.dram import ColumnRunner
from repro.dram.column import DefectSite
from repro.dram.runner import ArrayRunner


class TestHealthyOperation:
    def test_write_read_both_values(self, healthy_runner):
        seq = healthy_runner.run_sequence("w1 r1 w0 r0", init_vc=0.0)
        assert not seq.any_fault
        assert seq.outputs == [None, 1, None, 0]

    def test_write1_charges_cell(self, healthy_runner):
        seq = healthy_runner.run_sequence("w1", init_vc=0.0)
        assert seq.vc_after[0] > 2.0

    def test_write0_discharges_cell(self, healthy_runner):
        seq = healthy_runner.run_sequence("w0", init_vc=2.4)
        assert seq.vc_after[0] < 0.2

    def test_read_restores_value(self, healthy_runner):
        seq = healthy_runner.run_sequence("w1 r1", init_vc=0.0)
        # write-back during the read keeps the cell high
        assert seq.vc_after[1] > 2.0

    def test_nop_preserves_state(self, healthy_runner):
        seq = healthy_runner.run_sequence("w1 nop r1", init_vc=0.0)
        assert not seq.any_fault


class TestComplementaryCell:
    def test_comp_cell_logical_roundtrip(self):
        r = ColumnRunner(target_cell=1)
        seq = r.run_sequence("w1 r1 w0 r0", init_vc=2.4)
        assert not seq.any_fault

    def test_comp_cell_stores_inverted_level(self):
        r = ColumnRunner(target_cell=1)
        seq = r.run_sequence("w1", init_vc=2.4)
        # logical 1 on the complementary line is a low stored voltage
        assert seq.vc_after[0] < 0.3


class TestDefectiveOperation:
    def test_strong_open_reads_one_despite_zero(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 5e6))
        seq = r.run_sequence("r", init_vc=0.0)
        assert seq.outputs[0] == 1

    def test_weak_open_behaves_healthy(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 100.0))
        seq = r.run_sequence("w1 r1 w0 r0", init_vc=0.0)
        assert not seq.any_fault

    def test_two_writes_charge_more_than_one(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 200e3))
        seq = r.run_sequence("w1 w1", init_vc=0.0)
        assert seq.vc_after[1] > seq.vc_after[0] + 0.3

    def test_resistance_sweep_changes_outcome(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 100.0))
        assert not r.run_sequence("w1 w1 w0 r0", init_vc=0.0).any_fault
        r.set_defect_resistance(1e6)
        assert r.run_sequence("w1 w1 w0 r0", init_vc=0.0).any_fault


class TestStressKnobs:
    def test_shorter_tcyc_weakens_write(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 200e3))
        r.set_stress(NOMINAL_STRESS)
        vc_60 = r.run_sequence("w0", init_vc=2.4).vc_after[0]
        r.set_stress(NOMINAL_STRESS.with_(tcyc=55e-9))
        vc_55 = r.run_sequence("w0", init_vc=2.4).vc_after[0]
        assert vc_55 > vc_60

    def test_lower_duty_weakens_write(self):
        r = ColumnRunner(defect=DefectSite("open_sn", 0, 200e3))
        r.set_stress(NOMINAL_STRESS.with_(duty=0.40))
        vc_lo = r.run_sequence("w0", init_vc=2.4).vc_after[0]
        r.set_stress(NOMINAL_STRESS.with_(duty=0.60))
        vc_hi = r.run_sequence("w0", init_vc=2.4).vc_after[0]
        assert vc_lo > vc_hi

    def test_record_keeps_traces(self):
        r = ColumnRunner(record=True)
        seq = r.run_sequence("r", init_vc=2.4)
        res = seq.results[0]
        assert res.times is not None
        assert len(res.vc) == len(res.times)
        assert "blt" in res.extra


class TestStateHandling:
    def test_idle_state_sets_target(self):
        r = ColumnRunner()
        state = r.idle_state(1.3)
        assert state["sn0"] == pytest.approx(1.3)
        assert state["blt"] == pytest.approx(1.2)

    def test_background_data_applied(self):
        r = ColumnRunner()
        state = r.idle_state(0.0, background=1)
        assert state["sn2"] == pytest.approx(2.4)   # true cell stores 1
        assert state["sn1"] == pytest.approx(0.0)   # comp cell inverted


def _bits(seq):
    return [(r.vc_end.hex(), r.sensed) for r in seq.results]


def _column(resistance=200e3, stress=NOMINAL_STRESS):
    return ColumnRunner(defect=DefectSite("open_sn", 0, resistance),
                        stress=stress)


def _array(resistance=200e3, stress=NOMINAL_STRESS):
    return ArrayRunner(defect=DefectSite("open_sn", 0, resistance),
                       stress=stress, geometry=(2, 2), trim="off")


def _simulated(runner) -> list[str]:
    """The ops ``runner`` simulates from now on, in order."""
    simulated = []
    run_op = runner.run_op

    def counted(op, state):
        simulated.append(str(op))
        return run_op(op, state)

    runner.run_op = counted
    return simulated


class TestPrefixMemo:
    """``run_sequence`` resumes from the longest prefix already simulated
    at the current resistance and SC, bit for bit a fresh run."""

    def test_shared_first_write_is_not_simulated_again(self):
        expected = _bits(_column().run_sequence("w1^6 w0 r0 r0",
                                                init_vc=0.0))
        runner = _column()
        runner.run_sequence("w1 r1 r1 r1", init_vc=0.0)
        simulated = _simulated(runner)
        got = runner.run_sequence("w1^6 w0 r0 r0", init_vc=0.0)
        assert _bits(got) == expected
        assert simulated == ["w1"] * 5 + ["w0", "r0", "r0"]

    @pytest.mark.parametrize("make, ops, init_vc",
                             [(_column, "w1 r1", 0.0),
                              (_array, "r nop r", 2.4)],
                             ids=["column", "array"])
    def test_restaging_invalidates_the_memo(self, make, ops, init_vc):
        stagings = [(200e3, NOMINAL_STRESS), (1e6, NOMINAL_STRESS),
                    (200e3, NOMINAL_STRESS), (200e3, FIG6_STRESS),
                    (200e3, NOMINAL_STRESS)]
        fresh = {staging: _bits(make(*staging).run_sequence(
            ops, init_vc=init_vc)) for staging in set(stagings)}
        assert len(set(map(tuple, fresh.values()))) == 3
        runner = make()
        for resistance, stress in stagings:
            runner.set_defect_resistance(resistance)
            runner.set_stress(stress)
            got = runner.run_sequence(ops, init_vc=init_vc)
            assert _bits(got) == fresh[(resistance, stress)], \
                (resistance, stress)

    def test_equal_restaging_keeps_the_system_and_the_memo(self):
        runner = _column()
        runner.run_sequence("w1", init_vc=0.0)
        system = runner._system
        runner.set_defect_resistance(200e3)
        runner.set_stress(NOMINAL_STRESS.with_(vdd=2.4))
        simulated = _simulated(runner)
        runner.run_sequence("w1", init_vc=0.0)
        assert runner._system is system
        assert simulated == []
