"""Border-resistance bisection: polarity handling and degenerate cases."""

import pytest

from repro.analysis import border_resistance
from repro.analysis.border import (DEFAULT_PROBE_SEQUENCES, BorderResult,
                                   battery_walk, default_fault_predicate)
from repro.analysis.interface import opposite_rail_init
from repro.analysis.planes import log_grid
from repro.behav import behavioral_model
from repro.defects import ALL_DEFECTS, Defect, DefectKind
from repro.dram.ops import format_ops, parse_ops
from repro.experiments.figures import FIG6_STRESS
from repro.stress import NOMINAL_STRESS


class TestMockedPredicate:
    """Pure bisection behaviour over synthetic predicates."""

    def _model(self):
        return behavioral_model(Defect(DefectKind.O3, resistance=1e5))

    def test_fails_high_threshold_recovered(self):
        threshold = 3.3e5
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e7,
            predicate=lambda r: r > threshold, rel_tol=0.02)
        assert result.found
        assert result.resistance == pytest.approx(threshold, rel=0.03)

    def test_fails_low_threshold_recovered(self):
        threshold = 7e4
        result = border_resistance(
            self._model(), fails_high=False, r_lo=1e3, r_hi=1e7,
            predicate=lambda r: r < threshold, rel_tol=0.02)
        assert result.found
        assert result.resistance == pytest.approx(threshold, rel=0.03)

    def test_always_faulty_reported(self):
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e6,
            predicate=lambda r: True)
        assert result.always_faulty
        assert not result.found
        assert result.failing_range() == (1e4, 1e6)

    def test_never_faulty_reported(self):
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e6,
            predicate=lambda r: False)
        assert result.never_faulty
        assert result.failing_range() is None

    def test_failing_range_polarity(self):
        up = BorderResult(2e5, True, False, False, 1e4, 1e6)
        down = BorderResult(2e5, False, False, False, 1e4, 1e6)
        assert up.failing_range() == (2e5, 1e6)
        assert down.failing_range() == (1e4, 2e5)

    def test_describe_mentions_direction(self):
        up = BorderResult(2e5, True, False, False, 1e4, 1e6)
        assert ">" in up.describe()
        down = BorderResult(2e5, False, False, False, 1e4, 1e6)
        assert "<" in down.describe()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            border_resistance(self._model(), fails_high=True,
                              r_lo=1e6, r_hi=1e4)


class TestRealDefects:
    def test_open_border_found(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=1e5))
        result = border_resistance(model, fails_high=True, r_lo=2e4,
                                   r_hi=5e6, rel_tol=0.05)
        assert result.found
        assert 5e4 < result.resistance < 1e6

    def test_short_border_found(self):
        model = behavioral_model(Defect(DefectKind.SG, resistance=1e5))
        result = border_resistance(model, fails_high=False, r_lo=1e3,
                                   r_hi=3e7, rel_tol=0.05)
        assert result.found
        # stronger (smaller) shorts fail
        assert result.failing_range()[0] == 1e3

    def test_true_comp_symmetric_border(self):
        from repro.defects import Placement
        rs = {}
        for placement in (Placement.TRUE, Placement.COMP):
            model = behavioral_model(
                Defect(DefectKind.O3, placement, 1e5))
            rs[placement] = border_resistance(
                model, fails_high=True, r_lo=2e4, r_hi=5e6,
                rel_tol=0.05).resistance
        assert rs[Placement.TRUE] == pytest.approx(rs[Placement.COMP],
                                                   rel=0.15)


def _exhaustive_battery(defect, stress):
    """The default battery's verdict with every sequence run (no
    short-circuit, no walk order), each probe on a fresh model."""
    battery = [parse_ops(text) for text in DEFAULT_PROBE_SEQUENCES]

    def faulty(resistance: float) -> bool:
        model = behavioral_model(defect.with_resistance(resistance),
                                 stress=stress)
        verdicts = [model.run_sequence(
            ops, init_vc=opposite_rail_init(model, ops)).any_fault
            for ops in battery]
        return any(verdicts)

    return faulty


class TestProbeBattery:
    """The battery walks its sequences shortest first; the order decides
    how many cycles a probe simulates, never its verdict."""

    def test_default_battery_is_listed_in_walk_order(self):
        lengths = [len(parse_ops(text)) for text in DEFAULT_PROBE_SEQUENCES]
        assert lengths == sorted(lengths)

    def test_walk_runs_shortest_first_stably(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=10.0))
        walked = []
        run_sequence = model.run_sequence

        def recorded(ops, init_vc, background=0):
            walked.append(format_ops(ops))
            return run_sequence(ops, init_vc, background)

        model.run_sequence = recorded
        assert not battery_walk(("w1^2 w0 r0", "w1 r1", "w0^2 w1 r1",
                                 "w0 r0"))(model)
        assert walked == ["w1 r1", "w0 r0", "w1^2 w0 r0", "w0^2 w1 r1"]

    @pytest.mark.parametrize("defect", ALL_DEFECTS, ids=lambda d: d.name)
    def test_walk_matches_the_exhaustive_battery(self, defect):
        lo, hi = defect.kind.search_range
        for stress in (NOMINAL_STRESS, FIG6_STRESS):
            model = behavioral_model(defect, stress=stress)
            predicate = default_fault_predicate(model)
            reference = _exhaustive_battery(defect, stress)
            for r in log_grid(lo, hi, 12):
                assert predicate(r) == reference(r), (defect.name, stress,
                                                      r)
        walked = border_resistance(
            behavioral_model(defect), fails_high=defect.fails_high,
            r_lo=lo, r_hi=hi)
        exhaustive = border_resistance(
            behavioral_model(defect), fails_high=defect.fails_high,
            r_lo=lo, r_hi=hi,
            predicate=_exhaustive_battery(defect, NOMINAL_STRESS))
        assert (walked.always_faulty, walked.never_faulty) == \
            (exhaustive.always_faulty, exhaustive.never_faulty)
        if walked.found:
            assert walked.resistance.hex() == exhaustive.resistance.hex()
        else:
            assert not exhaustive.found

    def test_faulty_probe_near_the_o3_border_runs_the_short_pair(self):
        """Just above the O3 border only ``w0 r0 r0 r0`` detects: the
        walk simulates ``w1 r1 r1 r1`` and it (8 cycles), where listing
        the charge sequences first took 9 + 9 + 4 + 4."""
        model = behavioral_model(Defect(DefectKind.O3, resistance=1e5))
        cycles = []
        run_op = model.run_op

        def counted(op, state):
            cycles.append(op)
            return run_op(op, state)

        model.run_op = counted
        assert default_fault_predicate(model)(1.75e5)
        assert format_ops(cycles) == "w1 r1^3 w0 r0^3"
