"""Vsa threshold and settlement curves (behavioral backend)."""

import pytest

from repro.analysis import sense_threshold, settle_curve, vsa_curve
from repro.analysis.curves import VsaCurve, border_crossing_scan
from repro.analysis.planes import log_grid
from repro.behav import behavioral_model
from repro.defects import Defect, DefectKind, Placement
from repro.spice.errors import SpiceError


@pytest.fixture
def model():
    return behavioral_model(Defect(DefectKind.O3, resistance=200e3))


class TestSenseThreshold:
    def test_exists_at_moderate_open(self, model):
        v = sense_threshold(model)
        assert v is not None
        assert 0.3 < v < 1.5

    def test_none_for_strong_open(self, model):
        model.set_defect_resistance(20e6)
        assert sense_threshold(model) is None

    def test_bisection_tolerance(self, model):
        coarse = sense_threshold(model, tol=0.1)
        fine = sense_threshold(model, tol=0.005)
        assert abs(coarse - fine) < 0.1

    def test_reads_flip_across_threshold(self, model):
        v = sense_threshold(model, tol=0.005)
        below = model.run_sequence("r", init_vc=v - 0.05).outputs[0]
        above = model.run_sequence("r", init_vc=v + 0.05).outputs[0]
        assert below == 0
        assert above == 1

    def test_comp_cell_threshold_in_physical_domain(self):
        model = behavioral_model(
            Defect(DefectKind.O3, Placement.COMP, 200e3))
        v = sense_threshold(model)
        assert v is not None
        # physical high on the comp line must sense as stored-1
        out = model.run_sequence("r", init_vc=v + 0.1).outputs[0]
        assert out == 0   # stored high on blc = logical 0


class TestVsaCurve:
    def test_descends_with_resistance(self, model):
        grid = log_grid(50e3, 1e6, 6)
        curve = vsa_curve(model, grid)
        usable = [v for v in curve.thresholds if v is not None]
        assert len(usable) >= 4
        assert usable[0] > usable[-1]

    def test_interpolation_between_samples(self, model):
        grid = log_grid(50e3, 1e6, 6)
        curve = vsa_curve(model, grid)
        mid = curve.at(120e3)
        assert curve.thresholds[0] >= mid >= (curve.thresholds[-1] or 0.0)

    def test_at_clamps_to_ends(self, model):
        grid = log_grid(50e3, 1e6, 4)
        curve = vsa_curve(model, grid)
        assert curve.at(1e3) == curve.thresholds[0]
        assert curve.at(1e9) == curve.thresholds[-1]


class TestSettleCurve:
    def test_w0_residual_rises_with_resistance(self, model):
        grid = log_grid(50e3, 1e6, 6)
        curve = settle_curve(model, 0, grid, n_ops=1)
        first = curve.after(1)
        assert first[-1] > first[0]

    def test_second_write_settles_further(self, model):
        grid = log_grid(50e3, 1e6, 5)
        curve = settle_curve(model, 0, grid, n_ops=2)
        for v1, v2 in zip(curve.after(1), curve.after(2)):
            assert v2 <= v1 + 1e-9

    def test_w1_dual_polarity(self, model):
        grid = log_grid(50e3, 1e6, 5)
        curve = settle_curve(model, 1, grid, n_ops=2)
        for v1, v2 in zip(curve.after(1), curve.after(2)):
            assert v2 >= v1 - 1e-9

    def test_rejects_bad_value(self, model):
        with pytest.raises(ValueError):
            settle_curve(model, 2, [1e5])

    def test_levels_shape(self, model):
        grid = log_grid(50e3, 1e6, 4)
        curve = settle_curve(model, 0, grid, n_ops=3)
        assert len(curve.levels) == 4
        assert all(len(row) == 3 for row in curve.levels)


class TestCurveHoleHandling:
    """Degraded-sweep holes must never leak values out of `at`/`after`."""

    def _curve(self, failed=()):
        return VsaCurve(resistances=[1e4, 1e5, 1e6],
                        thresholds=[0.9, 0.7, 0.5], failed=failed)

    def test_exact_grid_hit_reads_through_neighbouring_hole(self):
        curve = self._curve(failed=(1,))
        assert curve.at(1e4) == 0.9
        assert curve.at(1e6) == 0.5

    def test_exact_grid_hit_on_hole_is_none(self):
        curve = self._curve(failed=(1,))
        assert curve.at(1e5) is None

    def test_endpoint_clamp_onto_hole_is_none(self):
        assert self._curve(failed=(0,)).at(1e3) is None
        assert self._curve(failed=(2,)).at(1e7) is None

    def test_interpolation_against_hole_neighbour_is_none(self):
        curve = self._curve(failed=(1,))
        assert curve.at(3e4) is None
        assert curve.at(3e5) is None
        curve = self._curve()
        assert curve.at(3e4) is not None

    def test_settle_after_rejects_nonpositive_count(self, model):
        curve = settle_curve(model, 0, [1e5, 2e5], n_ops=2)
        with pytest.raises(ValueError, match="counts from 1"):
            curve.after(0)
        with pytest.raises(ValueError, match="counts from 1"):
            curve.after(-1)


class TestBorderCrossingScan:
    """Adaptive BR refinement: identical answer, far fewer probes."""

    def _grid(self, points=24):
        return log_grid(30e3, 2e6, points)

    def test_adaptive_matches_dense_scan(self, model):
        grid = self._grid()
        adaptive = border_crossing_scan(model, grid)
        dense = border_crossing_scan(model, grid, dense=True)
        assert adaptive.border == dense.border
        assert dense.n_probed == len(grid)
        assert adaptive.n_probed < dense.n_probed

    def test_adaptive_matches_plane_border_estimate(self, model):
        from repro.analysis import result_planes
        grid = self._grid()
        planes = result_planes(model, grid)
        scan = border_crossing_scan(model, grid)
        assert scan.border == pytest.approx(planes.border_estimate(),
                                            rel=1e-12)

    def test_probe_budget_is_sublinear(self, model):
        grid = self._grid()
        scan = border_crossing_scan(model, grid)
        # coarse lattice (~sqrt(n)) plus the bisection refinement must
        # stay at no more than a third of the dense grid
        assert scan.n_probed <= len(grid) // 3

    def test_no_crossing_returns_none(self):
        weak = behavioral_model(Defect(DefectKind.O3, resistance=200e3))
        grid = log_grid(1e3, 2e4, 12)   # entirely below the border
        scan = border_crossing_scan(weak, grid)
        assert scan.border is None

    def test_find_border_adaptive_uses_kind_search_range(self):
        from repro.core import find_border_adaptive
        defect = Defect(DefectKind.O3, resistance=200e3)
        model = behavioral_model(defect)
        scan = find_border_adaptive(model, defect, points=24)
        r_lo, r_hi = defect.kind.search_range
        assert scan.resistances[0] == pytest.approx(r_lo)
        assert scan.resistances[-1] == pytest.approx(r_hi)
        assert scan.border is not None


class _LaneEngine:
    """Stand-in engine whose lane width turns speculation on."""

    def effective_lanes(self):
        return 8


class _HoledModel:
    """Column model that fails at chosen resistances (and may advertise
    a lane-batching engine)."""

    def __init__(self, inner, bad=(), engine=None):
        self._inner = inner
        self._bad = tuple(bad)
        self._r = None
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def set_defect_resistance(self, resistance):
        self._r = resistance
        self._inner.set_defect_resistance(resistance)

    def run_sequence(self, *args, **kwargs):
        if self._r in self._bad:
            raise SpiceError(f"injected failure at R={self._r:.3g}")
        return self._inner.run_sequence(*args, **kwargs)


class TestBorderCrossingScanSchedules:
    # The adaptive scan of this grid probes the coarse lattice 0, 6, 13,
    # 20, then bisects indices 16, 18, 17 down to the pair (16, 17).
    GRID = log_grid(30e3, 2e6, 40)

    def _model(self, **kwargs):
        return _HoledModel(
            behavioral_model(Defect(DefectKind.O3, resistance=200e3)),
            **kwargs)

    def test_speculative_scan_matches_serial(self):
        serial = border_crossing_scan(self._model(), self.GRID)
        spec = border_crossing_scan(self._model(engine=_LaneEngine()),
                                    self.GRID)
        assert spec.border == serial.border
        assert set(serial.probed) <= set(spec.probed)

    @pytest.mark.parametrize("lanes", [False, True])
    def test_scan_moves_off_an_interior_hole(self, lanes):
        clean = border_crossing_scan(self._model(), self.GRID)
        assert clean.probed[-3:] == [16, 18, 17]
        hole = 18
        holed = border_crossing_scan(
            self._model(bad=[self.GRID[hole]],
                        engine=_LaneEngine() if lanes else None),
            self.GRID, on_error="isolate")
        assert hole in holed.probed
        assert 19 in holed.probed      # the displaced neighbour
        assert holed.border == clean.border
