"""Batched-lane kernel vs the per-lane path: parity and isolation.

The lane kernel (:mod:`repro.spice.lanes` driven through
:class:`repro.dram.runner.LaneRunner`) replaces per-lane Newton solves
with one masked chord iteration over stacked systems.  Its results are
*not* bitwise-identical to the per-lane path — the chord loop converges
to ``vtol * LANE_VTOL_FACTOR`` instead of running full Newton passes —
but they must stay within the documented fp tolerance (DESIGN.md
section 5d): 1e-5 on every node voltage, with identical sensed bits.

These tests drive real SPICE-level cycles, so the hypothesis sweep is
kept to a handful of examples; the exhaustive grid comparison lives in
``benchmarks/bench_lanes.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.spice.lanes as lanes_mod
from repro.dram import ColumnRunner
from repro.dram.column import DEFECT_DEVICE, DefectSite
from repro.dram.ops import Op
from repro.dram.runner import LaneRunner
from repro.spice.lanes import LaneSystem
from repro.spice.linalg import dense_errstate
from repro.spice.mna import System
from repro.spice.solver import (DEFAULT_VTOL, LANE_VTOL_FACTOR,
                                newton_solve_lanes)

#: The documented lane-vs-per-lane tolerance (DESIGN.md section 5d).
LANE_TOL = 1e-5


def _legacy_results(resistances, init_vcs, ops):
    out = []
    for r, vc in zip(resistances, init_vcs):
        runner = ColumnRunner(defect=DefectSite("open_sn", 0, r))
        out.append(runner.run_sequence(ops, init_vc=vc))
    return out


def _lane_results(resistances, init_vcs, ops):
    runner = LaneRunner(defect_kind="open_sn")
    results, counters = runner.run_sequences(
        ops, list(zip(resistances, init_vcs)))
    return results, counters


class TestLaneParity:
    @given(exps=st.lists(st.floats(3.5, 6.5), min_size=2, max_size=4),
           ops=st.sampled_from(["w0", "w1 r1", "w0 r0"]),
           init=st.sampled_from([0.0, 1.2, 2.4]))
    @settings(max_examples=5, deadline=None)
    def test_lanes_match_per_lane_within_documented_tolerance(
            self, exps, ops, init):
        """Property: for any Rop stack, lane trajectories track the
        per-lane path within the documented 1e-5 tolerance and sense
        the same bits."""
        resistances = [10.0 ** e for e in exps]
        init_vcs = [init] * len(resistances)
        legacy = _legacy_results(resistances, init_vcs, ops)
        lanes, counters = _lane_results(resistances, init_vcs, ops)
        assert counters["lanes_isolated"] == 0
        for lane_seq, legacy_seq in zip(lanes, legacy):
            assert lane_seq is not None
            dvc = np.abs(np.asarray(lane_seq.vc_after)
                         - np.asarray(legacy_seq.vc_after))
            # Explicit tolerance assertion: this is the parity contract
            # the default-off `--lanes` switch is documented under.
            assert dvc.max() <= LANE_TOL
            assert lane_seq.outputs == legacy_seq.outputs

    def test_cycle_chaining_matches_per_lane(self):
        """Multi-cycle sequences chain lane final states exactly like
        the per-lane path chains ``final_state()``."""
        resistances = [50e3, 200e3, 1e6]
        init_vcs = [2.4, 0.0, 1.0]
        ops = "w1 w0 r0"
        legacy = _legacy_results(resistances, init_vcs, ops)
        lanes, _ = _lane_results(resistances, init_vcs, ops)
        for lane_seq, legacy_seq in zip(lanes, legacy):
            assert np.allclose(lane_seq.vc_after, legacy_seq.vc_after,
                               atol=LANE_TOL, rtol=0.0)


class TestLaneIsolation:
    def test_failed_lane_is_isolated_mid_batch(self, monkeypatch):
        """A lane whose solves keep failing (initial attempt and the
        continuation retry) comes back as ``None`` without disturbing
        its batch mates."""
        resistances = [50e3, 200e3, 1e6]
        victim = 1  # global lane position to poison

        orig = lanes_mod.newton_solve_lanes

        def poisoned(lanes, A_step, b_step, x0, lane_idx, **kw):
            x, failed = orig(lanes, A_step, b_step, x0, lane_idx, **kw)
            failed = failed | (np.asarray(lane_idx) == victim)
            return x, failed

        monkeypatch.setattr(lanes_mod, "newton_solve_lanes", poisoned)
        lanes, counters = _lane_results(resistances, [0.0] * 3, "w1")
        assert lanes[victim] is None
        assert counters["lanes_isolated"] == 1
        assert counters["lanes_converged"] == 2

        legacy = _legacy_results(resistances, [0.0] * 3, "w1")
        for k, (lane_seq, legacy_seq) in enumerate(zip(lanes, legacy)):
            if k == victim:
                continue
            assert lane_seq is not None
            assert np.allclose(lane_seq.vc_after, legacy_seq.vc_after,
                               atol=LANE_TOL, rtol=0.0)

    def test_continuation_rescue_counts(self, monkeypatch):
        """A lane that fails once and succeeds on the warm-started
        retry is *not* isolated, and the rescue is counted."""
        calls = {"n": 0}
        orig = lanes_mod.newton_solve_lanes

        def flaky(lanes, A_step, b_step, x0, lane_idx, **kw):
            x, failed = orig(lanes, A_step, b_step, x0, lane_idx, **kw)
            calls["n"] += 1
            if calls["n"] == 1:   # first step, first attempt only
                failed = failed.copy()
                failed[0] = True
            return x, failed

        monkeypatch.setattr(lanes_mod, "newton_solve_lanes", flaky)
        lanes, counters = _lane_results([50e3, 200e3], [0.0, 0.0], "w1")
        assert counters["lanes_isolated"] == 0
        assert counters["lane_continuation_hits"] >= 1
        assert all(seq is not None for seq in lanes)

    @pytest.mark.parametrize("resistances", [
        (1.0e6, 1.1e6), (3.0e6, 3.3e6), (1.0e6, 3.3e6, 200e3)])
    def test_read_after_weak_write_stays_in_the_batch(self, resistances):
        """Regression: the read after a weak ``w1`` stalls the chord
        loop, which used to isolate these lanes; the full-Newton rung
        keeps them in the batch, within the tolerance of the per-lane
        path."""
        init_vcs = [0.0] * len(resistances)
        lanes, counters = _lane_results(resistances, init_vcs, "w1 r1")
        assert counters["lanes_isolated"] == 0
        assert counters["lane_full_newton_hits"] >= 1
        legacy = _legacy_results(resistances, init_vcs, "w1 r1")
        for lane_seq, legacy_seq in zip(lanes, legacy):
            assert lane_seq is not None
            assert np.allclose(lane_seq.vc_after, legacy_seq.vc_after,
                               atol=LANE_TOL, rtol=0.0)
            assert lane_seq.outputs == legacy_seq.outputs


def _column_step(resistances):
    """A dense lane system of the ``open_sn`` column at the first step
    of a ``w1`` from 0 V: ``(lanes, A_step, b_step, x0, temp_c)``."""
    runner = ColumnRunner(defect=DefectSite("open_sn", 0, 1.0))
    runner.netlist.set_waveforms(runner.stimulus(Op.parse("w1"))[0])
    system = System(runner.netlist.circuit)
    lanes = LaneSystem(system, resistances, DEFECT_DEVICE)
    dt = runner.stress.tcyc * runner.tech.dt_frac
    x0 = np.zeros((len(resistances), system.size))
    A = lanes.step_matrix_lanes(dt, "be")
    b = lanes.step_rhs_lanes(dt, dt, "be", x0)
    return lanes, A, b, x0, runner.stress.temp_c


class TestFactorCache:
    def test_subset_solve_reads_each_lanes_own_factors(self):
        """Regression: a solve over a subset of the lanes seeds each
        row's chord factors from its own lane's cache entry.  Lane 0's
        cached factor is zeroed, still flagged valid, before lanes 1 and
        2 solve; read by batch row, lane 1 got the zeros, whose update
        is 0, and came back unmoved from its start, flagged converged."""
        lanes, A, b, x0, temp_c = _column_step((1e4, 3e5, 1e7))
        sub = np.array([1, 2])
        with dense_errstate():
            _, failed = newton_solve_lanes(lanes, A, b, x0, np.arange(3),
                                           temp_c=temp_c)
            assert not failed.any()
            lanes._M_valid[:] = False
            fresh, failed = newton_solve_lanes(
                lanes, A[sub], b[sub], x0[sub], sub, temp_c=temp_c)
            assert not failed.any()
            lanes._M[0] = 0.0
            lanes._M_valid[0] = True
            x, failed = newton_solve_lanes(
                lanes, A[sub], b[sub], x0[sub], sub, temp_c=temp_c)
        assert not failed.any()
        # Both solves stop on a chord update under the lane loop's vtol.
        assert np.abs(x - fresh).max() <= LANE_VTOL_FACTOR * DEFAULT_VTOL

    def test_non_finite_update_refactors_the_lane(self, monkeypatch):
        """A pass whose update comes out non-finite (SuperLU's way of
        reporting some singular systems) moves nothing and marks the
        lane stale; its refactor then converges it, on dense lanes too,
        where the NaN used to spread through the iterate."""
        lanes, A, b, x0, temp_c = _column_step((1e4, 3e5))
        with dense_errstate():
            clean, failed = newton_solve_lanes(lanes, A, b, x0,
                                               np.arange(2), temp_c=temp_c)
            assert not failed.any()
            lanes._M_valid[:] = False
            real = lanes.apply_factors
            poisoned = []

            def nan_once(M, r):
                dx = real(M, r)
                if not poisoned:
                    poisoned.append(True)
                    dx[1] = np.nan
                return dx

            monkeypatch.setattr(lanes, "apply_factors", nan_once)
            x, failed = newton_solve_lanes(lanes, A, b, x0, np.arange(2),
                                           temp_c=temp_c)
        assert poisoned and not failed.any()
        assert np.abs(x - clean).max() <= LANE_VTOL_FACTOR * DEFAULT_VTOL


class TestLaneRunnerSurface:
    def test_stress_update_revalues_lanes(self):
        """`set_stress` must flow into subsequent lane batches."""
        from repro.stress import NOMINAL_STRESS
        runner = LaneRunner(defect_kind="open_sn")
        cold, _ = runner.run_sequences("w1", [(200e3, 0.0)])
        runner.set_stress(NOMINAL_STRESS.with_(vdd=2.1))
        hot, _ = runner.run_sequences("w1", [(200e3, 0.0)])
        assert cold[0].vc_after[0] != pytest.approx(
            hot[0].vc_after[0], abs=1e-3)
