"""Sparse lane system: parity, policy resolution, degradation, guards.

The sparse lane kernel (:class:`repro.spice.lanes.SparseLaneSystem`,
run by the one lane loop :func:`repro.spice.solver.newton_solve_lanes`)
batches the CSR backend the way :class:`~repro.spice.lanes.LaneSystem`
batches the dense one: every lane shares the plan-derived sparsity
pattern (one symbolic factorization) and keeps per-lane SuperLU numeric
factorizations, refreshed only on quasi-Newton stagnation.  These tests
pin the contract: trajectories within the documented lane tolerance of
the dense kernel, policy resolution mirroring the serial backend
choice, and a clean :class:`~repro.spice.lanes.LaneError` degradation
(engine falls back to the serial sparse path) whenever the batched
kernel cannot stack a system.
"""

import numpy as np
import pytest

from repro.dram.array import build_array
from repro.dram.column import DEFECT_DEVICE, DefectSite
from repro.spice.backends import (resolve_lane_mode, scipy_available,
                                  set_backend_default)
from repro.spice.lanes import (LaneError, LaneSystem, SparseLaneSystem,
                               lane_transient, make_lane_system)
from repro.spice.mna import System

#: The documented lane-vs-serial tolerance (DESIGN.md sections 5d/5h).
LANE_TOL = 1e-5

needs_scipy = pytest.mark.skipif(not scipy_available(),
                                 reason="scipy required for sparse lanes")

RESISTANCES = (1e4, 3e5, 1e7)


def _activation_setup(n: int = 4, kind: str = "open_sn"):
    """A defective n×n array with row-activation stimulus applied."""
    cell = (n // 2) * n + n // 2
    arr = build_array(n, n, defect=DefectSite(kind, cell, RESISTANCES[0]))
    arr.set_waveforms(arr.activation_waveforms(n // 2))
    return arr, System(arr.circuit)


def _run_lanes(lanes, system):
    x0 = np.zeros((len(lanes.resistances), system.size))
    return lane_transient(lanes, 20e-9, 0.5e-9, x0=x0)


@needs_scipy
class TestSparseParity:
    def test_sparse_lanes_match_dense_lanes(self):
        """Same stacked transient through both kernels: every storage
        node stays within the documented lane tolerance."""
        arr, system = _activation_setup()
        dense = LaneSystem(system, RESISTANCES, DEFECT_DEVICE)
        sparse = SparseLaneSystem(system, RESISTANCES, DEFECT_DEVICE)
        assert sparse.sparse and not dense.sparse

        res_d = _run_lanes(dense, system)
        res_s = _run_lanes(sparse, system)
        assert res_d.counters["lanes_isolated"] == 0
        assert res_s.counters["lanes_isolated"] == 0
        worst = 0.0
        for a, b in zip(res_d.results, res_s.results):
            assert a is not None and b is not None
            assert np.array_equal(a.time, b.time)
            for name in arr.storage_nodes:
                worst = max(worst,
                            float(np.abs(a.v(name) - b.v(name)).max()))
        assert worst <= LANE_TOL

    def test_counters_report_sparse_group_and_symbolic_reuse(self):
        """Each numeric refactorization reuses the one shared symbolic
        pattern, and the batch tags itself as a sparse group."""
        _, system = _activation_setup()
        sparse = SparseLaneSystem(system, RESISTANCES, DEFECT_DEVICE)
        res = _run_lanes(sparse, system)
        assert res.counters["lane_sparse_transients"] == 1
        # Every lane factors at least once (the initial chord matrix).
        assert res.counters["lane_symbolic_reuse"] >= len(RESISTANCES)
        # Drained into the batch counters, not left on the system.
        assert sparse.counters == {}


class TestPolicyResolution:
    def test_lane_mode_serial_below_two_lanes(self):
        _, system = _activation_setup()
        assert resolve_lane_mode(system, 0) == "serial"
        assert resolve_lane_mode(system, 1) == "serial"

    def test_lane_mode_mirrors_backend_resolution(self):
        """Forced backends flip the lane mode with them."""
        _, system = _activation_setup()
        assert resolve_lane_mode(system, 4, "dense") == "dense"
        expect = "sparse" if scipy_available() else "dense"
        assert resolve_lane_mode(system, 4, "sparse") == expect

    def test_make_lane_system_follows_policy(self):
        """The factory builds whatever kernel the serial path resolved."""
        _, system = _activation_setup()
        prev = set_backend_default("dense")
        try:
            lanes = make_lane_system(system, RESISTANCES, DEFECT_DEVICE)
            assert type(lanes) is LaneSystem
            if scipy_available():
                set_backend_default("sparse")
                lanes = make_lane_system(system, RESISTANCES,
                                         DEFECT_DEVICE)
                assert type(lanes) is SparseLaneSystem
        finally:
            set_backend_default(prev)


class TestDegradation:
    def test_scipy_missing_degrades_to_dense_lanes(self, monkeypatch):
        """A numpy-only install must still lane-batch, on the dense
        kernel, even under a forced-sparse default."""
        from repro.spice import backends as backends_mod
        _, system = _activation_setup()
        monkeypatch.setattr(backends_mod.SparseBackend, "from_system",
                            classmethod(lambda cls, s: None))
        system.kernel_counters.clear()
        prev = set_backend_default("sparse")
        try:
            lanes = make_lane_system(system, RESISTANCES, DEFECT_DEVICE)
        finally:
            set_backend_default(prev)
        assert type(lanes) is LaneSystem

    def test_sparse_system_without_backend_raises(self, monkeypatch):
        from repro.spice import backends as backends_mod
        _, system = _activation_setup()
        monkeypatch.setattr(backends_mod.SparseBackend, "from_system",
                            classmethod(lambda cls, s: None))
        with pytest.raises(LaneError):
            SparseLaneSystem(system, RESISTANCES, DEFECT_DEVICE)

    def test_empty_row_pattern_refused(self):
        """np.add.reduceat mis-sums empty CSR segments, so a pattern
        with an empty matrix row must be refused up front."""
        _, system = _activation_setup()

        class _Pattern:
            indptr = np.array([0, 0, 2])
            indices = np.array([0, 1])
            nnz = 2

        class _Backend:
            sparse = True
            pattern = _Pattern()

        with pytest.raises(LaneError, match="empty"):
            SparseLaneSystem(system, RESISTANCES, DEFECT_DEVICE,
                             backend=_Backend())
