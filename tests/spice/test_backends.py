"""Solver backends: resolution, auto policy, sparse parity, degradation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.spice.backends as backends
from repro.spice.backends import (
    BackendError,
    SPARSE_AUTO_MIN_SIZE,
    SparseBackend,
    SparsityPattern,
    backend_default,
    resolve_backend,
    scipy_available,
    set_backend_default,
)
from repro.spice.devices import (
    Capacitor,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.spice.errors import SingularMatrixError
from repro.spice.linalg import dense_errstate, solve_dense_nocheck
from repro.spice.mna import System
from repro.spice.netlist import Circuit
from repro.spice.transient import transient
from repro.spice.waveforms import Pulse

needs_scipy = pytest.mark.skipif(not scipy_available(),
                                 reason="scipy not installed")


def _ladder_circuit(n: int, with_diodes: bool = False) -> Circuit:
    """A resistive/capacitive ladder with ``n`` interior nodes."""
    c = Circuit(f"ladder{n}")
    gnd = c.node("0")
    prev = c.node("in")
    c.add(VoltageSource("vin", prev, gnd,
                        Pulse(0.0, 1.0, delay=1e-9, width=1e-6)))
    for i in range(n):
        node = c.node(f"n{i}")
        c.add(Resistor(f"r{i}", prev, node, 1e3 * (1 + i % 3)))
        c.add(Capacitor(f"c{i}", node, gnd, 1e-12))
        if with_diodes and i % 4 == 0:
            c.add(Diode(f"d{i}", gnd, node))
        prev = node
    return c


@pytest.fixture(autouse=True)
def _restore_backend_default():
    prev = backend_default()
    yield
    set_backend_default(prev)


class TestResolution:
    """``resolve_backend`` returns ``None`` (the dense kernels) or the
    system's one :class:`SparseBackend`."""

    def test_dense_and_small_auto_resolve_to_none(self):
        system = System(_ladder_circuit(3))
        assert resolve_backend("dense", system) is None
        assert resolve_backend("auto", system) is None

    @needs_scipy
    def test_sparse_resolves_to_the_cached_backend(self):
        system = System(_ladder_circuit(3))
        backend = resolve_backend("sparse", system)
        assert isinstance(backend, SparseBackend)
        assert backend.system is system
        assert resolve_backend("sparse", system) is backend
        assert SparseBackend.from_system(system) is backend

    def test_unknown_backend_raises(self):
        system = System(_ladder_circuit(3))
        with pytest.raises(BackendError):
            resolve_backend("fft", system)
        with pytest.raises(BackendError):
            set_backend_default("fft")
        assert backend_default() == "auto"

    def test_default_roundtrip(self):
        assert backend_default() == "auto"
        prev = set_backend_default("dense")
        assert prev == "auto"
        assert backend_default() == "dense"
        system = System(_ladder_circuit(3))
        assert resolve_backend(None, system) is None


class TestAutoPolicy:
    def test_small_system_stays_dense(self):
        system = System(_ladder_circuit(5))
        assert resolve_backend("auto", system) is None

    @needs_scipy
    def test_threshold_boundary(self, monkeypatch):
        system = System(_ladder_circuit(20))
        monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE",
                            system.size + 1)
        assert resolve_backend("auto", system) is None
        monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", system.size)
        assert resolve_backend("auto", system) is not None

    @needs_scipy
    def test_dense_pattern_rejected_on_auto(self, monkeypatch):
        system = System(_ladder_circuit(20))
        monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 1)
        monkeypatch.setattr(backends, "SPARSE_AUTO_MAX_DENSITY", 0.0)
        assert resolve_backend("auto", system) is None
        # Forcing sparse skips the density gate.
        assert resolve_backend("sparse", system) is not None

    @needs_scipy
    def test_array_crosses_threshold(self):
        from repro.dram.array import build_array
        arr = build_array(8, 8)
        system = System(arr.circuit)
        assert system.size >= SPARSE_AUTO_MIN_SIZE
        assert resolve_backend("auto", system) is not None


class TestDegradation:
    def test_scipy_missing_falls_back_dense(self, monkeypatch):
        monkeypatch.setattr(backends, "_SCIPY", False)
        assert not scipy_available()
        system = System(_ladder_circuit(20))
        assert resolve_backend("sparse", system) is None
        assert system.kernel_counters.get("backend_sparse_degraded") == 1
        assert resolve_backend("auto", system) is None

    @needs_scipy
    def test_no_plans_falls_back_dense(self):
        system = System(_ladder_circuit(20), use_plans=False)
        assert resolve_backend("sparse", system) is None

    @needs_scipy
    def test_transient_runs_under_forced_sparse_small_circuit(self):
        # Forcing sparse on a tiny circuit must work, not just degrade.
        c = _ladder_circuit(6, with_diodes=True)
        res = transient(c, 5e-9, 0.5e-9, backend="sparse")
        ref = transient(_ladder_circuit(6, with_diodes=True), 5e-9,
                        0.5e-9, backend="dense")
        for i in range(6):
            assert res.final(f"n{i}") == pytest.approx(
                ref.final(f"n{i}"), abs=1e-9)

    @needs_scipy
    def test_backend_cached_per_system(self):
        system = System(_ladder_circuit(20))
        b1 = resolve_backend("sparse", system)
        b2 = resolve_backend("sparse", system)
        assert b1 is b2


class TestSparsityPattern:
    def test_scrap_slots_excluded(self):
        pat = SparsityPattern(3, np.array([0, 4, 8, 9, 4]))
        # 9 == size*size is the scrap slot; duplicates deduped.
        assert pat.nnz == 3
        assert pat.gather.tolist() == [0, 4, 8]
        assert pat.indptr.tolist() == [0, 1, 2, 3]
        assert pat.indices.tolist() == [0, 1, 2]

    def test_csr_structure_matches_rows(self):
        flat = np.array([1, 3, 5, 7])  # (0,1) (1,0) (1,2) (2,1) at size 3
        pat = SparsityPattern(3, flat)
        assert pat.indptr.tolist() == [0, 1, 3, 4]
        assert pat.indices.tolist() == [1, 0, 2, 1]

    @needs_scipy
    def test_pattern_covers_every_plan_slot(self):
        """Assembled iteration matrices never write outside the pattern."""
        from repro.spice.netlist import AnalysisContext
        c = _ladder_circuit(12, with_diodes=True)
        system = System(c)
        backend = SparseBackend.from_system(system)
        assert backend is not None
        mask = np.zeros(system.size * system.size, dtype=bool)
        mask[backend.pattern.gather] = True
        x = np.full(system.size, 0.3)
        ctx = AnalysisContext(time=1e-9, dt=1e-10, temp_c=27.0, x=x,
                              x_prev=x, method="be")
        A_step, b_step = system.build_step(ctx)
        A, _ = system.build_iteration(A_step, b_step, ctx, full=True)
        outside = A.reshape(-1)[~mask]
        assert not np.any(outside != 0.0)


@needs_scipy
class TestSparseSolves:
    def test_solve_matches_dense(self):
        system = System(_ladder_circuit(20, with_diodes=True))
        backend = SparseBackend.from_system(system)
        rng = np.random.default_rng(7)
        A = system._A_static.copy()
        b = rng.uniform(-1, 1, system.size)
        want = np.linalg.solve(A, b)
        assert backend.solve(A, b) == pytest.approx(want, rel=1e-9,
                                                    abs=1e-12)

    def test_factorization_reuse(self):
        system = System(_ladder_circuit(10))
        backend = SparseBackend.from_system(system)
        A = system._A_static.copy()
        fact = backend.factorize(A)
        b = np.arange(float(system.size))
        assert fact.solve(b) == pytest.approx(np.linalg.solve(A, b),
                                              rel=1e-9, abs=1e-12)
        assert fact.solve_fast(b) == pytest.approx(fact.solve(b))

    def test_singular_raises_same_error_shape(self):
        """The dense and sparse solves raise SingularMatrixError on a
        singular system."""
        c = Circuit("floating")
        gnd = c.node("0")
        a = c.node("a")
        b_node = c.node("b")
        c.add(Resistor("r1", a, b_node, 1e3))
        c.add(Capacitor("c1", b_node, gnd, 1e-12))
        # gmin=0: nothing ties the pair to ground -> singular matrix.
        system = System(c, gmin=0.0)
        A = system._A_static.copy()
        rhs = np.zeros(system.size)
        backend = SparseBackend.from_system(system)
        with pytest.raises(SingularMatrixError), dense_errstate():
            solve_dense_nocheck(A, rhs)
        with pytest.raises(SingularMatrixError):
            backend.solve(A, rhs)

    def test_step_factorization_keys_by_backend(self):
        system = System(_ladder_circuit(10))
        backend = SparseBackend.from_system(system)
        dense_f = system.step_factorization(1e-10, "be")
        sparse_f = system.step_factorization(1e-10, "be", backend)
        assert dense_f is not sparse_f
        assert system.step_factorization(1e-10, "be") is dense_f
        assert system.step_factorization(1e-10, "be", backend) is sparse_f


@needs_scipy
class TestDenseSparseAgreement:
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1),
           diodes=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_random_ladder_transient_agrees(self, n, seed, diodes):
        """Dense and sparse transients agree within the documented
        tolerance on randomly-sized plan-compiled circuits."""
        rng = np.random.default_rng(seed)
        c1 = _ladder_circuit(n, with_diodes=diodes)
        c2 = _ladder_circuit(n, with_diodes=diodes)
        # Randomize one resistor value identically in both copies.
        k = int(rng.integers(0, n))
        r = float(rng.uniform(0.5e3, 5e3))
        c1[f"r{k}"].resistance = r
        c2[f"r{k}"].resistance = r
        rd = transient(c1, 4e-9, 0.5e-9, backend="dense")
        rs = transient(c2, 4e-9, 0.5e-9, backend="sparse")
        for i in range(n):
            assert rs.final(f"n{i}") == pytest.approx(
                rd.final(f"n{i}"), abs=1e-7)

    def test_dc_operating_point_agrees(self):
        from repro.spice.dc import dc_operating_point
        c1 = _ladder_circuit(16, with_diodes=True)
        c2 = _ladder_circuit(16, with_diodes=True)
        vd = dc_operating_point(c1, backend="dense")
        vs = dc_operating_point(c2, backend="sparse")
        for name, v in vd.items():
            assert vs[name] == pytest.approx(v, abs=1e-7)


class TestDefaultParity:
    def test_default_transient_bitwise_matches_dense(self):
        """`auto` on a sub-threshold circuit is bitwise the dense path."""
        c1 = _ladder_circuit(8, with_diodes=True)
        c2 = _ladder_circuit(8, with_diodes=True)
        r_auto = transient(c1, 5e-9, 0.5e-9)
        r_dense = transient(c2, 5e-9, 0.5e-9, backend="dense")
        assert np.array_equal(r_auto.time, r_dense.time)
        for i in range(8):
            assert np.array_equal(r_auto.v(f"n{i}"), r_dense.v(f"n{i}"))
