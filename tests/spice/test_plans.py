"""Compiled stamp plans: bitwise parity with the per-device stamp walk.

The kernel layer's hard requirement is that a plan-assembled system is
*bitwise* equal to the legacy per-device assembly — not merely close.
These property tests draw random circuits over every plannable device
class, and iterates of the paper column and the untrimmed 6×6 array,
and compare the assembled matrices of the two paths exactly.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.array import build_array
from repro.dram.column import DefectSite, build_column
from repro.spice import (
    Capacitor,
    Circuit,
    Constant,
    CurrentSource,
    Diode,
    Mosfet,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    Resistor,
    VoltageSource,
)
from repro.spice.mna import System
from repro.spice.netlist import AnalysisContext, Device
from repro.spice.mosfet import _EXP_CLAMP as MOS_EXP_CLAMP
from repro.spice.plans import compile_nonlinear, compile_sources

NODE_NAMES = ("0", "a", "b", "c", "d")


@st.composite
def circuits(draw):
    """A random finalizable circuit over the plannable device classes."""
    c = Circuit()
    nodes = [c.node(n) for n in NODE_NAMES]
    pick = st.sampled_from(nodes)

    for i in range(draw(st.integers(1, 3))):
        c.add(Resistor(f"R{i}", draw(pick), draw(pick),
                       draw(st.floats(10.0, 1e6))))
    for i in range(draw(st.integers(0, 2))):
        c.add(Capacitor(f"C{i}", draw(pick), draw(pick),
                        draw(st.floats(1e-15, 1e-9))))
    for i in range(draw(st.integers(0, 2))):
        c.add(VoltageSource(f"V{i}", draw(pick), draw(pick),
                            Constant(draw(st.floats(-3.0, 3.0)))))
    for i in range(draw(st.integers(0, 1))):
        c.add(CurrentSource(f"I{i}", draw(pick), draw(pick),
                            Constant(draw(st.floats(-1e-3, 1e-3)))))
    for i in range(draw(st.integers(0, 3))):
        d, g, s = draw(pick), draw(pick), draw(pick)
        if d.index == s.index:
            continue  # degenerate: compiler falls back by design
        params = NMOS_DEFAULT if draw(st.booleans()) else PMOS_DEFAULT
        c.add(Mosfet(f"M{i}", d, g, s, params,
                     w=draw(st.floats(2e-7, 5e-6))))
    for i in range(draw(st.integers(0, 2))):
        a, k = draw(pick), draw(pick)
        c.add(Diode(f"D{i}", a, k, isat=draw(st.floats(1e-16, 1e-12))))
    return c


def _assemble_both(circuit, x_vals, dt, method, temp_c):
    """(A, b) step and iteration layers from the plan and legacy paths."""
    sys_p = System(circuit, use_plans=True)
    sys_f = System(circuit, use_plans=False)
    size = sys_p.size
    x = np.resize(np.asarray(x_vals, dtype=float), size)
    ctx = AnalysisContext(time=1e-9, dt=dt, temp_c=temp_c, x=x,
                          x_prev=x, method=method)
    out = {}
    for tag, system in (("plan", sys_p), ("legacy", sys_f)):
        A_step, b_step = system.build_step(ctx)
        A_it, b_it = system.build_iteration(A_step, b_step, ctx,
                                            full=True)
        out[tag] = (A_step.copy(), b_step.copy(), A_it.copy(), b_it.copy())
    return sys_p, out


def _kept_of_full(system, A, b):
    """The kept layout's blocks of a full ``A``/``b``, indexed
    directly: ``A[K,K]``, ``[A[K,P] | b[K]]``, ``[A[P,K] | A[P,P] |
    b[P]]``."""
    K, P = system._free, system._pin_nodes
    return (A[np.ix_(K, K)],
            np.hstack([A[np.ix_(K, P)], b[K, None]]),
            np.hstack([A[np.ix_(P, K)], A[np.ix_(P, P)], b[P, None]]))


class TestAssemblyParity:
    @given(circuit=circuits(),
           x_vals=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=12),
           dt=st.sampled_from([1e-12, 1e-10, 2.5e-9]),
           method=st.sampled_from(["be", "trap"]),
           temp_c=st.sampled_from([-10.0, 27.0, 85.0]))
    @settings(max_examples=60, deadline=None)
    def test_plan_assembly_is_bitwise_equal(self, circuit, x_vals, dt,
                                            method, temp_c):
        sys_p, out = _assemble_both(circuit, x_vals, dt, method, temp_c)
        for got, want in zip(out["plan"], out["legacy"]):
            assert np.array_equal(got, want)  # bitwise, not approx

    @given(circuit=circuits(),
           x_vals=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=12),
           dt=st.sampled_from([1e-12, 1e-10, 2.5e-9]),
           extra_gmin=st.sampled_from([0.0, 1e-6]))
    @settings(max_examples=60, deadline=None)
    def test_kept_blocks_are_the_full_assembly(self, circuit, x_vals, dt,
                                               extra_gmin):
        """On any topology (floating sources, a node pinned twice, a
        source grounded at its positive terminal), the kept blocks of
        the plan scatter and of the per-device walk are the full
        assembly's entries, bit for bit."""
        for use_plans in (True, False):
            system = System(circuit, use_plans=use_plans)
            x = np.resize(np.asarray(x_vals, dtype=float), system.size)
            ctx = AnalysisContext(time=1e-9, dt=dt, temp_c=27.0, x=x,
                                  x_prev=x)
            A_step, b_step = system.build_step(ctx)
            A_kk, A_kt = system.build_iteration(A_step, b_step, ctx,
                                                extra_gmin)
            kept = (A_kk.copy(), A_kt.copy(), system._A_pt.copy())
            A, b = system.build_iteration(A_step, b_step, ctx, extra_gmin,
                                          full=True)
            for got, want in zip(kept, _kept_of_full(system, A, b)):
                assert got.tobytes() == want.tobytes()

    @given(circuit=circuits(),
           x_vals=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=12),
           dt=st.sampled_from([1e-12, 1e-10]),
           method=st.sampled_from(["be", "trap"]))
    @settings(max_examples=30, deadline=None)
    def test_forced_vec_paths_stay_bitwise(self, circuit, x_vals, dt,
                                           method):
        """Forcing the capacitor plan's array stamp (``_use_vec``, the
        large-count path) changes nothing."""
        sys_p = System(circuit, use_plans=True)
        sys_f = System(circuit, use_plans=False)
        if sys_p.plans.dynamic is not None:
            sys_p.plans.dynamic._use_vec = True
        size = sys_p.size
        x = np.resize(np.asarray(x_vals, dtype=float), size)
        ctx = AnalysisContext(time=0.5e-9, dt=dt, temp_c=27.0, x=x,
                              x_prev=x, method=method)
        A_p, b_p = sys_p.build_step(ctx)
        A_it_p, b_it_p = sys_p.build_iteration(A_p, b_p, ctx, full=True)
        A_it_p, b_it_p = A_it_p.copy(), b_it_p.copy()
        A_f, b_f = sys_f.build_step(ctx)
        A_it_f, b_it_f = sys_f.build_iteration(A_f, b_f, ctx, full=True)
        assert np.array_equal(A_it_p, A_it_f)
        assert np.array_equal(b_it_p, b_it_f)
        # the kept layout starts from the same forced step rhs
        kept_p = [a.copy() for a in sys_p.build_iteration(A_p, b_p, ctx)]
        kept_f = sys_f.build_iteration(A_f, b_f, ctx)
        for got, want in zip(kept_p, kept_f):
            assert np.array_equal(got, want)


def _column_circuit(kind: str):
    """The paper column with a ``kind`` defect on cell 0 (24 MOSFETs
    and 4 diodes)."""
    return build_column(defect=DefectSite(kind, 0, 100e3)).circuit


def _array_circuit(kind: str):
    """The untrimmed 6×6 array with a ``kind`` defect on its centre
    cell (42 MOSFETs and 36 diodes), as ``array --trim off`` builds it."""
    return build_array(6, 6, defect=DefectSite(kind, 21, 100e3)).circuit


@functools.lru_cache(maxsize=None)
def _systems(build, kind: str) -> tuple[System, System]:
    """A circuit compiled to stamp plans, and the same circuit on the
    per-device stamp walk (``use_plans=False``)."""
    circuit = build(kind)
    return System(circuit, use_plans=True), System(circuit, use_plans=False)


def _column_plan(kind: str):
    """The compiled nonlinear plan of the paper column."""
    return _systems(_column_circuit, kind)[0].plans.nonlinear


def _assert_iteration_is_the_walk(systems, x, temp_c, dt, method):
    """The plan system's Newton iteration, full and in the kept layout
    the dense solve uses, equals the per-device walk's bit for bit."""
    sys_p, sys_f = systems
    ctx = AnalysisContext(time=0.5e-9, dt=dt, temp_c=temp_c, x=x,
                          x_prev=x, method=method)
    A_p, b_p = sys_p.build_step(ctx)
    A_f, b_f = sys_f.build_step(ctx)
    got = [a.copy() for a in sys_p.build_iteration(A_p, b_p, ctx,
                                                   full=True)]
    want = sys_f.build_iteration(A_f, b_f, ctx, full=True)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    got = [*sys_p.build_iteration(A_p, b_p, ctx), sys_p._A_pt]
    want = [*sys_f.build_iteration(A_f, b_f, ctx), sys_f._A_pt]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


#: Column iterates: below ground to above Vdd, so that source/drain
#: swaps and both MOSFET exponential clamps occur.
column_volts = st.floats(-0.5, 3.0, allow_nan=False)


class TestColumnLoopKernel:
    """The device kernel on the real column plans, the ones every
    column transient runs."""

    @pytest.mark.parametrize("kind", ["open_sn", "bridge_bl"])
    def test_column_plan_shape(self, kind):
        nl = _column_plan(kind)
        assert (len(nl.mosfets), len(nl.diodes)) == (24, 4)

    @given(kind=st.sampled_from(["open_sn", "bridge_bl"]),
           data=st.data(),
           temp_c=st.sampled_from([-33.0, 27.0, 87.0]),
           method=st.sampled_from(["be", "trap"]))
    @settings(max_examples=60, deadline=None)
    def test_iteration_matches_device_walk_bitwise(self, kind, data,
                                                   temp_c, method):
        systems = _systems(_column_circuit, kind)
        size = systems[0].size
        x = np.array(data.draw(st.lists(column_volts, min_size=size,
                                        max_size=size)))
        _assert_iteration_is_the_walk(systems, x, temp_c, 2.5e-10, method)

    def test_draws_reach_swaps_and_both_clamps(self):
        """The property's voltage range exercises every branch of the
        loop: swapped MOSFETs and both softplus clamps."""
        nl = _column_plan("open_sn")
        _, nvt, vth, _, _, _ = nl._temp_params(27.0)
        pol = nl._mos_pol
        rng = np.random.default_rng(0)
        swaps = 0
        u_all = []
        for _ in range(20):
            # trailing 0 V: the ground index -1 reads it
            x = np.append(rng.uniform(-0.5, 3.0, nl.size), 0.0)
            vd, vg, vs = x[nl._mos_d], x[nl._mos_g], x[nl._mos_s]
            swap = pol * (vd - vs) < 0.0
            swaps += int(swap.sum())
            vns = np.where(swap, vd, vs)
            u_all.append((pol * (vg - vns) - vth) / nvt)
        u = np.concatenate(u_all)
        assert swaps > 0
        assert u.max() > MOS_EXP_CLAMP and u.min() < -MOS_EXP_CLAMP


class TestUntrimmedArrayKernel:
    """The device kernel on the untrimmed 6×6 array, the largest
    nonlinear plan the serial runs of the CI-diffed reports build."""

    def test_array_plan_shape(self):
        nl = _systems(_array_circuit, "open_sn")[0].plans.nonlinear
        assert (len(nl.mosfets), len(nl.diodes)) == (42, 36)

    @given(kind=st.sampled_from(["open_sn", "bridge_wl"]),
           data=st.data(),
           temp_c=st.sampled_from([-33.0, 27.0, 87.0]),
           method=st.sampled_from(["be", "trap"]))
    @settings(max_examples=60, deadline=None)
    def test_iteration_matches_device_walk_bitwise(self, kind, data,
                                                   temp_c, method):
        systems = _systems(_array_circuit, kind)
        size = systems[0].size
        x = np.array(data.draw(st.lists(column_volts, min_size=size,
                                        max_size=size)))
        _assert_iteration_is_the_walk(systems, x, temp_c, 2.5e-10, method)


class TestCompilerFallbacks:
    def test_drain_tied_source_mosfet_falls_back(self):
        c = Circuit()
        n = c.node("n")
        m = Mosfet("M", n, c.node("g"), n, NMOS_DEFAULT)
        assert compile_nonlinear([m], 4) is None

    def test_unknown_nonlinear_device_falls_back(self):
        class Odd(Device):
            def stamp_nonlinear(self, st):  # pragma: no cover
                pass

        c = Circuit()
        dev = Odd("X", (c.node("a"),))
        assert compile_nonlinear([dev], 4) is None

    def test_unknown_source_device_falls_back(self):
        class OddSource(Device):
            def stamp_source(self, st):  # pragma: no cover
                pass

        c = Circuit()
        dev = OddSource("X", (c.node("a"),))
        assert compile_sources([dev], 2) is None

    def test_fallback_system_still_assembles(self):
        """A circuit with an unplannable device uses the stamp walk."""
        class ExtraGround(Device):
            def stamp_nonlinear(self, st):
                st.conductance(self.node_list[0], self.node_list[1], 1e-9)

        c = Circuit()
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e3))
        c.add(ExtraGround("X", (c.node("a"), c.node("0"))))
        system = System(c, use_plans=True)
        assert system._nl_plan is None
        x = np.zeros(system.size)
        ctx = AnalysisContext(time=0.0, dt=None, temp_c=27.0, x=x,
                              x_prev=x)
        A_step, b_step = system.build_step(ctx)
        A, _ = system.build_iteration(A_step, b_step, ctx, full=True)
        assert A[0, 0] == pytest.approx(1e-3 + 1e-9, rel=1e-12)


class TestSwapCache:
    def test_swap_cache_is_bounded(self):
        """200 distinct swap patterns of 8 MOSFETs keep at most 129
        cached slot-index arrays."""
        c = Circuit()
        for i in range(8):
            c.add(Mosfet(f"M{i}", c.node(f"d{i}"), c.node("g"),
                         c.node(f"s{i}"), NMOS_DEFAULT))
            c.add(Resistor(f"R{i}", c.node(f"d{i}"), c.node("0"), 1e3))
        system = System(c, use_plans=True)
        nl = system.plans.nonlinear
        for mask in range(1, 201):
            nl._swap_AB_idx_mask(mask)
        assert len(nl._swap_idx_cache) <= 129
