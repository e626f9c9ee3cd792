"""Pinned unknowns: the dense Newton solve on the kept block only.

A voltage source with exactly one grounded terminal pins its other node,
so :class:`~repro.spice.mna.System` drops that node voltage and the
source's branch current from the dense solve (DESIGN.md section 5c).
These tests hold the reduced solve to the full MNA solve it replaces:
entry for entry on random iterates, bitwise where nothing is pinned,
and physically through the recovered branch currents.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.column import DefectSite, build_column
from repro.dram.trim import trim_array
from repro.spice import (
    PWL,
    Capacitor,
    Circuit,
    Constant,
    Diode,
    Resistor,
    SingularMatrixError,
    VoltageSource,
    transient,
)
from repro.spice.linalg import dense_errstate
from repro.spice.mna import System
from repro.spice.netlist import AnalysisContext
from repro.spice.solver import newton_solve, solve_pinned

#: Declared bound of the reduced solve against the full one: every entry
#: of a block (node voltages, branch currents) within this share of the
#: block's largest magnitude.  Random iterates put the column's matrix
#: at a condition number near 1e9; the worst share seen over 8,000 of
#: them was 8.6e-13.
SOLVE_REL_BOUND = 1e-10


@functools.lru_cache(maxsize=None)
def _netlist(name):
    if name == "array4x4":
        return trim_array(4, 4, defect=DefectSite("open_sn", 5, 3e5)).circuit
    kind, r = {"O3": ("open_sn", 150e3), "B1": ("bridge_bl", 31e3),
               "Sg": ("short_gnd", 60e3)}[name]
    return build_column(defect=DefectSite(kind, 0, r)).circuit


def _iteration(system, x, dt, time=0.0, temp_c=27.0, x_prev=None):
    ctx = AnalysisContext(time=time, dt=dt, temp_c=temp_c, x=x,
                          x_prev=x if x_prev is None else x_prev)
    A_step, b_step = system.build_step(ctx)
    return system.build_iteration(A_step, b_step, ctx, full=True)


def _assert_close_blockwise(got, want, num_nodes):
    for block in (slice(0, num_nodes), slice(num_nodes, None)):
        g, w = got[block], want[block]
        if not len(w):
            continue
        scale = max(float(np.abs(w).max()), 1e-300)
        assert float(np.abs(g - w).max()) <= SOLVE_REL_BOUND * scale


class TestPartition:
    @pytest.mark.parametrize("kind,size,free", [
        ("open_sn", 46, 14), ("open_gate", 46, 14), ("bridge_bl", 45, 13),
        ("short_gnd", 45, 13), ("short_vdd", 45, 13)])
    def test_paper_column_keeps_the_free_unknowns(self, kind, size, free):
        system = System(build_column(defect=DefectSite(kind, 0, 1e5))
                        .circuit)
        assert (system.size, len(system._free)) == (size, free)
        assert len(system._pin_nodes) == 16

    def test_array_keeps_all_but_its_six_sources(self):
        system = System(_netlist("array4x4"))
        assert (system.size, len(system._free)) == (46, 34)

    def test_no_grounded_source_is_bitwise_the_full_solve(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("a"), c.node("b"), Constant(1.2)))
        c.add(Resistor("Ra", c.node("a"), c.node("0"), 1e3))
        c.add(Resistor("Rb", c.node("b"), c.node("0"), 2.2e3))
        c.add(Diode("D", c.node("a"), c.node("0")))
        c.add(Capacitor("C", c.node("b"), c.node("0"), 1e-12))
        system = System(c)
        assert len(system._free) == system.size
        x = np.array([0.4, -0.7, 1e-4])
        A, b = _iteration(system, x, 1e-10)
        want = np.linalg.solve(A, b)
        assert np.array_equal(solve_pinned(system, A, b), want)
        with dense_errstate():
            assert np.array_equal(
                solve_pinned(system, A, b, fast_solve=True), want)

    def test_source_grounded_at_its_positive_terminal_pins_minus(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("0"), c.node("a"), Constant(1.5)))
        c.add(Resistor("R", c.node("a"), c.node("b"), 1e3))
        c.add(Resistor("R2", c.node("b"), c.node("0"), 1e3))
        c.add(Diode("D", c.node("0"), c.node("b")))
        system = System(c)
        a = c.node("a").index
        assert system._pin_nodes.tolist() == [a]
        assert system._pin_sign.tolist() == [-1.0]
        A, b = _iteration(system, np.zeros(system.size), None)
        x = solve_pinned(system, A, b)
        assert x[a] == -1.5
        _assert_close_blockwise(x, np.linalg.solve(A, b), c.num_nodes)

    def test_floating_source_stays_kept(self):
        c = Circuit()
        c.add(VoltageSource("V1", c.node("a"), c.node("0"), Constant(1.0)))
        c.add(VoltageSource("V2", c.node("b"), c.node("a"), Constant(0.5)))
        c.add(Resistor("R", c.node("b"), c.node("0"), 1e3))
        system = System(c)
        row_v2 = c.num_nodes + c.branch_index("V2")
        assert c.node("b").index in system._free
        assert row_v2 in system._free
        assert system._pin_nodes.tolist() == [c.node("a").index]
        A, b = _iteration(system, np.zeros(system.size), None)
        x = solve_pinned(system, A, b)
        assert x[c.node("b").index] == pytest.approx(1.5, abs=1e-12)
        _assert_close_blockwise(x, np.linalg.solve(A, b), c.num_nodes)

    def test_node_pinned_twice_is_singular_like_the_full_solve(self):
        c = Circuit()
        c.add(VoltageSource("V1", c.node("a"), c.node("0"), Constant(1.0)))
        c.add(VoltageSource("V2", c.node("a"), c.node("0"), Constant(1.0)))
        c.add(Resistor("R", c.node("a"), c.node("b"), 1e3))
        c.add(Diode("D", c.node("b"), c.node("0")))
        system = System(c)
        assert len(system._pin_nodes) == 1
        x0 = np.zeros(system.size)
        ctx = AnalysisContext(time=0.0, dt=None, x=x0, x_prev=x0)
        A_step, b_step = system.build_step(ctx)
        A, b = system.build_iteration(A_step, b_step, ctx, full=True)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, b)
        with pytest.raises(SingularMatrixError):
            newton_solve(system, A_step, b_step, ctx, x0)
        with dense_errstate(), pytest.raises(SingularMatrixError):
            newton_solve(system, A_step, b_step, ctx, x0, fast_solve=True)


class TestAgainstTheFullSolve:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["O3", "B1", "Sg", "array4x4"]),
           seed=st.integers(0, 2 ** 32 - 1),
           log_dt=st.floats(-12.0, -8.0),
           temp_c=st.floats(-40.0, 125.0),
           fast=st.booleans())
    def test_every_entry_within_the_declared_bound(self, name, seed,
                                                   log_dt, temp_c, fast):
        """Random iterates and step sizes: every node voltage and every
        branch current, recovered ones included, stays within
        ``SOLVE_REL_BOUND`` of ``np.linalg.solve`` on the full system."""
        system = System(_netlist(name), use_plans=fast)
        n = system.num_nodes
        rng = np.random.default_rng(seed)
        x = np.zeros(system.size)
        x[:n] = rng.uniform(-0.5, 3.0, n)
        x_prev = x.copy()
        x_prev[:n] += rng.normal(0.0, 0.3, n)
        A, b = _iteration(system, x, 10.0 ** log_dt,
                          time=rng.uniform(0.0, 60e-9), temp_c=temp_c,
                          x_prev=x_prev)
        want = np.linalg.solve(A, b)
        with dense_errstate():
            got = solve_pinned(system, A, b, fast_solve=fast)
        assert np.array_equal(got[system._pin_nodes],
                              system._pin_sign * b[system._pin_rows])
        _assert_close_blockwise(got, want, n)


def _in_layout(system, A, b):
    """The kept layout's three blocks of a full ``A``/``b``, indexed
    directly: ``A[K,K]``, ``[A[K,P] | b[K]]`` and ``[A[P,K] | A[P,P] |
    b[P]]``."""
    K, P = system._free, system._pin_nodes
    return (A[np.ix_(K, K)],
            np.hstack([A[np.ix_(K, P)], b[K, None]]),
            np.hstack([A[np.ix_(P, K)], A[np.ix_(P, P)], b[P, None]]))


def _kept(system, x, dt, time, temp_c, x_prev, extra_gmin):
    """``build_iteration``'s kept blocks plus the pinned rows it leaves
    in place, copied, and the full assembly of the same iterate."""
    ctx = AnalysisContext(time=time, dt=dt, temp_c=temp_c, x=x,
                          x_prev=x_prev)
    A_step, b_step = system.build_step(ctx)
    A_kk, A_kt = system.build_iteration(A_step, b_step, ctx, extra_gmin)
    kept = (A_kk.copy(), A_kt.copy(), system._A_pt.copy())
    A, b = system.build_iteration(A_step, b_step, ctx, extra_gmin,
                                  full=True)
    return kept, _in_layout(system, A, b)


def _bitwise(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


#: Node voltages of the random iterates: below ground to above Vdd, so
#: NMOS and PMOS devices both conduct in either direction.
ITERATE_VOLTS = (-0.5, 3.0)


class TestKeptLayout:
    """``build_iteration`` assembles straight into the kept layout.  Its
    blocks must be bitwise the full assembly's entries, for the plan
    scatter (relabelled) and for the per-device walk (gathered)."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["O3", "B1", "Sg", "array4x4"]),
           seed=st.integers(0, 2 ** 32 - 1),
           log_dt=st.floats(-12.0, -8.0),
           temp_c=st.floats(-40.0, 125.0),
           extra_gmin=st.sampled_from([0.0, 1e-9, 1e-3]),
           pinned=st.booleans())
    def test_blocks_are_the_full_assembly_bitwise(self, name, seed, log_dt,
                                                  temp_c, extra_gmin,
                                                  pinned):
        rng = np.random.default_rng(seed)
        systems = [System(_netlist(name), use_plans=plans)
                   for plans in (True, False)]
        if not pinned:
            for system in systems:
                system._partition({})
        n, size = systems[0].num_nodes, systems[0].size
        x = np.zeros(size)
        x[:n] = rng.uniform(*ITERATE_VOLTS, n)
        x_prev = x.copy()
        x_prev[:n] += rng.normal(0.0, 0.3, n)
        args = (x, 10.0 ** log_dt, rng.uniform(0.0, 60e-9), temp_c,
                x_prev, extra_gmin)
        (plan, plan_full), (walk, walk_full) = (
            _kept(system, *args) for system in systems)
        assert len(plan[2]) == (16 if name != "array4x4" else 6) * pinned
        assert _bitwise(plan, plan_full)
        assert _bitwise(walk, walk_full)
        assert _bitwise(plan, walk)

    @pytest.mark.parametrize("name", ["O3", "B1", "Sg", "array4x4"])
    def test_iterates_swap_nmos_and_pmos_devices(self, name):
        """The property's iterates reverse the drain and source of NMOS
        and PMOS devices alike (the two loops of the scalar kernel);
        the array has no sense amplifier, so no PMOS devices."""
        plan = System(_netlist(name)).plans.nonlinear
        polarities = set(plan._mos_pol.tolist())
        assert polarities == ({1.0} if name == "array4x4"
                              else {1.0, -1.0})
        rng = np.random.default_rng(0)
        swaps = dict.fromkeys(polarities, 0)
        for _ in range(20):
            x = np.append(rng.uniform(*ITERATE_VOLTS, plan.size), 0.0)
            d = x[plan._mos_d] - x[plan._mos_s]
            swapped = plan._mos_pol * d < 0.0
            for pol in swaps:
                swaps[pol] += int(swapped[plan._mos_pol == pol].sum())
        assert all(count > 0 for count in swaps.values())

    def test_the_step_image_is_cached_per_step_matrix(self):
        """Only a cached step matrix gets its image cached; an equal
        copy (a DC or test assembly) is gathered afresh."""
        system = System(_netlist("O3"))
        x = np.zeros(system.size)
        ctx = AnalysisContext(time=0.0, dt=1e-10, x=x, x_prev=x)
        A_step = system.step_matrix(1e-10, "be")
        b_step = system.step_rhs(ctx)
        first = system.build_iteration(A_step, b_step, ctx)[0].copy()
        assert list(system._kept_images) == [(1e-10, "be")]
        again = system.build_iteration(A_step.copy(), b_step, ctx)[0]
        assert list(system._kept_images) == [(1e-10, "be")]
        assert np.array_equal(first, again)


def _sourced_rc(leak: bool) -> Circuit:
    """A grounded source driving R1 into C1, and a floating source
    driving R2 into C2 whose far end returns through Rg.  ``leak`` adds
    a reverse-biased junction across C1, so the iteration is nonlinear
    and every step runs the Newton loop instead of the cached inverse."""
    c = Circuit()
    gnd = c.node("0")
    c.add(VoltageSource("V1", c.node("a"), gnd,
                        PWL([(0.0, 0.0), (1e-9, 2.0)])))
    c.add(Resistor("R1", c.node("a"), c.node("b"), 1e3))
    c.add(Capacitor("C1", c.node("b"), gnd, 5e-12))
    c.add(VoltageSource("V2", c.node("c"), c.node("e"), Constant(1.0)))
    c.add(Resistor("R2", c.node("c"), c.node("d"), 2e3))
    c.add(Capacitor("C2", c.node("d"), c.node("e"), 10e-12))
    c.add(Resistor("Rg", c.node("e"), gnd, 1e4))
    if leak:
        c.add(Diode("D", gnd, c.node("b"), isat=1e-15))
    return c


class TestBranchCurrents:
    """``VoltageSource.branch_current`` is the current flowing p→n
    through the source, so a source feeding a resistor from its p
    terminal reads minus that resistor's current.  The pinned V1's
    current is recovered from its node's KCL row, which also carries
    gmin (1e-12 S) at 2 V: the tolerance covers that plus rounding."""

    ATOL = 1e-11

    @pytest.mark.parametrize("leak", [False, True])
    @pytest.mark.parametrize("use_kernels", [True, False])
    @pytest.mark.parametrize("tstop", [0.5e-9, 2e-9, 5e-9, 12e-9])
    def test_source_currents_equal_their_series_resistors(
            self, tstop, use_kernels, leak):
        c = _sourced_rc(leak)
        res = transient(c, tstop, 0.05e-9, use_kernels=use_kernels)
        x = res.final_x
        n = c.num_nodes
        v1 = 2.0 if tstop >= 1e-9 else 2.0 * tstop / 1e-9
        assert res.final("a") == pytest.approx(v1, abs=1e-12)
        for src, res_name in (("V1", "R1"), ("V2", "R2")):
            i_src = c[src].branch_current(x, n)
            i_res = c[res_name].current(x)
            assert abs(i_res) > 1e-6
            assert i_src == pytest.approx(-i_res, rel=1e-9, abs=self.ATOL)
