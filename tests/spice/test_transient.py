"""Transient engine: analytic RC/RL-free checks, breakpoints, chaining."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice import (
    GROUND,
    Capacitor,
    Circuit,
    Constant,
    Mosfet,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    PWL,
    Pulse,
    Resistor,
    SpiceError,
    VoltageSource,
    transient,
)
from repro.spice.errors import ConvergenceError
from repro.spice.netlist import Device

# The package re-exports the transient() function under the same name as
# its module; resolve the module itself for monkeypatching.
transient_module = importlib.import_module("repro.spice.transient")


def _rc(r=1e3, cap=1e-9, v=2.4, t_step=1e-9):
    c = Circuit()
    c.add(VoltageSource("V", c.node("in"), c.node("0"),
                        PWL([(0.0, 0.0), (t_step, v)])))
    c.add(Resistor("R", c.node("in"), c.node("out"), r))
    c.add(Capacitor("C", c.node("out"), c.node("0"), cap))
    return c


class TestRC:
    def test_charging_matches_analytic(self):
        res = transient(_rc(), 5e-6, 1e-8)
        tau = 1e-6
        for t in (0.5e-6, 1e-6, 3e-6):
            expect = 2.4 * (1 - math.exp(-(t - 1e-9) / tau))
            assert res.at("out", t) == pytest.approx(expect, abs=0.02)

    def test_trapezoidal_more_accurate_than_be(self):
        tau = 1e-6
        t_probe = 1e-6
        expect = 2.4 * (1 - math.exp(-(t_probe - 1e-9) / tau))
        err_be = abs(transient(_rc(), 2e-6, 4e-8).at("out", t_probe)
                     - expect)
        err_tr = abs(transient(_rc(), 2e-6, 4e-8,
                               method="trap").at("out", t_probe) - expect)
        assert err_tr < err_be

    def test_discharge_from_initial_condition(self):
        c = Circuit()
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e3))
        c.add(Capacitor("C", c.node("a"), c.node("0"), 1e-9))
        res = transient(c, 3e-6, 1e-8, initial={"a": 1.0})
        assert res.at("a", 1e-6) == pytest.approx(math.exp(-1.0),
                                                  abs=0.01)

    @given(st.floats(100.0, 1e5), st.floats(1e-12, 1e-9))
    @settings(max_examples=15, deadline=None)
    def test_final_value_reaches_source(self, r, cap):
        tau = r * cap
        res = transient(_rc(r=r, cap=cap), 8 * tau + 2e-9,
                        max(tau / 50, 1e-12))
        assert res.final("out") == pytest.approx(2.4, abs=0.02)


class TestBreakpoints:
    def test_pulse_edges_land_on_grid(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("a"), c.node("0"),
                            Pulse(0, 1, delay=3.3e-9, rise=0.1e-9,
                                  width=2e-9, fall=0.1e-9)))
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e3))
        res = transient(c, 10e-9, 1e-9)
        # the rising-edge corner must be an exact time point
        assert any(abs(t - 3.3e-9) < 1e-15 for t in res.time)

    def test_sharp_edge_not_smeared(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("a"), c.node("0"),
                            PWL([(5e-9, 0.0), (5.05e-9, 2.0)])))
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e3))
        res = transient(c, 10e-9, 1e-9)
        assert res.at("a", 4.9e-9) == pytest.approx(0.0, abs=1e-6)
        assert res.at("a", 5.2e-9) == pytest.approx(2.0, abs=1e-6)


class TestResultAPI:
    def test_len_and_nodes(self):
        res = transient(_rc(), 1e-7, 1e-8)
        assert len(res) >= 10
        assert res.has_node("out")
        assert not res.has_node("nope")

    def test_unknown_node_raises(self):
        res = transient(_rc(), 1e-7, 1e-8)
        with pytest.raises(SpiceError):
            res.v("nope")

    def test_at_clamps_to_ends(self):
        res = transient(_rc(), 1e-7, 1e-8)
        assert res.at("out", -1.0) == res.v("out")[0]
        assert res.at("out", 1.0) == res.v("out")[-1]

    def test_final_state_roundtrip(self):
        res = transient(_rc(), 1e-6, 1e-8)
        state = res.final_state()
        assert state["out"] == pytest.approx(res.final("out"))
        # chaining: drive the same level from t=0 and restart from the
        # final state — the output must stay where it was left
        c2 = Circuit()
        c2.add(VoltageSource("V", c2.node("in"), c2.node("0"),
                             Constant(state["in"])))
        c2.add(Resistor("R", c2.node("in"), c2.node("out"), 1e3))
        c2.add(Capacitor("C", c2.node("out"), c2.node("0"), 1e-9))
        res2 = transient(c2, 1e-7, 1e-8, initial=state)
        assert res2.v("out")[0] == pytest.approx(state["out"], abs=1e-9)
        assert res2.final("out") >= state["out"] - 1e-6

    def test_times_strictly_increasing(self):
        res = transient(_rc(), 1e-6, 1e-8)
        assert np.all(np.diff(res.time) > 0)


class TestValidation:
    def test_rejects_bad_tstop(self):
        with pytest.raises(SpiceError):
            transient(_rc(), -1.0, 1e-9)

    def test_rejects_bad_method(self):
        with pytest.raises(SpiceError):
            transient(_rc(), 1e-6, 1e-9, method="gear")

    def test_rejects_unknown_initial_node(self):
        with pytest.raises(SpiceError):
            transient(_rc(), 1e-6, 1e-9, initial={"zzz": 1.0})

    def test_ground_initial_ignored(self):
        res = transient(_rc(), 1e-7, 1e-8, initial={"gnd": 5.0})
        assert res.final("out") >= 0.0

    def test_rejects_a_step_layer_the_plans_cannot_compile(self):
        """The one step loop runs on compiled capacitor and source plans;
        a capacitor-like device of a custom class has none."""

        class Companion(Device):
            def __init__(self, name, a, cap):
                super().__init__(name, (a, GROUND))
                self.cap = cap

            def stamp_dynamic(self, st):
                if st.ctx.dt is not None:
                    st.conductance(*self.node_list, self.cap / st.ctx.dt)

        c = _rc()
        c.add(Companion("CX", c.node("out"), 1e-12))
        with pytest.raises(SpiceError, match="compiled capacitor and source"):
            transient(c, 1e-7, 1e-8)


class TestNonlinearTransient:
    def test_inverter_switches(self):
        c = Circuit()
        vdd = c.node("vdd")
        c.add(VoltageSource("VDD", vdd, c.node("0"), Constant(2.4)))
        c.add(VoltageSource("VIN", c.node("i"), c.node("0"),
                            PWL([(0, 0.0), (5e-9, 0.0), (6e-9, 2.4)])))
        c.add(Mosfet("MP", c.node("o"), c.node("i"), vdd, PMOS_DEFAULT,
                     w=2e-6))
        c.add(Mosfet("MN", c.node("o"), c.node("i"), c.node("0"),
                     NMOS_DEFAULT, w=1e-6))
        c.add(Capacitor("CL", c.node("o"), c.node("0"), 10e-15))
        res = transient(c, 20e-9, 0.1e-9, initial={"o": 2.4, "vdd": 2.4})
        assert res.at("o", 4e-9) == pytest.approx(2.4, abs=0.05)
        assert res.at("o", 15e-9) == pytest.approx(0.0, abs=0.05)

    def test_cross_coupled_latch_regenerates(self):
        """A sense-amp-like latch amplifies a small imbalance to rails."""
        c = Circuit()
        vdd = c.node("vdd")
        a, b = c.node("a"), c.node("b")
        c.add(VoltageSource("VDD", vdd, c.node("0"), Constant(2.4)))
        for name, out, inp in (("N1", a, b), ("N2", b, a)):
            c.add(Mosfet(f"M{name}n", out, inp, c.node("0"),
                         NMOS_DEFAULT, w=1e-6))
            c.add(Mosfet(f"M{name}p", out, inp, vdd, PMOS_DEFAULT,
                         w=2e-6))
        c.add(Capacitor("Ca", a, c.node("0"), 50e-15))
        c.add(Capacitor("Cb", b, c.node("0"), 50e-15))
        res = transient(c, 30e-9, 0.05e-9,
                        initial={"a": 1.25, "b": 1.15, "vdd": 2.4})
        assert res.final("a") > 2.2
        assert res.final("b") < 0.2


def _inverter():
    """A nonlinear (MOSFET + diode-free) circuit exercising swaps."""
    c = Circuit()
    vdd = c.node("vdd")
    c.add(VoltageSource("VDD", vdd, c.node("0"), Constant(2.4)))
    c.add(VoltageSource("VIN", c.node("i"), c.node("0"),
                        PWL([(0, 0.0), (3e-9, 0.0), (4e-9, 2.4),
                             (8e-9, 2.4), (9e-9, 0.0)])))
    c.add(Mosfet("MP", c.node("o"), c.node("i"), vdd, PMOS_DEFAULT,
                 w=2e-6))
    c.add(Mosfet("MN", c.node("o"), c.node("i"), c.node("0"),
                 NMOS_DEFAULT, w=1e-6))
    c.add(Capacitor("CL", c.node("o"), c.node("0"), 10e-15))
    return c


def _assert_identical(res_a, res_b):
    assert np.array_equal(res_a.time, res_b.time)
    assert np.array_equal(res_a.final_x, res_b.final_x)
    for name in res_a.node_names:
        assert np.array_equal(res_a.v(name), res_b.v(name)), name


class TestSystemReuse:
    """A prebuilt system reused across transients equals a fresh one.

    The trajectories themselves are pinned by
    ``tests/golden/spice_transients.json``
    (``tests/spice/test_golden_transients.py``).
    """

    def test_prebuilt_system_is_reused(self):
        from repro.spice.mna import System
        c = _inverter()
        c.finalize()
        system = System(c, use_plans=True)
        r1 = transient(c, 3e-9, 0.1e-9, system=system,
                       initial={"o": 2.4, "vdd": 2.4})
        r2 = transient(c, 3e-9, 0.1e-9, system=system,
                       initial={"o": 2.4, "vdd": 2.4})
        _assert_identical(r1, r2)

    def test_reprogrammed_waveforms_reach_the_next_transient(self):
        """Each transient resolves the source waveforms afresh: after a
        DC level and a PWL are replaced, a reused system still equals a
        fresh one bit for bit."""
        from repro.spice.mna import System
        c = _inverter()
        c.finalize()
        system = System(c, use_plans=True)
        programs = [
            (Constant(2.4), PWL([(0, 0.0), (1e-9, 0.0), (2e-9, 2.4)])),
            (Constant(2.1), PWL([(0, 2.1), (1.5e-9, 2.1), (2.5e-9, 0.3)])),
        ]
        kw = dict(tstop=4e-9, dt=0.1e-9, initial={"o": 2.4, "vdd": 2.4})
        results = []
        for vdd, vin in programs:
            c["VDD"].waveform = vdd
            c["VIN"].waveform = vin
            reused = transient(c, system=system, **kw)
            _assert_identical(reused, transient(c, **kw))
            results.append(reused)
        assert results[0].final("o") != results[1].final("o")


class TestStalledTransient:
    def test_kernel_counters_reach_the_registry(self, monkeypatch):
        """A transient that stalls still folds its kernel counters into
        the run diagnostics before the error propagates (the DRAM runner
        drops the system at its next defect change)."""
        from repro.diagnostics import reset_diagnostics
        real = transient_module.newton_solve

        def stall(system, A_step, b_step, ctx, x0, **kw):
            if ctx.time > 5e-9:
                raise ConvergenceError("injected", iterations=1)
            return real(system, A_step, b_step, ctx, x0, **kw)

        def no_rescue(*args, **kw):
            raise ConvergenceError("injected", iterations=1)

        monkeypatch.setattr(transient_module, "newton_solve", stall)
        monkeypatch.setattr(transient_module, "gmin_step_solve", no_rescue)
        diag = reset_diagnostics()
        try:
            with pytest.raises(ConvergenceError, match="stalled"):
                transient(_inverter(), 12e-9, 0.1e-9,
                          initial={"o": 2.4, "vdd": 2.4})
            assert diag.counts.get("kernel.plan_iteration_assembly", 0) > 0
            assert diag.counts.get("kernel.step_matrix_build", 0) > 0
        finally:
            reset_diagnostics()
