"""Newton solver and MNA assembly behaviour."""

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    Constant,
    Diode,
    Resistor,
    SingularMatrixError,
    SpiceError,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.spice.mna import System
from repro.spice.netlist import GROUND_ALIASES, AnalysisContext
from repro.spice.solver import newton_solve


def _linear_circuit():
    c = Circuit()
    c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(1.0)))
    c.add(Resistor("R1", c.node("in"), c.node("out"), 1e3))
    c.add(Resistor("R2", c.node("out"), c.node("0"), 1e3))
    return c


class TestSystem:
    def test_linear_solved_in_one_shot(self):
        c = _linear_circuit()
        sys = System(c)
        assert not sys.has_nonlinear
        ctx = AnalysisContext(x=np.zeros(sys.size),
                              x_prev=np.zeros(sys.size))
        A, b = sys.build_step(ctx)
        x = newton_solve(sys, A, b, ctx, np.zeros(sys.size))
        assert x[c.node("out").index] == pytest.approx(0.5)

    def test_nonlinear_detected(self):
        c = _linear_circuit()
        c.add(Diode("D", c.node("out"), c.node("0")))
        assert System(c).has_nonlinear

    def test_gmin_on_diagonal(self):
        c = _linear_circuit()
        sys = System(c, gmin=1e-9)
        # diagonal of a node with 2 conductances + gmin
        i = c.node("out").index
        assert sys._A_static[i, i] == pytest.approx(2e-3 + 1e-9)

    def test_source_waveforms_collected(self):
        c = _linear_circuit()
        sys = System(c)
        assert len(sys.source_waveforms()) == 1

    def test_initial_state_places_volts_at_their_nodes(self):
        """DC and transient start from this vector: the given volts at
        their nodes, zeros on every other node and branch unknown."""
        c = _linear_circuit()
        sys = System(c)
        expected = np.zeros(sys.size)
        expected[c.node("out").index] = 0.4
        assert np.array_equal(sys.initial_state({"out": 0.4, "gnd": 5.0}),
                              expected)
        assert np.array_equal(sys.initial_state(None), np.zeros(sys.size))


class TestNewton:
    def test_diode_resistor_converges(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(5.0)))
        c.add(Resistor("R", c.node("in"), c.node("a"), 1e3))
        c.add(Diode("D", c.node("a"), c.node("0"), isat=1e-14))
        op = dc_operating_point(c)
        v = op["a"]
        # KCL at the junction: (5 - v)/1k == diode current
        i_r = (5.0 - v) / 1e3
        i_d, _ = c["D"].iv(v, 27.0)
        assert i_r == pytest.approx(i_d, rel=1e-3)

    def test_back_to_back_diodes(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(1.0)))
        c.add(Diode("D1", c.node("in"), c.node("mid")))
        c.add(Diode("D2", c.node("0"), c.node("mid")))
        op = dc_operating_point(c)
        # Reverse-biased D2 blocks: mid sits roughly a diode drop below in
        assert 0.0 < op["mid"] < 1.0

    def test_singular_matrix_detected(self):
        c = Circuit()
        # Two voltage sources forcing the same node differently -> the
        # MNA matrix is singular.
        c.add(VoltageSource("V1", c.node("a"), c.node("0"), Constant(1.0)))
        c.add(VoltageSource("V2", c.node("a"), c.node("0"), Constant(2.0)))
        sys = System(c, gmin=0.0)
        ctx = AnalysisContext(x=np.zeros(sys.size),
                              x_prev=np.zeros(sys.size))
        A, b = sys.build_step(ctx)
        with pytest.raises(SingularMatrixError):
            newton_solve(sys, A, b, ctx, np.zeros(sys.size))


class TestDCOperatingPoint:
    def test_initial_guess_accepted(self):
        c = _linear_circuit()
        op = dc_operating_point(c, initial={"out": 0.4})
        assert op["out"] == pytest.approx(0.5)

    def test_includes_every_node(self):
        c = _linear_circuit()
        op = dc_operating_point(c)
        assert set(op) == {"in", "out"}

    def test_unknown_initial_node_raises_like_transient(self):
        with pytest.raises(SpiceError, match="unknown node 'ot'"):
            dc_operating_point(_linear_circuit(), initial={"ot": 0.5})
        with pytest.raises(SpiceError, match="unknown node 'ot'"):
            transient(_linear_circuit(), 1e-9, 1e-10, initial={"ot": 0.5})

    @pytest.mark.parametrize("ground", GROUND_ALIASES)
    def test_ground_initial_ignored(self, ground):
        op = dc_operating_point(_linear_circuit(), initial={ground: 5.0})
        assert op["out"] == pytest.approx(0.5)

    def test_temperature_passed_to_devices(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(2.0)))
        c.add(Resistor("R", c.node("in"), c.node("a"), 1e5))
        c.add(Diode("D", c.node("a"), c.node("0"), isat=1e-14,
                    isat_tdouble=10.0))
        v_room = dc_operating_point(c, temp_c=27.0)["a"]
        v_hot = dc_operating_point(c, temp_c=87.0)["a"]
        # the isat doubling beats the thermal-voltage growth: a hotter
        # diode conducts at a lower forward drop than at room temperature
        assert v_hot < v_room


class TestFailingNodes:
    """Defensive bounds in convergence-failure reporting."""

    def _system(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(1.0)))
        c.add(Resistor("R1", c.node("in"), c.node("out"), 1e3))
        c.add(Resistor("R2", c.node("out"), c.node("0"), 1e3))
        return System(c)

    def test_short_dx_does_not_blow_up(self):
        from repro.spice.solver import _failing_nodes
        sys_ = self._system()
        # dx shorter than the node count (e.g. a truncated vector)
        names = _failing_nodes(sys_, np.array([1.0]), vtol=1e-6)
        assert names == [sys_.circuit.node_names[0]]

    def test_short_names_fall_back_to_index(self):
        import types

        from repro.spice.solver import _failing_nodes
        sys_ = self._system()
        # a circuit whose name list is shorter than the node count
        sys_.circuit = types.SimpleNamespace(node_names=["in"])
        dx = np.full(sys_.size, 1.0)
        names = _failing_nodes(sys_, dx, vtol=1e-6)
        assert "in" in names
        assert any(n.startswith("node#") for n in names)

    def test_oversized_dx_ignores_branch_rows(self):
        from repro.spice.solver import _failing_nodes
        sys_ = self._system()
        dx = np.zeros(sys_.size + 3)
        dx[sys_.num_nodes:] = 99.0  # branch rows move, nodes do not
        assert _failing_nodes(sys_, dx, vtol=1e-6) == []
