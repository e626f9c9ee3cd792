"""The paper column and the 4×4 array on the pinned-unknown Newton solve.

The dense serial solve factors only the kept unknowns (DESIGN.md
section 5c).  Two end-to-end checks hold it to the physics and to the
full-system solve it replaced:

* every accepted step satisfies KCL on every free node, and every
  pinned node sits at its source's value, on the columns and on the
  serial dense 4×4 array;
* with the partition emptied — which runs the same code on the full MNA
  system, bitwise the solve before pinning — sequences sense the same
  bits in the same Newton iterations, and every recorded voltage stays
  within the declared trajectory bound.
"""

import importlib

import numpy as np
import pytest

from repro.diagnostics import reset_diagnostics
from repro.dram.column import DefectSite
from repro.dram.runner import ArrayRunner, ColumnRunner
from repro.experiments.figures import FIG6_STRESS
from repro.spice.devices import VoltageSource
from repro.spice.mna import pinned_unknowns
from repro.stress import NOMINAL_STRESS

# The package re-exports the transient() function under the same name as
# its module; resolve the module itself for monkeypatching.
transient_module = importlib.import_module("repro.spice.transient")
mna_module = importlib.import_module("repro.spice.mna")

#: KCL residual allowed on a free node at an accepted step: a
#: picoampere, what gmin draws at 1 V.  Newton stops once the update is
#: under 1e-6 V, which leaves residuals near 1e-15 A on these columns.
KCL_BOUND_A = 1e-12

#: Declared distance of a recorded trajectory from the full-system
#: solve.  Both solves agree in exact arithmetic; the worst gap measured
#: over ten column sequences at nominal and Fig. 6 stress was 9.5e-13 V.
TRAJECTORY_BOUND_V = 1e-11

COLUMNS = [("open_sn", 150e3), ("bridge_bl", 31e3), ("short_gnd", 60e3)]

#: Defects on the 4x4 array's cell 5, near their borders, and the
#: unknowns each array keeps (the open adds the storage-node split).
ARRAY_DEFECTS = [("open_sn", 3.01e5, 34), ("bridge_wl", 1.802e5, 33)]


def _grounded_sources(circuit):
    """``(source, pinned node, sign)`` of every grounded source."""
    return [(dev, dev.p if dev.n.is_ground else dev.n,
             1.0 if dev.n.is_ground else -1.0)
            for dev in circuit.devices
            if type(dev) is VoltageSource
            and dev.p.is_ground != dev.n.is_ground]


def _capture_steps(monkeypatch):
    """Record each converged step: the system, its step matrix and rhs,
    time, temperature, solution, and every grounded source's value at
    that time (the runner reprograms the waveforms every cycle)."""
    steps = []
    real = transient_module.newton_solve

    def spy(system, A_step, b_step, ctx, x0, **kw):
        x = real(system, A_step, b_step, ctx, x0, **kw)
        values = [dev.waveform.value(ctx.time)
                  for dev, _, _ in _grounded_sources(system.circuit)]
        steps.append((system, A_step.copy(), b_step.copy(), ctx.time,
                      ctx.temp_c, x.copy(), values))
        return x

    monkeypatch.setattr(transient_module, "newton_solve", spy)
    return steps


def _assert_accepted_steps(steps, n_sources):
    """Every captured step: KCL on every free node under the bound, and
    every pinned node exactly at its source's value."""
    system = steps[0][0]
    n = system.num_nodes
    free_nodes = system._free[system._free < n]
    sources = _grounded_sources(system.circuit)
    assert len(sources) == n_sources
    assert sorted(node.index for _, node, _ in sources) \
        == sorted(pinned_unknowns(system.circuit))
    plan = system.plans.nonlinear
    for sys_, A_step, b_step, t, temp_c, x, values in steps:
        i_nl = plan.residual_lanes(x[None, :], temp_c)[0, :sys_.size]
        residual = b_step + i_nl - A_step @ x
        assert np.abs(residual[free_nodes]).max() < KCL_BOUND_A, t
        for (_, node, sign), value in zip(sources, values):
            assert x[node.index] == sign * value, (node.name, t)


class TestAcceptedSteps:
    @pytest.mark.parametrize("kind,resistance", COLUMNS)
    def test_kcl_holds_and_pins_sit_at_their_sources(self, monkeypatch,
                                                      kind, resistance):
        steps = _capture_steps(monkeypatch)
        for ops, init_vc in (("w1 r1", 0.0), ("w0 r0", 2.4)):
            runner = ColumnRunner(defect=DefectSite(kind, 0, resistance))
            runner.run_sequence(ops, init_vc)
        assert len(steps) > 900
        _assert_accepted_steps(steps, 16)

    @pytest.mark.parametrize("kind,resistance,kept", ARRAY_DEFECTS)
    def test_array_kcl_holds_and_pins_sit_at_their_sources(
            self, monkeypatch, kind, resistance, kept):
        """The serial dense 4x4 array: 6 pinned nodes, the rest kept."""
        steps = _capture_steps(monkeypatch)
        for init_vc in (2.4, 0.0):
            runner = ArrayRunner(defect=DefectSite(kind, 5, resistance),
                                 geometry=(4, 4))
            runner.run_sequence("r nop r", init_vc)
        assert len(steps) > 700
        assert len(steps[0][0]._free) == kept
        _assert_accepted_steps(steps, 6)


def _run(runner_factory, ops, init_vc):
    diag = reset_diagnostics()
    try:
        res = runner_factory().run_sequence(ops, init_vc)
        iterations = diag.counts.get("kernel.plan_iteration_assembly", 0)
    finally:
        reset_diagnostics()
    return res, iterations


CASES = [
    ("O3 nominal", lambda: ColumnRunner(
        defect=DefectSite("open_sn", 0, 177e3), record=True),
     "w1 r1 r1 w0 r0", 0.0),
    ("O3 Fig. 6", lambda: ColumnRunner(
        defect=DefectSite("open_sn", 0, 177e3), stress=FIG6_STRESS,
        record=True), "w1 r1 r1 w0 r0", 0.0),
    ("B1 nominal", lambda: ColumnRunner(
        defect=DefectSite("bridge_bl", 0, 31e3), stress=NOMINAL_STRESS,
        record=True), "w1 r1 w0 r0", 0.0),
    ("array open_sn", lambda: ArrayRunner(
        defect=DefectSite("open_sn", 5, 3.01e5), geometry=(4, 4),
        record=True), "r r nop r", 2.4),
    ("array bridge_wl", lambda: ArrayRunner(
        defect=DefectSite("bridge_wl", 5, 1.802e5), geometry=(4, 4),
        record=True), "r r nop r", 0.0),
]


class TestAgainstTheFullSystem:
    @pytest.mark.parametrize("label,factory,ops,init_vc", CASES,
                             ids=[c[0] for c in CASES])
    def test_same_bits_and_iterations_within_the_bound(
            self, monkeypatch, label, factory, ops, init_vc):
        pinned, pinned_iters = _run(factory, ops, init_vc)
        monkeypatch.setattr(mna_module, "pinned_unknowns",
                            lambda circuit: {})
        full, full_iters = _run(factory, ops, init_vc)
        assert pinned_iters == full_iters > 0
        assert pinned.outputs == full.outputs
        worst = 0.0
        for a, b in zip(pinned.results, full.results):
            assert np.array_equal(a.times, b.times)
            waves = [(a.vc, b.vc)] + [(a.extra[k], b.extra[k])
                                      for k in a.extra]
            for wa, wb in waves:
                worst = max(worst, float(np.abs(wa - wb).max()))
        assert worst <= TRAJECTORY_BOUND_V
