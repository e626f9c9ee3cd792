"""Golden trajectories of the serial transient engine.

``tests/golden/spice_transients.json`` holds five recorded transients:

* ``inverter_be`` / ``inverter_trap`` — a CMOS inverter driven through
  both switching edges (MOSFET source/drain swaps included) under
  backward Euler and the trapezoidal rule;
* ``rc_linear`` — a linear RC charge, which takes the cached-LU path;
* ``inverter_bisection`` — the inverter with Newton failures injected
  over a window, so the step walk bisects twice before it moves on;
* ``w0_w1_r1`` — the ``w0 w1 r1`` cycle sequence on the reference cell
  open (Fig. 1), every cycle's time grid, recorded waveforms, end
  voltage and sensed bit.

A replay must reproduce every time grid, length and sensed bit exactly
and every voltage and ``final_x`` entry within :data:`TOL`, the dense
tolerance of DESIGN.md section 5c.  It cannot be bitwise: OpenBLAS picks
its kernel by CPU at run time, and another kernel moves these
trajectories by ~1e-15 V (the four small transients) to ~4e-14 V
(``w0_w1_r1``) with the same grids and bits; CI replays the file a
second time under ``OPENBLAS_CORETYPE=Prescott`` for that reason.

``benchmarks/bench_solver.py`` checks its timed ``w0 w1 r1`` run
against the golden entry through :func:`mismatches`.

Regenerate only when the engine's numerics change on purpose::

    PYTHONPATH=src python tests/spice/test_golden_transients.py
"""

import contextlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.interface import electrical_model
from repro.experiments.figures import REFERENCE_DEFECT
from repro.spice import (Capacitor, Circuit, Constant, Mosfet, NMOS_DEFAULT,
                         PMOS_DEFAULT, PWL, Resistor, VoltageSource,
                         transient)
from repro.spice.errors import ConvergenceError

GOLDEN = (Path(__file__).resolve().parents[1] / "golden"
          / "spice_transients.json")

#: Every voltage and ``final_x`` entry of a replay within this of the
#: golden value (DESIGN.md 5c's dense tolerance).
TOL = 1e-11

CYCLE_OPS = "w0 w1 r1"

# The package re-exports transient() under its module's name.
_transient_module = importlib.import_module("repro.spice.transient")


def inverter() -> Circuit:
    """A CMOS inverter with a load capacitor, switched low-high-low."""
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


def rc() -> Circuit:
    """A 1 kOhm / 1 nF low-pass driven by a 1 ns 2.4 V ramp."""
    c = Circuit()
    c.add(VoltageSource("V", c.node("in"), c.node("0"),
                        PWL([(0.0, 0.0), (1e-9, 2.4)])))
    c.add(Resistor("R", c.node("in"), c.node("out"), 1e3))
    c.add(Capacitor("C", c.node("out"), c.node("0"), 1e-9))
    return c


@contextlib.contextmanager
def injected_failures():
    """Fail every Newton solve of a step of 0.26 ns or more that ends
    in [0.9, 2.1] ns: a 1 ns grid then bisects twice over that window."""
    real = _transient_module.newton_solve

    def flaky(system, A_step, b_step, ctx, x0, **kw):
        if ctx.dt >= 0.26e-9 and 0.9e-9 <= ctx.time <= 2.1e-9:
            raise ConvergenceError("injected", iterations=1)
        return real(system, A_step, b_step, ctx, x0, **kw)

    _transient_module.newton_solve = flaky
    try:
        yield
    finally:
        _transient_module.newton_solve = real


def _transient(res) -> dict:
    return {"time": res.time.tolist(),
            "v": {name: res.v(name).tolist() for name in res.node_names},
            "final_x": res.final_x.tolist()}


def run_cycles():
    """The ``w0 w1 r1`` sequence on a fresh recording reference model."""
    model = electrical_model(REFERENCE_DEFECT, record=True)
    return model.run_sequence(CYCLE_OPS, init_vc=0.0)


def record_cycles(seq) -> dict:
    """A :class:`~repro.dram.ops.SequenceResult` in the golden's form."""
    return {"ops": CYCLE_OPS,
            "cycles": [{"time": r.times.tolist(),
                        "v": {"vc": r.vc.tolist(),
                              **{k: w.tolist() for k, w in r.extra.items()}},
                        "vc_end": r.vc_end,
                        "sensed": r.sensed}
                       for r in seq.results]}


_INVERTER_IC = {"o": 2.4, "vdd": 2.4}


def _inverter_bisection() -> dict:
    with injected_failures():
        res = transient(inverter(), 4e-9, 1e-9, initial=_INVERTER_IC)
    return _transient(res)

#: Case name -> a callable that runs it and returns its golden record.
CASES = {
    "inverter_be": lambda: _transient(transient(
        inverter(), 12e-9, 0.1e-9, initial=_INVERTER_IC)),
    "inverter_trap": lambda: _transient(transient(
        inverter(), 6e-9, 0.1e-9, method="trap", initial=_INVERTER_IC)),
    "rc_linear": lambda: _transient(transient(rc(), 2e-6, 1e-8)),
    "inverter_bisection": _inverter_bisection,
    "w0_w1_r1": lambda: record_cycles(run_cycles()),
}


def mismatches(got, want, path: str = "$") -> list[str]:
    """Where a replay ``got`` departs from the golden record ``want``.

    Keys, lengths, time grids, sensed bits and labels must be equal;
    every other number may move by at most :data:`TOL`.  Returns one
    line per departure (empty when the replay holds).
    """
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want
                for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and want and isinstance(want[0], dict):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if not isinstance(want, (float, list)):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if g.shape != w.shape:
        return [f"{path}: length {g.shape} != {w.shape}"]
    err = float(np.max(np.abs(g - w), initial=0.0))
    tol = 0.0 if path.endswith(".time") else TOL
    return [] if err <= tol else [f"{path}: off by {err:.3g} > {tol:g}"]


def generate() -> dict:
    return {"tolerance": TOL,
            "cases": {name: run() for name, run in CASES.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_holds_every_case(golden):
    assert golden["tolerance"] == TOL
    assert list(golden["cases"]) == list(CASES)
    assert len(golden["cases"]["inverter_bisection"]["time"]) > 6
    assert [c["sensed"] for c in golden["cases"]["w0_w1_r1"]["cycles"]] \
        == [None, None, 1]


def test_comparator_flags_departures(golden):
    want = golden["cases"]["inverter_be"]
    assert mismatches(want, want) == []
    moved = json.loads(json.dumps(want))
    moved["v"]["o"][5] += 2 * TOL
    assert mismatches(moved, want) == ["$.v.o: off by 2e-11 > 1e-11"]
    nudged = json.loads(json.dumps(want))
    nudged["time"][3] = np.nextafter(nudged["time"][3], 1.0)
    assert len(mismatches(nudged, want)) == 1
    cycles = golden["cases"]["w0_w1_r1"]
    flipped = json.loads(json.dumps(cycles))
    flipped["cycles"][2]["sensed"] = 0
    assert mismatches(flipped, cycles) == ["$.cycles[2].sensed: 0 != 1"]


@pytest.mark.parametrize("name", list(CASES))
def test_replay_matches_golden(golden, name):
    assert mismatches(CASES[name](), golden["cases"][name]) == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
