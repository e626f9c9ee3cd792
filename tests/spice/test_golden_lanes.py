"""Golden trajectories of the batched lane kernels.

``tests/golden/lane_transients.json`` holds four recorded cases:

* ``column_w1_r1`` — dense column lanes (:class:`~repro.dram.runner
  .LaneRunner`) running ``w1 r1`` on ``open_sn`` from 0 V, with the
  1.0/1.1 MΩ and 3.0/3.3 MΩ lanes whose read after a weak write takes
  the continuation and full-Newton rungs;
* ``column_isolated`` — dense column lanes running ``w1 r1`` with one
  lane failed on purpose from a mid-cycle solve on, so it is isolated
  and every later step solves a subset of the lanes;
* ``array_open_sn`` / ``array_bridge_wl`` — sparse lanes of a trimmed
  32×32 :class:`~repro.dram.runner.ArrayLaneRunner` (the ``lane-sweeps``
  benchmark geometry, which resolves sparse under the ``auto`` backend
  policy) reading ``r`` over two generations, the second seeded from
  the first through the warm bank.

Per lane the golden keeps the isolation flag and every cycle's
``vc_end``, sensed bit and ``final_x``; per group it keeps the lane
counters (isolated lanes, continuation and full-Newton hits, symbolic
reuse, warm-bank hits and misses).  A replay must reproduce flags, bits
and counters exactly and every ``vc_end`` and ``final_x`` entry within
:data:`TOL`.  It cannot be bitwise: OpenBLAS picks its kernel by CPU
at run time, and replays under ``OPENBLAS_CORETYPE`` Prescott,
Sandybridge and Haswell move the dense column cases by at most 1.4e-19
and the sparse array cases by at most 2.0e-11 V (node voltages;
``vc_end`` by at most 7e-13 V), with the same bits, flags and
counters.  CI replays the file under ``OPENBLAS_CORETYPE=Prescott``
too.

Regenerate only when the lane kernels' numerics change on purpose::

    PYTHONPATH=src python tests/spice/test_golden_lanes.py
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.dram.runner as runner_mod
import repro.spice.lanes as lanes_mod
from repro.dram.runner import ArrayLaneRunner, LaneRunner
from repro.spice.backends import scipy_available
from repro.stress import NOMINAL_STRESS

GOLDEN = (Path(__file__).resolve().parents[1] / "golden"
          / "lane_transients.json")

#: Every ``vc_end`` and ``final_x`` entry of a replay within this of the
#: golden value: 50 times the largest deviation another OpenBLAS kernel
#: was measured to cause.
TOL = 1e-9

COLUMN_OPS = "w1 r1"
COLUMN_RS = (2e5, 1.0e6, 1.1e6, 3.0e6, 3.3e6)

#: ``column_isolated``: the lane at ``ISOLATED_RS[VICTIM]`` fails every
#: solve from the ``ISOLATE_AFTER``-th kernel call on (mid ``w1``).
ISOLATED_RS = (5e4, 2e5, 1e6)
VICTIM = 1
ISOLATE_AFTER = 40

#: The ``lane-sweeps`` array: 32×32, centre victim, trimmed by ``auto``.
GEOMETRY = (32, 32)
ARRAY_CELL = 16 * 32 + 16
GENERATIONS = ((3e4, 2.5e5, 2e6), (8.5e4, 7e5))
VDD = NOMINAL_STRESS.vdd


@contextlib.contextmanager
def recorded_batches(log: list):
    """Log every lane transient's per-row ``final_x`` (``None`` for a
    row isolated in that batch)."""
    real = runner_mod.lane_transient

    def logged(*args, **kwargs):
        batch = real(*args, **kwargs)
        log.append([None if r is None else r.final_x.tolist()
                    for r in batch.results])
        return batch

    runner_mod.lane_transient = logged
    try:
        yield
    finally:
        runner_mod.lane_transient = real


@contextlib.contextmanager
def isolated_victim():
    """Fail the victim lane in every kernel call from the
    :data:`ISOLATE_AFTER`-th on, retries included."""
    real = lanes_mod.newton_solve_lanes
    calls = {"n": 0}

    def flaky(lanes, A_step, b_step, x0, lane_idx, **kw):
        x, failed = real(lanes, A_step, b_step, x0, lane_idx, **kw)
        calls["n"] += 1
        if calls["n"] >= ISOLATE_AFTER:
            rs = np.asarray(lanes.resistances)[lane_idx]
            failed = failed | (rs == ISOLATED_RS[VICTIM])
        return x, failed

    lanes_mod.newton_solve_lanes = flaky
    try:
        yield
    finally:
        lanes_mod.newton_solve_lanes = real


def run_group(runner, ops: str, lanes_in) -> dict:
    """One ``run_sequences`` call in the golden's form."""
    log: list = []
    with recorded_batches(log):
        results, counters = runner.run_sequences(ops, lanes_in)
    final_x = [[] for _ in lanes_in]
    alive = list(range(len(lanes_in)))
    for rows in log:
        for pos, x in zip(alive, rows):
            if x is not None:
                final_x[pos].append(x)
        alive = [pos for pos, x in zip(alive, rows) if x is not None]
    lanes = []
    for (r, init_vc), seq, xs in zip(lanes_in, results, final_x):
        cycles = [] if seq is None else seq.results
        lanes.append({"resistance": r, "init_vc": init_vc,
                      "isolated": seq is None,
                      "vc_end": [c.vc_end for c in cycles],
                      "sensed": [c.sensed for c in cycles],
                      "final_x": xs})
    return {"ops": ops, "lanes": lanes, "counters": dict(sorted(
        counters.items()))}


def _column_w1_r1() -> dict:
    return run_group(LaneRunner(defect_kind="open_sn"), COLUMN_OPS,
                     [(r, 0.0) for r in COLUMN_RS])


def _column_isolated() -> dict:
    with isolated_victim():
        return run_group(LaneRunner(defect_kind="open_sn"), COLUMN_OPS,
                         [(r, 0.0) for r in ISOLATED_RS])


def _array(kind: str) -> dict:
    runner = ArrayLaneRunner(defect_kind=kind, cell=ARRAY_CELL,
                             geometry=GEOMETRY, trim="auto")
    return {"generations": [run_group(runner, "r", [(r, VDD) for r in gen])
                            for gen in GENERATIONS]}


#: Case name -> a callable that runs it and returns its golden record.
CASES = {
    "column_w1_r1": _column_w1_r1,
    "column_isolated": _column_isolated,
    "array_open_sn": lambda: _array("open_sn"),
    "array_bridge_wl": lambda: _array("bridge_wl"),
}

#: Cases that run sparse lanes, skipped without scipy.
SPARSE_CASES = ("array_open_sn", "array_bridge_wl")


def deviation(got, want, path: str = "$") -> tuple[list[str], float]:
    """Where a replay ``got`` departs from the golden record ``want``
    structurally (keys, lengths, flags, bits, counters), and its largest
    voltage deviation."""
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"], 0.0
        parts = [deviation(got[k], want[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list) and want \
            and isinstance(want[0], (dict, list)):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"], 0.0
        parts = [deviation(g, w, f"{path}[{i}]")
                 for i, (g, w) in enumerate(zip(got, want))]
    elif isinstance(want, float) or (isinstance(want, list) and want
                                     and isinstance(want[0], float)):
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if g.shape != w.shape:
            return [f"{path}: length {g.shape} != {w.shape}"], 0.0
        return [], float(np.max(np.abs(g - w), initial=0.0))
    else:
        return ([] if got == want else [f"{path}: {got!r} != {want!r}"]), 0.0
    return ([m for found, _ in parts for m in found],
            max((err for _, err in parts), default=0.0))


def mismatches(got, want) -> list[str]:
    """:func:`deviation`'s departures, plus one line when the largest
    voltage deviation exceeds :data:`TOL` (empty when the replay
    holds)."""
    found, err = deviation(got, want)
    return found + ([f"$: off by {err:.3g} > {TOL:g}"] if err > TOL else [])


def generate() -> dict:
    return {"tolerance": TOL,
            "cases": {name: run() for name, run in CASES.items()}}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_holds_every_case(golden):
    assert golden["tolerance"] == TOL
    assert list(golden["cases"]) == list(CASES)
    cases = golden["cases"]
    weak = cases["column_w1_r1"]
    assert weak["counters"]["lane_full_newton_hits"] >= 1
    assert weak["counters"]["lanes_isolated"] == 0
    iso = cases["column_isolated"]
    assert [lane["isolated"] for lane in iso["lanes"]] == [False, True, False]
    assert len(iso["lanes"][VICTIM]["final_x"]) == 0
    for name in SPARSE_CASES:
        first, second = cases[name]["generations"]
        assert first["counters"]["lane_sparse_transients"] == 1
        assert second["counters"]["lane_warm_start_hits"] == len(
            GENERATIONS[1])


def test_comparator_flags_departures(golden):
    want = golden["cases"]["column_w1_r1"]
    assert mismatches(want, want) == []
    moved = json.loads(json.dumps(want))
    moved["lanes"][2]["final_x"][1][5] += 2 * TOL
    assert mismatches(moved, want) == [f"$: off by {2 * TOL:.3g} > {TOL:g}"]
    flipped = json.loads(json.dumps(want))
    flipped["lanes"][0]["sensed"][1] ^= 1
    assert len(mismatches(flipped, want)) == 1
    counted = json.loads(json.dumps(want))
    counted["counters"]["lane_full_newton_hits"] += 1
    assert mismatches(counted, want) == [
        "$.counters.lane_full_newton_hits: "
        f"{want['counters']['lane_full_newton_hits'] + 1} != "
        f"{want['counters']['lane_full_newton_hits']}"]


@pytest.mark.parametrize("name", list(CASES))
def test_replay_matches_golden(golden, name):
    if name in SPARSE_CASES and not scipy_available():
        pytest.skip("scipy required for sparse lanes")
    assert mismatches(CASES[name](), golden["cases"][name]) == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
