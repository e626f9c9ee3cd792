"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the
tier-1 suite only collects ``tests/``).
"""

from __future__ import annotations

import json
import signal
import time

import pytest

from benchmarks.e2e import child, compare, run, speed, trace
from benchmarks.e2e.workloads import WORKLOADS, fresh_engine

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Sizes small enough to run every workload in a few seconds.
REDUCED = {
    "optimize-e": {"rel_tol": 2.0},
    "lane-sweeps": {"points": 2, "geometry": (6, 6), "kinds": ("open_sn",)},
    "br-campaign": {"kinds": ("Sv",), "rel_tol": 2.0},
    "table1-resume": {"rows": 1},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(2.0), "spice.leaf",
                       coarse=False)

    def middle_body():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap(middle_body, "dram.middle", coarse=True)

    def root_body():
        clock.advance(0.25)
        middle()
        clock.advance(0.25)

    tracer.wrap(root_body, "run.cold", coarse=True)()

    names = trace.by_name(tracer.agg)
    assert names["spice.leaf"] == [2, 4.0, 4.0]
    assert names["dram.middle"] == [1, 5.5, 1.5]
    assert names["run.cold"] == [1, 6.0, 0.5]
    # Fine spans are aggregated under their enclosing coarse span; coarse
    # spans are kept one by one, linked to their parent.
    assert set(tracer.agg) == {("dram.middle", "spice.leaf"),
                               ("run.cold", "dram.middle"),
                               ("", "run.cold")}
    (mid_id, mid_parent, *_), (root_id, root_parent, *_) = tracer.spans
    assert (mid_parent, root_parent) == (root_id, None)


def test_speed_probe_excludes_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) > 2 * speed.BURST      # probed inside too
    assert probe.inside > 0.0
    assert probe.elapsed == pytest.approx(0.2 - probe.inside, abs=0.02)
    assert probe.scaled == pytest.approx(probe.elapsed * probe.factor)


def _column_run():
    from repro.defects import Defect, DefectKind
    from repro.dram.runner import ColumnRunner
    runner = ColumnRunner(defect=Defect(DefectKind.O3,
                                        resistance=300e3).site())
    seq = runner.run_sequence("w0 w1 r1", init_vc=0.0)
    return [(r.vc_end, r.sensed) for r in seq.results]


def _patched_attributes() -> dict:
    out = {}
    for module, attribute, *_ in trace.TARGETS:
        owner, leaf = trace._owner(module, attribute)
        out[(module, attribute)] = vars(owner)[leaf]
    return out


def test_wrappers_change_no_result_and_restore_every_attribute():
    originals = _patched_attributes()
    reference = _column_run()
    tracer = trace.Tracer()
    restore = trace.install(tracer)
    try:
        assert all(_patched_attributes()[k] is not v
                   for k, v in originals.items())
        traced = _column_run()
    finally:
        restore()
    assert traced == reference          # exact float equality
    assert _column_run() == reference
    assert all(_patched_attributes()[k] is v for k, v in originals.items())
    assert trace.by_name(tracer.agg)["spice.transient"][0] == 3


def test_wrapped_engine_still_forms_lane_groups():
    from repro.defects import Defect, DefectKind
    from repro.engine import SequenceRequest
    from repro.stress import NOMINAL_STRESS
    requests = [SequenceRequest.build(
        "w0 r0", NOMINAL_STRESS.vdd, backend="electrical",
        defect=Defect(DefectKind.O3, resistance=r), stress=NOMINAL_STRESS)
        for r in (1e5, 2e5, 4e5, 8e5)]
    tracer = trace.Tracer()
    restore = trace.install(tracer)
    try:
        with fresh_engine(None, lanes=4) as engine:
            engine.map(requests)
            assert engine.stats.lane_groups == 1
    finally:
        restore()
    assert trace.by_name(tracer.agg)["spice.lanes"][0] >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_metric_appears_in_a_reduced_run(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(1, **REDUCED[name])
    result = run.combine([child.measure(workload, inputs, work=tmp_path,
                                        trace=True, verify=True,
                                        resumes=1)])
    assert result["problems"] == []
    end_to_end = run.make_record(name, SPEC, [(0.3, 0.3)], result)
    per_layer = run.make_record(name, SPEC, [], result, result)
    assert end_to_end["checks"]["golden"].startswith("skipped")
    assert end_to_end["correct"] and per_layer["correct"]
    assert set(end_to_end["metrics"]) == {
        m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert per_layer["metrics"]["unattributed_frac"]["median"] < 0.05


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]

    def judged(b, **kw):
        return compare.verdict(base, b, bound=0.1, **kw)["verdict"]

    assert judged([x * 1.3 for x in base]) == "regressed"
    assert judged([x * 1.02 for x in base]) == "within bound"
    assert judged([x * 0.8 for x in base]) == "improved"
    assert judged([5.0, 15.0, 10.0, 7.0, 13.0]) == "unresolved"
    assert judged([x * 1.3 for x in base], lower_is_better=False) \
        == "improved"


def _record(metrics: dict) -> dict:
    return {"optimize-e": {"metrics": {
        name: {"median": value} for name, value in metrics.items()}}}


def test_compare_requires_equal_counts():
    a = [_record({"wall_s": 1.0, "engine.misses": 5})] * 3
    same = [_record({"wall_s": 1.01, "engine.misses": 5})] * 3
    moved = [_record({"wall_s": 1.01, "engine.misses": 6})] * 3
    assert compare.compare(a, same, SPEC)[1]
    lines, ok = compare.compare(a, moved, SPEC)
    assert not ok
    assert any("engine.misses" in line for line in lines)
