"""Worker processes send their counters back to the parent.

Both pool entry points (``BatchExecutor`` and ``parallel_map``) return
each worker's registry with its outcome, or with the exception of an
item that raised; the run totals must not depend on how many processes
did the work.
"""

import pytest

import repro.engine.executor as executor_mod
from repro.defects import Defect, DefectKind
from repro.diagnostics import diagnostics, reset_diagnostics
from repro.dram.ops import parse_ops
from repro.engine import (BatchExecutor, SequenceRequest, is_failed,
                          parallel_map)
from repro.stress import NOMINAL_STRESS

RESISTANCES = (50e3, 200e3, 800e3)


def _requests(backend="electrical"):
    defect = Defect(DefectKind.O3)
    return [SequenceRequest.build(
        "w1 r1", 0.0, backend=backend, defect=defect.with_resistance(r),
        stress=NOMINAL_STRESS) for r in RESISTANCES]


def _column_task(resistance):
    """One short electrical column sequence (module-level: picklable)."""
    from repro.dram.runner import ColumnRunner
    defect = Defect(DefectKind.O3, resistance=resistance)
    runner = ColumnRunner(defect=defect.site(),
                          target_cell=defect.cell_index)
    return runner.run_sequence(parse_ops("w1 r1"), init_vc=0.0).vc_after


def _rescuing_work(request):
    """A work unit whose solve needed one rescue (module-level)."""
    diagnostics().record_rescue("gmin")
    return executor_mod.execute_request(request)


def _count_then_raise(item):
    """A work unit that counts, then fails (module-level)."""
    diagnostics().count("test.counted")
    raise ValueError("injected after counting")


def _fresh_run():
    """A fresh registry with timers on and no built models, as a new
    CLI process starts."""
    executor_mod._PROCESS_MODELS.clear()
    diag = reset_diagnostics()
    diag.timing = True
    return diag


@pytest.fixture(autouse=True)
def _restore():
    yield
    executor_mod._PROCESS_MODELS.clear()
    reset_diagnostics()


def _counted(run, workers):
    diag = _fresh_run()
    outcome = run(workers)
    return outcome, dict(diag.counts), set(diag.times)


class TestWorkerCountersReachTheParent:
    def test_batch_executor_counts_match_serial(self):
        def run(workers):
            engine = BatchExecutor(cache=None, lanes=0, workers=workers)
            return [r.vc_after for r in engine.map(_requests())]

        serial, serial_counts, serial_timers = _counted(run, 1)
        pooled, pooled_counts, pooled_timers = _counted(run, 2)
        assert pooled == serial
        assert pooled_counts == serial_counts
        assert diagnostics().group("kernel")["plan_iteration_assembly"] > 0
        assert serial_counts["transient.steps"] > 0
        assert pooled_timers == serial_timers
        assert "transient.solve" in pooled_timers

    def test_parallel_map_counts_match_serial(self):
        def run(workers):
            return parallel_map(_column_task, RESISTANCES, workers=workers)

        serial, serial_counts, _ = _counted(run, 1)
        pooled, pooled_counts, pooled_timers = _counted(run, 2)
        assert pooled == serial
        assert pooled_counts == serial_counts
        assert diagnostics().group("kernel")["plan_iteration_assembly"] > 0
        assert "transient.solve" in pooled_timers

    def test_worker_rescues_reach_the_parent(self):
        diag = _fresh_run()
        BatchExecutor(cache=None, workers=2,
                      work_fn=_rescuing_work).map(_requests("behavioral"))
        assert diag.rescues == len(RESISTANCES)
        assert diag.rescue_stages == {"gmin": len(RESISTANCES)}

    def test_counts_of_a_raising_item_reach_the_parent(self):
        diag = _fresh_run()
        outcomes = BatchExecutor(
            cache=None, workers=2, on_error="isolate",
            work_fn=_count_then_raise).map(_requests("behavioral"))
        assert all(is_failed(o) for o in outcomes)
        assert diag.counts["test.counted"] == len(RESISTANCES)
        assert diag.failures == len(RESISTANCES)

    def test_parallel_map_counts_of_a_raising_item_reach_the_parent(self):
        diag = _fresh_run()
        with pytest.raises(ValueError, match="injected"):
            parallel_map(_count_then_raise, RESISTANCES, workers=2)
        assert diag.counts["test.counted"] >= 1
