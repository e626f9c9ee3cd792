"""Executor lane grouping: same results, batched execution, safe exits.

`BatchExecutor.map` carves same-topology electrical misses into lane
groups before any pool dispatch; every grouping decision must be
invisible in the results (only wall time and diagnostics change).
"""

import numpy as np
import pytest

import repro.engine.executor as executor_mod
from repro.defects import Defect, DefectKind
from repro.diagnostics import diagnostics, reset_diagnostics
from repro.dram.column import DefectSite
from repro.engine import BatchExecutor, ResultCache
from repro.engine.request import SequenceRequest
from repro.stress import NOMINAL_STRESS

LANE_TOL = 1e-5


def _requests(resistances, ops="w1 r1", backend="electrical"):
    defect = Defect(DefectKind.O3)
    return [SequenceRequest.build(
        ops, 0.0, backend=backend,
        defect=defect.with_resistance(r), stress=NOMINAL_STRESS)
        for r in resistances]


@pytest.fixture(autouse=True)
def _fresh_diagnostics():
    reset_diagnostics()
    yield
    reset_diagnostics()


class TestLaneGroupParity:
    def test_map_with_lanes_matches_per_lane_path(self):
        requests = _requests([50e3, 120e3, 300e3, 800e3])
        laned = BatchExecutor(cache=None, lanes=4).map(requests)
        plain = BatchExecutor(cache=None, lanes=0).map(requests)
        for a, b in zip(laned, plain):
            assert np.allclose(a.vc_after, b.vc_after,
                               atol=LANE_TOL, rtol=0.0)
            assert a.outputs == b.outputs

    def test_lane_counters_reach_diagnostics(self):
        requests = _requests([50e3, 120e3, 300e3])
        BatchExecutor(cache=None, lanes=4).map(requests)
        counters = diagnostics().group("lane")
        assert counters.get("lanes_launched", 0) >= 3

    def test_sparse_groups_and_sparse_transients_count_apart(self):
        """One 2-op sparse array group is 1 sparse group (engine stats)
        and 2 sparse lane transients (registry), under two names."""
        from repro.spice.backends import scipy_available, set_backend_default
        if not scipy_available():
            pytest.skip("scipy required for sparse lanes")
        requests = [SequenceRequest.build(
            "r r", 2.4, backend="electrical",
            defect=DefectSite("open_sn", 5, r), stress=NOMINAL_STRESS,
            geometry=(4, 4), trim="off") for r in (1e5, 3e5)]
        executor_mod._PROCESS_MODELS.clear()
        prev = set_backend_default("sparse")
        try:
            engine = BatchExecutor(cache=None, lanes=4)
            engine.map(requests)
        finally:
            set_backend_default(prev)
            executor_mod._PROCESS_MODELS.clear()
        assert engine.stats.lane_groups == 1
        assert engine.stats.lane_sparse_groups == 1
        lanes = diagnostics().group("lane")
        assert lanes["lane_sparse_transients"] == 2
        assert "lane_sparse_groups" not in lanes

    def test_single_miss_stays_serial(self):
        """One laneable request is not worth a lane group."""
        requests = _requests([50e3])
        BatchExecutor(cache=None, lanes=4).map(requests)
        assert diagnostics().group("lane") == {}

    def test_behavioral_requests_never_lane(self):
        requests = _requests([50e3, 120e3, 300e3], backend="behavioral")
        results = BatchExecutor(cache=None, lanes=4).map(requests)
        assert diagnostics().group("lane") == {}
        assert all(r is not None for r in results)

    def test_results_feed_the_cache(self):
        cache = ResultCache()
        engine = BatchExecutor(cache=cache, lanes=4)
        requests = _requests([50e3, 120e3, 300e3])
        engine.map(requests)
        again = engine.map(requests)
        assert engine.stats.hits >= 3
        assert all(r is not None for r in again)


class TestLaneGroupSafety:
    def test_group_failure_falls_back_to_serial(self, monkeypatch):
        """A crashing lane group must degrade to the legacy serial
        path, not surface the exception."""
        def boom(requests):
            raise RuntimeError("lane kernel exploded")

        monkeypatch.setattr(executor_mod, "execute_lane_group", boom)
        requests = _requests([50e3, 120e3, 300e3])
        laned = BatchExecutor(cache=None, lanes=4).map(requests)
        plain = BatchExecutor(cache=None, lanes=0).map(requests)
        for a, b in zip(laned, plain):
            assert a.vc_after == b.vc_after

    def test_custom_work_fn_bypasses_lane_carveout(self):
        """Fault-injection executors install a custom work function;
        the lane carve-out must not route requests around it."""
        seen = []

        def spy(request):
            seen.append(request)
            return executor_mod.execute_request(request)

        engine = BatchExecutor(cache=None, lanes=4, work_fn=spy)
        requests = _requests([50e3, 120e3, 300e3])
        engine.map(requests)
        assert len(seen) == 3
        assert diagnostics().group("lane") == {}
