"""Result cache: LRU behaviour, statistics, disk tier."""

import os

from repro.behav import behavioral_model
from repro.defects import Defect, DefectKind
from repro.dram.ops import parse_ops
from repro.engine import EngineStats, ResultCache, SequenceRequest
from repro.stress import NOMINAL_STRESS

import pytest


def _request(ops="w1 r1", init_vc=0.0, resistance=200e3):
    return SequenceRequest.build(
        ops, init_vc, backend="behavioral",
        defect=Defect(DefectKind.O3, resistance=resistance),
        stress=NOMINAL_STRESS)


def _overwrite(path, offset, data):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def _result(request):
    model = behavioral_model(
        Defect(DefectKind.O3, resistance=request.resistance))
    return model.run_sequence(parse_ops(request.ops),
                              init_vc=request.init_vc)


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache()
        req = _request()
        assert cache.get(req) is None
        cache.put(req, _result(req))
        assert cache.get(req) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_cycle_accounting(self):
        cache = ResultCache()
        req = _request(ops="w1^3 w0 r0")     # 5 cycles
        cache.put(req, _result(req))
        assert cache.stats.cycles_simulated == 5
        cache.get(req)
        cache.get(req)
        assert cache.stats.cycles_saved == 10

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        reqs = [_request(resistance=r) for r in (1e5, 2e5, 3e5)]
        for req in reqs:
            cache.put(req, _result(req))
        assert len(cache) == 2
        assert cache.get(reqs[0]) is None        # evicted (oldest)
        assert cache.get(reqs[2]) is not None

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        a, b, c = (_request(resistance=r) for r in (1e5, 2e5, 3e5))
        cache.put(a, _result(a))
        cache.put(b, _result(b))
        cache.get(a)                              # a is now most recent
        cache.put(c, _result(c))                  # evicts b, not a
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        req = _request()
        first = ResultCache(disk_dir=tmp_path)
        first.put(req, _result(req))

        fresh = ResultCache(disk_dir=tmp_path)
        recalled = fresh.get(req)
        assert recalled is not None
        assert fresh.stats.disk_hits == 1
        assert recalled.vc_after == _result(req).vc_after

    def test_clear_keeps_disk(self, tmp_path):
        req = _request()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(req, _result(req))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(req) is not None         # re-read from disk

    def test_corrupted_entry_is_quarantined(self, tmp_path):
        from repro.diagnostics import reset_diagnostics

        req = _request()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(req, _result(req))
        path, offset, size = cache.store.locate(req.content_hash)
        junk = b"not a store record"
        _overwrite(path, offset + size - len(junk), junk)

        diag = reset_diagnostics()
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(req) is None             # miss, not a crash
        assert req.content_hash not in fresh.store   # out of the index
        assert diag.cache_quarantined == 1
        assert fresh.store.stats.quarantined == 1
        quarantined = list(fresh.store.corrupt_dir.iterdir())
        assert len(quarantined) == 1              # kept for inspection

        # The slot is usable again after the quarantine.
        fresh.put(req, _result(req))
        assert ResultCache(disk_dir=tmp_path).get(req) is not None

    def test_truncated_entry_is_quarantined(self, tmp_path):
        req = _request()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(req, _result(req))
        path, offset, size = cache.store.locate(req.content_hash)
        os.truncate(path, offset + size - 10)     # simulate torn write

        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(req) is None
        assert req.content_hash not in fresh.store
        assert fresh.store.stats.quarantined == 1

    def test_garbled_span_skipped_and_counted(self, tmp_path):
        from repro.diagnostics import reset_diagnostics

        reqs = [_request(resistance=r) for r in (1e5, 2e5, 3e5)]
        cache = ResultCache(disk_dir=tmp_path)
        for req in reqs:
            cache.put(req, _result(req))
        path, offset, _ = cache.store.locate(reqs[1].content_hash)
        _overwrite(path, offset, b"\0" * 4)       # the frame's magic

        diag = reset_diagnostics()
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(reqs[1]) is None         # its key is unreadable
        assert fresh.store.stats.skipped == 1
        assert diag.cache_skipped == 1
        assert diag.eventful
        assert fresh.get(reqs[0]) is not None     # neighbours untouched
        assert fresh.get(reqs[2]) is not None

    def test_stats_split_memory_vs_disk(self, tmp_path):
        req = _request()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(req, _result(req))

        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(req) is not None         # disk hit
        assert fresh.get(req) is not None         # memory hit
        assert fresh.stats.hits == 2
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1
        assert "1 memory / 1 disk" in fresh.stats.describe()


class TestEngineStats:
    def test_hit_rate(self):
        stats = EngineStats(hits=3, misses=1)
        assert stats.requests == 4
        assert stats.hit_rate == 0.75
        assert EngineStats().hit_rate == 0.0

    def test_delta_since(self):
        stats = EngineStats(hits=2, misses=5, cycles_simulated=40)
        before = stats.snapshot()
        stats.hits += 3
        stats.cycles_simulated += 10
        delta = stats.delta_since(before)
        assert delta.hits == 3
        assert delta.misses == 0
        assert delta.cycles_simulated == 10

    def test_merge(self):
        stats = EngineStats(hits=1, cycles_saved=4)
        stats.merge(EngineStats(hits=2, misses=3, cycles_saved=6,
                                cycles_simulated=9, disk_hits=1))
        assert (stats.hits, stats.misses) == (3, 3)
        assert (stats.cycles_saved, stats.cycles_simulated) == (10, 9)
        assert stats.disk_hits == 1

    def test_describe_mentions_cycles(self):
        text = EngineStats(hits=1, misses=1, cycles_simulated=7).describe()
        assert "7 cycles simulated" in text
        assert "50% hit rate" in text
