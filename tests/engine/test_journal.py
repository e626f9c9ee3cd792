"""Sweep journal and checkpoint/resume semantics."""

import json
import os
import stat

from repro.behav import behavioral_model
from repro.defects import Defect, DefectKind
from repro.diagnostics import reset_diagnostics
from repro.dram.ops import parse_ops
from repro.engine import (
    BatchExecutor,
    FailedResult,
    SequenceRequest,
    SweepCheckpoint,
    SweepJournal,
    is_failed,
)
from repro.engine.journal import JOURNAL_VERSION
from repro.stress import NOMINAL_STRESS


def _request(resistance=200e3, ops="w1 r1"):
    return SequenceRequest.build(
        ops, 0.0, backend="behavioral",
        defect=Defect(DefectKind.O3, resistance=resistance),
        stress=NOMINAL_STRESS)


def _requests(n):
    return [_request(resistance=100e3 + 10e3 * i) for i in range(n)]


class TestJournalFile:
    def test_records_are_jsonl(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record_ok("k1")
        journal.record_failure("k2", FailedResult(
            error_type="ConvergenceError", message="boom", attempts=3,
            rescue_trail=("gmin",), request_summary="[test]"))
        lines = [json.loads(line) for line in
                 (tmp_path / "j.jsonl").read_text().splitlines()]
        assert lines[0] == {"v": JOURNAL_VERSION, "key": "k1",
                            "status": "ok"}
        assert lines[1]["status"] == "failed"
        assert lines[1]["error_type"] == "ConvergenceError"
        assert lines[1]["rescue_trail"] == ["gmin"]

    def test_duplicate_keys_written_once(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record_ok("k")
        journal.record_ok("k")
        assert (tmp_path / "j.jsonl").read_text().count("\n") == 1

    def test_resume_loads_records(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record_ok("a")
        journal.record_ok("b")
        journal.close()
        resumed = SweepJournal(tmp_path / "j.jsonl", resume=True)
        assert resumed.resumed == 2
        assert resumed.recovered("a")["status"] == "ok"
        assert resumed.claim("a")["status"] == "ok"
        assert resumed.claim("a") is None          # claimed once
        assert resumed.resumed == 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_ok("good")
        journal.close()
        with path.open("ab") as fh:                # crash mid-append
            fh.write(b'{"v":1,"key":"to')
        resumed = SweepJournal(path, resume=True)
        assert resumed.resumed == 1
        assert resumed.recovered("good") is not None

    def test_non_resume_rotates_existing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_ok("old")
        journal.close()
        fresh = SweepJournal(path)                 # no resume
        assert fresh.resumed == 0
        assert (tmp_path / "j.jsonl.bak").exists()
        assert "old" in (tmp_path / "j.jsonl.bak").read_text()

    def test_reattempted_failure_rejournals(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_failure("k", FailedResult("E", "m"))
        journal.close()
        resumed = SweepJournal(path, resume=True)
        resumed.claim("k")                         # re-opened for append
        resumed.record_ok("k")
        resumed.close()
        final = SweepJournal(path, resume=True)
        assert final.recovered("k")["status"] == "ok"  # last record wins

    def test_foreign_version_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"v":999,"key":"x","status":"ok"}\n')
        assert SweepJournal(path, resume=True).resumed == 0


class TestJournalDirectoryDurability:
    """Creating or rotating the journal syncs the checkpoint directory,
    so the new name is durable along with the records under it."""

    @staticmethod
    def _synced_dirs(monkeypatch):
        synced, real = [], os.fsync

        def spy(fd):
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                synced.append((st.st_dev, st.st_ino))
            real(fd)
        monkeypatch.setattr(os, "fsync", spy)
        return synced

    @staticmethod
    def _ident(path):
        st = os.stat(path)
        return st.st_dev, st.st_ino

    def test_fresh_checkpoint_syncs_its_directory(self, tmp_path,
                                                  monkeypatch):
        synced = self._synced_dirs(monkeypatch)
        SweepCheckpoint(tmp_path / "ck").close()
        assert self._ident(tmp_path / "ck") in synced

    def test_reopen_without_resume_syncs_the_rotation(self, tmp_path,
                                                      monkeypatch):
        ckpt = SweepCheckpoint(tmp_path / "ck")
        ckpt.journal.record_ok("k")
        ckpt.close()
        synced = self._synced_dirs(monkeypatch)
        SweepCheckpoint(tmp_path / "ck").close()
        assert (tmp_path / "ck" / "journal.jsonl.bak").exists()
        assert self._ident(tmp_path / "ck") in synced


class TestExecutorJournaling:
    def test_map_journals_completions(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck")
        engine = BatchExecutor(cache=ckpt.cache(), journal=ckpt.journal)
        requests = _requests(4)
        engine.map(requests)
        records = (tmp_path / "ck" / "journal.jsonl").read_text()
        assert records.count('"status":"ok"') == 4
        for request in requests:
            assert request.content_hash in records
            assert ckpt.store.get(request.content_hash) is not None

    def test_run_journals_completions(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck")
        engine = BatchExecutor(cache=ckpt.cache(), journal=ckpt.journal)
        request = _request()
        engine.run(request)
        engine.run(request)                         # hit: no duplicate
        records = (tmp_path / "ck" / "journal.jsonl").read_text()
        assert records.count('"status":"ok"') == 1

    def test_resume_skips_journaled_work(self, tmp_path):
        requests = _requests(6)
        ckpt = SweepCheckpoint(tmp_path / "ck")
        engine = BatchExecutor(cache=ckpt.cache(), journal=ckpt.journal)
        partial = engine.map(requests[:3])          # "crashes" here
        ckpt.close()

        diag = reset_diagnostics()
        resumed = SweepCheckpoint(tmp_path / "ck", resume=True)
        engine2 = BatchExecutor(cache=resumed.cache(),
                                journal=resumed.journal)
        full = engine2.map(requests)
        assert diag.journal_recovered == 3
        assert engine2.stats.disk_hits == 3
        assert engine2.stats.misses == 3            # only the remainder
        for a, b in zip(partial, full[:3]):
            assert a.vc_after == b.vc_after
        records = (tmp_path / "ck" / "journal.jsonl").read_text()
        assert records.count('"status":"ok"') == 6

    def test_resume_replays_failure_holes_under_isolate(self, tmp_path):
        request = _request()
        ckpt = SweepCheckpoint(tmp_path / "ck")
        ckpt.journal.record_failure(
            request.content_hash,
            FailedResult("ConvergenceError", "no convergence",
                         attempts=2, rescue_trail=("gmin", "source")))
        ckpt.close()

        diag = reset_diagnostics()
        resumed = SweepCheckpoint(tmp_path / "ck", resume=True)
        engine = BatchExecutor(cache=resumed.cache(),
                               journal=resumed.journal,
                               on_error="isolate")
        [hole] = engine.map([request])
        assert is_failed(hole)
        assert hole.error_type == "ConvergenceError"
        assert hole.rescue_trail == ("gmin", "source")
        assert diag.journal_holes == 1
        assert diag.eventful

    def test_resume_reattempts_failures_under_raise(self, tmp_path):
        request = _request()
        ckpt = SweepCheckpoint(tmp_path / "ck")
        ckpt.journal.record_failure(request.content_hash,
                                    FailedResult("ConvergenceError", "x"))
        ckpt.close()

        resumed = SweepCheckpoint(tmp_path / "ck", resume=True)
        engine = BatchExecutor(cache=resumed.cache(),
                               journal=resumed.journal)
        [result] = engine.map([request])            # re-runs, succeeds
        assert not is_failed(result)
        resumed.close()
        final = SweepJournal(tmp_path / "ck" / "journal.jsonl",
                             resume=True)
        assert final.recovered(request.content_hash)["status"] == "ok"

    def test_missing_store_entry_reruns_and_counts(self, tmp_path):
        request = _request()
        ckpt = SweepCheckpoint(tmp_path / "ck")
        engine = BatchExecutor(cache=ckpt.cache(), journal=ckpt.journal)
        expected = engine.run(request)
        ckpt.close()
        for segment in (tmp_path / "ck" / "store" / "segments").iterdir():
            os.unlink(segment)                      # the record is lost

        diag = reset_diagnostics()
        resumed = SweepCheckpoint(tmp_path / "ck", resume=True)
        engine2 = BatchExecutor(cache=resumed.cache(),
                                journal=resumed.journal)
        [result] = engine2.map([request])
        assert result.vc_after == expected.vc_after  # recomputed
        assert diag.journal_missing == 1
        assert diag.journal_recovered == 0

    def test_isolate_failures_are_journaled(self, tmp_path):
        from repro.engine.executor import BatchExecutor as BE

        def _fail(request):
            raise ValueError("injected")

        request = _request()
        ckpt = SweepCheckpoint(tmp_path / "ck")
        engine = BE(cache=ckpt.cache(), journal=ckpt.journal,
                    on_error="isolate", work_fn=_fail)
        [hole] = engine.map([request])
        assert is_failed(hole)
        records = (tmp_path / "ck" / "journal.jsonl").read_text()
        assert '"status":"failed"' in records
        assert '"error_type":"ValueError"' in records


class TestCheckpointLayout:
    def test_directories(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck")
        assert (tmp_path / "ck" / "journal.jsonl").exists()
        request = _request()
        model = behavioral_model(Defect(DefectKind.O3, resistance=200e3))
        result = model.run_sequence(parse_ops(request.ops), init_vc=0.0)
        ckpt.store.put(request.content_hash, result)
        segment, _, _ = ckpt.store.locate(request.content_hash)
        assert segment.parent == tmp_path / "ck" / "store" / "segments"

    def test_cache_uses_store(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck")
        cache = ckpt.cache()
        assert cache.store is ckpt.store
