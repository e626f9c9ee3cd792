"""Checkpoint/resume for long sweeps: append-only journal + durable store.

A sweep at array scale is hours of work; without durability it dies
with the process.  Two small pieces make any engine-driven sweep
restartable:

* :class:`SweepJournal` — an append-only JSONL file with one fsync'd
  record per *completed* (or, under ``on_error="isolate"``, *failed*)
  request key.  The journal is the authoritative "this work is done"
  list: a record is only appended after the result landed in the
  durable store, so a crash between the two leaves at worst an
  unjournaled (but still cached) result, never a journaled lie.
* :class:`SweepCheckpoint` — a directory bundling the journal with a
  :class:`~repro.store.sharded.ShardedStore` holding the result
  payloads (one fsync'd segment append per result, which returns
  before the journal record is written), plus the
  :class:`~repro.engine.cache.ResultCache` wiring.

Resume semantics (``resume=True``): previously journaled work is
recognised inside :meth:`BatchExecutor.map <repro.engine.executor
.BatchExecutor.map>` / ``run`` —

* journaled-ok requests are served from the store and counted as
  ``journal_recovered`` in :mod:`repro.diagnostics`;
* journaled-ok requests whose store record was lost or quarantined
  (or was written by an older store format, which is not read) are
  re-simulated and counted as ``journal_missing`` (corruption degrades
  to recomputation, never to a wrong or absent result);
* journaled failures are replayed as :class:`~repro.engine.failures
  .FailedResult` holes under ``on_error="isolate"`` (counted as
  ``journal_holes``) and re-attempted under ``on_error="raise"``.

A journal opened *without* ``resume`` on an existing file rotates the
old journal to ``<name>.bak`` — checkpoint directories are reusable,
and forgetting ``--resume`` never destroys the durable store.  Creating
or rotating the journal fsyncs its directory, so the new name survives
a power loss along with the records fsync'd under it.

Torn tails (a crash mid-append) are tolerated on load: any trailing
line that does not parse is dropped, losing at most the single record
being written when the process died.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.engine.cache import ResultCache
from repro.engine.failures import FailedResult
from repro.store.sharded import ShardedStore, fsync_dir

#: Bumped when the journal record layout changes incompatibly; foreign
#: versions are ignored on load (their work re-runs).
JOURNAL_VERSION = 1


class SweepJournal:
    """Append-only JSONL journal of completed/failed request keys.

    Parameters
    ----------
    path:
        The journal file.  Parent directories are created.
    resume:
        Load existing records for recovery instead of rotating the file
        away.  Loaded records are *claimed* one by one as the executor
        recognises their requests; unclaimed records stay valid for a
        later resume.
    fsync:
        fsync after every appended record (default).  Each record is a
        single ``os.write`` on an ``O_APPEND`` descriptor, so records
        from forked workers interleave without tearing.
    """

    def __init__(self, path: str | os.PathLike, *, resume: bool = False,
                 fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._written: set[str] = set()
        self._resumed: dict[str, dict] = {}
        created = not self.path.exists()
        if not created:
            if resume:
                self._resumed = self._load()
                self._written = set(self._resumed)
            elif self.path.stat().st_size > 0:
                os.replace(self.path, self.path.with_name(
                    self.path.name + ".bak"))
                created = True
        self._fd = os.open(self.path,
                           os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        if created and fsync:
            # The records are fsync'd one by one; the directory entries
            # of the rotation and of the new file need their own sync.
            fsync_dir(self.path.parent)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_ok(self, key: str) -> None:
        """Journal one completed request (call *after* the store put)."""
        self._append({"v": JOURNAL_VERSION, "key": key, "status": "ok"})

    def record_failure(self, key: str, failure: FailedResult) -> None:
        """Journal one isolated failure so resume can replay the hole."""
        self._append({
            "v": JOURNAL_VERSION, "key": key, "status": "failed",
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": failure.attempts,
            "rescue_trail": list(failure.rescue_trail),
            "request_summary": failure.request_summary,
        })

    def _append(self, record: dict) -> None:
        key = record["key"]
        if key in self._written:
            return
        self._written.add(key)
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        os.write(self._fd, data)
        if self.fsync:
            os.fsync(self._fd)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @property
    def resumed(self) -> int:
        """Number of not-yet-claimed records loaded at resume."""
        return len(self._resumed)

    def recovered(self, key: str) -> dict | None:
        """The loaded record for ``key`` (``None`` when not resumed)."""
        return self._resumed.get(key)

    def claim(self, key: str) -> dict | None:
        """Pop and return the loaded record for ``key`` (once).

        Claiming a *failed* record re-opens the key for journaling: a
        re-attempted request appends its fresh outcome, which wins over
        the stale failure on the next load (last record wins).
        """
        record = self._resumed.pop(key, None)
        if record is not None and record.get("status") == "failed":
            self._written.discard(key)
        return record

    def recovered_failure(self, record: dict) -> FailedResult:
        """Rebuild the :class:`FailedResult` a journaled failure held."""
        return FailedResult(
            error_type=record.get("error_type", "UnknownError"),
            message=record.get("message", ""),
            attempts=int(record.get("attempts", 1)),
            rescue_trail=tuple(record.get("rescue_trail") or ()),
            request_summary=record.get("request_summary"))

    def _load(self) -> dict[str, dict]:
        records: dict[str, dict] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return records
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # Torn tail from a crash mid-append (or foreign bytes):
                # drop the record, its work simply re-runs.
                continue
            if not isinstance(record, dict) \
                    or record.get("v") != JOURNAL_VERSION:
                continue
            key = record.get("key")
            if isinstance(key, str) and record.get("status") in (
                    "ok", "failed"):
                records[key] = record          # last record wins
        return records

    def close(self) -> None:
        """Release the journal descriptor (records already durable)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


class SweepCheckpoint:
    """A checkpoint directory: durable store + completion journal.

    Layout::

        <dir>/journal.jsonl       append-only completion journal
        <dir>/journal.jsonl.bak   previous journal (non-resume reopen)
        <dir>/store/segments/     append-only result segments (*.seg)
        <dir>/store/corrupt/      copies of quarantined records

    Build one with ``resume=True`` to recover a prior run's progress;
    :meth:`cache` returns a :class:`ResultCache` whose disk tier is the
    checkpoint's store, ready to hand to a
    :class:`~repro.engine.executor.BatchExecutor` together with
    :attr:`journal`.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 resume: bool = False, fsync: bool = True):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.store = ShardedStore(self.dir / "store", fsync=fsync)
        self.journal = SweepJournal(self.dir / "journal.jsonl",
                                    resume=resume, fsync=fsync)
        self.resume = resume

    def cache(self) -> ResultCache:
        """A result cache whose disk tier is this checkpoint's store."""
        return ResultCache(store=self.store)

    def close(self) -> None:
        """Release the journal and store descriptors."""
        self.journal.close()
        self.store.close()
