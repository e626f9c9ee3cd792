"""Append-only, integrity-checked, content-addressed result store.

:class:`ShardedStore` is the durable disk tier behind
:class:`~repro.engine.cache.ResultCache` and the checkpoint/resume
machinery, built so that a crashed, concurrent or bit-rotted store can
never lie to a reader.

Records are appended to segments,
``<root>/segments/<time_ns>-<pid>-<rand>.seg``; each store creates its
own with ``O_EXCL`` on its first put (a forked child that puts opens
another), so no process appends to a segment it does not own.  A record
is one frame::

    magic "RPRS" 4s | format version u16 | key 64s (the hex content hash)
    | payload length u64 | payload sha256 32s | pickled payload

written with one ``os.write`` and fsync'd before :meth:`put` returns.
An in-memory index maps key → (segment, offset, payload length): built
by scanning frame prefixes on first use, updated by the store's own
puts and, on a miss, refreshed from new segments and grown tails, so
other processes' puts become visible.  The newest record of a key
(latest segment name, then offset) wins.

Every :meth:`get` re-verifies its frame before unpickling.  A record
that fails — flipped bit, foreign version, stale pickle, or a torn tail
whose payload runs past the end of its segment — is *quarantined*:
copied to ``<root>/corrupt/<key>.<reason>``, counted, dropped from the
index and served as a miss, so corruption costs a recomputation, never
a wrong result.  A garbled frame prefix stops indexing until the next
frame whose prefix parses; the skipped bytes are copied to ``corrupt/``
and counted.  The log is never compacted, so the store has no size
bound.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import re
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.diagnostics import diagnostics

#: First bytes of every frame ("RePro Store").
MAGIC = b"RPRS"

#: Bumped whenever the frame layout changes; foreign versions quarantine.
#: Version 1 was the one-file-per-entry layout, which is not read.
FORMAT_VERSION = 2

#: ``magic | version | key | payload length | payload sha256``.
FRAME = struct.Struct("<4sH64sQ32s")

#: A frame's key: the 64-hex content hash.
_KEY = re.compile(rb"[0-9a-f]{64}")

#: Segment read descriptors a store keeps open (least recent closed).
MAX_READERS = 64


def fsync_dir(path: str | os.PathLike) -> None:
    """Make the entries of directory ``path`` (creations, renames)
    durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class StoreStats:
    """Activity counters of one :class:`ShardedStore` lifetime.

    ``hits``/``misses`` count lookups, ``writes`` completed puts,
    ``quarantined`` records set aside after failing verification, and
    ``skipped`` garbled segment spans stepped over while indexing.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    skipped: int = 0

    def describe(self) -> str:
        """One-line rendering for ``--verbose`` / ``--profile`` output."""
        line = (f"{self.hits} hits / {self.misses} misses, "
                f"{self.writes} writes")
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        if self.skipped:
            line += f", {self.skipped} garbled spans skipped"
        return line

    @property
    def eventful(self) -> bool:
        """Did anything a clean run would not show happen?"""
        return bool(self.quarantined or self.skipped)


class ShardedStore:
    """Content-addressed pickle store over append-only segments.

    Parameters
    ----------
    root:
        Store directory (created on the first put).
    fsync:
        Whether every put fsyncs its frame before returning (default).
        Turning it off trades crash durability of the *latest* writes
        for throughput — integrity checking still rejects any torn
        frame.
    """

    def __init__(self, root: str | os.PathLike, *, fsync: bool = True):
        self.root = Path(root)
        self.segment_dir = self.root / "segments"
        self.corrupt_dir = self.root / "corrupt"   # set-aside copies
        self.fsync = fsync
        self.stats = StoreStats()
        self._index: dict[str, tuple[str, int, int]] = {}
        self._scanned: dict[str, int] = {}    # segment -> indexed end
        self._readers: OrderedDict[str, int] = OrderedDict()
        self._segment: str | None = None      # this store's own segment
        self._fd: int | None = None           # ... its append descriptor
        self._owner = 0                       # ... and the pid owning it

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The stored object for ``key``, or ``None`` on a miss.

        Every read re-verifies the frame; a record failing verification
        is quarantined and reported as a miss.
        """
        loc = self._locate(key)
        if loc is None:
            self.stats.misses += 1
            return None
        segment, offset, length = loc
        try:
            raw = os.pread(self._reader(segment), FRAME.size + length,
                           offset)
        except OSError:
            self.stats.misses += 1
            return None
        reason = _verify(raw, key)
        if reason is None:
            try:
                obj = pickle.loads(memoryview(raw)[FRAME.size:])
            except Exception:
                # The bytes are intact but the pickled schema is stale
                # or foreign — same treatment as corruption.
                reason = "unpicklable"
            else:
                self.stats.hits += 1
                return obj
        self._quarantine(key, raw, reason)
        self.stats.misses += 1
        return None

    def put(self, key: str, obj) -> None:
        """Append ``obj`` under ``key``; returns once the frame is
        durable (with ``fsync``).  The newest record wins."""
        name = key.encode("ascii")
        if not _KEY.fullmatch(name):
            raise ValueError(f"store keys are 64-hex hashes, got {key!r}")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = FRAME.pack(MAGIC, FORMAT_VERSION, name, len(payload),
                           hashlib.sha256(payload).digest()) + payload
        try:
            fd = self._writer()
            if os.write(fd, frame) != len(frame):
                raise OSError("short write")
            if self.fsync:
                os.fsync(fd)
        except OSError:
            # A failed append may leave a torn tail: readers quarantine
            # it, and the next put starts a fresh segment.
            self.close()
            return
        offset = self._scanned[self._segment]
        self._scanned[self._segment] = offset + len(frame)
        self._index[key] = (self._segment, offset, len(payload))
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def __len__(self) -> int:
        self._refresh()
        return len(self._index)

    def keys(self) -> list[str]:
        """Keys of every live index entry (unverified)."""
        self._refresh()
        return list(self._index)

    def locate(self, key: str) -> tuple[Path, int, int] | None:
        """``(segment path, frame offset, frame size)`` of the record
        ``get(key)`` would read, or ``None``."""
        loc = self._locate(key)
        if loc is None:
            return None
        segment, offset, length = loc
        return self.segment_dir / segment, offset, FRAME.size + length

    def close(self) -> None:
        """Release this store's descriptors; a later put starts a new
        segment."""
        fds = list(self._readers.values())
        if self._fd is not None and self._owner == os.getpid():
            fds.append(self._fd)
        self._readers.clear()
        self._fd = self._segment = None
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass

    def __del__(self):
        try:
            self.close()
        except Exception:           # interpreter shutdown
            pass

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def _writer(self) -> int:
        """The append descriptor of this process's own segment, created
        on the first put (and again in a forked child)."""
        pid = os.getpid()
        if self._fd is not None and self._owner == pid:
            return self._fd
        directory = self.segment_dir
        fresh = not directory.is_dir()
        directory.mkdir(parents=True, exist_ok=True)
        name = f"{time.time_ns():020d}-{pid}-{os.urandom(4).hex()}.seg"
        fd = os.open(directory / name,
                     os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                     0o644)
        if self.fsync:
            fsync_dir(directory)
            if fresh:
                fsync_dir(self.root)
                fsync_dir(self.root.parent)
        self._fd, self._owner, self._segment = fd, pid, name
        self._scanned[name] = 0
        return fd

    def _reader(self, segment: str) -> int:
        """A read descriptor of ``segment`` (reads use ``pread``, so a
        forked child may share it)."""
        fd = self._readers.pop(segment, None)
        if fd is None:
            fd = os.open(self.segment_dir / segment, os.O_RDONLY)
            if len(self._readers) >= MAX_READERS:
                os.close(self._readers.popitem(last=False)[1])
        self._readers[segment] = fd
        return fd

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def _locate(self, key: str) -> tuple[str, int, int] | None:
        loc = self._index.get(key)
        if loc is None:
            self._refresh()
            loc = self._index.get(key)
        return loc

    def _refresh(self) -> None:
        """Index what was appended since the last refresh: new segments
        and grown tails."""
        try:
            names = sorted(name for name in os.listdir(self.segment_dir)
                           if name.endswith(".seg"))
        except OSError:
            return
        for name in names:
            self._scanned[name] = self._scan(name,
                                             self._scanned.get(name, 0))

    def _scan(self, segment: str, start: int) -> int:
        """Index the frames of ``segment`` from ``start``; returns the
        offset the next refresh resumes at."""
        try:
            fd = self._reader(segment)
            size = os.fstat(fd).st_size
        except OSError:
            return start
        if size <= start:
            return start
        offset = start
        with mmap.mmap(fd, size, access=mmap.ACCESS_READ) as buf:
            while offset < size:
                head = _prefix(buf, offset, size)
                if head is None:
                    if size - offset < FRAME.size and _in_flight(segment):
                        break
                    resume = _next_frame(buf, offset + 1, size)
                    self._skip(segment, offset, buf[offset:resume])
                    offset = resume
                    continue
                key, length = head
                if offset + FRAME.size + length > size:
                    if _in_flight(segment):
                        break
                    # A torn tail: indexed with the bytes it has, so
                    # its get quarantines it as truncated.
                    length = size - offset - FRAME.size
                old = self._index.get(key)
                if old is None or old[:2] < (segment, offset):
                    self._index[key] = (segment, offset, length)
                offset += FRAME.size + length
        return offset

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, key: str, raw: bytes, reason: str) -> None:
        """Set a failed record aside, count it and forget it."""
        self._index.pop(key, None)
        dest = self._set_aside(f"{key}.{reason}", raw)
        self.stats.quarantined += 1
        diagnostics().record_cache_quarantine(str(dest or key), reason)

    def _skip(self, segment: str, offset: int, data: bytes) -> None:
        """Set a garbled span aside and count it."""
        dest = self._set_aside(f"{segment}.{offset}.skipped", data)
        self.stats.skipped += 1
        diagnostics().record_store_skip(str(dest or segment), len(data))

    def _set_aside(self, name: str, data: bytes) -> Path | None:
        """Copy damaged bytes to ``corrupt/`` (never over an earlier
        copy); the copy's path, or ``None`` when it could not be made."""
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            dest, n = self.corrupt_dir / name, 0
            while True:
                try:
                    with open(dest, "xb") as fh:
                        fh.write(data)
                    return dest
                except FileExistsError:
                    n += 1
                    dest = self.corrupt_dir / f"{name}.{n}"
        except OSError:
            return None


def _prefix(buf, offset: int, size: int) -> tuple[str, int] | None:
    """``(key, payload length)`` of the frame prefix at ``offset``, or
    ``None`` when none parses there.  The version is checked on read,
    so a foreign-version record still quarantines under its key."""
    if size - offset < FRAME.size:
        return None
    magic, _, key, length, _ = FRAME.unpack_from(buf, offset)
    if magic != MAGIC or not _KEY.fullmatch(key):
        return None
    return key.decode("ascii"), length


def _next_frame(buf, start: int, size: int) -> int:
    """Offset of the first parsing frame prefix at or after ``start``
    (``size`` when there is none)."""
    at = buf.find(MAGIC, start)
    while at != -1 and _prefix(buf, at, size) is None:
        at = buf.find(MAGIC, at + 1)
    return size if at == -1 else at


def _in_flight(segment: str) -> bool:
    """Whether another live process owns ``segment``, so a short tail
    there is a frame still being written rather than a torn one."""
    try:
        pid = int(segment.split("-")[1])
        if pid != os.getpid():
            os.kill(pid, 0)
            return True
    except PermissionError:         # alive, owned by another user
        return True
    except (IndexError, ValueError, OSError):   # no pid, or it is gone
        pass
    return False


def _verify(raw: bytes, key: str) -> str | None:
    """Why the frame ``raw`` indexed for ``key`` fails verification (the
    quarantine reason), or ``None`` when it is intact."""
    if len(raw) < FRAME.size:
        return "truncated"
    magic, version, stored_key, length, digest = FRAME.unpack_from(raw)
    payload = memoryview(raw)[FRAME.size:]
    if magic != MAGIC:
        return "bad-magic"
    if version != FORMAT_VERSION:
        return f"version-{version}"
    if len(payload) < length:
        return "truncated"
    if stored_key != key.encode("ascii") or len(payload) != length:
        return "corrupt"
    if hashlib.sha256(payload).digest() != digest:
        return "digest-mismatch"
    return None
