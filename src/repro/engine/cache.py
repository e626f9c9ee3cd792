"""Content-addressed result cache for sequence simulations.

:class:`ResultCache` memoises :class:`~repro.dram.ops.SequenceResult`
objects under the :class:`~repro.engine.request.SequenceRequest` content
hash.  Two tiers:

* an in-memory LRU (bounded by ``max_entries``) — the working set of a
  sweep session;
* an optional on-disk tier backed by a
  :class:`~repro.store.sharded.ShardedStore` (2-hex-prefix sharded,
  integrity-checked, crash-safe) — survives the process, so repeated
  CLI invocations, checkpointed sweeps and separate analysis passes
  share simulation work.

Invalidation is structural: the request hash covers the backend, the
full technology fingerprint and the stress combination, so changing any
of them simply addresses a different entry.  The schema version baked
into the hash retires every stale entry when simulation semantics
change; the store's own format version retires entries written by an
incompatible store layout (they are quarantined on read).

Cached results are shared objects — callers must treat a returned
:class:`SequenceResult` as immutable.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.diagnostics import fold
from repro.dram.ops import SequenceResult
from repro.engine.request import SequenceRequest
from repro.store.sharded import ShardedStore, StoreStats


@dataclass
class EngineStats:
    """Hit/miss and cycle accounting of one cache (or engine) lifetime.

    ``cycles_simulated`` counts the operation cycles actually executed;
    ``cycles_saved`` the cycles that cache hits avoided — together they
    quantify the memoization win (the paper's cost metric is operation
    cycles, see :class:`repro.analysis.interface.CycleCountingModel`).

    ``hits`` is the total over both tiers; ``disk_hits`` the subset
    served by the on-disk store, so ``memory_hits`` is the difference.
    When the cache has a disk tier, ``store`` references its live
    :class:`~repro.store.sharded.StoreStats` (eviction / quarantine /
    reclaim counters); snapshots and deltas carry counters only.
    """

    hits: int = 0
    misses: int = 0
    cycles_saved: int = 0
    cycles_simulated: int = 0
    disk_hits: int = 0
    failures: int = 0
    retries: int = 0
    lane_groups: int = 0
    lane_sparse_groups: int = 0
    lane_warm_hits: int = 0
    lane_warm_misses: int = 0
    surrogate_hits: int = 0
    surrogate_fallbacks: int = 0
    surrogate_refits: int = 0
    store: StoreStats | None = field(default=None, init=False,
                                     compare=False, repr=False)

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def memory_hits(self) -> int:
        """Hits served by the in-memory tier (total minus disk)."""
        return self.hits - self.disk_hits

    def snapshot(self) -> "EngineStats":
        """A frozen copy (for before/after deltas)."""
        copy = EngineStats()
        fold(copy, self)
        return copy

    def delta_since(self, before: "EngineStats") -> "EngineStats":
        """Stats accumulated since ``before`` was snapshotted."""
        delta = self.snapshot()
        fold(delta, before, -1)
        return delta

    def merge(self, other: "EngineStats") -> None:
        """Fold another stats object (e.g. from a worker) into this one."""
        fold(self, other)

    #: Section order of :meth:`describe`.  New counter groups must slot
    #: into this sequence (and its regression test) rather than append
    #: wherever — a stable order keeps ``--verbose``/``--profile`` output
    #: diffable across engine layers.
    DESCRIBE_ORDER = ("engine", "tiers", "failures", "lanes", "surrogate",
                      "store")

    def describe(self) -> str:
        """One-line rendering for ``--verbose`` output.

        Sections always render in :data:`DESCRIBE_ORDER` — the base
        engine totals, then the memory/disk tier split, failure/retry
        counters, lane-kernel counters, surrogate-tier counters and the
        disk store's eviction/quarantine summary.  Each optional section
        only appears when its counters are nonzero, so a clean run
        renders exactly as it always did.
        """
        line = (f"engine: {self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%} hit rate), "
                f"{self.cycles_simulated} cycles simulated, "
                f"{self.cycles_saved} cycles saved")
        if self.disk_hits:
            line += (f"; tiers: {self.memory_hits} memory / "
                     f"{self.disk_hits} disk")
        if self.failures or self.retries:
            line += (f", {self.failures} failed, "
                     f"{self.retries} retried")
        if self.lane_groups:
            line += (f"; lanes: {self.lane_groups} groups "
                     f"({self.lane_sparse_groups} sparse), "
                     f"{self.lane_warm_hits} warm hits / "
                     f"{self.lane_warm_misses} misses")
        if (self.surrogate_hits or self.surrogate_fallbacks
                or self.surrogate_refits):
            line += (f"; surrogate: {self.surrogate_hits} served / "
                     f"{self.surrogate_fallbacks} fallbacks, "
                     f"{self.surrogate_refits} refits")
        if self.store is not None and self.store.eventful:
            line += f"; store: {self.store.describe()}"
        return line


class ResultCache:
    """LRU + optional sharded disk store keyed by the request hash.

    Parameters
    ----------
    max_entries:
        Bound of the in-memory tier; the least-recently-used entry is
        evicted beyond it.
    disk_dir:
        Optional directory for the persistent tier; constructs a
        :class:`~repro.store.sharded.ShardedStore` there (atomic
        fsync'd writes, per-entry sha256 verification, quarantine of
        corrupt entries, orphaned-tmp reclamation).
    store:
        An already-built store to use as the disk tier (overrides
        ``disk_dir``) — this is how sweep checkpoints share their
        durable store with the cache.
    max_disk_entries / max_disk_bytes:
        LRU bounds of the disk tier (``None`` = unbounded); only used
        when the store is built here (``disk_dir``).
    """

    def __init__(self, max_entries: int = 100_000,
                 disk_dir: str | os.PathLike | None = None, *,
                 store: ShardedStore | None = None,
                 max_disk_entries: int | None = None,
                 max_disk_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        if store is None and disk_dir is not None:
            store = ShardedStore(disk_dir,
                                 max_entries=max_disk_entries,
                                 max_bytes=max_disk_bytes)
        self.store = store
        self.disk_dir = Path(store.root) if store is not None else None
        self.stats = EngineStats()
        self.stats.store = store.stats if store is not None else None
        self._entries: OrderedDict[str, SequenceResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, request: SequenceRequest) -> SequenceResult | None:
        """The cached result for ``request``, or ``None`` on a miss.

        A miss is *not* counted here — the executor records it when it
        actually simulates, so probing and simulating stay in sync.
        """
        key = request.content_hash
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.cycles_saved += request.cycles
            return result
        result = self._disk_get(key)
        if result is not None:
            self._remember(key, result)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self.stats.cycles_saved += request.cycles
            return result
        return None

    def put(self, request: SequenceRequest, result: SequenceResult,
            *, simulated: bool = True) -> None:
        """Store ``result`` under ``request``'s hash.

        ``simulated`` distinguishes fresh simulation work (counted as a
        miss plus its cycles) from merely re-homing a result computed
        elsewhere.
        """
        key = request.content_hash
        if simulated:
            self.stats.misses += 1
            self.stats.cycles_simulated += request.cycles
        self._remember(key, result)
        self._disk_put(key, result)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left alone)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _remember(self, key: str, result: SequenceResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _disk_path(self, key: str) -> Path | None:
        if self.store is None:
            return None
        return self.store.path_for(key)

    def _disk_get(self, key: str) -> SequenceResult | None:
        if self.store is None:
            return None
        return self.store.get(key)

    def _disk_put(self, key: str, result: SequenceResult) -> None:
        if self.store is None:
            return
        self.store.put(key, result)
