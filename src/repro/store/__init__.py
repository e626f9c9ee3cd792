"""Durable result storage: the append-only content-addressed store.

* :mod:`repro.store.sharded` — :class:`ShardedStore`, the
  integrity-checked, crash-safe disk tier behind
  :class:`~repro.engine.cache.ResultCache` and sweep checkpoints:
  sha256-verified frames appended to per-process segments, found
  through an in-memory index, plus its :class:`StoreStats` counters.
"""

from repro.store.sharded import FORMAT_VERSION, ShardedStore, StoreStats

__all__ = ["FORMAT_VERSION", "ShardedStore", "StoreStats"]
