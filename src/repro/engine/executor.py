"""Batch execution of sequence requests: memoized, parallel, fault-isolated.

:class:`BatchExecutor` is the single funnel every sweep layer drives its
simulations through:

* :meth:`BatchExecutor.run` — execute (or recall) one request;
* :meth:`BatchExecutor.map` — execute a whole fan-out, deduplicated
  against itself and the cache, with the misses spread over a
  ``concurrent.futures.ProcessPoolExecutor`` when ``workers > 1``.

Worker processes receive only the picklable :class:`SequenceRequest`
value objects and *reconstruct* the column model locally — netlists
never cross a process boundary.  Each process keeps a small model cache
keyed by (backend, technology, defect kind, cell), so a sweep that
varies only the resistance or the stress reuses one built netlist, just
like the hand-rolled sweeps did.  Both pool paths submit through
:func:`repro.diagnostics.run_counted`: a worker's counters and timers
travel back with its outcome, or with the exception of an item that
raised, and merge into the parent's run diagnostics.

Fault isolation (the resilience layer):

* every batch item is its own future, so one bad request cannot poison
  the pool-wide ``map``;
* ``timeout`` bounds the wall-clock wait per request — a wedged solve
  comes back as a structured failure, never a hang;
* a crashed worker (``BrokenProcessPool``) triggers a pool respawn and a
  bounded, backed-off re-drive of the unfinished items; repeat offenders
  fall back to in-process serial execution;
* ``on_error="isolate"`` converts item failures into
  :class:`~repro.engine.failures.FailedResult` records holding the
  exception type, message, rescue trail and attempt count, aligned with
  the input order; ``on_error="raise"`` (the default) propagates the
  first failure exactly like the classic code path.

:func:`parallel_map` is the generic fan-out helper for coarser units of
work (whole per-defect optimizations, Monte-Carlo samples, march runs);
when the workload cannot be pickled (closures, lambdas) it logs a
warning and re-runs *only the unfinished items* serially, so completed
worker results are never thrown away.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

from repro.diagnostics import (diagnostics, get_logger, merge_counted,
                               run_counted)
from repro.dram.ops import SequenceResult, parse_ops
from repro.engine.cache import EngineStats, ResultCache
from repro.engine.failures import FailedResult, is_failed
from repro.engine.request import SequenceRequest, tech_fingerprint
from repro.store import ShardedStore

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Per-process cache of built column models, keyed by everything that
#: requires a rebuild (resistance and stress are mutable in place).
_PROCESS_MODELS: dict = {}

#: Base delay (seconds) of the exponential backoff between retry rounds.
RETRY_BACKOFF = 0.1

#: Sentinel marking a batch slot that has not produced an outcome yet.
_UNSET = object()


def _model_for(request: SequenceRequest):
    """Build (or reuse) the model (column or array) serving ``request``."""
    key = (request.backend, request.tech, request.defect_kind,
           request.cell, request.geometry, request.address, request.trim)
    model = _PROCESS_MODELS.get(key)
    if model is None:
        site = request.site()
        if request.geometry is not None:
            if request.backend != "electrical":
                raise ValueError(
                    f"array requests support only the electrical "
                    f"backend, not {request.backend!r}")
            from repro.dram.runner import ArrayRunner
            model = ArrayRunner(tech=request.tech, stress=request.stress,
                                defect=site, geometry=request.geometry,
                                address=request.address,
                                trim=request.trim)
        elif request.backend == "electrical":
            from repro.dram.runner import ColumnRunner
            model = ColumnRunner(tech=request.tech, stress=request.stress,
                                 defect=site, target_cell=request.cell)
        elif request.backend == "behavioral":
            from repro.behav.model import BehavioralColumn
            model = BehavioralColumn(tech=request.tech,
                                     stress=request.stress,
                                     defect=site,
                                     target_cell=request.cell)
        else:
            raise ValueError(f"unknown backend {request.backend!r}")
        _PROCESS_MODELS[key] = model
    model.set_stress(request.stress)
    if request.resistance is not None:
        model.set_defect_resistance(request.resistance)
    return model


def execute_request(request: SequenceRequest) -> SequenceResult:
    """Simulate one request from scratch (no cache involved).

    Module-level so process pools can ship it to workers by reference.
    """
    model = _model_for(request)
    return model.run_sequence(parse_ops(request.ops),
                              init_vc=request.init_vc,
                              background=request.background)


def _lane_group_key(request: SequenceRequest):
    """Grouping key of the batched-lane path: everything that must match
    for requests to share one stacked transient (only resistance and
    initial cell voltage may vary across lanes).  Geometry, address and
    trim policy are part of the key so array requests only batch when
    they share one (identically trimmed) netlist topology."""
    return (request.defect_kind, request.cell, request.ops,
            request.background, request.stress,
            request.geometry, request.address, request.trim,
            tech_fingerprint(request.tech))


def _lane_groups(pending: Sequence[SequenceRequest], width: int
                 ) -> tuple[list[list[SequenceRequest]],
                            list[SequenceRequest]]:
    """Split a batch into same-topology lane groups and a remainder.

    Electrical requests with a defect resistance are laneable — the
    resistance is the per-lane axis.  Column requests stack the seed
    column topology (:class:`~repro.dram.runner.LaneRunner`); array
    requests with identical geometry/address/trim stack their shared
    (possibly trimmed) array topology
    (:class:`~repro.dram.runner.ArrayLaneRunner`), dense or sparse as
    the backend policy resolves.  Groups are chunked to at most
    ``width`` lanes; chunks of a single request are not worth a stacked
    transient and stay on the classic path.
    """
    by_key: dict = {}
    for i, request in enumerate(pending):
        if request.backend != "electrical" or request.resistance is None:
            continue
        by_key.setdefault(_lane_group_key(request), []).append(i)
    groups: list[list[SequenceRequest]] = []
    grouped: set[int] = set()
    for idxs in by_key.values():
        for start in range(0, len(idxs), width):
            chunk = idxs[start:start + width]
            if len(chunk) >= 2:
                groups.append([pending[i] for i in chunk])
                grouped.update(chunk)
    rest = [r for i, r in enumerate(pending) if i not in grouped]
    return groups, rest


def execute_lane_group(requests: Sequence[SequenceRequest]
                       ) -> tuple[list, dict[str, int]]:
    """Run one same-topology group of requests as stacked lanes.

    Returns per-request :class:`SequenceResult` slots (``None`` where a
    lane was isolated and must re-run on the serial path) plus the lane
    counters.  Shares :data:`_PROCESS_MODELS` under a ``"lanes"`` key so
    repeated sweeps reuse the built netlist and compiled plans.
    """
    first = requests[0]
    key = ("lanes", first.tech, first.defect_kind, first.cell,
           first.geometry, first.address, first.trim)
    model = _PROCESS_MODELS.get(key)
    if model is None:
        if first.geometry is not None:
            from repro.dram.runner import ArrayLaneRunner
            model = ArrayLaneRunner(tech=first.tech, stress=first.stress,
                                    defect_kind=first.defect_kind,
                                    cell=first.cell,
                                    geometry=first.geometry,
                                    address=first.address,
                                    trim=first.trim)
        else:
            from repro.dram.runner import LaneRunner
            model = LaneRunner(tech=first.tech, stress=first.stress,
                               defect_kind=first.defect_kind,
                               target_cell=first.cell)
        _PROCESS_MODELS[key] = model
    model.set_stress(first.stress)
    lanes_in = [(r.resistance, r.init_vc) for r in requests]
    return model.run_sequences(parse_ops(first.ops), lanes_in,
                               background=first.background)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged or dead workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass


class BatchExecutor:
    """Run sequence requests through a shared cache, serially or fanned
    out over worker processes.

    Parameters
    ----------
    cache:
        The :class:`ResultCache` to consult/feed.  ``None`` disables
        memoization entirely (every request simulates).
    workers:
        Process count for :meth:`map`; ``1`` (or less) keeps
        everything in-process, which is also the fallback when a batch
        has at most one miss to execute.
    on_error:
        Default failure policy for :meth:`map`: ``"raise"`` propagates
        the first item failure (classic behaviour), ``"isolate"``
        returns a :class:`FailedResult` in the failing slots instead.
    timeout:
        Per-request wall-clock bound (seconds) in the parallel path;
        ``None`` waits forever.  Expiry produces a failure (record or
        exception per ``on_error``) and a pool respawn, never a hang.
    max_retries:
        How many times an item interrupted by a worker crash is
        re-driven in a fresh pool before falling back to in-process
        serial execution.
    work_fn:
        The unit of work mapped over requests (default
        :func:`execute_request`); must be a picklable module-level
        callable.  Exposed for alternative backends and fault-injection
        tests.
    lanes:
        Batched-lane width for :meth:`map`: same-topology electrical
        misses that differ only in defect resistance / initial voltage
        are stacked into one multi-lane transient of at most this many
        lanes (see :mod:`repro.spice.lanes`).  ``None`` (the default),
        ``0`` or ``1`` disables lane grouping.  Lane groups run
        in-process — for the small sweeps this repo runs, the stacked
        kernel beats shipping requests to worker processes, so laneable
        work is carved out *before* the pool sees it.
    journal:
        Optional :class:`~repro.engine.journal.SweepJournal`: every
        completed request appends one fsync'd record *after* its result
        landed in the cache's durable store, and every isolated failure
        records its hole.  A journal opened with ``resume=True`` lets
        an interrupted sweep skip already-journaled work (see
        :mod:`repro.engine.journal` for the recovery semantics).
    """

    def __init__(self, cache: ResultCache | None = None,
                 workers: int = 1, *, on_error: str = "raise",
                 timeout: float | None = None, max_retries: int = 2,
                 work_fn: Callable = execute_request,
                 lanes: int | None = None,
                 journal=None):
        if on_error not in ("raise", "isolate"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.cache = cache
        self.workers = max(1, int(workers))
        self.on_error = on_error
        self.timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.lanes = None if lanes is None else max(0, int(lanes))
        self.journal = journal
        self._work = work_fn
        # Cycle accounting lives on the cache when there is one, so
        # stats survive executor turnover; otherwise track locally.
        self._stats = cache.stats if cache is not None else EngineStats()

    @property
    def stats(self) -> EngineStats:
        """Hit/miss/cycle counters of this engine."""
        return self._stats

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, request: SequenceRequest) -> SequenceResult:
        """Execute one request, consulting the cache first."""
        key = request.content_hash
        if self.cache is not None:
            cached = self.cache.get(request)
            if cached is not None:
                self._note_recovery(key, hit=True)
                return cached
        self._note_recovery(key, hit=False)
        result = self._work(request)
        if self.cache is not None:
            self.cache.put(request, result)
        else:
            self._stats.misses += 1
            self._stats.cycles_simulated += request.cycles
        self._journal_ok(key)
        return result

    def map(self, requests: Sequence[SequenceRequest], *,
            on_error: str | None = None) -> list:
        """Execute a batch, returning results aligned with ``requests``.

        Duplicate requests (same content hash) are simulated once.
        Cache misses run in a process pool when more than one remains
        and ``workers > 1``; results always come back in input order,
        so serial and parallel execution are interchangeable.  Under
        ``on_error="isolate"`` (the executor's policy unless this call
        names one) failed slots hold :class:`FailedResult` records
        (shared by duplicates) and are never written to the cache.
        """
        requests = list(requests)
        on_error = self.on_error if on_error is None else on_error
        if on_error not in ("raise", "isolate"):
            raise ValueError(f"unknown on_error policy {on_error!r}")

        results: dict[str, object] = {}
        pending: list[SequenceRequest] = []
        for request in requests:
            key = request.content_hash
            if key in results:
                # Duplicate within the batch: count as a saved hit.
                self._stats.hits += 1
                self._stats.cycles_saved += request.cycles
                continue
            hole = self._journal_hole(key, on_error)
            if hole is not None:
                # A resumed journal says this request already failed:
                # replay the hole instead of burning cycles on it.
                results[key] = hole
                continue
            if self.cache is not None:
                cached = self.cache.get(request)
                if cached is not None:
                    self._note_recovery(key, hit=True)
                    results[key] = cached
                    continue
            self._note_recovery(key, hit=False)
            results[key] = None  # reserve input order / dedupe slot
            pending.append(request)

        if pending:
            outcomes: dict[str, object] = {}
            rest = pending
            width = self._lane_width()
            if width >= 2:
                groups, rest = _lane_groups(pending, width)
                for group in groups:
                    for request, result in zip(
                            group, self._run_lane_group(group, on_error)):
                        outcomes[request.content_hash] = result
            if rest:
                if self.workers > 1 and len(rest) > 1:
                    executed = self._execute_pool(rest, on_error)
                else:
                    executed = [self._execute_serial(r, on_error)
                                for r in rest]
                for request, result in zip(rest, executed):
                    outcomes[request.content_hash] = result
            for request in pending:
                key = request.content_hash
                result = outcomes[key]
                results[key] = result
                if is_failed(result):
                    self._stats.failures += 1
                    diagnostics().record_failure(result.error_type,
                                                 result.describe())
                    if self.journal is not None:
                        self.journal.record_failure(key, result)
                    continue
                if self.cache is not None:
                    self.cache.put(request, result)
                else:
                    self._stats.misses += 1
                    self._stats.cycles_simulated += request.cycles
                self._journal_ok(key)

        return [results[r.content_hash] for r in requests]

    # ------------------------------------------------------------------
    # journal integration (checkpoint/resume)
    # ------------------------------------------------------------------
    def _journal_ok(self, key: str) -> None:
        """Record a completed request (after its durable store put)."""
        if self.journal is not None:
            self.journal.record_ok(key)

    def _journal_hole(self, key: str, on_error: str):
        """The replayed :class:`FailedResult` for a journaled failure.

        Only applies under ``on_error="isolate"`` — a raising sweep
        wants the failure re-attempted, not replayed.  Returns ``None``
        when the journal has nothing (or something else) to say.
        """
        if self.journal is None or on_error != "isolate":
            return None
        record = self.journal.recovered(key)
        if record is None or record.get("status") != "failed":
            return None
        self.journal.claim(key)
        hole = self.journal.recovered_failure(record)
        self._stats.failures += 1
        diagnostics().record_journal_hole(hole.describe())
        return hole

    def _note_recovery(self, key: str, *, hit: bool) -> None:
        """Account a resumed request: recovered on a cache hit, missing
        from the store (re-run) otherwise."""
        if self.journal is None:
            return
        record = self.journal.claim(key)
        if record is None or record.get("status") != "ok":
            return
        if hit:
            diagnostics().record_journal_recovery()
        else:
            diagnostics().record_journal_missing(key)

    # ------------------------------------------------------------------
    # execution internals
    # ------------------------------------------------------------------
    def _lane_width(self) -> int:
        """Effective lane width for this map call.

        Lane grouping only applies to the standard electrical work
        unit: a custom ``work_fn`` (fault injection, alternative
        backends) must see every request, so it disables the carve-out.
        """
        if self._work is not execute_request:
            return 0
        return self.lanes or 0

    def effective_lanes(self) -> int:
        """The lane width :meth:`map` would use right now.

        Exposed so batch-aware drivers (speculative BR bisection, the
        border scan) can decide whether prefetching probes into one
        ``map`` call will actually stack — with a width below 2 the
        carve-out never fires and speculation would only waste
        simulations.
        """
        return self._lane_width()

    def _run_lane_group(self, group: Sequence[SequenceRequest],
                        on_error: str) -> list:
        """Execute one lane group, falling back per-lane on trouble.

        Isolated lanes (``None`` slots) re-run on the serial kernel
        path with its full rescue ladder; an exception from the stacked
        kernel itself demotes the whole group to serial execution — the
        lane kernel is an accelerator, never a new failure mode.
        """
        try:
            lane_results, counters = execute_lane_group(group)
        except Exception as exc:
            get_logger("engine").warning(
                "lane group of %d failed (%s: %s); running serially",
                len(group), type(exc).__name__, exc)
            return [self._execute_serial(r, on_error) for r in group]
        stats = self._stats
        stats.lane_groups += 1
        stats.lane_sparse_groups += \
            counters.get("lane_sparse_transients", 0) and 1
        stats.lane_warm_hits += counters.pop("lane_warm_start_hits", 0)
        stats.lane_warm_misses += counters.pop("lane_warm_start_misses", 0)
        diagnostics().count_all(counters, "lane")
        out = []
        for request, result in zip(group, lane_results):
            if result is None:
                out.append(self._execute_serial(request, on_error))
            else:
                out.append(result)
        return out

    def _execute_serial(self, request: SequenceRequest, on_error: str,
                        *, prior_attempts: int = 0):
        """Run one request in-process (also the repeat-offender path)."""
        try:
            return self._work(request)
        except Exception as exc:
            if on_error == "raise":
                raise
            return FailedResult.from_exception(
                request, exc, attempts=prior_attempts + 1)

    def _execute_pool(self, pending: Sequence[SequenceRequest],
                      on_error: str) -> list:
        """Drive ``pending`` through per-item futures with crash/timeout
        recovery.  Returns outcomes aligned with ``pending``."""
        log = get_logger("engine")
        timeout = self.timeout
        n = len(pending)
        outcomes: list = [_UNSET] * n
        attempts = [0] * n
        todo = list(range(n))
        rounds = 0
        while todo:
            rounds += 1
            if rounds > 1:
                self._stats.retries += len(todo)
                diagnostics().record_retry(len(todo))
                time.sleep(min(RETRY_BACKOFF * 2 ** (rounds - 2), 2.0))
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(todo)))
            dirty = False                  # pool needs a hard teardown
            error: BaseException | None = None   # deferred re-raise
            rerun: list[int] = []
            futures = []
            for i in todo:
                attempts[i] += 1
                futures.append((i, pool.submit(run_counted, self._work,
                                               pending[i])))
            for i, fut in futures:
                if error is not None or dirty:
                    # The pool is compromised (or we are about to
                    # raise): salvage finished work, reschedule the
                    # rest.
                    if fut.done() and not fut.cancelled():
                        try:
                            outcomes[i] = merge_counted(fut)
                        except BrokenProcessPool:
                            rerun.append(i)
                        except Exception as exc:
                            if on_error == "isolate":
                                outcomes[i] = FailedResult.from_exception(
                                    pending[i], exc, attempts=attempts[i])
                            elif error is None:
                                error = exc
                    else:
                        fut.cancel()
                        rerun.append(i)
                    continue
                try:
                    outcomes[i] = merge_counted(fut, timeout)
                except FuturesTimeoutError:
                    # The worker may be wedged: fail the item, rebuild
                    # the pool for whatever is still outstanding.
                    dirty = True
                    log.warning("request timed out after %.3gs "
                                "(attempt %d)", timeout, attempts[i])
                    if on_error == "isolate":
                        outcomes[i] = FailedResult(
                            error_type="TimeoutError",
                            message=f"no result within {timeout:.3g}s",
                            attempts=attempts[i],
                            request_summary=self._summarize(pending[i]))
                    else:
                        error = TimeoutError(
                            f"batch request produced no result within "
                            f"{timeout:.3g}s")
                except BrokenProcessPool:
                    dirty = True
                    diagnostics().record_worker_crash()
                    log.warning("worker crashed mid-batch (attempt %d); "
                                "respawning pool", attempts[i])
                    rerun.append(i)
                except Exception as exc:
                    if on_error == "isolate":
                        outcomes[i] = FailedResult.from_exception(
                            pending[i], exc, attempts=attempts[i])
                    else:
                        error = exc
            if dirty or error is not None:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
            if error is not None:
                raise error
            todo = []
            for i in rerun:
                if attempts[i] > self.max_retries:
                    # Repeat offender: last chance in-process, where a
                    # crash cannot take other items with it.
                    log.warning("request survived %d pool attempts "
                                "without a result; running serially",
                                attempts[i])
                    outcomes[i] = self._execute_serial(
                        pending[i], on_error,
                        prior_attempts=attempts[i])
                else:
                    todo.append(i)
        return outcomes

    @staticmethod
    def _summarize(request) -> str | None:
        describe = getattr(request, "describe", None)
        if callable(describe):
            try:
                return describe()
            except Exception:
                return repr(request)
        return None


# ----------------------------------------------------------------------
# default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: BatchExecutor | None = None


def default_engine() -> BatchExecutor:
    """The process-wide engine (created on first use: cached, serial)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = BatchExecutor(cache=ResultCache())
    return _DEFAULT_ENGINE


def set_default_engine(engine: BatchExecutor | None) -> None:
    """Replace the process-wide engine (``None`` resets to lazy default)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine


def configure_default_engine(*, workers: int = 1, cache: bool = True,
                             on_error: str = "raise",
                             timeout: float | None = None,
                             max_retries: int = 2,
                             lanes: int | None = None,
                             backend: str | None = None,
                             trim: str | None = None,
                             checkpoint=None,
                             resume: bool = False,
                             surrogate: str | None = None
                             ) -> BatchExecutor:
    """Build and install the process-wide engine (CLI entry point).

    ``backend`` (when given) sets the process-wide solver-backend
    default (:func:`repro.spice.backends.set_backend_default`); workers
    spawned by fork inherit it with the rest of the module state.
    ``trim`` likewise sets the process-wide netlist-trimming default
    (:func:`repro.dram.trim.set_trim_default`) consumed by array
    requests built without an explicit policy.

    ``checkpoint`` (a directory) makes the run durable: results land in
    an integrity-checked store there and every completion is
    journaled (see :mod:`repro.engine.journal`); it overrides
    ``cache=False`` because durability *is* the cache's disk tier.
    ``resume=True`` additionally recovers a prior interrupted run's
    journal, skipping already-completed work.
    """
    if backend is not None:
        from repro.spice.backends import set_backend_default
        set_backend_default(backend)
    if trim is not None:
        from repro.dram.trim import set_trim_default
        set_trim_default(trim)
    journal = None
    if checkpoint is not None:
        from repro.engine.journal import SweepCheckpoint
        ckpt = SweepCheckpoint(checkpoint, resume=resume)
        store = ckpt.cache()
        journal = ckpt.journal
    elif cache:
        store = ResultCache()
    else:
        store = None
    engine = BatchExecutor(cache=store, workers=workers,
                           on_error=on_error, timeout=timeout,
                           max_retries=max_retries, lanes=lanes,
                           journal=journal)
    set_default_engine(engine)
    from repro.surrogate.tier import SurrogateTier, set_active_tier
    if surrogate in (None, "off"):
        set_active_tier(None)
    else:
        durable = store.store if store is not None else None
        set_active_tier(SurrogateTier(surrogate, store=durable,
                                      stats=engine.stats))
    return engine


# ----------------------------------------------------------------------
# generic fan-out
# ----------------------------------------------------------------------
#: The store a pool worker keeps per store root for all its items.
_WORKER_STORES: dict[str, ShardedStore] = {}


def _on_fresh_engine(fn: Callable[[_T], _R], store_root: str | None,
                     item: _T) -> tuple[_R, EngineStats]:
    """Pool-worker side of :func:`parallel_map`: ``fn(item)`` on a fresh
    serial default engine, returned with that engine's stats.

    A forked worker inherits the parent's engine, whose pool it must not
    nest.  When the parent's cache has a durable store, the fresh cache
    is backed by the worker's store on the same root, opened by its
    first item and kept for the rest (every put is already durable):
    the worker appends its results to one segment of its own and reads
    every other process's, so a checkpointed run keeps them and a
    resumed one recalls them.
    """
    previous = _DEFAULT_ENGINE
    store = None
    if store_root is not None:
        store = _WORKER_STORES.get(store_root)
        if store is None:
            store = _WORKER_STORES[store_root] = ShardedStore(store_root)
    engine = BatchExecutor(cache=ResultCache(store=store))
    set_default_engine(engine)
    try:
        return fn(item), engine.stats
    finally:
        set_default_engine(previous)


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T],
                 workers: int = 1) -> list[_R]:
    """Map ``fn`` over ``items``, in worker processes when possible.

    Items run in-process, on the current default engine, when
    ``workers <= 1``, when there is nothing to parallelise, or when the
    function/items cannot be pickled (closures over models, lambdas) —
    so callers can expose a ``workers`` knob without restricting what
    their users pass in.  Pooled items each run on a fresh serial engine
    (:func:`_on_fresh_engine`); their engine stats merge into the
    default engine's and their run diagnostics into this run's, so run
    totals cover every process.  The pickling fallback is *partial*:
    items that already completed in workers keep their results, only
    the unfinished remainder re-runs in-process, and the degradation is
    logged as a warning.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    engine = default_engine()
    store = engine.cache.store if engine.cache is not None else None
    task = partial(_on_fresh_engine, fn,
                   str(store.root) if store is not None else None)
    results: list = [_UNSET] * len(items)
    try:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(items))) as pool:
            futures = [(i, pool.submit(run_counted, task, item))
                       for i, item in enumerate(items)]
            for i, fut in futures:
                results[i], stats = merge_counted(fut)
                engine.stats.merge(stats)
        return results
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        missing = [i for i, r in enumerate(results) if r is _UNSET]
        get_logger("engine").warning(
            "parallel fan-out cannot cross the process boundary (%s: "
            "%s); running %d of %d items serially in-process",
            type(exc).__name__, exc, len(missing), len(items))
        for i in missing:
            results[i] = fn(items[i])
        return results
