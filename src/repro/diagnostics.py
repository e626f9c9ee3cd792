"""Run diagnostics: the one registry of a run's counters and timers,
plus structured logging.

The resilience layer spans three tiers — the SPICE solvers (convergence
rescue), the execution engine (fault-isolated batches) and the analysis
sweeps (degraded results with holes).  All three report what happened
through this module so one run produces one coherent story:

* :func:`get_logger` / :func:`configure_logging` — a single stdlib
  ``logging`` tree rooted at ``"repro"``, writing structured one-line
  records to stderr.  Nothing is emitted until :func:`configure_logging`
  installs the handler (library use stays silent by default).
* :class:`RunDiagnostics` — the registry of one run: failures, rescues,
  retries, timeouts and worker crashes, dotted activity counters
  (``kernel.*`` solver kernels, ``lane.*`` batched lanes, ``trim.*``
  netlist trimming, ``transient.steps``) and opt-in wall-clock timers
  (``transient.*``, ``sweep.*``, ``surrogate.*``; on under
  ``--profile``).  The process-wide instance (:func:`diagnostics`) is
  what the CLI prints to stderr after a sweep; :func:`reset_diagnostics`
  starts a fresh run.

Worker processes count into their own registry.  The pool entry points
of :mod:`repro.engine.executor` submit work through :func:`run_counted`,
which ships the worker's registry back with each outcome, and fold it
into the parent's with :func:`merge_counted` — so run totals cover
every process that ran, whatever ``--workers`` says.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

#: Root logger name of the package; every tier logs under a child.
LOGGER_NAME = "repro"

#: One-line structured record: time, severity, subsystem, message.
LOG_FORMAT = "%(asctime)s %(levelname)-8s %(name)s | %(message)s"

#: Levels accepted by :func:`configure_logging` and the CLI flag.
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

#: Counter prefixes rendered as one ``label: name xN, ...`` line each.
COUNTER_GROUPS = {"kernel": "solver kernels", "lane": "lane kernel",
                  "trim": "netlist trim"}


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the package root (``repro`` or ``repro.<name>``)."""
    if not name:
        return logging.getLogger(LOGGER_NAME)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure_logging(level: str | int = "warning",
                      stream=None) -> logging.Logger:
    """Install (or retune) the package's stderr handler.

    Idempotent: repeated calls adjust the level of the existing handler
    instead of stacking duplicates, so tests and nested CLI invocations
    never multiply output lines.
    """
    if isinstance(level, str):
        if level.lower() not in LOG_LEVELS:
            raise ValueError(f"unknown log level {level!r}; choose one of "
                             f"{', '.join(LOG_LEVELS)}")
        level = getattr(logging, level.upper())
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(level)
    logger.propagate = False
    for handler in logger.handlers:
        if getattr(handler, "_repro_handler", False):
            handler.setLevel(level)
            if stream is not None:
                try:
                    handler.setStream(stream)
                except ValueError:
                    # The previous stream is already closed (common when
                    # a test harness swapped stderr): skip its flush and
                    # retarget directly.
                    handler.stream = stream
            return logger
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler._repro_handler = True
    logger.addHandler(handler)
    return logger


@dataclass
class RunDiagnostics:
    """The counters and timers of one run.

    ``failures`` counts units of work that produced no result (after all
    rescue and retry machinery gave up); ``rescues`` counts solves that
    only succeeded through a fallback ladder; ``retries`` counts batch
    items re-driven after a worker crash; ``timeouts`` and
    ``worker_crashes`` break the failure causes down;
    ``cache_quarantined`` and ``cache_skipped`` count the store records
    and garbled segment spans set aside on read.

    ``counts`` holds the dotted activity counters of every layer (always
    on, informational: they never make a run ``eventful``); ``times``
    the dotted wall-clock seconds of the timed sections, recorded only
    while ``timing`` is set.
    """

    failures: int = 0
    rescues: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    cache_quarantined: int = 0
    cache_skipped: int = 0
    journal_recovered: int = 0
    journal_holes: int = 0
    journal_missing: int = 0
    failure_kinds: dict[str, int] = field(default_factory=dict)
    rescue_stages: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)

    #: Timers record only while set (``--profile``); a disabled timer
    #: costs one attribute check.  Not a field: it is a switch of this
    #: process, not a count to merge.
    timing = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_failure(self, error_type: str, detail: str = "") -> None:
        """One unit of work lost for good (logged at WARNING)."""
        self.failures += 1
        self.failure_kinds[error_type] = \
            self.failure_kinds.get(error_type, 0) + 1
        if error_type == "TimeoutError":
            self.timeouts += 1
        get_logger("diagnostics").warning(
            "failure (%s)%s", error_type, f": {detail}" if detail else "")

    def record_rescue(self, stage: str) -> None:
        """One solve saved by a fallback (``gmin``, ``source``...)."""
        self.rescues += 1
        self.rescue_stages[stage] = self.rescue_stages.get(stage, 0) + 1
        get_logger("diagnostics").info("convergence rescue via %s", stage)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the dotted counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def count_all(self, counts: dict[str, int], group: str) -> None:
        """Add a layer's tally of counters under ``group.<name>``."""
        for name, n in counts.items():
            self.count(f"{group}.{name}", n)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under the dotted timer ``name``."""
        self.times[name] = self.times.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Time the enclosed block under ``name`` while ``timing``."""
        if not self.timing:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def record_retry(self, count: int = 1) -> None:
        """Batch items re-driven after an infrastructure fault."""
        self.retries += count

    def record_worker_crash(self) -> None:
        """One pool breakage (``BrokenProcessPool``)."""
        self.worker_crashes += 1
        get_logger("diagnostics").warning(
            "worker process crashed; respawning pool")

    def record_cache_quarantine(self, path: str = "",
                                reason: str = "") -> None:
        """One store record that failed integrity verification; a copy
        went to the store's ``corrupt/`` directory."""
        self.cache_quarantined += 1
        get_logger("diagnostics").warning(
            "quarantined store entry%s%s",
            f" {path}" if path else "",
            f" ({reason})" if reason else "")

    def record_store_skip(self, path: str = "", nbytes: int = 0) -> None:
        """One garbled span of a store segment skipped while indexing;
        a copy of its bytes went to the store's ``corrupt/``."""
        self.cache_skipped += 1
        get_logger("diagnostics").warning(
            "skipped %d garbled store bytes%s", nbytes,
            f" ({path})" if path else "")

    def record_journal_recovery(self, count: int = 1) -> None:
        """Completed work skipped on resume (journaled + in the store)."""
        self.journal_recovered += count

    def record_journal_hole(self, detail: str = "") -> None:
        """One journaled failure replayed as a hole instead of re-run."""
        self.journal_holes += 1
        get_logger("diagnostics").info(
            "journal-recovered hole%s", f": {detail}" if detail else "")

    def record_journal_missing(self, key: str = "") -> None:
        """One journaled-complete result missing from the store (lost or
        quarantined entry) — re-simulated instead of recovered."""
        self.journal_missing += 1
        get_logger("diagnostics").warning(
            "journaled result missing from store%s; re-running",
            f" ({key[:12]}…)" if key else "")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def eventful(self) -> bool:
        """Did anything noteworthy happen this run?"""
        return bool(self.failures or self.rescues or self.retries
                    or self.worker_crashes
                    or self.cache_quarantined or self.cache_skipped
                    or self.journal_recovered or self.journal_holes
                    or self.journal_missing)

    def summary(self) -> str:
        """Multi-line per-run summary (the CLI prints this to stderr)."""
        lines = [f"resilience: {self.failures} failed, "
                 f"{self.rescues} rescued, {self.retries} retried"]
        if self.failure_kinds:
            lines.append(f"  failures by kind: {_tally(self.failure_kinds)}")
        if self.rescue_stages:
            lines.append(f"  rescues by stage: {_tally(self.rescue_stages)}")
        if self.timeouts:
            lines.append(f"  timeouts: {self.timeouts}")
        if self.worker_crashes:
            lines.append(f"  worker crashes: {self.worker_crashes}")
        if self.cache_quarantined:
            lines.append(f"  store entries quarantined: "
                         f"{self.cache_quarantined}")
        if self.cache_skipped:
            lines.append(f"  garbled store spans skipped: "
                         f"{self.cache_skipped}")
        if self.journal_recovered or self.journal_holes \
                or self.journal_missing:
            lines.append(f"  journal: {self.journal_recovered} results "
                         f"recovered, {self.journal_holes} holes "
                         f"replayed, {self.journal_missing} missing "
                         f"from store")
        lines += [f"  {line}" for line in self.group_lines()]
        return "\n".join(lines)

    def report(self, stream=None) -> None:
        """Print the summary to ``stream`` (stderr) when eventful."""
        if self.eventful:
            print(self.summary(), file=stream if stream is not None
                  else sys.stderr)

    def group(self, prefix: str) -> dict[str, int]:
        """The counters under ``prefix.``, keyed by their leaf names."""
        head = prefix + "."
        return {name[len(head):]: n for name, n in self.counts.items()
                if name.startswith(head)}

    def group_lines(self) -> list[str]:
        """One ``label: name xN, ...`` line per :data:`COUNTER_GROUPS`
        prefix that counted anything."""
        groups = {label: self.group(prefix)
                  for prefix, label in COUNTER_GROUPS.items()}
        return [f"{label}: {_tally(group)}"
                for label, group in groups.items() if group]

    def profile(self) -> str:
        """The ``--profile`` table: timers (slowest first), then the
        counters outside :data:`COUNTER_GROUPS`."""
        lines = ["profile summary"]
        if self.times:
            width = max(len(k) for k in self.times)
            for name in sorted(self.times, key=self.times.get,
                               reverse=True):
                lines.append(f"  {name:<{width}}  "
                             f"{self.times[name] * 1e3:10.2f} ms")
        other = {name: n for name, n in self.counts.items()
                 if name.split(".", 1)[0] not in COUNTER_GROUPS}
        if other:
            width = max(len(k) for k in other)
            for name in sorted(other):
                lines.append(f"  {name:<{width}}  {other[name]:>10d}")
        if len(lines) == 1:
            lines.append("  (no samples)")
        return "\n".join(lines)


def _tally(counts: dict[str, int]) -> str:
    """``name xN, ...`` in name order."""
    return ", ".join(f"{k} x{n}" for k, n in sorted(counts.items()))


_DIAGNOSTICS = RunDiagnostics()


def diagnostics() -> RunDiagnostics:
    """The process-wide diagnostics of the current run."""
    return _DIAGNOSTICS


def reset_diagnostics() -> RunDiagnostics:
    """Start a fresh run (returns the new instance)."""
    global _DIAGNOSTICS
    _DIAGNOSTICS = RunDiagnostics()
    return _DIAGNOSTICS


def fold(into, other, sign: int = 1) -> None:
    """Add the counter fields of dataclass ``other`` (times ``sign``)
    into ``into``: numbers add, dicts add key by key, anything else is
    left alone.  The one piece of counter arithmetic — engine-stat
    snapshots, deltas and merges, and worker registries, all use it."""
    for f in fields(into):
        mine, theirs = getattr(into, f.name), getattr(other, f.name)
        if isinstance(mine, dict):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + sign * n
        elif isinstance(mine, (int, float)):
            setattr(into, f.name, mine + sign * theirs)


#: Attribute a worker's registry rides on when its item raises.
_REGISTRY_ATTR = "_repro_registry"


def run_counted(fn, item):
    """Pool-worker side of the counter merge: ``fn(item)`` counted on a
    fresh registry, returned with it as ``(outcome, registry)``.  When
    the item raises, the registry rides back on the exception."""
    timing = diagnostics().timing
    registry = reset_diagnostics()
    registry.timing = timing
    try:
        return fn(item), registry
    except Exception as exc:
        setattr(exc, _REGISTRY_ATTR, registry)
        raise


def merge_counted(future, timeout: float | None = None):
    """Parent side of :func:`run_counted`: the worker's outcome from
    ``future``, with its registry folded into this run's — also when
    the item raised, before the exception propagates."""
    try:
        outcome, registry = future.result(timeout)
    except Exception as exc:
        registry = vars(exc).pop(_REGISTRY_ATTR, None)
        if registry is not None:
            fold(diagnostics(), registry)
        raise
    fold(diagnostics(), registry)
    return outcome
