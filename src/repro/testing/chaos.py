"""Deterministic fault injection for the durability layer.

Durability claims ("kill-and-resume reproduces identical output",
"corruption never poisons results", "concurrent writers never lose
entries") are only as good as the faults they were tested against.
This module injects those faults *deterministically*, so a chaos test
that fails fails the same way every time:

* :class:`ChaosPlan` — a seed-driven per-request fault schedule.  The
  fault drawn for a request depends only on ``(seed, content hash)``,
  and each drawn fault fires **once** (claimed through an atomic marker
  file in ``state_dir``, so the claim holds across worker processes and
  pool respawns — a crashed request succeeds when retried instead of
  crash-looping forever).
* :func:`chaos_execute` / :func:`chaos_work_fn` — a drop-in
  ``work_fn`` for :class:`~repro.engine.executor.BatchExecutor` that
  injects worker crashes (``os._exit``), forced
  :class:`~repro.spice.errors.ConvergenceError` and timeout stalls in
  front of the real :func:`~repro.engine.executor.execute_request`.
* :func:`corrupt_entry` / :func:`corrupt_store` — damage
  :class:`~repro.store.sharded.ShardedStore` records in place inside
  their segments (torn writes, bit flips, garbage, foreign format
  version) the way a crashed writer or rotting disk would.
* :func:`run_cli_killed_mid_sweep` — spawn a checkpointed
  ``python -m repro`` sweep and SIGKILL/SIGTERM it mid-run, triggered
  by journal growth so the kill lands at a deterministic amount of
  completed work regardless of machine speed.
"""

from __future__ import annotations

import functools
import hashlib
import os
import signal
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.engine.executor import execute_request
from repro.spice.errors import ConvergenceError
from repro.store.sharded import FRAME, ShardedStore

#: Fault kinds a :class:`ChaosPlan` can draw.
FAULT_CRASH = "crash"
FAULT_CONVERGENCE = "convergence"
FAULT_STALL = "stall"

#: Exit code of an injected worker crash (distinctive in pool logs).
CRASH_EXIT_CODE = 23

#: Corruption modes of :func:`corrupt_entry`.
CORRUPT_TRUNCATE = "truncate"
CORRUPT_BITFLIP = "bitflip"
CORRUPT_GARBAGE = "garbage"
CORRUPT_VERSION = "version"
CORRUPT_MODES = (CORRUPT_TRUNCATE, CORRUPT_BITFLIP, CORRUPT_GARBAGE,
                 CORRUPT_VERSION)


def _uniform(seed: int, *parts: str) -> float:
    """Deterministic uniform draw in [0, 1) from a seed and strings."""
    digest = hashlib.sha256(
        ":".join([str(seed), *parts]).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class ChaosPlan:
    """Seed-driven fault schedule over request content hashes.

    Rates partition the unit interval: a request's uniform draw selects
    crash, then convergence, then stall, in that order.  ``state_dir``
    holds the once-only claim markers; it must be shared by every
    process of the run (the plan itself is picklable and crosses the
    pool boundary inside a ``functools.partial``).
    """

    state_dir: str
    seed: int = 0
    crash_rate: float = 0.0
    convergence_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 30.0
    once: bool = True

    def draw(self, key: str) -> str | None:
        """The fault scheduled for ``key`` (independent of history)."""
        u = _uniform(self.seed, key)
        if u < self.crash_rate:
            return FAULT_CRASH
        u -= self.crash_rate
        if u < self.convergence_rate:
            return FAULT_CONVERGENCE
        u -= self.convergence_rate
        if u < self.stall_rate:
            return FAULT_STALL
        return None

    def should_inject(self, key: str) -> str | None:
        """The fault to fire *now* for ``key`` — claims the once-only
        marker, so retries of a faulted request run clean."""
        fault = self.draw(key)
        if fault is None:
            return None
        if self.once and not self._claim(key, fault):
            return None
        return fault

    def _claim(self, key: str, fault: str) -> bool:
        path = os.path.join(self.state_dir, f"{key[:32]}.{fault}")
        try:
            os.makedirs(self.state_dir, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        os.close(fd)
        return True


def chaos_execute(plan: ChaosPlan, request):
    """Execute one request through the plan's scheduled fault (if any).

    Module-level and driven by a picklable plan, so
    ``functools.partial(chaos_execute, plan)`` ships to pool workers.
    """
    fault = plan.should_inject(request.content_hash)
    if fault == FAULT_CRASH:
        os._exit(CRASH_EXIT_CODE)
    if fault == FAULT_CONVERGENCE:
        raise ConvergenceError("chaos: injected non-convergence",
                               rescue_trail=("chaos",))
    if fault == FAULT_STALL:
        time.sleep(plan.stall_seconds)
    return execute_request(request)


def chaos_work_fn(plan: ChaosPlan):
    """The ``work_fn`` for a :class:`BatchExecutor` under this plan."""
    return functools.partial(chaos_execute, plan)


# ----------------------------------------------------------------------
# store corruption
# ----------------------------------------------------------------------
def corrupt_entry(store: ShardedStore, key: str,
                  mode: str = CORRUPT_TRUNCATE, seed: int = 0) -> None:
    """Damage the record ``store.get(key)`` would read, in place inside
    its segment.

    The frame keeps its size and its locator (magic, version, key,
    payload length): a record in the middle of a log cannot be cut, and
    the records after it must stay reachable.  ``truncate`` zero-fills
    the record from a cut point in its digest or payload to its end (the
    part of a torn write that never landed), ``bitflip`` flips one
    payload bit (silent media corruption), ``garbage`` overwrites the
    digest and payload with junk, ``version`` rewrites the frame's
    format version (a foreign/future store wrote the record).
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")
    located = store.locate(key)
    if located is None:
        raise KeyError(key)
    path, offset, size = located
    body = FRAME.size - 32                  # the digest, then the payload
    with open(path, "r+b") as fh:
        fh.seek(offset)
        raw = bytearray(fh.read(size))
        if mode == CORRUPT_TRUNCATE:
            cut = body + int((size - body) * _uniform(seed, key, "cut"))
            raw[cut:] = bytes(size - cut)
        elif mode == CORRUPT_BITFLIP:
            span = size - FRAME.size
            pos = FRAME.size + int(span * _uniform(seed, key, "pos")) \
                if span > 0 else size - 1
            raw[pos] ^= 1 << int(8 * _uniform(seed, key, "bit"))
        elif mode == CORRUPT_GARBAGE:
            junk = hashlib.sha256(f"{seed}:{key}:junk".encode()).digest()
            raw[body:] = (junk * ((size - body) // 32 + 1))[:size - body]
        elif mode == CORRUPT_VERSION:
            version = struct.unpack_from("<H", raw, 4)[0]
            struct.pack_into("<H", raw, 4, (version + 1) & 0xFFFF)
        fh.seek(offset)
        fh.write(raw)


def corrupt_store(store: ShardedStore, rate: float = 1.0, *,
                  seed: int = 0, modes=CORRUPT_MODES) -> list[str]:
    """Corrupt a deterministic ``rate`` fraction of the store's records,
    cycling through ``modes``; returns the damaged keys."""
    damaged = []
    for key in sorted(store.keys()):
        if _uniform(seed, key, "select") >= rate:
            continue
        mode = modes[len(damaged) % len(modes)]
        corrupt_entry(store, key, mode=mode, seed=seed)
        damaged.append(key)
    return damaged


# ----------------------------------------------------------------------
# mid-sweep process kills
# ----------------------------------------------------------------------
@dataclass
class InterruptedRun:
    """Outcome of :func:`run_cli_killed_mid_sweep`."""

    returncode: int
    stdout: str
    stderr: str
    interrupted: bool       # the signal landed before natural exit
    journal_records: int    # journal length when the signal was sent


def run_cli_killed_mid_sweep(cli_args, checkpoint_dir, *,
                             kill_after_records: int = 20,
                             sig: int = signal.SIGKILL,
                             timeout: float = 300.0,
                             poll: float = 0.02,
                             env: dict | None = None) -> InterruptedRun:
    """Run ``python -m repro <cli_args>`` and signal it mid-sweep.

    The kill triggers when the checkpoint journal reaches
    ``kill_after_records`` records — a progress-based trigger, so the
    interruption lands at the same amount of completed work on a fast
    or a slow machine.  ``cli_args`` must include ``--checkpoint`` with
    ``checkpoint_dir`` (asserted), otherwise there is no journal to
    watch.  If the sweep finishes before the trigger, the run is
    returned with ``interrupted=False`` — callers decide whether that
    voids their scenario.
    """
    cli_args = [str(a) for a in cli_args]
    assert "--checkpoint" in cli_args, \
        "a mid-sweep kill needs a journal to watch"
    journal = Path(checkpoint_dir) / "journal.jsonl"
    run_env = dict(os.environ if env is None else env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=run_env)
    deadline = time.monotonic() + timeout
    interrupted = False
    records = 0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        try:
            records = journal.read_bytes().count(b"\n")
        except OSError:
            records = 0
        if records >= kill_after_records:
            proc.send_signal(sig)
            interrupted = True
            break
        time.sleep(poll)
    else:
        proc.kill()
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    return InterruptedRun(returncode=proc.returncode, stdout=stdout,
                          stderr=stderr, interrupted=interrupted,
                          journal_records=records)
