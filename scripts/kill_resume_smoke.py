#!/usr/bin/env python
"""Kill-and-resume smoke test for CI.

Runs ``python -m repro table1`` three ways:

1. uninterrupted, to capture the reference stdout;
2. with ``--checkpoint``, SIGKILLed once the journal shows real
   progress (a mid-sweep crash, not a startup failure);
3. resumed with ``--resume`` on the same checkpoint.

Exits 0 iff the interrupted run actually died to the signal, the
resumed run recovered from the store at least the journal records
counted before the kill with none missing (request keys are stable
across processes: a drifting hash would silently re-simulate
everything), and the resumed stdout is byte-identical to the reference.
The checkpoint directory (journal, store, any quarantine) is left in
``--workdir`` so CI can upload it as an artifact on failure.
"""

import argparse
import difflib
import re
import signal
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("smoke-ck"),
                        help="checkpoint directory (kept for artifacts)")
    parser.add_argument("--kill-after", type=int, default=60,
                        metavar="N", help="journal records before SIGKILL")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    ck = args.workdir / "checkpoint"

    print("[1/3] reference run (uninterrupted)", flush=True)
    reference = subprocess.run(
        [sys.executable, "-m", "repro", "table1"],
        capture_output=True, text=True, timeout=args.timeout)
    if reference.returncode != 0:
        print(reference.stderr, file=sys.stderr)
        print("FAIL: reference run failed", file=sys.stderr)
        return 1

    print(f"[2/3] checkpointed run, SIGKILL at {args.kill_after} "
          "journal records", flush=True)
    from repro.testing import run_cli_killed_mid_sweep
    interrupted = run_cli_killed_mid_sweep(
        ["table1", "--checkpoint", ck], ck,
        kill_after_records=args.kill_after, sig=signal.SIGKILL,
        timeout=args.timeout)
    if not interrupted.interrupted:
        print("FAIL: sweep finished before the kill could land "
              f"(rc={interrupted.returncode})", file=sys.stderr)
        return 1
    print(f"      killed at {interrupted.journal_records} records "
          f"(rc={interrupted.returncode})", flush=True)

    print("[3/3] resume", flush=True)
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "table1",
         "--checkpoint", str(ck), "--resume", "--profile"],
        capture_output=True, text=True, timeout=args.timeout)
    if resumed.returncode != 0:
        print(resumed.stderr, file=sys.stderr)
        print("FAIL: resumed run failed", file=sys.stderr)
        return 1
    for line in resumed.stderr.splitlines():
        if "journal" in line or "store" in line:
            print(f"      {line.strip()}", flush=True)
    match = re.search(r"journal: (\d+) results recovered, \d+ holes "
                      r"replayed, (\d+) missing from store",
                      resumed.stderr)
    recovered, missing = (int(match[1]), int(match[2])) if match \
        else (0, 0)
    if recovered < interrupted.journal_records or missing:
        print(f"FAIL: resume recovered {recovered} results ({missing} "
              f"missing from store); the kill left "
              f"{interrupted.journal_records} journal records",
              file=sys.stderr)
        return 1

    if resumed.stdout != reference.stdout:
        sys.stderr.writelines(difflib.unified_diff(
            reference.stdout.splitlines(keepends=True),
            resumed.stdout.splitlines(keepends=True),
            fromfile="reference", tofile="resumed"))
        print("FAIL: resumed stdout differs from reference",
              file=sys.stderr)
        return 1
    print(f"OK: resume recovered {recovered} results; stdout is "
          "byte-identical to the reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
