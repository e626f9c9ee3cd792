"""Shared benchmark plumbing: path bootstrap, timing, artefact emit.

Every ``bench_*.py`` speaks the same protocol — ``--quick`` shrinks the
workload for CI, ``--check`` gates parity *and* speedup, ``--check-parity``
gates parity only (for noisy runners), and each run writes two
artefacts: ``reports/<name>.txt`` (repo root, the canonical report
sink and acceptance artifact) and a machine-readable
``BENCH_<name>.json`` twin so the perf trajectory is trackable across
PRs (see ``scripts/bench_trajectory.py``).  Only full-mode runs write
those committed files; a ``--quick`` run writes the same two under the
gitignored :data:`QUICK_DIR`, so a parity gate leaves the tree clean.
This module owns that boilerplate so a benchmark is only its workload,
its render, and its gate conditions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

#: Repository root (the directory holding ``src``/``benchmarks``).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where ``--quick`` runs write their artefacts (gitignored).
QUICK_DIR = REPO_ROOT / ".bench_build"


def bootstrap() -> None:
    """Put ``src`` on ``sys.path`` (idempotent; import-time safe)."""
    path = str(REPO_ROOT / "src")
    if path not in sys.path:
        sys.path.insert(0, path)


bootstrap()


def best_of(fn, rounds: int) -> tuple[float, object]:
    """Minimum wall time over ``rounds`` repetitions (noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def make_parser(doc: str, *, quick: bool = True,
                check_parity: bool = True) -> argparse.ArgumentParser:
    """The standard benchmark CLI: ``--quick`` / ``--check`` [/ ``--check-parity``]."""
    ap = argparse.ArgumentParser(description=(doc or "").splitlines()[0])
    if quick:
        ap.add_argument("--quick", action="store_true",
                        help="reduced sizes/kinds/rounds (CI)")
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero if parity fails or the speedup "
                         "target is missed (full mode)")
    if check_parity:
        ap.add_argument("--check-parity", action="store_true",
                        help="exit nonzero if parity fails (speedup stays "
                             "informational - for noisy CI runners)")
    return ap


def emit(name: str, text: str, payload: dict) -> None:
    """Print + persist one benchmark's artefacts.

    Writes the text rendering to ``reports/<name>.txt`` (repo root,
    the one canonical report location) and the payload — stamped with
    ``benchmark``/``python``/``numpy`` — to ``BENCH_<name>.json``
    (sorted keys, trailing newline, the schema every existing
    ``BENCH_*.json`` follows).  A quick-mode payload
    (``payload["quick"]``) writes both under :data:`QUICK_DIR` instead:
    the committed files are full-mode runs.
    """
    import numpy as np

    print(text)
    root = QUICK_DIR if payload.get("quick") else REPO_ROOT
    target = root / "reports" / f"{name}.txt"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n")
    payload = dict(payload, benchmark=name,
                   python=platform.python_version(),
                   numpy=np.__version__)
    (root / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def fail(message: str) -> int:
    """Print a gate failure to stderr and return the CI exit code."""
    print(f"FAIL: {message}", file=sys.stderr)
    return 1
