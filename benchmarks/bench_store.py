"""Result-store benchmark: append-only segment store vs a flat dir.

Measures what the durability layer costs and what resume buys, and
writes the numbers to ``reports/store.txt`` (the acceptance artifact)
plus a machine-readable ``BENCH_store.json``:

* put/get throughput over 10k entries through the segment store (one
  framed append per put with its sha256, fsync on and off; every get
  re-reads and verifies its frame) against a flat-directory pickle
  baseline — the unverified, non-atomic disk tier of the seed;
* resume overhead: a checkpointed behavioral sweep run cold, then
  resumed from its own journal — the resumed run replays every result
  from the store instead of simulating, and the ratio of the two wall
  times is the price of durability bookkeeping on recovered work.

Integrity is checked as a side effect: every entry written during the
throughput runs must read back verified, and the resumed sweep must
reproduce the cold sweep's results exactly.

Run standalone (CI runs ``--quick --check``)::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick] [--check]
"""

from __future__ import annotations

import hashlib
import pathlib
import pickle
import platform
import shutil
import tempfile
import time

try:
    from benchmarks._common import emit, fail, make_parser
except ImportError:                               # run as a script
    from _common import emit, fail, make_parser

from repro.defects import Defect, DefectKind  # noqa: E402
from repro.engine import BatchExecutor, SequenceRequest, SweepCheckpoint  # noqa: E402
from repro.store import ShardedStore  # noqa: E402
from repro.stress import NOMINAL_STRESS  # noqa: E402

#: Entries for the put/get throughput comparison.
ENTRIES = 10_000
ENTRIES_QUICK = 2_000

#: Behavioral requests in the resume-overhead sweep.
SWEEP_POINTS = 400
SWEEP_POINTS_QUICK = 120


class FlatStore:
    """The pre-durability disk tier: one pickle per key, flat directory,
    no header, no verification, non-atomic writes.  Baseline only."""

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, key: str, value) -> None:
        (self.root / f"{key}.pkl").write_bytes(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def get(self, key: str):
        try:
            return pickle.loads((self.root / f"{key}.pkl").read_bytes())
        except OSError:
            return None


def _keys(n: int) -> list[str]:
    return [hashlib.sha256(f"bench-{i}".encode()).hexdigest()
            for i in range(n)]


def _payload(i: int) -> dict:
    """A payload shaped like a short sequence result (ops + floats)."""
    return {"ops": ["w1", "r1", "w0", "r0"],
            "vc": [0.0025 * i, 1.65, 0.01, 1.62],
            "sensed": [None, 1, None, 0]}


def _throughput(factory, keys) -> dict:
    """Time a full put pass then a full get pass through one store."""
    with tempfile.TemporaryDirectory() as tmp:
        store = factory(pathlib.Path(tmp))
        t0 = time.perf_counter()
        for i, key in enumerate(keys):
            store.put(key, _payload(i))
        put_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ok = sum(store.get(key) is not None for key in keys)
        get_s = time.perf_counter() - t0
    return {"put_s": put_s, "get_s": get_s, "verified": ok,
            "put_per_s": len(keys) / put_s, "get_per_s": len(keys) / get_s}


def _sweep_requests(points: int) -> list:
    return [SequenceRequest.build(
        "w1 r1 w0 r0", 0.0, backend="behavioral",
        defect=Defect(DefectKind.O3, resistance=40e3 + 1e3 * i),
        stress=NOMINAL_STRESS) for i in range(points)]


def _resume_overhead(points: int) -> dict:
    """Cold checkpointed sweep vs a resume that replays every result."""
    requests = _sweep_requests(points)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        ckpt = SweepCheckpoint(workdir / "ck")
        engine = BatchExecutor(cache=ckpt.cache(), journal=ckpt.journal)
        t0 = time.perf_counter()
        cold = engine.map(requests)
        cold_s = time.perf_counter() - t0
        ckpt.close()

        resumed = SweepCheckpoint(workdir / "ck", resume=True)
        engine2 = BatchExecutor(cache=resumed.cache(),
                                journal=resumed.journal)
        t0 = time.perf_counter()
        warm = engine2.map(requests)
        resume_s = time.perf_counter() - t0
        identical = all(
            a.vc_after == b.vc_after and a.outputs == b.outputs
            for a, b in zip(cold, warm))
        recovered = engine2.stats.disk_hits
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"cold_s": cold_s, "resume_s": resume_s,
            "ratio": resume_s / cold_s, "identical": identical,
            "recovered": recovered}


def run_benchmark(quick: bool = False) -> dict:
    n = ENTRIES_QUICK if quick else ENTRIES
    keys = _keys(n)

    flat = _throughput(FlatStore, keys)
    segments = _throughput(
        lambda root: ShardedStore(root, fsync=True), keys)
    nofsync = _throughput(
        lambda root: ShardedStore(root, fsync=False), keys)

    points = SWEEP_POINTS_QUICK if quick else SWEEP_POINTS
    resume = _resume_overhead(points)

    return {
        "quick": quick,
        "entries": n,
        "flat": flat,
        "segments": segments,
        "segments_nofsync": nofsync,
        "put_cost_vs_flat": flat["put_per_s"] / segments["put_per_s"],
        "get_cost_vs_flat": flat["get_per_s"] / segments["get_per_s"],
        "sweep_points": points,
        "resume": resume,
        "all_verified": (flat["verified"] == n
                         and segments["verified"] == n
                         and nofsync["verified"] == n),
    }


def _row(name: str, t: dict, n: int) -> str:
    return (f"  {name:28s}: put {t['put_per_s']:8.0f}/s "
            f"({t['put_s'] * 1e3:7.1f} ms)   get {t['get_per_s']:8.0f}/s "
            f"({t['get_s'] * 1e3:7.1f} ms)   {t['verified']}/{n} verified")


def render(res: dict) -> str:
    mode = "quick" if res["quick"] else "full"
    n = res["entries"]
    resume = res["resume"]
    return "\n".join([
        f"result store benchmark ({mode} mode)",
        f"host: {platform.platform()} / python "
        f"{platform.python_version()}",
        "",
        f"put/get throughput, {n} entries, fresh store each",
        _row("flat dir (old tier)", res["flat"], n),
        _row("segments + verify (fsync)", res["segments"], n),
        _row("segments + verify (no fsync)", res["segments_nofsync"], n),
        f"  durability cost             : put {res['put_cost_vs_flat']:.2f}x"
        f"   get {res['get_cost_vs_flat']:.2f}x   vs the flat baseline",
        "",
        f"resume overhead, {res['sweep_points']}-point checkpointed "
        f"behavioral sweep",
        f"  cold sweep                  : {resume['cold_s'] * 1e3:8.1f} ms",
        f"  resumed (journal replay)    : {resume['resume_s'] * 1e3:8.1f} ms"
        f"   ({resume['recovered']} results recovered from the store)",
        f"  resume/cold ratio           : {resume['ratio']:8.2f}",
        f"  resumed results identical   : "
        f"{'yes' if resume['identical'] else 'NO'}",
    ])


def main(argv=None) -> int:
    args = make_parser(__doc__, check_parity=False).parse_args(argv)

    res = run_benchmark(quick=args.quick)
    emit("store", render(res), res)

    if args.check and not (res["all_verified"]
                           and res["resume"]["identical"]):
        return fail("store verification or resume parity broken")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
