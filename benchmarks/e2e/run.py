"""End-to-end benchmark of the repro flow: four paper workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload optimize-e --seed 1 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out R.json      # all four

Each workload runs in fresh child processes (``child.py``) with
``workers=1`` and every BLAS/OpenMP pool pinned to one thread, one
process at a time:

* five ``setup`` children, each timed from spawn to its first model
  built and compiled (``setup_s``);
* ``measure`` children, one round each (a cold pass and its resumed
  passes), for ``--seconds`` and at least two rounds (``wall_s``,
  ``resume_s``, ``peak_rss_mb``).

Times are reported at the reference speed of ``speed.py``; the raw host
times are kept in the ``--out`` record.  ``--trace 1`` instead measures
twice, untraced and then with the layer wrappers of ``trace.py``, and
reports the per-layer metrics plus the tracing overhead;
``--spans T.jsonl`` keeps the spans of the first traced round.

Outputs are checked: every resumed pass and every repeated cold pass
must return exactly the first cold pass's outputs, and seed-0 outputs
must match ``golden/seed0.json``.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when the outputs are correct.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from benchmarks.e2e import golden  # noqa: E402
from benchmarks.e2e.child import THREAD_VARS  # noqa: E402
from benchmarks.e2e.speed import SpeedProbe  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: Fresh set-up children per run (``setup_s`` is their median).
SETUP_CHILDREN = 5

#: Measure children (rounds) per run even when one alone fills
#: ``--seconds``, so every run reports at least two cold passes.
MIN_ROUNDS = 2

#: Time after which a child counts as hung.
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def summarize(samples: list[float], unit: str) -> dict:
    """Median and quartiles of one metric's samples in this run."""
    median = statistics.median(samples)
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (median, median, median))
    return {"unit": unit, "n": len(samples), "median": median, "q1": q1,
            "q3": q3, "samples": samples}


def _child(mode: str, workload: str, seed: int, work: Path,
           *extra: str) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--result", str(result), *extra]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.DEVNULL)
    if not result.exists():
        raise BenchError(f"{mode} child of {workload} exited "
                         f"{proc.returncode} without a result")
    data = json.loads(result.read_text())
    result.unlink()
    if "error" in data:
        raise BenchError(f"{mode} child of {workload} failed:\n"
                         f"{data['error']}")
    return data


def _setup_sample(name: str, seed: int, work: Path) -> tuple[float, float]:
    """One fresh set-up child: ``(seconds at the reference speed, raw)``,
    scaled by the speed probed just before and after it."""
    with SpeedProbe(period=None) as probe:
        raw = _child("setup", name, seed, work)["setup_s"]
    return raw * probe.factor, raw


def _measure_rounds(name: str, seed: int, seconds: float, work: Path,
                    *extra: str, first: tuple[str, ...] = ()) -> list[dict]:
    """Measure children, one round each: at least ``MIN_ROUNDS``, more
    while the next is expected to end within ``seconds``.  ``first``
    holds the arguments of the first child only."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(_child("measure", name, seed,
                             work / f"round{len(rounds)}", *extra,
                             *(() if rounds else first)))
        n = len(rounds)
        if n >= MIN_ROUNDS and \
                (time.monotonic() - start) * (n + 1) / n > seconds:
            return rounds


def combine(rounds: list[dict]) -> dict:
    """One result from a run's rounds, with the cross-round checks:
    every round must return the first one's outputs and engine counts
    (the simulator is deterministic)."""
    first = rounds[0]
    problems = [p for r in rounds for p in r["problems"]]
    for i, r in enumerate(rounds[1:], 1):
        _, diffs = golden.diff_outputs(r["outputs"], first["outputs"])
        problems += [f"round{i} output {d}" for d in diffs]
        if r["cold_stats"] != first["cold_stats"]:
            problems.append(f"round{i} engine counts differ")
    combined = {key: first[key] for key in ("inputs", "outputs",
                                             "platform")}
    for key in ("cold_s", "cold_raw_s", "peak_rss_mb", "per_layer"):
        if key in first:
            combined[key] = [r[key] for r in rounds]
    for key in ("resume_s", "resume_raw_s"):
        combined[key] = [s for r in rounds for s in r[key]]
    if "layer_table" in first:
        combined["layer_table"] = first["layer_table"]
    combined["attempted"] = sum(r["attempted"] for r in rounds)
    combined["failed"] = sum(r["failed"] for r in rounds)
    combined["problems"] = problems
    return combined


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans: str | None, spec: dict) -> dict:
    """Run one workload in fresh children; returns its record."""
    work = ROOT / ".bench_e2e" / f"{os.getpid()}-{name}"
    try:
        setup = [] if trace else [_setup_sample(name, seed, work)
                                  for _ in range(SETUP_CHILDREN)]
        measured = combine(_measure_rounds(name, seed, seconds,
                                           work / "untraced",
                                           first=("--verify",)))
        traced = None
        if trace:
            first = ("--spans", str(Path(spans).resolve())) if spans else ()
            traced = combine(_measure_rounds(name, seed, seconds,
                                             work / "traced", "--trace",
                                             first=first))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return make_record(name, spec, setup, measured, traced)


def make_record(name: str, spec: dict, setup: list[tuple[float, float]],
                measured: dict, traced: dict | None = None) -> dict:
    """Checks and metrics of one workload from its children's results:
    the end-to-end metrics, or the per-layer ones when ``traced``.
    ``setup`` holds ``(scaled, raw)`` set-up times."""
    trace = traced is not None
    source = traced or measured
    checks = golden.check(name, source["inputs"], source["outputs"])
    problems = list(source["problems"])
    if checks["golden"] == "MISMATCH":
        problems.append(f"golden mismatch {checks['golden_diffs']} "
                        f"(br_dev_rel {checks['br_dev_rel']:.3g})")
    record = {"inputs": source["inputs"], "platform": source["platform"],
              "attempted": source["attempted"], "failed": source["failed"],
              "checks": checks, "problems": problems}
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if trace else "end_to_end"]}
    if trace:
        rounds = source["per_layer"]
        samples = {m: [r[m] for r in rounds] for m in rounds[0]}
        for metric, values in samples.items():
            if units.get(metric) == "count" and len(set(values)) > 1:
                problems.append(f"count {metric} differs across rounds: "
                                f"{values}")
        samples["trace_overhead_frac"] = [
            statistics.median(traced["cold_s"])
            / statistics.median(measured["cold_s"]) - 1.0]
        record["layer_table"] = traced["layer_table"]
    else:
        samples = {"wall_s": measured["cold_s"],
                   "resume_s": measured["resume_s"],
                   "setup_s": [scaled for scaled, _ in setup],
                   "peak_rss_mb": measured["peak_rss_mb"]}
        record["raw_host_s"] = {"wall_s": measured["cold_raw_s"],
                                "resume_s": measured["resume_raw_s"],
                                "setup_s": [raw for _, raw in setup]}
    missing = sorted(set(units) - set(samples))
    if missing:
        raise BenchError(f"metrics {missing} were not measured")
    record["metrics"] = {m: summarize(samples[m], units[m]) for m in units}
    record["correct"] = not problems and source["failed"] == 0
    return record


def render(name: str, seed: int, record: dict) -> list[str]:
    lines = [f"== {name}  seed {seed}  inputs {json.dumps(record['inputs'])}",
             f"   platform {json.dumps(record['platform'])}",
             f"   {'metric':<36}{'unit':<7}{'n':>4}{'median':>14}"
             f"{'q1':>14}{'q3':>14}"]
    for metric, s in record["metrics"].items():
        lines.append(f"   {metric:<36}{s['unit']:<7}{s['n']:>4}"
                     f"{s['median']:>14.6g}{s['q1']:>14.6g}"
                     f"{s['q3']:>14.6g}")
    lines += record.get("layer_table", [])
    checks = record["checks"]
    lines.append(f"   golden: {checks['golden']}"
                 + (f" (br_dev_rel {checks['br_dev_rel']:.3g})"
                    if "br_dev_rel" in checks else ""))
    lines.append(f"   attempted {record['attempted']} requests, "
                 f"{record['failed']} failed; "
                 + ("outputs correct" if record["correct"] else
                    "OUTPUTS INCORRECT: " + "; ".join(record["problems"])))
    return lines


def _terminate(signum, frame) -> None:
    # As an exception, SIGTERM makes subprocess.run kill and reap the
    # running child, and run_workload remove its work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro flow.")
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run instead of the end-to-end metrics")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--spans", help="with --trace 1: write spans as "
                                        "JSONL (one workload only)")
    parser.add_argument("--report", help="also write the text report")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.spans and len(names) > 1:
        parser.error("--spans needs a single --workload")

    records, report = {}, []
    for name in names:
        try:
            records[name] = run_workload(name, args.seed, seconds,
                                         bool(args.trace), args.spans,
                                         spec)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        lines = render(name, args.seed, records[name])
        report += lines
        print("\n".join(lines), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds,
             "trace": bool(args.trace), "workloads": records},
            indent=1) + "\n")
    if args.report:
        Path(args.report).write_text("\n".join(report) + "\n")
    prefix = len(names) > 1
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(f"{n}/{m}" if prefix else m):
                    {"value": s["median"], "unit": s["unit"]}
                    for n, r in records.items()
                    for m, s in r["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
