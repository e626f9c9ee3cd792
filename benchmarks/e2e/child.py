"""One benchmark child process: a fresh interpreter for one workload.

``run.py`` starts this script in two modes:

* ``setup`` — configure the workload's engine (importing ``repro``),
  build and compile its first model, then report the elapsed time since
  the parent spawned the process (one ``setup_s`` sample);
* ``measure`` — run one *round*: a cold pass on a fresh checkpoint
  followed by ``RESUMES`` resumed passes, each on a fresh copy of that
  checkpoint (copies untimed).  Every pass is timed under a
  :class:`~benchmarks.e2e.speed.SpeedProbe` and reported both raw and
  at the reference speed.  With ``--trace`` the layer wrappers are
  installed first and the round also yields per-layer metrics; with
  ``--verify`` the workload's reference check runs after the round.

Each round gets its own process because built models, compiled plans,
factorization caches and lane warm banks are process-global: a second
pass in the same process would not start cold.

The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Import the harness as ``benchmarks.e2e``: its ``trace`` module must
    # not shadow the standard library's.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e import golden  # noqa: E402
from benchmarks.e2e import trace as layer_trace  # noqa: E402
from benchmarks.e2e.speed import SpeedProbe  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, fresh_engine  # noqa: E402

#: Resumed passes per round.
RESUMES = 5

#: Thread-pool sizes pinned to 1 in every child: the benchmark loads one
#: core, whatever BLAS the machine has.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

_STAT_FIELDS = ("hits", "misses", "disk_hits", "failures", "lane_groups")


def _engine_stats(engine) -> dict:
    stats = engine.stats
    out = {name: getattr(stats, name) for name in _STAT_FIELDS}
    out["cycles"] = stats.cycles_simulated
    out["refits"] = stats.surrogate_refits
    return out


def _platform() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "machine": platform.machine(),
            "nproc": os.cpu_count(), "workers": 1,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed_pass(workload, inputs: dict, checkpoint: Path, probe: SpeedProbe,
               *, resume: bool, tracer=None, run_id: str = ""
               ) -> tuple[float, float, dict, dict]:
    """One pass under ``probe``: ``(seconds at the reference speed, raw
    host seconds, outputs, engine stats)``."""
    def body():
        with fresh_engine(checkpoint, resume=resume,
                          **workload.engine) as engine:
            return workload.run(inputs), _engine_stats(engine)

    if tracer is not None:
        tracer.run_id = run_id
        body = tracer.wrap(body, "run.resume" if resume else "run.cold",
                           coarse=True)
    gc.collect()
    with probe:
        outputs, stats = body()
    return probe.scaled, probe.elapsed, outputs, stats


def measure(workload, inputs: dict, *, work: Path, trace: bool = False,
            spans: str | None = None, verify: bool = False,
            resumes: int = RESUMES) -> dict:
    """One round of ``workload`` on ``inputs``: a cold pass plus its
    resumed passes, with the round's checks."""
    probe = SpeedProbe()
    tracer = restore = None
    if trace:
        tracer = layer_trace.Tracer(clock=probe.clock)
        restore = layer_trace.install(tracer)
    checkpoint = work / "cold"
    try:
        cold_s, cold_raw_s, outputs, stats = timed_pass(
            workload, inputs, checkpoint, probe, resume=False,
            tracer=tracer, run_id="cold")
        store_bytes = _dir_bytes(checkpoint / "store")
        resume_s, resume_raw_s, problems = [], [], []
        round_stats = dict(stats)
        for k in range(resumes):
            copy = work / f"resume{k}"
            shutil.copytree(checkpoint, copy)
            seconds, raw, resumed, rstats = timed_pass(
                workload, inputs, copy, probe, resume=True, tracer=tracer,
                run_id=f"resume{k}")
            shutil.rmtree(copy)
            resume_s.append(seconds)
            resume_raw_s.append(raw)
            _, diffs = golden.diff_outputs(resumed, outputs)
            problems += [f"resume{k} output {d}" for d in diffs]
            if rstats["misses"]:
                problems.append(f"resume{k} simulated {rstats['misses']}")
            for key in _STAT_FIELDS + ("cycles", "refits"):
                round_stats[key] += rstats[key]
        shutil.rmtree(checkpoint)
    finally:
        if restore is not None:
            restore()
    # Taken before the checks below, which may load more.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if verify and workload.verify is not None:
        problems += workload.verify(inputs, outputs)
    result = {
        "inputs": inputs,
        "outputs": outputs,
        "cold_s": cold_s,
        "cold_raw_s": cold_raw_s,
        "resume_s": resume_s,
        "resume_raw_s": resume_raw_s,
        "cold_stats": stats,
        "attempted": round_stats["hits"] + round_stats["misses"],
        "failed": round_stats["failures"],
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "platform": _platform(),
    }
    if tracer is not None:
        round_stats["store_bytes"] = store_bytes
        result["per_layer"] = layer_trace.layer_metrics(
            tracer.agg, tracer.counts, round_stats)
        result["layer_table"] = layer_trace.layer_table(tracer.agg)
        if spans:
            tracer.write_jsonl(Path(spans))
    return result


def setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    with fresh_engine(Path(args.work) / "setup", **workload.engine):
        workload.first_model(inputs)
        done = time.monotonic()
    return {"setup_s": done - args.spawned_at}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.mode == "setup":
            result = setup(args)
        else:
            workload = WORKLOADS[args.workload]
            result = measure(workload, workload.make_inputs(args.seed),
                             work=Path(args.work), trace=args.trace,
                             spans=args.spans, verify=args.verify)
    except Exception:
        result = {"error": traceback.format_exc()}
    Path(args.result).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
