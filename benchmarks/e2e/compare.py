"""Compare two sets of end-to-end benchmark runs against BENCHMARK.json.

Usage::

    python3 benchmarks/e2e/compare.py A/*.json -- B/*.json

Each file is one ``run.py --out`` record (one invocation, any subset of
workloads); A is the baseline, B the candidate.  Every file contributes
one value per (metric, workload): its median.  For each end-to-end
(metric, workload) pair the tool prints both sides' median and
quartiles, the share of pairs B won (pairs are the files in the order
given, so alternate the runs), and a verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound and B did not beat A in every pair;
* ``improved`` — B won at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* ``within bound`` — otherwise.

Per-layer counts (unit ``count``, from ``--trace 1`` records) must be
exactly equal in every file of both sides.  The exit code is 1 when any
pair regressed or is unresolved, or a count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs a side must win before a gain may be claimed.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], *, bound: float,
            lower_is_better: bool = True) -> dict:
    """Judge candidate runs ``b`` against baseline runs ``a``."""
    sign = 1.0 if lower_is_better else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    worse = sign * (med_b - med_a) / med_a
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) < 0)
    lost = sum(1 for x, y in pairs if sign * (y - x) > 0)
    every_b_better = (max(b) < min(a)) if lower_is_better \
        else (min(b) > max(a))
    gain = sign * (med_a - med_b)
    if worse > bound:
        result = "regressed"
    elif spread > bound and not every_b_better:
        result = "unresolved"
    elif won >= WIN_SHARE * len(pairs) and gain > qa[2] - qa[0]:
        result = "improved"
    else:
        result = "within bound"
    return {"a": qa, "b": qb, "worse": worse, "spread": spread,
            "won": won, "lost": lost, "pairs": len(pairs),
            "verdict": result}


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict
            ) -> tuple[list[str], bool]:
    """Report lines and whether B holds against A."""
    ok = True
    lines = [f"{'workload':<15}{'metric':<13}{'bound':>6}  "
             f"{'A median [q1, q3]':<30}{'B median [q1, q3]':<30}"
             f"{'B-A':>8}{'won':>7}  verdict"]
    workloads = sorted({w for run in a_runs + b_runs for w in run})
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            a = [r[workload]["metrics"][name]["median"] for r in a_runs
                 if name in r.get(workload, {}).get("metrics", {})]
            b = [r[workload]["metrics"][name]["median"] for r in b_runs
                 if name in r.get(workload, {}).get("metrics", {})]
            if not a or not b:
                continue
            v = verdict(a, b, bound=metric["bound"],
                        lower_is_better=metric["better"] == "lower")
            ok &= v["verdict"] in ("within bound", "improved")
            lines.append(
                f"{workload:<15}{name:<13}{metric['bound']:>6.0%}  "
                f"{_fmt(v['a']):<30}{_fmt(v['b']):<30}"
                f"{v['worse']:>+8.1%}{v['won']:>4}/{v['pairs']:<2}  "
                f"{v['verdict']}")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workloads:
        for name in counts:
            seen = {r[workload]["metrics"][name]["median"]
                    for r in a_runs + b_runs
                    if name in r.get(workload, {}).get("metrics", {})}
            if len(seen) > 1:
                ok = False
                lines.append(f"{workload:<15}count {name} differs: "
                             f"{sorted(seen)}")
    return lines, ok


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else 0
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(load(a_paths), load(b_paths), spec)
    print("\n".join(lines))
    print("B holds against A" if ok else "B does NOT hold against A")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
