"""Compare two directories of saved benchmark results.

For each workload and metric, prints each side's median and quartiles
over its runs, then a verdict:

- `real`: a deterministic per-round count differs for some seed;
- `unresolved`: either side's spread (quartile distance over median)
  is wider than the metric's bound, unless every run of one side beats
  every run of the other;
- `unchanged`: the medians differ by no more than the bound;
- `better` / `worse` otherwise, by the metric's direction.

Bounds and directions come from BENCHMARK.json; per-layer metrics have
no bound there and are compared against BOUND_PER_LAYER.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BOUND_PER_LAYER = 0.1


def load(directory: Path):
    """{(workload, trace): [result, ...]} for every saved result in directory."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"])].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, bound, lower_is_better):
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    better_all = (max(after) < min(before)) if lower_is_better else (min(after) > max(before))
    worse_all = (min(after) > max(before)) if lower_is_better else (max(after) < min(before))
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (a3 - a1) / abs(am) if am else 0.0)
    if spread > bound and not (better_all or worse_all):
        return "unresolved"
    change = (am - bm) / abs(bm) if bm else (0.0 if am == bm else float("inf"))
    if abs(change) <= bound:
        return "unchanged"
    improved = change < 0 if lower_is_better else change > 0
    return "better" if improved else "worse"


def counts_by_seed(results, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in results}


def main(before_dir: Path, after_dir: Path, benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    before, after = load(before_dir), load(after_dir)
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(before[key])} runs before, "
              f"{len(after[key])} after")
        names = sorted(set(before[key][0]["metrics"]) & set(after[key][0]["metrics"]))
        for name in names:
            b = [r["metrics"][name]["value"] for r in before[key]]
            a = [r["metrics"][name]["value"] for r in after[key]]
            unit = before[key][0]["metrics"][name]["unit"]
            m = e2e.get(name) or layer.get(name) or {"better": "lower"}
            if unit.startswith("count"):
                bs, as_ = counts_by_seed(before[key], name), counts_by_seed(after[key], name)
                shared = set(bs) & set(as_)
                if not shared:
                    result = "no shared seed"
                else:
                    result = "real" if any(bs[s] != as_[s] for s in shared) else "same"
            else:
                bound = m.get("bound", BOUND_PER_LAYER)
                result = verdict(b, a, bound, m["better"] == "lower")
            qb, qa = quartiles(b), quartiles(a)
            print(f"  {name:48s} {unit:11s} before {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  after {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  {result}")
    missing = set(before) ^ set(after)
    for workload, trace in sorted(missing):
        print(f"== {workload} (trace {trace}): results on one side only")
    return 0
