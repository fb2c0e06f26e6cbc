#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric.

    python3 tools/bench_diff.py A B        # or: make bench-diff A=... B=...

prints, per workload and pass (untraced, traced), every metric's value in
A and in B and the ratio B/A. An end-to-end metric that B makes worse than
A by more than its bound in BENCHMARK.json is flagged, as is a run that is
not `correct` or fails more operations; the exit status is then 1.

A and B are either committed `BENCH_*.json` files (an object whose
`workloads` map each name to its `untraced` and `traced` results) or the
standard output of `python3 perfbench/run.py --all`, whose JSON lines come
in BENCHMARK.json's workload order, untraced before traced.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = ("untraced", "traced")


def load(path, spec):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "workloads" in doc:
        return doc["workloads"]
    lines = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    names = [w["name"] for w in spec["workloads"]]
    if len(lines) != 2 * len(names):
        sys.exit(f"{path}: expected {2 * len(names)} result lines, found {len(lines)}")
    return {
        name: {PASSES[i % 2]: lines[2 * k + i % 2] for i in range(2)}
        for k, name in enumerate(names)
    }


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (as perfbench/run.py)."""
    if first == 0:
        return 0.0
    return (second - first) / abs(first) if better == "lower" else (first - second) / abs(first)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(argv[1], spec), load(argv[2], spec)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = []
    for name in [w["name"] for w in spec["workloads"]]:
        for pas in PASSES:
            ra, rb = a.get(name, {}).get(pas), b.get(name, {}).get(pas)
            if ra is None or rb is None:
                print(f"== {name} {pas}: missing in {'A' if ra is None else 'B'}")
                continue
            print(f"== {name} {pas}: correct {ra['correct']} -> {rb['correct']}, "
                  f"failed {ra['failed']}/{ra['attempted']} -> {rb['failed']}/{rb['attempted']}")
            if not rb["correct"]:
                flagged.append(f"{name} {pas}: B is not correct")
            if rb["failed"] * ra["attempted"] > ra["failed"] * rb["attempted"]:
                flagged.append(f"{name} {pas}: B fails a larger share of operations")
            for metric, mb in rb["metrics"].items():
                ma = ra["metrics"].get(metric)
                if ma is None:
                    print(f"  {metric:<28} {'-':>14} {mb['value']:>14.6g}")
                    continue
                va, vb = ma["value"], mb["value"]
                ratio = f"{vb / va:8.3f}x" if va else "        -"
                note = ""
                bound = bounds.get(metric)
                if bound is not None:
                    worse = worse_by(va, vb, bound["better"])
                    if worse > bound["bound"]:
                        note = f"  <-- worse by {worse:.1%} (bound {bound['bound']:.0%})"
                        flagged.append(f"{name} {pas} {metric}: worse by {worse:.1%}")
                print(f"  {metric:<28} {va:>14.6g} {vb:>14.6g} {ratio} {mb['unit']}{note}")
    print("bench-diff:", "FLAGGED\n  " + "\n  ".join(flagged) if flagged else "no end-to-end metric past its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
