#!/usr/bin/env python3
"""The benchmark's own test.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S]

For every workload, makes two traced runs with one seed and one untraced
run, and checks:
- every op's output was correct, and no op failed;
- every count-type per-layer metric (simulated instructions, checks, tx
  commits and aborts, deopts, cache hits and misses, pass counts, ...)
  repeats exactly between the two traced runs;
- the trace file holds spans with parent links, and on cell-base the
  child spans of each op cover at least nine tenths of its duration;
- the reported metric names are exactly those in BENCHMARK.json.
Exits 0 when all hold.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["warm-nomap", "cell-base", "serve-shootout"]
SEED = 7


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for w in WORKLOADS:
        first = run(w, args.seconds, 1)
        second = run(w, args.seconds, 1)
        plain = run(w, 1, 0)
        for r in (first, second, plain):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: correct={r['correct']} failed={r['failed']}")
        for r in (first, second):
            if set(r["metrics"]) != layer_names:
                problems.append(f"{w}: traced metrics differ from BENCHMARK.json per_layer")
        if set(plain["metrics"]) != e2e_names:
            problems.append(f"{w}: untraced metrics differ from BENCHMARK.json end_to_end")
        for name in count_names:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{w}: count {name} differs: {a} vs {b}")
        path = os.path.join(".bench_build", "perfbench", f"trace-{w}-{SEED}.json")
        with open(path) as f:
            spans = json.load(f)["spans"]
        ids = {s["id"] for s in spans}
        children = [s for s in spans if s["parent"] >= 0]
        if not children or any(s["parent"] not in ids for s in children):
            problems.append(f"{w}: spans lack valid parent links")
        if w == "cell-base":
            cover = second["metrics"]["trace.child_cover_min"]["value"]
            if cover < 0.9:
                problems.append(f"{w}: child spans cover only {cover:.3f} of an op")
        print(f"{w}: checked", file=sys.stderr)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
