#!/usr/bin/env python3
"""A/A steadiness check: two sets of runs of the same build must agree.

Usage, from the repository root:

    python3 perfbench/aa.py [--runs 5] [--workload NAME ...]

For each workload it makes 2*runs end-to-end runs, alternating set A and
set B, each with its own seed (A: 1, 3, 5, ...; B: 2, 4, 6, ...). It
prints, per end-to-end metric of BENCHMARK.json, both sets' medians,
their difference as a share of set A's median, and the spread (distance
between first and third quartile over all runs, as a share of their
median), and fails when a difference exceeds the metric's bound or a
spread (setup_s excepted) exceeds it. The quartiles are those of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        for line in lines:
            if line.startswith("# FAIL"):
                print("   ", line)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--workload", action="append", help="workload (default: all)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 2 * i + 1), ("B", 2 * i + 2)):
                sets[name].append(run_once(bench, workload, seed))
        print(f"{workload}: {args.runs} runs per set")
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            diff = (mb - ma) / ma
            sp = spread(a + b)
            bad = abs(diff) > m["bound"] or (m["name"] != "setup_s" and sp > m["bound"])
            ok = ok and not bad
            print(f"  {m['name']:<18} A {ma:12.6g}  B {mb:12.6g}  diff {diff:+7.1%}  spread {sp:6.1%}"
                  f"  bound {m['bound']:.0%} {m['unit']:<6} {'FAIL' if bad else 'ok'}")
            print("    runs A: " + " ".join(f"{v:.4g}" for v in a) + " | B: " + " ".join(f"{v:.4g}" for v in b))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
