#!/usr/bin/env python3
"""Repeatability and A/B comparison for the end-to-end daemon benchmark.

  compare.py --base ROOT_A --change ROOT_B [--sets K]
  compare.py --same ROOT [--sets K]

ROOT is a checkout of the repository (each builds its own copy of the
benchmark under bench/e2e/build/). Workload by workload, set i runs
both sides with seed i+1, alternating which side runs first, for the
base's run_seconds. Per (workload, metric) it prints each side's median
and quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median, and a verdict. The
metrics are the end_to_end ones of the base's BENCHMARK.json, with their
bounds, and the per_layer ones an untraced run measures (latency,
throughput, CPU, memory), which have no bound and so only get the gain
verdict or "-":

  A/B mode   gain        the change wins at least 9/10 of the pairs (ties
                         count for neither) and the medians differ by
                         more than the base's interquartile distance
             regression  the change's median is worse than the base's by
                         more than the bound
             unresolved  a side's spread exceeds the bound, unless every
                         change run beats every base run
             same        none of the above
  --same     agree       both spreads and the gap between the two medians
                         are within the bound
             noisy       agrees, but a spread exceeds a third of the bound
             unresolved  a spread exceeds the bound
             disagree    the medians differ by more than the bound

Exits 1 on any regression, unresolved or disagree verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    """The run's result file: every metric it printed, untraced."""
    command = ["bash", os.path.join(root, "bench", "e2e", "run.sh"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"compare.py: run failed: {' '.join(command)}")
    path = os.path.join(root, "bench", "e2e", "results",
                        f"{workload}-seed{seed}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict_ab(metric, base, change):
    bound, lower = metric.get("bound"), metric["better"] == "lower"
    b_med, b_q1, b_q3, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)

    def better(x, y):
        return x < y if lower else x > y

    wins = sum(better(c, b) for b, c in zip(base, change))
    worse_by = (c_med - b_med) if lower else (b_med - c_med)
    if wins >= 0.9 * len(base) and better(c_med, b_med) and \
            abs(c_med - b_med) > b_q3 - b_q1:
        return "gain"
    if bound is None:
        return "-"
    if max(b_spread, c_spread) > bound and \
            not all(better(c, b) for b in base for c in change):
        return "unresolved"
    if worse_by > bound * abs(b_med):
        return "regression"
    return "same"


def verdict_same(metric, first, second):
    bound = metric.get("bound")
    if bound is None:
        return "-"
    a_med, _, _, a_spread = summary(first)
    b_med, _, _, b_spread = summary(second)
    spread = max(a_spread, b_spread)
    if abs(b_med - a_med) > bound * abs(a_med):
        return "disagree"
    if spread > bound:
        return "unresolved"
    if spread > bound / 3:
        return "noisy"
    return "agree"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--same", help="checkout run as both sides")
    parser.add_argument("--sets", type=int, default=10)
    args = parser.parse_args()
    if bool(args.same) == bool(args.base and args.change):
        parser.error("give either --same ROOT or --base A --change B")

    roots = ({"first": args.same, "second": args.same} if args.same else
             {"base": args.base, "change": args.change})
    sides = list(roots)
    with open(os.path.join(roots[sides[0]], "BENCHMARK.json"),
              encoding="utf-8") as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = list(benchmark["end_to_end"])

    runs = {side: {w: [] for w in workloads} for side in sides}
    for workload in workloads:
        for i in range(args.sets):
            for side in sides if i % 2 == 0 else reversed(sides):
                result = run_once(roots[side], workload, i + 1,
                                  benchmark["run_seconds"])
                runs[side][workload].append(result)
                print(f"set {i + 1}/{args.sets} {workload} {side}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)

    measured = runs[sides[0]][workloads[0]][0]["metrics"]
    metrics += [m for m in benchmark["per_layer"] if m["name"] in measured]
    failing = {"regression", "unresolved", "disagree"}
    status = 0
    print(f"{'workload':17s} {'metric':22s} "
          f"{sides[0] + ' median [q1, q3] spread':>38s} "
          f"{sides[1] + ' median [q1, q3] spread':>38s}  bound  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs[sides[0]][workload]]
            b = [r["metrics"][name]["value"] for r in runs[sides[1]][workload]]
            verdict = (verdict_same(metric, a, b) if args.same
                       else verdict_ab(metric, a, b))
            status |= verdict in failing
            cells = []
            for values in (a, b):
                median, q1, q3, spread = summary(values)
                cells.append(f"{median:11.5g} [{q1:.5g}, {q3:.5g}] "
                             f"{spread:6.3f}")
            bound = metric.get("bound")
            bound = "   -" if bound is None else f"{bound:.2f}"
            print(f"{workload:17s} {name:22s} {cells[0]:>38s} "
                  f"{cells[1]:>38s}  {bound}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
