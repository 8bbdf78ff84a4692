#!/usr/bin/env python3
"""Compare the benchmark between two checkouts, parent and change.

    python3 skipit-bench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--seconds S] [--workloads a,b]

Each pair runs every workload once on each side, one process per run, with
the same seed on both sides (pair i uses seed i+1) and alternating which
side goes first. For each end-to-end metric and workload it prints both
sides' median and quartiles, the change's win rate, and a verdict against
the metric's bound in CHANGE_DIR/BENCHMARK.json:

  better      the change wins >= 90 % of pairs (ties count for neither) and
              the medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  either side's spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  same        none of the above
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(Path(checkout) / "skipit-bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each side builds inside its own checkout.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("compare: %s failed in %s:\n%s" % (workload, checkout,
                                                     p.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("compare: %s seed %d in %s: output check failed"
              % (workload, seed, checkout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    win_rate = wins / len(parent)
    spread = max((p_q3 - p_q1) / p_med if p_med else 0,
                 (c_q3 - c_q1) / c_med if c_med else 0)
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    improvement = sign * (p_med - c_med)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0
    if win_rate >= 0.9 and improvement > p_q3 - p_q1 and (
            spread <= bound or all_better):
        return win_rate, "better"
    if spread > bound and not all_better:
        return win_rate, "unresolved"
    if worse_by > bound:
        return win_rate, "worse"
    return win_rate, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    manifest = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in manifest["workloads"]])
    sides = {"parent": str(Path(args.parent).resolve()),
             "change": str(Path(args.change).resolve())}
    # Build both sides before anything is timed.
    for checkout in sides.values():
        run(checkout, workloads[0], 1, 0)

    values = {side: {w: [] for w in workloads} for side in sides}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                values[side][w].append(run(sides[side], w, i + 1, seconds))
        print("compare: pair %d of %d done" % (i + 1, args.pairs),
              file=sys.stderr)

    print("%-24s %-12s %-34s %-34s %5s  %s" % (
        "metric", "workload", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        for w in workloads:
            p = [r[name] for r in values["parent"][w]]
            c = [r[name] for r in values["change"][w]]
            win_rate, v = verdict(p, c, metric["bound"],
                                  metric["better"] == "lower")
            fmt = lambda q: "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
            print("%-24s %-12s %-34s %-34s %4.0f%%  %s" % (
                name, w, fmt(quartiles(p)), fmt(quartiles(c)),
                100 * win_rate, v))


if __name__ == "__main__":
    main()
