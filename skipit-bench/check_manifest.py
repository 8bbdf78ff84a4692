#!/usr/bin/env python3
"""Fail when `skipit-bench --list` and BENCHMARK.json disagree.

    check_manifest.py path/to/skipit-bench path/to/BENCHMARK.json

Compares the workload names and, for end-to-end and per-layer metrics, the
names and units.
"""

import json
import subprocess
import sys


def main():
    binary, manifest_path = sys.argv[1:3]
    listed = json.loads(subprocess.run([binary, "--list"], check=True,
                                       capture_output=True, text=True).stdout)
    with open(manifest_path) as f:
        manifest = json.load(f)

    problems = []
    names = [w["name"] for w in manifest["workloads"]]
    if names != listed["workloads"]:
        problems.append("workloads: BENCHMARK.json %s, --list %s"
                        % (names, listed["workloads"]))
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in manifest[key]]
        actual = [(m["name"], m["unit"]) for m in listed[key]]
        for name, unit in sorted(set(declared) ^ set(actual)):
            where = "BENCHMARK.json" if (name, unit) in declared else "--list"
            problems.append("%s: %s (%s) only in %s" % (key, name, unit, where))
    for p in problems:
        print("bench_manifest: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
