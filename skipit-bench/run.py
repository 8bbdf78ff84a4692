#!/usr/bin/env python3
"""Build skipit-bench from this checkout's sources and run one workload.

    python3 skipit-bench/run.py --workload W --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. --trace 1 writes the per-layer files to <build>/trace/.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then bring the binary up to date; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("skipit-bench: no simulator sources under %s" % (ROOT / "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "skipit-bench"],
                   stdout=sys.stderr, check=True)
    return out / "skipit-bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("skipit-bench: build failed (%s)" % e)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(build_dir() / "trace")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
