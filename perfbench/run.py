#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

  python3 perfbench/run.py --workload shared_scan --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The first run configures and builds the
load generator and the snapdiff libraries it links (Release) under
.bench_build/; later runs rebuild incrementally. The load generator then
runs one workload and its last stdout line is the JSON result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/README.md defines the workloads and every metric. Anything that
fails (bad arguments, a build error, a run error, a failed correctness
check) exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("shared_scan", "churn_encoded", "cold_pool")
RUN_TIMEOUT_S = 170


def positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 1, got {text!r}")
    return int(text)


def seed_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 0, got {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, env):
    """Configures (once) and builds the load generator; output to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no snapdiff sources under {root}/src")
    work = os.path.join(root, ".bench_build")
    build_dir = os.path.join(work, "perfbench")
    data_dir = os.path.join(work, "run")
    tmp_dir = os.path.join(work, "tmp")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    build(root, build_dir, env)

    cmd = [os.path.join(build_dir, "perfbench_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or result["correct"] is not True:
        fail(f"malformed result line: {lines[-1]}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
