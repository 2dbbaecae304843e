#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_steady --seed 42 --seconds 25 --trace 0

Paths resolve from this file's location, so it runs from any directory. It
configures and builds perfbench/CMakeLists.txt into .bench_build/ (a no-op
when up to date), runs the optum_perfbench binary with the given arguments
plus any extra --workload-seed/--arrival-seed/--residency-seed/--burst-seed/
--sim-seed overrides, keeps the full result with its run manifest in
.bench_results/, and prints the binary's output, whose last line is the
result object. The exit code is the binary's: 0 when every correctness
check held.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_steady", "serve_storm", "sim_day")
SEED_STREAMS = ("workload", "arrival", "residency", "burst", "sim")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 700

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "optum_perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; stdout stays the result's."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"{cmd[0]} failed: {err}")
    if done.returncode != 0:
        fail(f"command failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Optum sources next to {BENCH_DIR}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "optum_perfbench",
                "-j", jobs], timeout=BUILD_TIMEOUT_S)


def source_id():
    """`git describe` when the checkout is a git tree, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for stream in SEED_STREAMS:
        parser.add_argument(f"--{stream}-seed", type=int, default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def main():
    args = parse_args()
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(), "--out", out_path]
    for stream in SEED_STREAMS:
        value = getattr(args, f"{stream}_seed")
        if value is not None:
            cmd += [f"--{stream}-seed", str(value)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"benchmark printed no result (exit {done.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
