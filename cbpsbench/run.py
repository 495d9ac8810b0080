#!/usr/bin/env python3
"""Build and run the cbps benchmark for one workload and seed.

Run from the root of a checkout:

    python3 cbpsbench/run.py --workload publish_m3_unicast --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the library and the benchmark driver
(RelWithDebInfo, the repository's default build type) under
.bench_build/cbpsbench; later runs only rebuild what changed. Each run
is one driver process, so peak_rss_mb is that run's own high-water mark.

Everything the driver prints is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the driver also writes the spans of its last traced replay to
.bench_build/spans/<workload>-<seed>.jsonl.

Exit status: 0 when the run is correct, non-zero otherwise (no sources
to build, build failure, oracle failure, nondeterminism, timeout).
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cbpsbench")
BINARY = os.path.join(BUILD_DIR, "cbpsbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"cbpsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run cmd with its output sent to stderr; kill its process group on
    timeout and wait for it, so no compiler outlives this script."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "include", "cbps", "pubsub",
                                       "system.hpp")):
        fail(f"no cbps sources under {ROOT} (expected src/ and include/)")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                     BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="operation-count multiplier (self-test only)")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", repr(args.scale), "--commit", commit()]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.jsonl")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark run failed (exit {proc.returncode})", 3)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 3)


if __name__ == "__main__":
    main()
