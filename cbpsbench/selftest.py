#!/usr/bin/env python3
"""Smoke self-test of the cbps benchmark.

Runs every workload named in BENCHMARK.json at a tiny scale, untraced and
traced, through run.py, and checks for each run that:
  - it exits 0 and its result says correct (the delivery oracle passed
    and every replay repeated the simulated counts exactly);
  - the result line carries exactly the metrics BENCHMARK.json lists for
    that mode (end_to_end untraced, per_layer traced), each with the
    listed unit and a finite value.

Run from the root of a checkout (takes about a minute after the build):

    python3 cbpsbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.05"
SECONDS = "0.2"


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "cbpsbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", trace, "--scale", SCALE]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return problems
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True:
        problems.append("not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a positive integer")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(wanted)):
        problems.append(f"unlisted metric {name}")
    for name, unit in wanted.items():
        if name not in got:
            continue
        if got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')} != {unit}")
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            problems = check(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
