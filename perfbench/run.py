#!/usr/bin/env python3
"""raccd-sim host benchmark: build from source, self-test, run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dir_pressure --seed 42 --seconds 10 --trace 0

Builds the simulator libraries and the driver (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR or .bench_build, runs the helpers' self-test, then
runs the driver for one workload. Build and self-test output goes to stderr;
stdout carries the driver's report, whose last line is the JSON result.
The exit code is 0 only when the build, the self-test and every correctness
check pass. Workloads and their seeds are described in perfbench/workloads.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
WORKLOADS = ["dir_pressure", "raccd_numa_ddr", "service_open_loop", "paper_grid_sweep"]
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(SOURCE_ROOT, "src", "raccd")
    ):
        fail(f"no raccd-sim source tree around {HERE}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    steps.append([os.path.join(build_dir, "perfbench_selftest")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError):
        ok = False
    problem = None if ok else f"driver exited {proc.returncode} without a result line"
    if not problem and result["correct"]:
        problem = metric_mismatch(result, args.trace)
    if problem:
        sys.stderr.write(proc.stdout)
        fail(problem)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def metric_mismatch(result, trace):
    """The driver must print exactly the metrics BENCHMARK.json declares."""
    spec_path = os.path.join(SOURCE_ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed == declared:
        return None
    return (f"printed metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(printed))}, "
            f"extra {sorted(set(printed) - set(declared))}, unit mismatch "
            f"{sorted(k for k in declared if k in printed and declared[k] != printed[k])}")


if __name__ == "__main__":
    sys.exit(main())
