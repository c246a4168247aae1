#!/usr/bin/env python3
"""Entry point of the repository benchmark (the "command" of BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. On first use it builds the driver
(perfbench/src, linked against the repository's own libraries) into
.bench_build/perfbench; later runs only check that the build is current.
It then runs one workload for S seconds, checks the driver's result line
against BENCHMARK.json and prints it as the last line of standard output.
Exits non-zero, without a result line, when the checkout cannot be built or
the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd):
    """Run a build step quietly; show its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a repository checkout: no CMakeLists.txt "
             "and src/ here, so there is no program to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Serialise builds of one checkout.
    with open(os.path.join(".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_step(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        run_step(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    metrics = result["metrics"]
    expected = declared_metrics(trace)
    if set(metrics) != set(expected):
        fail("result metrics %s differ from BENCHMARK.json %s"
             % (sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (name, metrics[name].get("unit"), unit))
    if result["attempted"] < 1:
        fail("no operation attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    cmd = [DRIVER, "--workload", args.workload,
           "--seed", str(args.seed % 2**64), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("driver printed nothing (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver exit code %d, last line is not a result: %s"
             % (proc.returncode, lines[-1]))
    check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
