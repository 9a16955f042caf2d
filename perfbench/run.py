#!/usr/bin/env python3
"""End-to-end OASIS benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload batch-stripe-k30 --seed 1 --seconds 10 --trace 0

Configures and builds this directory with CMake into .bench_build/ at the
repository root (the library is compiled from ../src), renders the workload's
config from perfbench/workloads.json, and runs oasis_e2e. Its last stdout line
is the result object: correct, attempted, failed and metrics. --trace 1 prints
the per-layer metrics instead and writes the layer report and a chrome trace
to .bench_build/out/. --smoke scales the workload down (smoke_test.py).

Exits non-zero without printing a result when the library sources are missing
or the build fails; otherwise exits with oasis_e2e's status (0 only when every
correctness check passed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_SECONDS = 175


def build():
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            sys.exit("perfbench: %s not found next to perfbench/" % required)
    commands = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))


def workload_config(name, smoke):
    with open(os.path.join(HERE, "workloads.json")) as f:
        rows = {row["name"]: row for row in json.load(f)["workloads"]}
    if name not in rows:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (name, ", ".join(sorted(rows))))
    config = dict(rows[name]["config"])
    if smoke:
        config.update(rows[name].get("smoke", {}))
    lines = []
    for key, value in config.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append("%s = %s\n" % (key, value))
    return "".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down workload for smoke tests")
    args = parser.parse_args()

    config = workload_config(args.workload, args.smoke)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    config_path = os.path.join(OUT_DIR, args.workload + ".cfg")
    with open(config_path, "w") as f:
        f.write(config)
    command = [os.path.join(BUILD_DIR, "oasis_e2e"),
               "--workload=" + args.workload,
               "--config=" + config_path,
               "--seed=%d" % args.seed,
               "--seconds=%r" % args.seconds,
               "--trace=%d" % args.trace,
               "--out=" + OUT_DIR]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s exceeded %d s" % (args.workload,
                                                 RUN_TIMEOUT_SECONDS))


if __name__ == "__main__":
    sys.exit(main())
