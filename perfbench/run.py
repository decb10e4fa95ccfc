#!/usr/bin/env python3
"""Build and run the vpprof benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1 [--build-dir DIR] [--self-test]

Run from the root of a vpprof checkout. The first run configures and
builds the perfbench CMake project (the vpprof libraries and vpprofd
from src/ and tools/, plus the harness) into the build directory
(default .bench_build/perfbench); later runs rebuild incrementally.
`--build-dir build/perfbench` keeps it beside an existing build/ tree.

Prints one `name value unit` line per metric and, as the last line,
the JSON result of the (last) workload. Exits nonzero when a build
fails, an output check fails, or the checkout holds no vpprof sources.
`--self-test` builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["offline_sweep", "daemon_closed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no vpprof sources under {ROOT}/src; nothing to benchmark")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--build-dir",
                        default=os.path.join(".bench_build", "perfbench"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.path.join(ROOT, args.build_dir))
    if args.self_test:
        if not build(build_dir, ["perfbench_logic_test"]):
            return 1
        test = os.path.join(build_dir, "perfbench_logic_test")
        return subprocess.run([test]).returncode

    if not build(build_dir, ["perfbench", "vpprofd"]):
        log("build failed")
        return 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work"),
               "--vpprofd", os.path.join(build_dir, "vpprofd")]
        if args.workload == "all":
            print(f"# {workload}", flush=True)
        rc = subprocess.run(cmd).returncode
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
