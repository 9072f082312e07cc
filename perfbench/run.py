#!/usr/bin/env python3
"""Build and run the anchortlb end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only re-check the build. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. Captures, stores and trace files go to .bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    command = [binary] + sys.argv[1:] + [
        "--pins", os.path.join(HERE, "pins.json"), "--out", ".bench_out"]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
