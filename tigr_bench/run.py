#!/usr/bin/env python3
"""Build tigr_bench from this checkout and run one workload.

    python3 tigr_bench/run.py --workload read_mix --seed 1 --seconds 15 --trace 0

Run from the root of the checkout. The first run configures and builds
the bench (with the library sources under src/) in .bench_build/, or in
$CARGO_TARGET_DIR when set; later runs only rebuild what changed. Build
output goes to stderr; stdout is the bench's own, whose last line is the
JSON result. Scratch files go under the build directory, result files
under tigr_bench/results/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "tigr_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(cmake_dir, "tigr_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("run.py: building tigr_bench failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--results", os.path.join(HERE, "results"),
               "--work-dir", os.path.join(out, "tmp")]
    # Become the bench rather than wait on it, so no process outlives a
    # caller that stops this one.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, command)


if __name__ == "__main__":
    sys.exit(main())
