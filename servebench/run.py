#!/usr/bin/env python3
"""Builds and runs the served-evaluation benchmark.

Run from the root of a checkout:

    python3 servebench/run.py --workload hot_mix --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --selftest

The first call configures and builds servebench/ (a CMake project compiling
the repository's src/ in Release) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that variable is unset; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. COC_FAULT, COC_FULL and COC_CSV_DIR are removed
from the environment: each would make the library a different program.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALTERING_ENV = ("COC_FAULT", "COC_FULL", "COC_CSV_DIR")


def build(build_dir, target, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    env = dict(os.environ)
    for var in ALTERING_ENV:
        if env.pop(var, None) is not None:
            print(f"servebench: ignoring {var} for this run", file=sys.stderr)
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        print("servebench: no program sources next to the benchmark "
              f"({os.path.join(ROOT, 'src')}); run it from a checkout",
              file=sys.stderr)
        return 2
    target_dir = env.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "servebench")
    selftest = argv == ["--selftest"]
    try:
        binary = build(build_dir, "servebench_test" if selftest else "servebench",
                       env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2
    command = [binary] if selftest else [binary, *argv, "--out", build_dir]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, command, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
