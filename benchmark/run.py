#!/usr/bin/env python3
"""Build lsbench from source and run one benchmark workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload backfill|live|serve \
        --seed N --seconds S --trace 0|1

The first call configures and compiles the benchmark package (this
directory's CMakeLists.txt, which builds the library from ../src) into
$CARGO_TARGET_DIR/lsbench, or .bench_build/lsbench when that is unset;
later calls rebuild incrementally. Build output goes to stderr. The
workload's output, whose last line is the JSON result, goes to stdout.
Exits non-zero, without a result, when the build fails.
"""
import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "lsbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(cmd) -> bool:
        return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not step(configure):
            shutil.rmtree(build_dir, ignore_errors=True)
            print("lsbench: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build_dir, "-j", jobs]):
        print("lsbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "lsbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
