#!/usr/bin/env python3
"""Builds the repo benchmark from source, then runs it.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --regen-expected [--workload NAME]

Run it from the root of a checkout.  The build (CMake, Release) goes to
.bench_build/perfbench; its output goes to stderr so the last line of
stdout stays the benchmark's JSON result.  Exits with the benchmark's own
code, or 2 without a result when the build fails (for example in a
directory that holds the benchmark but not the gpupower sources).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", "4"],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 2
    exe = BUILD_DIR / "perfbench"
    sys.stdout.flush()
    proc = subprocess.run([str(exe), *sys.argv[1:], "--root", str(ROOT)],
                          cwd=ROOT, env=os.environ.copy())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
