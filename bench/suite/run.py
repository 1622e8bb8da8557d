#!/usr/bin/env python3
"""Build alphapim_bench from this checkout and run one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures the root CMake project in .bench_build (Release; unit tests,
figure benches and examples off) with bench/suite attached through
attach.cmake, builds only the alphapim_bench target, and runs it with
the same arguments. Build output goes to stderr, so the last line on
stdout is the binary's JSON result. ALPHA_PIM_THREADS defaults to 4.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "alphapim_bench"


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no CMake project at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = [
            "cmake", "-S", str(ROOT), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DBUILD_TESTING=OFF",
            "-DALPHA_PIM_BUILD_TESTS=OFF",
            "-DALPHA_PIM_BUILD_BENCH=OFF",
            "-DALPHA_PIM_BUILD_EXAMPLES=OFF",
            f"-DCMAKE_PROJECT_alpha_pim_INCLUDE={SUITE / 'attach.cmake'}",
        ]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "alphapim_bench",
         "-j", str(min(os.cpu_count() or 1, 4))],
        check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")
    env = dict(os.environ)
    env.setdefault("ALPHA_PIM_THREADS", "4")
    result = subprocess.run([str(BINARY)] + sys.argv[1:], env=env)
    sys.exit(result.returncode if result.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
