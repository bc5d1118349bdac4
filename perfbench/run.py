#!/usr/bin/env python3
"""Build (if needed) and run the MPROS benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ship_vib --seed 1 --seconds 15 --trace 0

The benchmark program is built from the repository's sources into
.bench_build/perfbench (CMake, the repository's default RelWithDebInfo build
type); a build that is already current costs a second. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, printing no result, when the sources are missing or the build
fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "mpros_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MPROS sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        # One build at a time, however many runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configure failed")
        step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    if not os.path.isfile(BINARY):
        fail("benchmark binary missing after build")


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + [
        "--work-dir", os.path.join(BUILD_ROOT, "run")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
