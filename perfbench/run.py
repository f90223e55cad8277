#!/usr/bin/env python3
"""Build and run the BEER performance benchmark.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (Release) into .bench_build/perfbench; later calls only
rebuild what changed. Each run gets a private temporary directory under
.bench_build for its traces, cache files and journals, removed at exit.
The benchmark binary prints one JSON result object as the last line of
standard output; everything else (build logs included) goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
EXE = os.path.join(BUILD_DIR, "perfbench")
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))
# A run measures --seconds (at most 60) plus set-up; anything longer is
# a hang, and the run is stopped without a result.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step, its output to stderr; False on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} next to perfbench/; nothing to build")
            return False
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench", "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["recover", "solve", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the benchmark's own answer "
                             "checks reject wrong answers, then exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 2

    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [EXE, f"--tmpdir={tmpdir}"]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += [f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--trace={args.trace}"]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
