#!/usr/bin/env python3
"""Build the mss load driver from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 36 --trace 0

The driver (perfbench/src, linked against the repository's `mss` library)
is configured and built into .bench_build/ on first use; later runs only
re-check the build. Sockets, cache files and span dumps go to .bench_out/.
The driver's standard output is passed through: its last line is the JSON
result. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "mss_perfbench")
# Seconds a driver run may take before it is stopped (the result would be
# late anyway).
RUN_TIMEOUT_S = 170


def local_env():
    """The environment with TMPDIR inside the build tree, so the compiler's
    and the driver's temporary files stay in the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure (once) and build the driver; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mss_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=local_env()).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve-cold", "serve-warm", "calibrated-explore"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_out",
           "--data-dir", os.path.relpath(os.path.join(HERE, "data"), ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=local_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
