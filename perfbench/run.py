#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload tgn-train --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. bench_perf and the library are built from
the checkout's own sources into $CARGO_TARGET_DIR (default .bench_build) on
the first run and brought up to date on every later one; build output goes
to stderr. The
result line of bench_perf is the last line of standard output. Traces and
checkpoint scratch files go under <build dir>/out.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run_child(cmd, env=None, stdout=None):
    """Runs cmd to completion; the child never outlives this process."""
    child = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build():
    """Configures (once) and builds bench_perf; returns its path.

    The build is the top-level project with bench_perf added to it
    (project_include.cmake), so the library and bench_perf get the
    top-level compiler flags. Only bench_perf and the library are built.
    """
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: %s is not a full checkout" % ROOT)
    out = os.path.join(build_dir(), "build")
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        hook = os.path.join(HERE, "project_include.cmake")
        cmd = ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_benchtemp_INCLUDE=" + hook]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_child(cmd, env=env, stdout=sys.stderr) != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_child(["cmake", "--build", out, "--target", "bench_perf", "-j",
                  jobs], env=env, stdout=sys.stderr) != 0:
        sys.exit("run.py: build failed")
    return os.path.join(out, "bench_perf")


def check_traces(out):
    """Every trace file of a smoke run parses and holds complete spans."""
    paths = sorted(glob.glob(os.path.join(out, "trace_*.json")))
    if len(paths) != 4:
        print("smoke: expected 4 trace files, found %d" % len(paths))
        return False
    for path in paths:
        with open(path) as f:
            trace = json.load(f)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        if not spans or any(e["dur"] < 0 for e in spans):
            print("smoke: %s has no valid spans" % path)
            return False
        print("smoke: %s parses, %d spans" % (os.path.basename(path),
                                              len(spans)))
    return True


def main():
    # A SIGTERM unwinds through run_child's finally, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="all four workloads at one epoch, both paths")
    parser.add_argument("--out", help="output directory "
                        "(default: <build dir>/out)")
    parser.add_argument("--binary", help="use this bench_perf binary "
                        "instead of building one")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")

    binary = args.binary or build()
    out = os.path.abspath(args.out or os.path.join(build_dir(), "out"))
    os.makedirs(out, exist_ok=True)
    if args.smoke:
        for stale in glob.glob(os.path.join(out, "trace_*.json")):
            os.remove(stale)
        rc = run_child([binary, "--smoke", "--out", out])
        return rc if rc != 0 else (0 if check_traces(out) else 1)
    return run_child([binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", args.trace, "--out", out])


if __name__ == "__main__":
    sys.exit(main())
