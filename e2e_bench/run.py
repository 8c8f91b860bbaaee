#!/usr/bin/env python3
"""Builds and runs the end-to-end exchange benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload employment --seed 1 --seconds 10 --trace 0

The benchmark is built from ../src with this directory's CMakeLists.txt into
$CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench, relative to the
repository root); build output goes to stderr. Every argument is passed to
the bench_e2e binary, together with the committed expected values and, for
traced runs, a Chrome-trace output path inside the build directory. The last
line of stdout is the binary's JSON result. See README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("employment", "closure", "cascade")


def flag_value(argv, flag):
    """The argument after the last `flag` in argv, or None."""
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == flag:
            return argv[i + 1]
    return None


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2e_bench")


def build():
    """Configures and builds bench_e2e; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs]]
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("bench_e2e: build step failed: " + " ".join(step))
    return os.path.join(out, "bench_e2e")


def main(argv):
    binary = build()
    args = [binary] + argv + [
        "--expected", os.path.join(HERE, "expected.json")]
    workload = flag_value(argv, "--workload")
    if flag_value(argv, "--trace") == "1" and workload in WORKLOADS:
        args += ["--trace-out",
                 os.path.join(build_dir(), "trace_" + workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
