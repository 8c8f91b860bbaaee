#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at small workload sizes.

    python3 e2e_bench/selftest.py

Checks that every workload passes its correctness checks and prints exactly
the metrics BENCHMARK.json declares, that per-layer counts repeat exactly
across two runs of one seed, and that a solution with one fact dropped is
reported as failed by the per-iteration fingerprint check. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

import run

# bench_e2e.cc: kSetupReps, and the message of a fingerprint mismatch.
SETUP_REPS = 15
FINGERPRINT_FAILURE = \
    "check failed: solution or answers differ from the checked run"

# Small sizes of each workload; record_expected.py commits their fingerprints
# for seed 1.
SMALL_SIZES = {
    "employment": ["--people", "400", "--companies", "20"],
    "closure": ["--flights", "120", "--airports", "30"],
    "cascade": ["--stages", "20", "--ballast-keys", "100"],
}


def bench(binary, workload, seed, trace, extra=()):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", "0.3", "--trace", str(trace),
            "--expected", os.path.join(run.HERE, "expected.json")]
    args += SMALL_SIZES[workload] + list(extra)
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]), lines[:-1]


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


def expect(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)
    print("ok:", message)


def main():
    binary = run.build()
    for workload in SMALL_SIZES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = bench(binary, workload, 1, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 3,
                   f"{workload} --trace {trace} passes its checks")
            expect(set(result["metrics"]) == declared(section),
                   f"{workload} --trace {trace} reports the {section} metrics")

        # Employment at seed 5 has no committed fingerprint: CheckSolution
        # and the run's own consistency check it.
        _, first, _ = bench(binary, workload, 5, 1)
        _, second, _ = bench(binary, workload, 5, 1)
        counts = {name for name, m in first["metrics"].items()
                  if m["unit"] == "count"}
        expect(first["correct"] and second["correct"] and counts
               and all(first["metrics"][n] == second["metrics"][n]
                       for n in counts),
               f"{workload} per-layer counts repeat across two runs")

        # --drop-fact spares the set-ups, which pass CheckSolution; every
        # timed iteration must then fail the fingerprint comparison.
        code, result, log = bench(binary, workload, 1, 0, ["--drop-fact"])
        timed = result["attempted"] - SETUP_REPS
        expect(code != 0 and not result["correct"] and timed > 0
               and result["failed"] == timed
               and FINGERPRINT_FAILURE in log,
               f"{workload} with one solution fact dropped fails every "
               "timed iteration's fingerprint check")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
