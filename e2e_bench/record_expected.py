#!/usr/bin/env python3
"""Rewrites expected.json with the fingerprint of every committed case.

    python3 e2e_bench/record_expected.py

A fingerprint holds a case's source fact count, its solution's per-relation
fact counts, and per query the answer count and a digest of the sorted
answers. Each case is recorded from a run whose solution passed
CheckSolution. Rerun this only when a change is meant to alter the solution
or the answers, and say so in the change.
"""

import json
import os
import subprocess
import sys

import run
from selftest import SMALL_SIZES

# Closure and cascade fingerprints hold for every seed: --seed only orders
# their facts. Employment's generator draws its data from the seed.
SEEDS = range(1, 11)


def cases():
    for seed in SEEDS:
        yield ["--workload", "employment", "--seed", str(seed)]
    yield ["--workload", "closure"]
    yield ["--workload", "cascade"]
    for workload, sizes in SMALL_SIZES.items():
        yield ["--workload", workload, "--seed", "1"] + sizes


def main():
    binary = run.build()
    recorded = {}
    for case in cases():
        out = subprocess.run([binary, "--fingerprint-only"] + case,
                             stdout=subprocess.PIPE, text=True, check=False)
        if out.returncode != 0:
            sys.exit("case failed its checks: " + " ".join(case))
        line = json.loads(out.stdout.strip().splitlines()[-1])
        recorded[line["case"]] = line["fingerprint"]
        print(line["case"])
    with open(os.path.join(run.HERE, "expected.json"), "w") as f:
        json.dump({"cases": recorded}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
