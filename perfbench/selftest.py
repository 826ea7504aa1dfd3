#!/usr/bin/env python3
"""Self-test of the benchmark at short length.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at --seconds 1 on seed 1: once untraced and twice
traced. Checks that every metric BENCHMARK.json names is printed with
its unit, that per-layer counts are identical across the two traced
runs, that no operation failed, and that the digests were checked
against perfbench/refs.txt and matched. Exits 1 on the first failed
check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1  # a seed refs.txt holds references for

# Per-layer metrics that are simulated counts and must repeat exactly.
EXACT_UNITS = ("count", "cycles", "bytes")
EXACT_RATIOS = ("mem.l1i_hit_ratio", "mem.l1d_hit_ratio",
                "mem.l2_hit_ratio", "mem.numa.remote_frac",
                "os.idle_frac", "cpu.cpi")


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(done.returncode == 0,
          "%s trace=%d exits 0" % (workload, trace))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_metrics(workload, result, wanted):
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted},
          "%s prints exactly the %d named metrics" % (workload, len(wanted)))
    for m in wanted:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)),
              "%s %s = %s %s" % (workload, m["name"], got["value"],
                                 got["unit"]))


def check_correct(workload, meta, result):
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1,
          "%s: %d operations, none failed %s" %
          (workload, result["attempted"], meta["failures"]))
    check(meta["ops_checked_against_reference"] >= 1,
          "%s: %d digests matched refs.txt" %
          (workload, meta["ops_checked_against_reference"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_RATIOS]

    for workload in (w["name"] for w in bench["workloads"]):
        meta, result = run(workload, SEED, 0)
        check_metrics(workload, result, bench["end_to_end"])
        check_correct(workload, meta, result)
        check(all(v["value"] != 0 for v in result["metrics"].values()),
              "%s: no end-to-end metric reads 0" % workload)

        traced = [run(workload, SEED, 1) for _ in range(2)]
        for meta, result in traced:
            check_metrics(workload, result, bench["per_layer"])
            check_correct(workload, meta, result)
        first, second = (r["metrics"] for _, r in traced)
        differ = [n for n in exact if first[n]["value"] != second[n]["value"]]
        check(not differ, "%s: %d per-layer counts repeat exactly %s" %
              (workload, len(exact), differ))
    print("selftest passed")


if __name__ == "__main__":
    main()
