#!/usr/bin/env python3
"""Build and run the middlesim benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload e6000-grid --seed 1 --seconds 25 --trace 0

Builds the simulator sources under src/ together with perfbench.cpp in
this directory into .bench_build/ (an optimized, uninstrumented build),
then runs one workload and relays perfbench's output: a meta line and,
last, one JSON result line. Exits non-zero without a result when the
build fails, for example when src/ is missing.

--update-refs records the run's operation digests as the reference
digests for its seed in perfbench/refs.txt instead of relaying a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFS = os.path.join(HERE, "refs.txt")
WORKLOADS = ("e6000-grid", "manycore-dir", "replay-what-if")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def revision():
    """The git revision, or a digest of the sources in a plain tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def update_refs(workload, seed, meta):
    lines = []
    if os.path.exists(REFS):
        with open(REFS) as f:
            lines = f.read().splitlines()
    prefix = "%s %d " % (workload, seed)
    kept = [line for line in lines if not line.startswith(prefix)]
    for op, digest in sorted(meta["digests"].items()):
        kept.append(prefix + op + " " + digest)
    header = [line for line in kept if line.startswith("#")]
    body = sorted(line for line in kept if line and not line.startswith("#"))
    with open(REFS, "w") as f:
        f.write("\n".join(header + body) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--update-refs", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    build()
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    if not args.update_refs and os.path.exists(REFS):
        command += ["--refs", REFS]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("perfbench exited with code %d" % done.returncode)
    if args.update_refs:
        meta = json.loads(done.stdout.splitlines()[-2])["meta"]
        if meta["failures"]:
            fail("not recording references from a failing run: %s"
                 % meta["failures"])
        update_refs(args.workload, args.seed, meta)
        print("recorded %d reference digests for %s seed %d"
              % (len(meta["digests"]), args.workload, args.seed))
        return
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
