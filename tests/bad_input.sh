#!/bin/bash
# Bad input fails before any work starts, with one named error. Each
# case below runs under a timeout and must exit nonzero (not by the
# timeout, not by a signal), print exactly one "fatal:" line that
# names the offending flag or variable, and print no "leaf points
# requested" line — run_all prints that once its work queue is built,
# so its absence proves the failure came first.
#
# Usage: bad_input.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = a case was accepted, hung, or failed
# noisily; 2 = a binary under test crashed.

set -euo pipefail

bindir=${1:?usage: bad_input.sh <bench dir>}
bindir=$(cd "$bindir" && pwd)
export MIDDLESIM_TIMESCALE=0.05
export MIDDLESIM_RUNS=1
unset MIDDLESIM_CACHE MIDDLESIM_QUICK MIDDLESIM_JOBS MIDDLESIM_CHECK \
    MIDDLESIM_TRACE MIDDLESIM_PROTOCOL MIDDLESIM_NUMA_NODES \
    MIDDLESIM_TOPOLOGY MIDDLESIM_DIR_OCCUPANCY

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

for b in run_all fig04_scaling; do
    [ -x "$bindir/$b" ] || fail "missing binary: $bindir/$b"
done

workdir=$(mktemp -d /tmp/middlesim_badinput.XXXXXX)
trap 'rm -rf "$workdir"' EXIT
cache="$workdir/cache"

# expect_bad NAME VAR=VALUE... BINARY ARGS...: NAME must appear in the
# one fatal line.
expect_bad() {
    local name=$1
    shift
    local out="$workdir/out" status=0
    (cd "$workdir" && timeout 30 env "$@") > "$out" 2>&1 || status=$?
    [ "$status" -ne 0 ] || fail "accepted: $*"
    [ "$status" -ne 124 ] || fail "hung (timed out): $*"
    [ "$status" -lt 128 ] || crash "exit status $status: $*"
    local fatals
    fatals=$(grep -c '^fatal:' "$out" || true)
    [ "$fatals" -eq 1 ] || {
        cat "$out" >&2
        fail "$fatals fatal lines, want 1: $*"
    }
    grep '^fatal:' "$out" | grep -qF -- "$name" || {
        cat "$out" >&2
        fail "fatal line does not name $name: $*"
    }
    ! grep -q 'leaf points requested' "$out" || {
        cat "$out" >&2
        fail "work started before the error: $*"
    }
    echo "ok: $*"
}

run_all="$bindir/run_all"
fig04="$bindir/fig04_scaling"

# Machine options that conflict with the protocol.
expect_bad --dir-occupancy "$run_all" --dir-occupancy=4
expect_bad --dir-occupancy MIDDLESIM_DIR_OCCUPANCY=4 "$fig04" --jobs=4
expect_bad --topology "$run_all" --topology=mesh --jobs=4
expect_bad numaNodes "$run_all" --numa-nodes=2

# Malformed or out-of-range numbers, in the environment and in flags.
expect_bad MIDDLESIM_RUNS MIDDLESIM_RUNS=-1 "$run_all"
expect_bad MIDDLESIM_RUNS MIDDLESIM_RUNS=0 "$run_all"
expect_bad MIDDLESIM_TIMESCALE MIDDLESIM_TIMESCALE=abc "$run_all"
expect_bad MIDDLESIM_TIMESCALE MIDDLESIM_TIMESCALE=0 "$fig04"
expect_bad MIDDLESIM_QUICK MIDDLESIM_QUICK=yes "$fig04"
expect_bad MIDDLESIM_NUMA_NODES MIDDLESIM_NUMA_NODES=2x "$run_all"
expect_bad MIDDLESIM_DIR_OCCUPANCY MIDDLESIM_DIR_OCCUPANCY=-4 "$run_all"
expect_bad MIDDLESIM_JOBS MIDDLESIM_JOBS=4x "$run_all"
expect_bad --jobs "$run_all" --jobs=4x
expect_bad --jobs "$fig04" --jobs=0
expect_bad --numa-nodes "$run_all" --numa-nodes=2x
expect_bad --numa-nodes "$fig04" --numa-nodes=-2
expect_bad --dir-occupancy "$run_all" --dir-occupancy=1x

# --shard=i/N: 0 <= i < N, N >= 1, a --cache-dir, nothing that renders
# or bypasses the cache.
expect_bad --shard "$run_all" --shard=2/2 --cache-dir="$cache"
expect_bad --shard "$run_all" --shard=0/0 --cache-dir="$cache"
expect_bad --shard "$run_all" --shard=1 --cache-dir="$cache"
expect_bad --shard "$run_all" --shard=a/2 --cache-dir="$cache"
expect_bad --shard "$run_all" --shard=0/2x --cache-dir="$cache"
expect_bad --cache-dir "$run_all" --shard=0/2
expect_bad --no-cache "$run_all" --shard=0/2 --cache-dir="$cache" \
    --no-cache
expect_bad --check "$run_all" --shard=0/2 --cache-dir="$cache" --check
expect_bad --trace-out "$run_all" --shard=0/2 --cache-dir="$cache" \
    --trace-out="$workdir/trace"
expect_bad --trace-in "$run_all" --shard=0/2 --cache-dir="$cache" \
    --trace-in="$workdir/trace"
expect_bad --metrics-dir "$run_all" --shard=0/2 --cache-dir="$cache" \
    --metrics-dir="$workdir"

[ ! -e "$cache" ] || fail "a refused run wrote into the cache directory"

echo "BAD_INPUT_OK"
