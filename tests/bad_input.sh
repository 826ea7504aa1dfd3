#!/bin/bash
# Bad input fails before any work starts, with one named error. Each
# case below runs under a timeout and must exit nonzero (not by the
# timeout, not by a signal), print exactly one "fatal:" line that
# names the offending flag or variable, and print no "leaf points
# requested" line — every figure binary prints that once its work
# queue is built, so its absence proves the failure came first. Then
# a good machine-flag combination must be accepted, and --help on
# every binary must exit 0 listing each row of its flag table.
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

figures="fig04_scaling fig05_execmodes fig06_cpi fig07_datastall \
         fig08_c2c_ratio fig09_gc_effect fig10_c2c_timeline \
         fig11_livemem fig12_icache fig13_dcache fig14_comm_pct \
         fig15_comm_abs fig16_shared fig_manycore"
tools="middlesim_stress middlesim_explore middlesim-trace \
       ablation_mechanisms"
for b in run_all $figures $tools; do
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

# expect_starts BINARY ARGS...: the arguments are accepted — the run
# reaches the "leaf points requested" line, and is then stopped.
expect_starts() {
    local out="$workdir/start" pid
    (cd "$workdir" && exec "$@") > "$out" 2>&1 &
    pid=$!
    for _ in $(seq 300); do
        grep -q 'leaf points requested' "$out" && break
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.1
    done
    kill "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    grep -q 'leaf points requested' "$out" || {
        cat "$out" >&2
        fail "rejected: $*"
    }
    echo "ok (accepted): $*"
}

# expect_help BINARY TEXT...: --help exits 0 and lists every TEXT.
expect_help() {
    local bin=$1
    shift
    local out="$workdir/help" status=0 text
    timeout 30 "$bindir/$bin" --help > "$out" 2>&1 || status=$?
    [ "$status" -eq 0 ] || fail "$bin --help: exit status $status"
    for text in "$@"; do
        grep -qF -- "$text" "$out" || {
            cat "$out" >&2
            fail "$bin --help does not list $text"
        }
    done
    echo "ok: $bin --help"
}

run_all="$bindir/run_all"
fig04="$bindir/fig04_scaling"
stress="$bindir/middlesim_stress"
explore="$bindir/middlesim_explore"
trace_tool="$bindir/middlesim-trace"
unknown="unknown flag '--bogus' (see --help)"

# Machine options that conflict with the protocol.
expect_bad --dir-occupancy "$run_all" --dir-occupancy=4
expect_bad --dir-occupancy MIDDLESIM_DIR_OCCUPANCY=4 "$fig04" --jobs=4
expect_bad --topology "$run_all" --topology=mesh --jobs=4
expect_bad numaNodes "$run_all" --numa-nodes=2

# fig_manycore sets its own machine per point: a machine option it
# would ignore is refused, as a flag or as a variable.
manycore="$bindir/fig_manycore"
expect_bad --protocol "$manycore" --protocol=directory
expect_bad --numa-nodes "$manycore" --numa-nodes=2
expect_bad MIDDLESIM_TOPOLOGY MIDDLESIM_TOPOLOGY=mesh "$manycore"
expect_bad MIDDLESIM_DIR_OCCUPANCY MIDDLESIM_DIR_OCCUPANCY=4 "$manycore"

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

# The tools parse numbers and names as strictly as the figure drivers.
expect_bad --seeds "$stress" --seeds=abc
expect_bad --budget "$stress" --budget=xyz
expect_bad --refs "$explore" --refs=4x
expect_bad "--inject: unknown fault 'bogus'" "$explore" --inject=bogus
expect_bad --app-cpus "$trace_tool" record --out=F --app-cpus=1x
expect_bad MIDDLESIM_CHECK MIDDLESIM_CHECK=false "$fig04"

# An unknown flag is refused by name, pointing at --help.
for b in run_all fig04_scaling fig_manycore middlesim_stress \
         middlesim_explore ablation_mechanisms; do
    expect_bad "$unknown" "$bindir/$b" --bogus
done
expect_bad "$unknown" "$trace_tool" record --out=F --bogus
expect_bad "$unknown" "$trace_tool" info F --bogus
expect_bad --mode "$trace_tool" sweep F --mode=legacy
# Removed flags are refused like any unknown flag.
expect_bad --mode "$trace_tool" sharing F --mode=per-degree
expect_bad --no-dpor "$explore" --no-dpor

[ ! -e "$cache" ] || fail "a refused run wrote into the cache directory"
[ ! -e "$workdir/F" ] || fail "a refused record wrote its trace"

# Every figure binary takes every campaign flag, machine flags
# included.
expect_starts "$fig04" --protocol=directory --topology=mesh

# --help lists every row of each binary's flag table.
campaign="--jobs=N MIDDLESIM_JOBS --cache-dir=DIR MIDDLESIM_CACHE \
    --no-cache --check MIDDLESIM_CHECK --metrics-dir=DIR --stats-out=PATH \
    --trace-out=DIR --trace-in=DIR MIDDLESIM_TRACE --shard=I/N \
    MIDDLESIM_RUNS MIDDLESIM_QUICK MIDDLESIM_TIMESCALE --protocol= \
    MIDDLESIM_PROTOCOL --numa-nodes=N MIDDLESIM_NUMA_NODES --topology= \
    MIDDLESIM_TOPOLOGY --dir-occupancy=N MIDDLESIM_DIR_OCCUPANCY"
for b in run_all $figures; do
    # shellcheck disable=SC2086
    expect_help "$b" $campaign
done
expect_help middlesim_stress --seeds=N --seed0=N --budget= --refs=N \
    --out=DIR --inject=KIND --inject-period=N --inject-salt=N --mode= \
    --repro=
expect_help middlesim_explore --cpus=N --cpus-per-l2=N --protocol= \
    --numa-nodes=N --topology= --dir-occupancy=N --blocks=N --refs=N \
    --seed=N --depth-budget=N --max-executions=N --jobs=N --timing \
    --inject=KIND --inject-period=N --inject-salt=N --out=DIR --report=FILE
expect_help middlesim-trace "middlesim-trace info" \
    "middlesim-trace validate" --limit=N --out=FILE --workload= \
    --app-cpus=N --total-cpus=N --cpus-per-l2=N --scale=N --seed=N \
    --warmup=T --measure=T --track-comm --l2-kb=N
expect_help ablation_mechanisms MIDDLESIM_QUICK

echo "BAD_INPUT_OK"
