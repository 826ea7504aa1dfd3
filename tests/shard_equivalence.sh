#!/bin/bash
# run_all --shard=i/N: for N in {1, 2, 3}, shards 0..N-1 run
# concurrently into one --cache-dir, then a plain run_all over that
# directory renders; likewise two fig_manycore shards. The render's
# stdout and per-figure metrics documents must be byte-identical to
# the single-process --jobs=1 --no-cache run of the same binary, and
# its --stats-out must show every result came off the disk cache
# (cache_misses 0, cache_stores 0). Runs time-compressed (shape checks
# may FAIL at this scale), so exit status 1 is tolerated for
# rendering runs; a shard renders nothing and must exit 0.
#
# Usage: shard_equivalence.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = output mismatch or harness assertion;
# 2 = a binary under test crashed (killed by a signal / unrunnable).

set -euo pipefail

bindir=${1:?usage: shard_equivalence.sh <bench dir>}
export MIDDLESIM_TIMESCALE=${MIDDLESIM_TIMESCALE:-0.05}
export MIDDLESIM_RUNS=1
unset MIDDLESIM_CACHE MIDDLESIM_QUICK MIDDLESIM_JOBS MIDDLESIM_CHECK \
    MIDDLESIM_TRACE

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

for b in run_all fig_manycore; do
    [ -x "$bindir/$b" ] || fail "missing binary: $bindir/$b"
done

workdir=$(mktemp -d /tmp/middlesim_shard.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

# Run a rendering run_all whose shape checks may fail (exit 1) but
# which must not crash (any other nonzero exit).
run_tolerant() {
    local out=$1
    shift
    local status=0
    "$@" > "$out" 2> /dev/null || status=$?
    [ "$status" -le 1 ] ||
        crash "crashed with exit status $status: $*"
}

expect_identical() {
    local a=$1 b=$2 what=$3
    if ! cmp -s "$a" "$b"; then
        echo "--- first divergence ($what) ---" >&2
        cmp "$a" "$b" >&2 || true
        diff -u "$a" "$b" | head -40 >&2 || true
        fail "$what"
    fi
}

stat_of() {
    grep -o "\"$1\": *[0-9]*" "$2" | grep -o '[0-9]*$'
}

# shard_then_render BINARY N: shards 0..N-1 of BINARY run concurrently
# into a fresh --cache-dir, then a plain run renders from it; stdout
# and every metrics document must match BINARY's reference in
# $workdir/ref.BINARY.out and $workdir/metrics_ref.BINARY/, all off
# the disk cache.
shard_then_render() {
    local bin=$1 n=$2
    local tag="$bin.$n" cache="$workdir/cache.$bin.$n" pids="" i pid
    echo "# $bin: $n concurrent shard(s), then render" >&2
    for ((i = 0; i < n; i++)); do
        "$bindir/$bin" --jobs=1 --shard="$i/$n" --cache-dir="$cache" \
            > "$workdir/shard.$tag.$i.out" 2> /dev/null &
        pids="$pids $!"
    done
    i=0
    for pid in $pids; do
        status=0
        wait "$pid" || status=$?
        [ "$status" -le 1 ] ||
            crash "$bin shard $i/$n crashed with exit status $status"
        [ "$status" -eq 0 ] || fail "$bin shard $i/$n exited $status"
        [ ! -s "$workdir/shard.$tag.$i.out" ] ||
            fail "$bin shard $i/$n printed to stdout (a shard renders nothing)"
        i=$((i + 1))
    done

    mkdir -p "$workdir/metrics.$tag"
    run_tolerant "$workdir/render.$tag.out" "$bindir/$bin" --jobs=1 \
        --cache-dir="$cache" --metrics-dir="$workdir/metrics.$tag" \
        --stats-out="$workdir/stats.$tag.json"
    expect_identical "$workdir/ref.$bin.out" "$workdir/render.$tag.out" \
        "$bin render after $n shard(s) differs from $bin --jobs=1"
    for f in "$workdir/metrics_ref.$bin"/*.json; do
        id=$(basename "$f")
        [ -s "$workdir/metrics.$tag/$id" ] ||
            fail "$bin render after $n shard(s) wrote no metrics document $id"
        expect_identical "$f" "$workdir/metrics.$tag/$id" \
            "metrics document $id differs after $n $bin shard(s)"
    done

    stats="$workdir/stats.$tag.json"
    [ -s "$stats" ] || fail "$bin render wrote no stats JSON"
    misses=$(stat_of cache_misses "$stats")
    stores=$(stat_of cache_stores "$stats")
    hits=$(stat_of cache_disk_hits "$stats")
    [ "$misses" = 0 ] ||
        fail "$bin render after $n shard(s) missed the cache $misses time(s)"
    [ "$stores" = 0 ] ||
        fail "$bin render after $n shard(s) stored $stores result(s)"
    [ -n "$hits" ] && [ "$hits" -gt 0 ] ||
        fail "$bin render after $n shard(s) read nothing off disk"
}

for bin in run_all fig_manycore; do
    echo "# $bin: single-process reference" >&2
    mkdir -p "$workdir/metrics_ref.$bin"
    run_tolerant "$workdir/ref.$bin.out" "$bindir/$bin" --jobs=1 \
        --no-cache --metrics-dir="$workdir/metrics_ref.$bin"
    [ -s "$workdir/ref.$bin.out" ] || fail "$bin reference printed nothing"
done

for n in 1 2 3; do
    shard_then_render run_all "$n"
done
shard_then_render fig_manycore 2

echo "SHARD_EQUIVALENCE_OK"
