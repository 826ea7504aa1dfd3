#!/bin/bash
# Sweep-path harness: record a small trace, then require one clean
# `middlesim-trace sweep` run (nine paper-sweep size rows, scored by a
# single-pass stack-distance engine; its equality with the
# per-configuration oracle is proven in test_sweep / test_stackdist /
# test_trace), and every row of `middlesim-trace sharing` (one decode
# fanned out to every sharing degree) equal to the totals that
# `middlesim-trace replay --cpus-per-l2=N` prints for the same trace,
# a dedicated replay per degree. Strict — no tolerance.
#
# Usage: sweep_equivalence.sh <build/bench dir>
#
# Exit status: 0 = pass; 1 = output mismatch or harness assertion;
# 2 = a binary under test crashed (killed by a signal / unrunnable).

set -euo pipefail

bindir=${1:?usage: sweep_equivalence.sh <bench dir>}
tool="$bindir/middlesim-trace"
[ -x "$tool" ] || { echo "FAIL: missing binary: $tool" >&2; exit 1; }

workdir=$(mktemp -d /tmp/middlesim_sweepeq.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }
crash() { echo "CRASH: $*" >&2; exit 2; }

# Triage a tool exit status: >= 126 means the shell could not run it
# or it died on a signal (128+N) — a crash, not a mismatch.
check_status() {
    local status=$1 what=$2
    if [ "$status" -ge 126 ]; then
        crash "$what: killed or unrunnable (exit status $status)"
    elif [ "$status" -ne 0 ]; then
        fail "$what (exit status $status)"
    fi
}

expect_identical() {
    local a=$1 b=$2 what=$3
    if ! cmp -s "$a" "$b"; then
        diff -u "$a" "$b" | head -40 >&2 || true
        fail "$what"
    fi
}

echo "# record uniprocessor trace" >&2
status=0
"$tool" record --out="$workdir/uni.mst" --workload=specjbb \
    --app-cpus=1 --total-cpus=1 --scale=2 --seed=42 \
    --warmup=1000000 --measure=2000000 > /dev/null 2>&1 || status=$?
check_status "$status" "record uniprocessor trace"

echo "# sweep: nine size rows from a single-pass engine" >&2
status=0
"$tool" sweep "$workdir/uni.mst" > "$workdir/sweep.out" \
    2> "$workdir/sweep.err" || status=$?
check_status "$status" "sweep"
grep -q "stackdist" "$workdir/sweep.err" ||
    fail "sweep did not report a single-pass engine"
rows=$(grep -c ' KB ' "$workdir/sweep.out" || true)
[ "$rows" -eq 9 ] || fail "sweep printed $rows size rows, want 9"

echo "# record SMP trace for the sharing study" >&2
status=0
"$tool" record --out="$workdir/smp.mst" --workload=ecperf \
    --app-cpus=2 --total-cpus=4 --cpus-per-l2=2 --scale=4 --seed=7 \
    --warmup=1000000 --measure=2000000 > /dev/null 2>&1 || status=$?
check_status "$status" "record SMP trace"

echo "# sharing rows must equal per-degree replay totals" >&2
status=0
"$tool" sharing "$workdir/smp.mst" > "$workdir/sharing.out" \
    2> /dev/null || status=$?
check_status "$status" "sharing"
# Rows: cpusPerL2 misses coherence capacity c2c.
awk 'NR > 1 { print $1, $2, $3, $4, $5 }' "$workdir/sharing.out" \
    > "$workdir/sharing.rows"
rows=$(wc -l < "$workdir/sharing.rows")
[ "$rows" -eq 3 ] || fail "sharing printed $rows degree rows, want 3"

: > "$workdir/replay.rows"
for share in $(cut -d' ' -f1 "$workdir/sharing.rows"); do
    status=0
    "$tool" replay "$workdir/smp.mst" --cpus-per-l2="$share" \
        > "$workdir/replay.$share" 2> /dev/null || status=$?
    check_status "$status" "replay --cpus-per-l2=$share"
    # "  L2 misses:    M  (cold D, coherence H, capacity P)" and
    # "  c2c/upgrades: C / U" -> "share M H P C".
    row=$(awk -v share="$share" '
        /^  L2 misses:/ { gsub(/[(),]/, " "); m = $3 " " $7 " " $9 }
        /^  c2c\/upgrades:/ { c = $2 }
        END { if (m != "" && c != "") print share, m, c }' \
        "$workdir/replay.$share")
    [ -n "$row" ] ||
        fail "replay --cpus-per-l2=$share printed no miss totals"
    echo "$row" >> "$workdir/replay.rows"
done
expect_identical "$workdir/replay.rows" "$workdir/sharing.rows" \
    "sharing rows differ from per-degree replay totals"

echo "PASS: sweep table complete; sharing rows equal per-degree replay" >&2
