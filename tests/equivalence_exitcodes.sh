#!/bin/bash
# The equivalence harnesses must tell a crashed binary (exit 2) apart
# from a byte-comparison mismatch (exit 1) — CI triage reads the exit
# code. This test drives both scripts against shell-stub binaries: a
# stub killed by SIGSEGV must yield exit 2, a well-behaved stub whose
# outputs merely differ must yield exit 1.
#
# Usage: equivalence_exitcodes.sh <tests dir>

set -euo pipefail

testsdir=${1:?usage: equivalence_exitcodes.sh <tests dir>}
[ -x "$testsdir/sweep_equivalence.sh" ] ||
    { echo "FAIL: missing $testsdir/sweep_equivalence.sh" >&2; exit 1; }

workdir=$(mktemp -d /tmp/middlesim_eqexit.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

expect_status() {
    local want=$1 what=$2
    shift 2
    local status=0
    "$@" > /dev/null 2>&1 || status=$?
    [ "$status" -eq "$want" ] ||
        fail "$what: want exit $want, got $status"
}

figures="fig04_scaling fig05_execmodes fig06_cpi fig07_datastall \
         fig08_c2c_ratio fig09_gc_effect fig10_c2c_timeline \
         fig11_livemem fig12_icache fig13_dcache fig14_comm_pct \
         fig15_comm_abs fig16_shared"

# --- sweep harness: tool dies on a signal -> crash (exit 2) ---
mkdir -p "$workdir/sweep_crash"
cat > "$workdir/sweep_crash/middlesim-trace" <<'EOF'
#!/bin/bash
kill -SEGV $$
EOF
chmod +x "$workdir/sweep_crash/middlesim-trace"
expect_status 2 "sweep harness vs crashing tool" \
    "$testsdir/sweep_equivalence.sh" "$workdir/sweep_crash"

# --- sweep harness: tool runs fine but sharing disagrees with
# per-degree replay -> 1 ---
mkdir -p "$workdir/sweep_diff"
cat > "$workdir/sweep_diff/middlesim-trace" <<'EOF'
#!/bin/bash
case "${1:-}" in
sweep)
    echo "sweep engine: stackdist-refinement" >&2
    for kb in 64 128 256 512 1024 2048 4096 8192 16384; do
        echo "$kb KB 1.0 1.0"
    done
    ;;
sharing)
    echo "cpusPerL2 misses coherence capacity c2c"
    for share in 1 2 4; do
        echo "$share 100 20 30 10"
    done
    ;;
replay)
    echo "  L2 misses:    101  (cold 51, coherence 20, capacity 30)"
    echo "  c2c/upgrades: 10 / 0"
    ;;
esac
exit 0
EOF
chmod +x "$workdir/sweep_diff/middlesim-trace"
expect_status 1 "sweep harness vs sharing/replay drift" \
    "$testsdir/sweep_equivalence.sh" "$workdir/sweep_diff"

# Stub figure drivers: stable stdout plus a nonempty metrics file.
make_figures() {
    local dir=$1 f
    mkdir -p "$dir"
    for f in $figures; do
        cat > "$dir/$f" <<'EOF'
#!/bin/bash
id=$(basename "$0")
for a in "$@"; do
    case "$a" in
    --metrics-dir=*) echo '{}' > "${a#--metrics-dir=}/${id%%_*}.json" ;;
    esac
done
echo "figure $(basename "$0") table"
EOF
        chmod +x "$dir/$f"
    done
}

# --- run_all harness: one driver dies on a signal -> exit 2 ---
make_figures "$workdir/runall_crash"
cat > "$workdir/runall_crash/fig09_gc_effect" <<'EOF'
#!/bin/bash
kill -SEGV $$
EOF
chmod +x "$workdir/runall_crash/fig09_gc_effect"
cat > "$workdir/runall_crash/run_all" <<'EOF'
#!/bin/bash
exit 0
EOF
chmod +x "$workdir/runall_crash/run_all"
expect_status 2 "run_all harness vs crashing driver" \
    "$testsdir/run_all_equivalence.sh" "$workdir/runall_crash"

# --- run_all harness: run_all output drifts from drivers -> exit 1 ---
make_figures "$workdir/runall_diff"
cat > "$workdir/runall_diff/run_all" <<'EOF'
#!/bin/bash
echo "run_all says something else"
EOF
chmod +x "$workdir/runall_diff/run_all"
expect_status 1 "run_all harness vs output drift" \
    "$testsdir/run_all_equivalence.sh" "$workdir/runall_diff"

echo "PASS: harness exit codes distinguish crash (2) from mismatch (1)"
