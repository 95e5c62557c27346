#!/usr/bin/env bash
# Cheap perf-regression gate for CI: times two DSE sweeps (release profile)
# and fails when either exceeds 3x its committed reference wall time.
#
#   * reduced grid, 4 workers   — reference in scripts/dse_smoke_reference_ms
#   * full scale,   2 workers   — reference in scripts/dse_full_smoke_reference_ms
#
# The reduced sweep is mostly scene generation; the full-scale sweep is
# ~75% pattern execution (rulegen and the SpConv-P pruning path), so it is
# the one that catches executor regressions. The generous 3x margin absorbs
# runner-speed noise; the gate exists to catch order-of-magnitude hot-path
# regressions, not percent-level drift (perfbench/ tracks that).
#
# The references are refreshed whenever a PR intentionally moves the hot
# path. They are absolute wall times, so if CI migrates to a genuinely
# slower runner class, re-measure there and commit new references rather
# than widening the margin.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/now_ms.sh
. scripts/now_ms.sh

cargo build --release -q -p spade-bench --bin spade-experiments

# gate <label> <reference file> <spade-experiments args...>
gate() {
    local label=$1 ref_file=$2
    shift 2
    local start end ms ref limit
    start=$(now_ms)
    ./target/release/spade-experiments "$@" >/dev/null
    end=$(now_ms)
    ms=$(( end - start ))
    ref=$(cat "$ref_file")
    limit=$(( ref * 3 ))
    echo "${label} dse sweep: ${ms} ms (reference ${ref} ms, limit ${limit} ms)"
    if [ "$ms" -gt "$limit" ]; then
        echo "perf smoke FAILED: ${label} ${ms} ms > ${limit} ms (3x the committed reference)"
        exit 1
    fi
}

gate "reduced-grid" scripts/dse_smoke_reference_ms --reduced dse --jobs 4
gate "full-scale" scripts/dse_full_smoke_reference_ms dse --jobs 2
echo "perf smoke passed"
