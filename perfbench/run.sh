#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <sweep-full|explore-enlarged|serve-mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result. CARGO_TARGET_DIR, when
# set, places the build (default: perfbench/target).
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
