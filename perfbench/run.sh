#!/usr/bin/env bash
# Builds the landscaped daemon and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload study --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Both binaries land in $CARGO_TARGET_DIR (default: target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hs-serve --bin landscaped >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
