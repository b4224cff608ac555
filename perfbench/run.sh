#!/usr/bin/env bash
# Build the benchmark from source and run it. Arguments pass through:
#   bash perfbench/run.sh --workload dma_open --seed 42 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root); the result is the last line of standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
