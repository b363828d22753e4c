#!/usr/bin/env bash
# Builds rlckit-server and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload cold_transient --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --steadiness 10 --workload reuse_closed --seed 1 --seconds 15
#   bash perfbench/run.sh --list
# Run it from the repository root. Build output, traces and scratch result
# stores go under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rlckit-server --bin rlckit-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/rlckit-server" "$@"
