#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the binary (see README.md). Run from anywhere: paths are relative to
# the root of the checkout.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke]      all workloads -> benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ecobench" "$@"
