#!/usr/bin/env bash
# Builds the benchmark's own workspace offline, runs every workload
# untraced (end-to-end numbers), then traced (per-layer numbers), and
# writes benchmark/results/latest.json and latest.trace.json.
# Extra arguments go to secbench (e.g. --seed 2, --smoke).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/results
exec "$CARGO_TARGET_DIR/release/secbench" \
    --out benchmark/results/latest.json \
    --trace-out benchmark/results/latest.trace.json "$@"
