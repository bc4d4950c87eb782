#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, the full test suite in
# debug and its release-only tail, the cross-core litmus, and the
# benchmark's smoke run. Run from anywhere; operates on the repo root.
# Fails fast on the first broken step so CI output points straight at
# the problem.
#
# No stage compares a timing with a committed number: on a shared box a
# band wide enough never to trip on noise is too wide to catch anything.
# The perf verdict is parent against change, interleaved, through
# benchmark/run.sh and `secbench compare` (EXPERIMENTS.md, "Measuring a
# performance change").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings, incl. perf lints)"
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::perf

echo "== cargo build --release (with examples)"
cargo build --release
cargo build --release --examples

echo "== cargo test -q"
cargo test -q

echo "== release-only tests (--ignored)"
# secpref-check: the pinned-seed 2k-iteration fuzz (differential golden
# models + invariant audit over every cell; a failure drops a replayable
# .sct under target/check/). secpref-bench: the CLI end to end — repro
# --profile, a quiet telemetry sweep with a valid span trace, fig16's
# 32-core row (crates/bench/tests/cli.rs).
cargo test --release -q -p secpref-check -p secpref-bench -- --ignored

echo "== cross-core attack litmus (release) + many-core smoke"
# The cross-core covert-channel suite (DESIGN.md §13) in release mode:
# LLC prime+probe and DRAM row-buffer channels must decode the pinned
# pattern exactly under the insecure baselines and transmit zero bits
# under on-commit + SUF. Then the 8-core heterogeneous per-core-policy
# example.
cargo test --release -q --test security -- llc_prime_probe dram_row_buffer
./target/release/examples/multicore_mixes >/dev/null

echo "== benchmark smoke (secbench --smoke)"
# Every workload of BENCHMARK.json at smoke scale, untraced then traced:
# digest pins, span-trace validation, zero failed checks. Not a
# performance measurement.
benchmark/run.sh --smoke

echo "tier1: all green"
