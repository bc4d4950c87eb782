#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repo root. Fails fast on the first
# broken step so CI output points straight at the problem.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings, incl. perf lints)"
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::perf

echo "== cargo build --release"
cargo build --release

echo "== cargo build --release --examples"
cargo build --release --examples

echo "== cargo test -q"
cargo test -q

echo "== repro --quiet produces no stderr"
# (`cargo build --release` above covers the whole workspace, so the
# secpref-bench binaries used from here on — repro, simbench, sectrace —
# are already built.)
stderr_file="$(mktemp)"
trap 'rm -f "$stderr_file"' EXIT
./target/release/repro --quiet table1 >/dev/null 2>"$stderr_file"
if [ -s "$stderr_file" ]; then
    echo "tier1: repro --quiet wrote to stderr:" >&2
    cat "$stderr_file" >&2
    exit 1
fi

echo "== cross-core attack litmus (release) + many-core smoke"
# The cross-core covert-channel suite (DESIGN.md §13) in release mode:
# LLC prime+probe and DRAM row-buffer channels must decode the pinned
# pattern exactly under the insecure baselines and transmit zero bits
# under on-commit + SUF. Then the scale-out path end to end: the 32-core
# mix-pressure sweep (fig16) at quick scale, and the 8-core
# heterogeneous per-core-policy example.
cargo test --release -q --test security -- llc_prime_probe dram_row_buffer
mc_dir="$(mktemp -d)"
# Plain grep (not -q): -q exits on the first match, which closes the
# pipe while repro is still flushing the rest of the table and turns a
# passing run into an EPIPE panic.
SECPREF_EXP_DIR="$mc_dir" ./target/release/repro --quick --quiet fig16 \
    2>"$stderr_file" | grep '^32 ' >/dev/null \
    || { echo "tier1: fig16 smoke missing the 32-core row" >&2; exit 1; }
if [ -s "$stderr_file" ]; then
    echo "tier1: repro --quiet fig16 wrote to stderr:" >&2
    cat "$stderr_file" >&2
    exit 1
fi
./target/release/examples/multicore_mixes >/dev/null
rm -rf "$mc_dir"

echo "== telemetry sweep: quiet stays silent, trace valid"
# The one telemetry contract no `cargo test` states (DESIGN.md §12): a
# telemetry-enabled sweep under --quiet writes ZERO stderr bytes (the
# live progress line must be provably absent from result bytes). Its
# span trace must also pass `repro --validate-trace` (balanced B/E per
# track, monotone per-track timestamps). That the histogram CSVs are
# byte-identical across worker counts is asserted inside `cargo test`
# (crates/exp/tests/determinism.rs), not here.
tel_dir="$(mktemp -d)"
sct_file=""
trap 'rm -f "$stderr_file"; rm -rf "$tel_dir"; if [ -n "$sct_file" ]; then rm -f "$sct_file"; fi' EXIT
SECPREF_EXP_DIR="$tel_dir" SECPREF_EXP_WORKERS=1 \
    ./target/release/repro --quick --quiet --telemetry fig1 \
    >/dev/null 2>"$stderr_file"
if [ -s "$stderr_file" ]; then
    echo "tier1: repro --quiet --telemetry wrote to stderr:" >&2
    cat "$stderr_file" >&2
    exit 1
fi
ls "$tel_dir"/telemetry/*.hist.csv >/dev/null  # the sweep must have exported
./target/release/repro --validate-trace "$tel_dir"/telemetry/trace-*.json

echo "== simbench smoke (benchmark harness stays runnable)"
# One tiny iteration per cell: validates that the benchmark matrix still
# builds and runs, that BENCH_simcore.json-shaped output parses, and that
# the geomean is positive. Not a performance measurement.
./target/release/simbench --smoke

echo "== simbench perf guard (vs committed BENCH_simcore.json)"
# Perf-regression tripwire: a quick (~25 ms/cell) measurement of the
# pinned matrix, compared against the committed artifact's geomean. A
# drop past the guard band (30%) fails the gate. Escape hatch for noisy
# runners or intentional changes pending a baseline regeneration
# (EXPERIMENTS.md, "Regenerating the simulator baseline"):
#   SECPREF_BENCH_SKIP_GUARD=1 tools/tier1.sh
SECPREF_BENCH_MS=25 ./target/release/simbench \
    --guard BENCH_simcore.json --out "$(mktemp)"

echo "== simbench sampled-mode guard (effective sim rate tripwire)"
# The SMARTS sampled bench at smoke span: one GhostMinion+SUF cell
# streamed from a .sct chunk store, full detail vs sampled. Guards the
# sampled effective instr/sec against the committed artifact's
# `sampled` block (band documented in simbench) — a functional-warming
# path regression shows up here long before the full-budget bench.
SECPREF_BENCH_MS=25 ./target/release/simbench --sampled \
    --guard BENCH_simcore.json --out "$(mktemp)"

echo "== sampled-vs-full smoke differential (3 cells)"
# The tier-1 slice of `repro --sampled`: three representative cells
# (non-secure, GhostMinion+SUF, timely-secure+SUF) must reproduce their
# full-detail IPC within 2% and inside the sampled run's own 95% CI,
# with the sampled-report audit rules armed (DESIGN.md §14).
./target/release/repro --quiet --sampled --quick

echo "== sectrace streamed-replay differential"
# Capture a small trace to a chunk store, verify its integrity, replay
# it streamed, and diff the canonical report digest against the same
# workload regenerated in memory. Any divergence between bounded-memory
# streaming and whole-trace indexing fails the gate (DESIGN.md §11).
sct_file="$(mktemp -u).sct"
./target/release/sectrace capture --trace mcf_like_a --n 120000 \
    --out "$sct_file" --chunk 4096 >/dev/null
./target/release/sectrace verify "$sct_file" >/dev/null
./target/release/sectrace replay "$sct_file" \
    --warmup 10000 --measure 80000 --compare-mem

echo "== secpref-check fuzz (pinned seed, 2k-iteration budget)"
# Deterministic fast check: differential golden models + invariant audit
# over every (mode, prefetcher) cell. The seed is pinned inside the
# fuzzer, so a failure here is reproducible bit-for-bit and drops a
# replayable .sct artifact under target/check/.
./target/release/repro --quiet --check --check-iters 2000

echo "tier1: all green"
