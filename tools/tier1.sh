#!/usr/bin/env bash
# Tier-1 gate: formatting, one implementation per shared format, lints,
# rustdoc, release build, the full test suite in debug and its
# release-only tail, the cross-core litmus, the benchmark workspace's
# lints, unit tests and smoke run, and the non-test line count. Run
# from anywhere; operates on the repo root.
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

echo "== one JSON string escaper, one FNV-1a, one line hasher, one LRU table, one env setting, one way to simulate, every model mutation diffed"
# Each format has one implementation, in secpref-types: the FNV-1a prime
# appears only in fnv.rs and the \uXXXX string escape only in json.rs. The
# one custom map hasher, for line addresses, sits beside the issue
# trackers in classify.rs; a second fast map reuses it (moved to
# secpref-types if another crate needs it). The prefetchers' small
# fully-associative tables and the suite's trace cache are LruTables, so
# an LRU clock or victim scan (`lru_clock`, `fn min_idx`, `last_used`)
# appears only in lru.rs; the caches' per-set 16-bit `clocks` are part of
# the 16-byte way and match none of these. The one environment variable
# the workspace reads is the engine's store directory (SECPREF_EXP_DIR, a
# deployment path); every other knob is a flag. A second copy of any of
# these fails here, naming the file that holds it. A renderer gets its
# reports only through its Cx, so the files that plan and render the
# figures never name the simulator's System, system_for or TraceFeed: a
# run while rendering would sit outside the sweep. Every operation that
# mutates a cache or the GM (a `pub fn NAME(&mut self` in cache.rs or
# gm.rs) is driven as `real.NAME(` by the golden differentials in
# fuzz.rs; one that is not fails here, naming it.
only_in() {
    local want=$1 got
    shift
    got=$(grep -rl "$@" crates --include=*.rs || true)
    if [ "$got" != "$want" ]; then
        echo "expected only $want to match grep $*; matched:" >&2
        echo "$got" >&2
        exit 1
    fi
}
only_in crates/types/src/fnv.rs -i '0x0000_0100_0000_01b3'
only_in crates/types/src/json.rs 'u{:04x}'
only_in crates/sim/src/classify.rs 'impl Hasher for'
only_in crates/types/src/lru.rs -E 'lru_clock|fn min_idx|last_used'
only_in crates/exp/src/engine.rs 'env::var'
renderers=(crates/bench/src/{runner,figures,ablations}.rs)
if grep -lwE 'System|system_for|TraceFeed' "${renderers[@]}"; then
    echo "a renderer above names the simulator; ask its Cx for a job instead" >&2
    exit 1
fi
for model in crates/mem/src/cache.rs crates/ghostminion/src/gm.rs; do
    # Joined into one line, so a signature rustfmt wraps still matches.
    for op in $(tr '\n' ' ' <"$model" | grep -oE 'pub fn [a-z0-9_]+\( *&mut self' | sed -E 's/pub fn ([a-z0-9_]+).*/\1/'); do
        if ! grep -qF "real.$op(" crates/check/src/fuzz.rs; then
            echo "$model: $op mutates the model but crates/check/src/fuzz.rs never calls real.$op(" >&2
            exit 1
        fi
    done
done

echo "== cargo clippy (deny warnings, incl. perf lints)"
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::perf

echo "== cargo doc (deny warnings)"
# Broken and private intra-doc links: a deletion leaves them behind, and
# neither clippy nor the tests look at doc comments.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== cargo build --release (with examples)"
cargo build --release
cargo build --release --examples

echo "== cargo test -q"
cargo test -q

echo "== release-only tests (--ignored)"
# secpref-check: the pinned-seed 2k-iteration fuzz (differential golden
# models + invariant audit over every cell; a failure drops a replayable
# .sct under target/check/). secpref-bench: the CLI end to end — repro
# --profile, a quiet traced sweep with its artifacts and a valid span
# trace, fig16's 32-core row, the ablations cold and resumed
# (crates/bench/tests/cli.rs). secpref-tracestore: prefix stability at
# paper scale, `lbm_like` built in place to 10^7 instructions against
# its streamed capture, at one copy's peak memory of 12-byte records
# (a record padded back to 16 B fails it, naming the record size).
# secpref-trace: the byte digests of all 22 suite traces at 200 000
# instructions. secpref-sim: Fig. 16's 32-core baseline system built and
# run briefly at 16 host bytes per cache way (40 B a way fails it, naming
# the bytes per way), and the streamed residency claim at paper scale: a
# 10^7-instruction capture in 153 chunks of 64 Ki records, larger than
# the feed's cap, run sampled to halfway into chunk 150 must equal the
# in-memory report, stay under the cap and decode each of its 151 chunks
# once (~4 s). stream.rs's other ignored test, the 1e9 run, takes hours
# and is named out.
cargo test --release -q -p secpref-check -p secpref-bench -p secpref-tracestore -p secpref-trace -- --ignored
cargo test --release -q -p secpref-sim --test cache_bytes -- --ignored
cargo test --release -q -p secpref-sim --test stream -- --ignored paper_scale_capture_decodes_each_chunk_once

echo "== cross-core attack litmus (release) + examples"
# The cross-core covert-channel suite (DESIGN.md §13) in release mode:
# LLC prime+probe and DRAM row-buffer channels must decode the pinned
# pattern exactly under the insecure baselines and transmit zero bits
# under on-commit + SUF. Then the examples that finish in about a second
# or less: the 8-core heterogeneous per-core-policy mix, the quickstart
# and the Spectre covert channel (prefetcher_shootout runs a sweep and
# is left out).
cargo test --release -q --test security -- llc_prime_probe dram_row_buffer
for example in multicore_mixes quickstart spectre_covert_channel; do
    ./target/release/examples/"$example" >/dev/null
done

echo "== benchmark crate graph (cargo metadata --locked)"
# benchmark/ is its own workspace and may change only in a benchmark PR.
# A change to the crate graph it builds against (a dependency edge
# between the crates it links) would make the next benchmark run rewrite
# benchmark/Cargo.lock; this stage fails such a change by name instead.
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "== benchmark workspace: clippy and unit tests"
# The root workspace's stages above do not build benchmark/'s own
# targets. Its unit tests check the compare rule (better, worse,
# unresolved), the metric catalogue against BENCHMARK.json and the
# statistics helpers; clippy holds it to the same lints as the root.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings -D clippy::perf
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== benchmark smoke (secbench --smoke)"
# Every workload of BENCHMARK.json at smoke scale, untraced then traced:
# digest pins, span-trace validation, zero failed checks. Not a
# performance measurement.
benchmark/run.sh --smoke

echo "== non-test code lines (tools/loc.sh, informational)"
# ROADMAP aim 2's measure, printed for the record; no threshold.
tools/loc.sh

echo "tier1: all green"
