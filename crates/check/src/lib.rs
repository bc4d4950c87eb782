//! Correctness tooling for the secpref workspace.
//!
//! Three layers, each catching a different class of bug:
//!
//! 1. **Golden-model differential checking** ([`golden`]): simple,
//!    obviously-correct functional models of the set-associative cache
//!    tag state, the GhostMinion speculative buffer, and the commit
//!    filter decision tables. The cache/GM models are exercised op-by-op
//!    against the real structures with full tag-state equivalence after
//!    every operation; the filter table is checked *live inside real
//!    runs* by [`CheckedFilter`], which wraps any production
//!    [`UpdateFilter`](secpref_ghostminion::UpdateFilter) and asserts the
//!    golden decision at every commit boundary.
//! 2. **Invariant auditing** ([`invariants`]): conservation laws over a
//!    run's [`SimReport`](secpref_sim::SimReport) and observability
//!    capture — commit-action reconciliation against retired loads, GM
//!    fill accounting, event/counter mirroring, MSHR capacity bounds,
//!    and prefetch flow inequalities.
//! 3. **Deterministic trace fuzzing** ([`fuzz`]): an in-tree
//!    xoshiro-seeded generator of adversarial traces (wrong-path gadget
//!    bursts, alias-heavy strides, branch storms) replayed through every
//!    secure-mode × prefetcher cell with layers 1–2 armed. Failures are
//!    bisection-shrunk and dumped as replayable `.sct` artifacts.
//!
//! Entry points: `cargo test -p secpref-check` for the quick pinned
//! pass, `repro --check` for the full tier-1 fuzz budget, and
//! `repro --check-replay FILE` to re-run a dumped artifact.

#![warn(missing_docs)]

pub mod fuzz;
pub mod golden;
pub mod invariants;
pub mod sampling;

pub use fuzz::{
    cells, replay_artifact, run_fuzz, CellFailure, CellSummary, FilterChoice, FuzzCell, FuzzPlan,
    FuzzSummary, PINNED_SEED,
};
pub use golden::{
    golden_commit_action, golden_wb_bits, CheckedFilter, GoldenCache, GoldenGm, GoldenLine,
    SkipOneDropMutant,
};
pub use invariants::{audit_run, audit_sampled, audit_telemetry, Violation};
pub use sampling::{run_sampled_differential, SampledDiffSummary};
