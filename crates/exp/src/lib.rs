//! Parallel, resumable experiment orchestration for the secure-prefetch
//! reproduction.
//!
//! The paper's figures are built from hundreds of `(SystemConfig, trace,
//! scale)` simulations, many shared between figures. This crate turns
//! that into a deduplicated **job graph** keyed by a complete content
//! hash, executes it on a std-only **worker pool** (plain `std::thread`
//! — the build has no external dependencies), persists every result to
//! a JSON-lines **store** so interrupted sweeps resume where they
//! stopped, and records **observability**: a per-run manifest, per-job
//! wall-clock timings, and live progress/ETA lines.
//!
//! # Layers
//!
//! - [`job`] — [`JobSpec`]: one simulation; [`JobSpec::canonical`] /
//!   [`JobSpec::key`] define identity (the full config participates, so
//!   configs differing only in, say, L1D geometry never collide).
//! - [`scale`] — [`ExpScale`]: Quick/Full windows.
//! - [`pool`] — deterministic-order worker pool ([`pool::run_items`]).
//! - [`store`] — [`ResultStore`]: append-only `results.jsonl`,
//!   torn-write tolerant.
//! - [`codec`] — the report's exact JSON form (u64 counters stay
//!   integers; `f64` round-trips bit-identically), written with
//!   [`json`], which is `secpref_types::json` re-exported.
//! - [`engine`] — [`Engine`]: dedupe → resume → pre-generate traces →
//!   execute → persist → manifest; one loop ([`Engine::run_with`]) whose
//!   [`RunMode`] makes it a plain or a traced sweep.
//!
//! A [`RunMode::Traced`] sweep writes each job's recorder artifacts with
//! [`write_trace_artifacts`] (from `secpref-obs`); every sweep's span
//! trace is checked by [`validate_trace_json`] (from
//! `secpref-telemetry`, beside the builder that writes it).
//!
//! # Examples
//!
//! ```
//! use secpref_exp::{Engine, ExpScale, JobSpec};
//! use secpref_types::SystemConfig;
//!
//! let dir = std::env::temp_dir().join(format!("secpref-exp-doc-{}", std::process::id()));
//! let engine = Engine::new(&dir, 2).unwrap();
//! let jobs = vec![
//!     JobSpec::single(SystemConfig::baseline(1), "leela_like", ExpScale::Quick),
//!     JobSpec::single(SystemConfig::baseline(1), "leela_like", ExpScale::Quick),
//! ];
//! let (reports, summary) = engine.run_all_with_summary(&jobs);
//! assert_eq!(reports.len(), 2);
//! assert_eq!(summary.jobs_unique, 1); // duplicate deduplicated
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod job;
pub mod pool;
pub mod scale;
pub mod store;

pub use engine::{default_workers, Engine, JobRecord, ResultSource, RunSummary};
pub use job::{JobSpec, RunMode, Workload};
pub use pool::ItemTiming;
pub use scale::ExpScale;
pub use secpref_obs::write_trace_artifacts;
pub use secpref_sim::{ObsCapture, ObsConfig};
pub use secpref_telemetry::{validate_trace_json, TraceStats};
pub use secpref_types::json;
pub use store::{ResultStore, StoredResult};
