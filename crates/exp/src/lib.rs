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
//! - [`codec`] / [`json`] — hand-rolled, exact JSON (u64 counters stay
//!   integers; `f64` round-trips bit-identically).
//! - [`engine`] — [`Engine`]: dedupe → resume → pre-generate traces →
//!   execute → persist → manifest; one loop ([`Engine::run_with`]) whose
//!   [`RunMode`] makes it a plain, a traced or a telemetry sweep.
//! - [`obs`] — deterministic trace-artifact exporters (events JSONL,
//!   epochs CSV) for [`RunMode::Traced`] diagnostic sweeps.
//! - [`telemetry`] — deterministic histogram-artifact exporter
//!   (`<key>.hist.csv`) for [`RunMode::Telemetry`] sweeps, plus the
//!   structural validator for exported span-trace JSON.
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
pub mod json;
pub mod obs;
pub mod pool;
pub mod scale;
pub mod store;
pub mod telemetry;

pub use engine::{default_workers, Engine, JobRecord, ResultSource, RunSummary};
pub use job::{Capture, JobSpec, RunMode, Workload};
pub use obs::write_trace_artifacts;
pub use pool::ItemTiming;
pub use scale::ExpScale;
pub use secpref_sim::{ObsCapture, ObsConfig, TelCapture, TelConfig};
pub use store::{ResultStore, StoredResult};
pub use telemetry::{hist_csv, validate_trace_json, write_tel_artifacts, TraceStats};
