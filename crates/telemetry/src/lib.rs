//! Host-side telemetry for the secure-prefetch workspace: where the
//! *wall-clock* goes, not what the simulated machine did (that is
//! `secpref-obs`). Std-only, and one predictable branch per hook when off.
//!
//! - [`profile`] — the rdtsc phase profiler the simulator's hot path
//!   calls ([`Profiler`]); `repro --profile` prints its ranked table.
//!   `secpref-sim` re-exports it under the same names.
//! - [`trace_event`] — a Chrome trace-event JSON builder (`ph: B/E/X/C`
//!   records) whose output loads in Perfetto / `chrome://tracing`, and
//!   [`validate_trace_json`], the structural check of its output; used
//!   by `secpref-exp`'s engine spans and `repro --profile`.
//! - [`progress`] — a rate-limited stderr progress line for sweeps,
//!   disabled under `--quiet`, and structurally unable to reach result
//!   bytes (it only ever renders to a string the caller prints to
//!   stderr).
//!
//! # Examples
//!
//! ```
//! use secpref_telemetry::{Phase, Profiler, TraceBuilder};
//!
//! let mut prof = Profiler::enabled();
//! prof.enter(Phase::Dram);
//! prof.exit();
//! let report = prof.report();
//! assert_eq!(report.rows.iter().map(|r| r.enters).sum::<u64>(), 1);
//!
//! let mut t = TraceBuilder::new();
//! t.complete(0, "simulate", 0, 12, &[]);
//! assert!(t.finish().contains("\"simulate\""));
//! ```

#![warn(missing_docs)]

pub mod profile;
pub mod progress;
pub mod trace_event;

pub use profile::{Phase, ProfileReport, ProfileRow, Profiler, PHASES};
pub use progress::Progress;
pub use trace_event::{validate_trace_json, TraceBuilder, TraceStats};
