//! Benchmark harness: configuration matrix, engine-backed experiment
//! runner, and one regeneration function per paper table/figure.
//!
//! The `repro` binary enumerates each requested figure's job sweep
//! ([`sweep`]), pushes it through the parallel experiment engine
//! ([`runner::prewarm`] → `secpref_exp::Engine`), then renders the
//! tables from the warm cache. `repro --profile` ([`profile`]) says
//! where the simulator's host time goes; how fast it is belongs to the
//! repo's benchmark under `benchmark/`.

pub mod ablations;
pub mod configs;
pub mod figures;
pub mod profile;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod traceinfo;

pub use runner::{run_cached, ExpScale};
pub use table::Table;
