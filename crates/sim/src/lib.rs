//! Full-system simulator for the secure-prefetching reproduction: wires
//! the out-of-order cores, the GhostMinion secure cache system, the
//! prefetchers (with their on-access / on-commit / timely-secure modes),
//! SUF, the Fig. 6 miss classifier, and the metrics/energy models into a
//! runnable [`System`].
//!
//! # Examples
//!
//! ```
//! use secpref_sim::run_single_with_window;
//! use secpref_trace::suite;
//! use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
//!
//! let trace = suite::cached_trace("leela_like", 3_000);
//! let cfg = SystemConfig::baseline(1)
//!     .with_secure(SecureMode::GhostMinion)
//!     .with_prefetcher(PrefetcherKind::IpStride)
//!     .with_mode(PrefetchMode::OnCommit);
//! let report = run_single_with_window(&cfg, &trace, 500, 2_000);
//! assert!(report.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod energy;
pub mod hierarchy;
pub mod metrics;
mod policy;
pub mod report;
pub mod system;
mod wheel;

pub use classify::Classifier;
pub use energy::EnergyModel;
pub use hierarchy::DriverCounts;
pub use metrics::{CommitMetrics, CoreMetrics, LevelMetrics, MissClassCounts, PrefetchMetrics};
pub use report::{geomean, mean, weighted_speedup, SimReport};
pub use secpref_mem::dram::DramStats;
pub use secpref_obs::{ObsCapture, ObsConfig};
pub use secpref_telemetry::{Phase, ProfileReport, ProfileRow, Profiler, PHASES};
pub use secpref_tracestore::{FeedStats, StreamFeed, TraceFeed};
pub use secpref_types::{MetricStats, SamplingConfig, SamplingSummary};
pub use system::{
    build_filter, build_prefetcher, Ablation, System, DEFAULT_MEASURE, DEFAULT_WARMUP,
};

use secpref_trace::Trace;
use secpref_types::{CacheConfig, SystemConfig};
use std::sync::Arc;

/// The recorder configuration under its old name: a forward kept because
/// `benchmark/` pins it, to retire with that crate's next edit (ROADMAP
/// item 4).
pub type TelConfig = ObsConfig;

/// Builds the system every `run_*` helper and every experiment job
/// runs: `feeds[i]` on core `i`, `cfg` with its core count set to the
/// feed count and its LLC rescaled from `cfg.cores` to match, and the
/// given warm-up / measurement windows (instructions).
///
/// The LLC is the caller's: only the per-core resources scale, by the
/// power-of-two factor [`CacheConfig::baseline_llc`] applies (so a
/// baseline LLC becomes the baseline LLC of the feed count), and its
/// ways, latency and replacement policy are kept — a job keyed by a
/// non-baseline LLC runs that LLC.
///
/// # Panics
///
/// Panics if the resulting configuration is invalid.
pub fn system_for(cfg: &SystemConfig, feeds: Vec<TraceFeed>, warmup: u64, measure: u64) -> System {
    let mut cfg = cfg.clone();
    cfg.llc = rescale_llc(&cfg.llc, cfg.cores, feeds.len());
    cfg.cores = feeds.len();
    System::from_feeds(cfg, feeds).with_window(warmup, measure)
}

/// `llc`, sized for `from` cores, resized for `to` cores: size, MSHRs
/// and ports scale by the ratio of the two power-of-two
/// core factors of [`CacheConfig::baseline_llc`].
fn rescale_llc(llc: &CacheConfig, from: usize, to: usize) -> CacheConfig {
    let factor = |cores: usize| cores.max(1).next_power_of_two();
    let scale = |x: usize| x * factor(to) / factor(from);
    CacheConfig {
        size_bytes: scale(llc.size_bytes),
        mshrs: scale(llc.mshrs),
        ports_per_cycle: scale(llc.ports_per_cycle),
        ..llc.clone()
    }
}

fn mem_feeds(traces: Vec<Arc<Trace>>) -> Vec<TraceFeed> {
    traces.into_iter().map(TraceFeed::Mem).collect()
}

fn full_detail(mut sys: System) -> SimReport {
    sys.run();
    sys.report()
}

/// Runs a single-core simulation with explicit windows (instructions).
pub fn run_single_with_window(
    cfg: &SystemConfig,
    trace: &Arc<Trace>,
    warmup: u64,
    measure: u64,
) -> SimReport {
    run_multi_with_window(cfg, vec![trace.clone()], warmup, measure)
}

/// Runs a single-core simulation streamed from an on-disk chunk store
/// (`.sct`), with explicit windows (instructions). Peak trace-resident
/// memory stays under the feed's cap on decoded instructions
/// ([`StreamFeed::for_core`]) regardless of trace length; build the
/// [`System`] by hand via [`System::from_feeds`] when the residency
/// instrumentation ([`System::feed_stats`]) is needed.
///
/// # Errors
///
/// Propagates open/validation errors from the chunk-store reader;
/// `InvalidData`, naming `path`, for a store that holds no instructions.
pub fn run_stream_with_window(
    cfg: &SystemConfig,
    path: &std::path::Path,
    warmup: u64,
    measure: u64,
) -> std::io::Result<SimReport> {
    let feed = StreamFeed::open_for_core(path, cfg.core.rob_entries)?;
    if feed.is_empty() {
        let msg = format!("{}: store holds no instructions", path.display());
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
    }
    let feeds = vec![TraceFeed::Stream(Box::new(feed))];
    Ok(full_detail(system_for(cfg, feeds, warmup, measure)))
}

/// Runs a multi-core simulation (one trace per core) with explicit
/// windows.
pub fn run_multi_with_window(
    cfg: &SystemConfig,
    traces: Vec<Arc<Trace>>,
    warmup: u64,
    measure: u64,
) -> SimReport {
    full_detail(system_for(cfg, mem_feeds(traces), warmup, measure))
}

/// Like [`run_single_with_window`] in SMARTS-style sampled mode: the
/// report's counters cover the measured windows only and
/// `report.sampling` carries the per-metric confidence intervals.
pub fn run_single_sampled_with_window(
    cfg: &SystemConfig,
    trace: &Arc<Trace>,
    warmup: u64,
    measure: u64,
    sampling: &SamplingConfig,
) -> SimReport {
    run_multi_sampled_with_window(cfg, vec![trace.clone()], warmup, measure, sampling)
}

/// Like [`run_multi_with_window`] in SMARTS-style sampled mode.
pub fn run_multi_sampled_with_window(
    cfg: &SystemConfig,
    traces: Vec<Arc<Trace>>,
    warmup: u64,
    measure: u64,
    sampling: &SamplingConfig,
) -> SimReport {
    let mut sys = system_for(cfg, mem_feeds(traces), warmup, measure);
    sys.run_sampled(sampling);
    sys.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_a_baseline_llc_gives_the_baseline_llc() {
        let counts = [1, 2, 3, 4, 8, 16, 32, 64];
        for c in counts {
            for n in counts {
                assert_eq!(
                    rescale_llc(&CacheConfig::baseline_llc(c), c, n),
                    CacheConfig::baseline_llc(n),
                    "{c} -> {n} cores"
                );
            }
        }
    }
}
