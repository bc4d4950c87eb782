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
pub mod profile;
pub mod report;
pub mod system;
mod wheel;

pub use classify::Classifier;
pub use energy::EnergyModel;
pub use hierarchy::DriverCounts;
pub use metrics::{CommitMetrics, CoreMetrics, LevelMetrics, MissClassCounts, PrefetchMetrics};
pub use profile::{Phase, ProfileReport, ProfileRow, Profiler, PHASES};
pub use report::{geomean, mean, weighted_speedup, SimReport};
pub use secpref_mem::dram::DramStats;
pub use secpref_obs::{ObsCapture, ObsConfig};
pub use secpref_telemetry::{
    LoadLevel, Tel, TelCapture, TelConfig, LOAD_LEVELS, LOAD_LEVEL_NAMES, MSHR_LEVEL_NAMES,
};
pub use secpref_tracestore::{FeedStats, StreamFeed, TraceFeed};
pub use secpref_types::{MetricStats, SamplingConfig, SamplingSummary};
pub use system::{build_prefetcher, System, DEFAULT_MEASURE, DEFAULT_WARMUP};

use secpref_trace::Trace;
use secpref_types::SystemConfig;
use std::sync::Arc;

/// Builds the system every `run_*` helper and every experiment job
/// runs: `feeds[i]` on core `i`, `cfg` with its core count set to the
/// feed count and its LLC scaled to match
/// ([`secpref_types::CacheConfig::baseline_llc`]), and the given
/// warm-up / measurement windows (instructions).
///
/// # Panics
///
/// Panics if the resulting configuration is invalid.
pub fn system_for(cfg: &SystemConfig, feeds: Vec<TraceFeed>, warmup: u64, measure: u64) -> System {
    let mut cfg = cfg.clone();
    cfg.cores = feeds.len();
    cfg.llc = secpref_types::CacheConfig::baseline_llc(cfg.cores);
    System::from_feeds(cfg, feeds).with_window(warmup, measure)
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
/// memory stays bounded by the decode window — one chunk plus the
/// core-shaped lookback — regardless of trace length; build the
/// [`System`] by hand via [`System::from_feeds`] when the residency
/// instrumentation ([`System::feed_stats`]) is needed.
///
/// # Errors
///
/// Propagates open/validation errors from the chunk-store reader.
pub fn run_stream_with_window(
    cfg: &SystemConfig,
    path: &std::path::Path,
    warmup: u64,
    measure: u64,
) -> std::io::Result<SimReport> {
    let feed = StreamFeed::open_for_core(path, cfg.core.rob_entries)?;
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

/// Like [`run_single_with_window`], with an observability recorder
/// attached: returns the report together with the capture (`None` when
/// `obs` is disabled).
pub fn run_single_with_window_obs(
    cfg: &SystemConfig,
    trace: &Arc<Trace>,
    warmup: u64,
    measure: u64,
    obs: &ObsConfig,
) -> (SimReport, Option<ObsCapture>) {
    let feeds = vec![TraceFeed::Mem(trace.clone())];
    let mut sys = system_for(cfg, feeds, warmup, measure).with_obs(obs);
    sys.run();
    let capture = sys.take_obs();
    (sys.report(), capture)
}

/// Like [`run_single_with_window`], with a telemetry recorder attached:
/// returns the report together with the histogram capture (`None` when
/// `tel` is disabled). Telemetry never perturbs the report — it is
/// recorded at the same event sites that already increment the
/// counters, so `demand_accesses == Σ load-latency histogram counts +
/// unfinished_demands` holds exactly (audited by `secpref-check`).
pub fn run_single_with_window_tel(
    cfg: &SystemConfig,
    trace: &Arc<Trace>,
    warmup: u64,
    measure: u64,
    tel: &TelConfig,
) -> (SimReport, Option<TelCapture>) {
    let feeds = vec![TraceFeed::Mem(trace.clone())];
    let mut sys = system_for(cfg, feeds, warmup, measure).with_telemetry(tel);
    sys.run();
    let capture = sys.take_telemetry();
    (sys.report(), capture)
}
