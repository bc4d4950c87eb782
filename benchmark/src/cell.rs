//! One cell = one configuration on one set of traces over one window.
//! `run_cell` is the only place the benchmark builds and runs a
//! [`System`]; every span, digest and counter comes from here.

use crate::spans::Spans;
use crate::stats::fnv1a64;
use secpref_exp::codec::report_to_string;
use secpref_sim::{ObsConfig, ProfileReport, SimReport, StreamFeed, System, TelConfig, TraceFeed};
use secpref_trace::Trace;
use secpref_types::{SamplingConfig, SystemConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub enum Feeds {
    /// One in-memory trace per core.
    Mem(Vec<Arc<Trace>>),
    /// Single core streamed from a `.sct` store.
    Stream(PathBuf),
}

#[derive(Clone, Debug)]
pub struct Cell {
    /// `<config label> x <trace label>`; the key into `pins.json`.
    pub id: String,
    pub config: String,
    pub trace: String,
    pub cfg: SystemConfig,
    pub feeds: Feeds,
    pub warm: u64,
    pub measure: u64,
    /// `None` runs full detail (and the cell's digest is pinned).
    pub sampling: Option<SamplingConfig>,
}

impl Cell {
    /// Simulated instructions one run covers: warm-up + measured span
    /// (functional warming included), on every core.
    pub fn instructions(&self) -> u64 {
        (self.warm + self.measure) * self.cfg.cores as u64
    }
}

/// Which of the program's own recorders a run switches on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Probe {
    #[default]
    None,
    /// `System::with_profiling`: the wall-time phase table.
    Profile,
    /// `System::with_obs`: event ring and epochs.
    Obs,
    /// `System::with_telemetry`: latency histograms.
    Tel,
}

#[derive(Clone, Debug)]
pub struct CellRun {
    pub report: SimReport,
    pub digest: u64,
    pub build_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    /// Simulated cycle the run ended at.
    pub cycles: u64,
    pub profile: Option<ProfileReport>,
    /// `(cache hits, chunk decodes)` of a streamed feed.
    pub feed: Option<(u64, u64)>,
    /// Events the `obs` recorder saw (stored + dropped).
    pub obs_events: Option<u64>,
}

impl CellRun {
    pub fn wall_s(&self) -> f64 {
        self.build_s + self.run_s + self.report_s
    }

    pub fn ipc(&self) -> f64 {
        ipc_of(&self.report)
    }
}

/// What pins and the resume check compare: FNV-1a-64 of the encoded report.
pub fn digest_of(report: &SimReport) -> u64 {
    fnv1a64(report_to_string(report).as_bytes())
}

/// Simulated IPC of a report: core 0 for one core, the sum of the
/// per-core IPCs for a mix.
pub fn ipc_of(report: &SimReport) -> f64 {
    report.ipcs().iter().sum()
}

pub fn run_cell(cell: &Cell, probe: Probe, spans: &mut Spans) -> CellRun {
    let outer = spans.begin("cell", &cell.id);

    let sp = spans.begin("sim.build", &cell.id);
    let t = Instant::now();
    let feeds: Vec<TraceFeed> = match &cell.feeds {
        Feeds::Mem(traces) => traces.iter().cloned().map(TraceFeed::Mem).collect(),
        Feeds::Stream(path) => {
            let feed = StreamFeed::open_for_core(path, cell.cfg.core.rob_entries)
                .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
            vec![TraceFeed::Stream(Box::new(feed))]
        }
    };
    let mut sys = System::from_feeds(cell.cfg.clone(), feeds).with_window(cell.warm, cell.measure);
    sys = match probe {
        Probe::None => sys,
        Probe::Profile => sys.with_profiling(),
        Probe::Obs => sys.with_obs(&ObsConfig::enabled()),
        Probe::Tel => sys.with_telemetry(&TelConfig::enabled()),
    };
    let build_s = t.elapsed().as_secs_f64();
    spans.end(sp);

    let sp = spans.begin("sim.run", &cell.id);
    let t = Instant::now();
    match &cell.sampling {
        Some(plan) => sys.run_sampled(plan),
        None => sys.run(),
    }
    let run_s = t.elapsed().as_secs_f64();
    spans.end(sp);

    let sp = spans.begin("sim.report", &cell.id);
    let t = Instant::now();
    let report = sys.report();
    let digest = digest_of(&report);
    let report_s = t.elapsed().as_secs_f64();
    spans.end(sp);

    let run = CellRun {
        report,
        digest,
        build_s,
        run_s,
        report_s,
        cycles: sys.cycles(),
        profile: (probe == Probe::Profile).then(|| sys.profile_report()),
        feed: sys.feed_stats(0).map(|s| (s.hits(), s.decodes())),
        obs_events: sys.take_obs().map(|c| c.recorded.iter().sum::<u64>()),
    };
    let _ = sys.take_telemetry();
    spans.end(outer);
    run
}
