//! The simulated machine's one in-run recorder: per-kind counts of the
//! sampled moments, an epoch time-series and latency/timeliness
//! histograms — std-only, zero dependencies beyond `secpref-types`, and
//! one `None` check per hook when off.
//!
//! Every phenomenon the paper explains — prefetch lateness under
//! on-commit issue, commit-request traffic on the GhostMinion path, MSHR
//! pressure from re-fetches, the load-latency tail — is a *within-run*
//! timing story, and a distribution rather than a count. This crate
//! gives the simulator a lens on it; it keeps no per-access log:
//!
//! - [`EventKind`]/[`Event`] — the five sampled moments (prefetch fill,
//!   useful, late and useless; GhostMinion speculative fill). Each is
//!   counted per kind and feeds a histogram; none is stored.
//! - [`EpochRow`]/[`EpochSeries`] — every N committed instructions, the
//!   simulator snapshots counter *deltas* into a time-series whose
//!   columns it names.
//! - [`Hists`] — log2-bucketed distributions (load-to-use latency per
//!   serving level, DRAM queue delay, MSHR residency, prefetch
//!   timeliness, GhostMinion occupancy).
//! - [`Obs`] — the recorder handed to the simulator. Disabled it is a
//!   `None` behind one predictable branch per hook; enabled it records
//!   only for cores past their warm-up boundary, so counts and sample
//!   totals reconcile with the measurement-window counters of the final
//!   report.
//! - [`export`] — a capture's three artifacts (summary JSON, epochs CSV,
//!   histogram CSV), written by [`write_trace_artifacts`] with
//!   `secpref_types::json`.
//!
//! Three crates link it: `secpref-sim`, which holds the recorder, and
//! `secpref-exp` and `secpref-check`, which read its capture.
//!
//! # Examples
//!
//! ```
//! use secpref_obs::{Event, EventKind, LoadLevel, Obs, ObsConfig};
//! use secpref_types::LineAddr;
//!
//! let mut obs = Obs::new(&ObsConfig::enabled(), 1);
//! obs.arm(0); // core 0 passed its warm-up boundary
//! obs.record(Event {
//!     cycle: 42,
//!     line: LineAddr::new(7),
//!     core: 0,
//!     kind: EventKind::PrefetchFill,
//! });
//! assert!(obs.demand_access(0));
//! obs.load_complete(0, LoadLevel::Dram, 180);
//! let capture = obs.finish().unwrap();
//! assert_eq!(capture.recorded(EventKind::PrefetchFill), 1);
//! assert_eq!(capture.hists.load_latency[LoadLevel::Dram as usize].count(), 1);
//! ```

#![warn(missing_docs)]

pub mod epoch;
pub mod event;
pub mod export;
pub mod hists;

pub use epoch::{EpochRow, EpochSeries};
pub use event::{Event, EventKind, KIND_COUNT};
pub use export::write_trace_artifacts;
pub use hists::{Hists, LoadLevel, LOAD_LEVELS, LOAD_LEVEL_NAMES, MSHR_LEVELS, MSHR_LEVEL_NAMES};

use secpref_types::Cycle;
use std::collections::HashMap;

/// Recorder configuration. Installing a recorder is what turns recording
/// on; this only shapes what an installed one samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Epoch length in committed instructions (per core, post warm-up).
    pub epoch_interval: u64,
}

impl ObsConfig {
    /// The default configuration: 5 000-instruction epochs.
    pub fn enabled() -> Self {
        ObsConfig {
            epoch_interval: 5_000,
        }
    }

    /// Sets the epoch interval in instructions (builder style; clamped
    /// to ≥ 1).
    pub fn with_epoch_interval(mut self, interval: u64) -> Self {
        self.epoch_interval = interval.max(1);
        self
    }
}

/// Live recorder state (present only when a recorder is installed).
#[derive(Clone, Debug)]
struct ObsInner {
    /// Per-kind event totals, by [`EventKind::index`].
    recorded: [u64; KIND_COUNT],
    epochs: EpochSeries,
    hists: Hists,
    /// Per-core: record only once the core passed warm-up, so event and
    /// sample totals match the measurement-window metrics.
    armed: Vec<bool>,
    /// `(core, line) → fill cycle` of prefetched lines awaiting their
    /// first demand use; feeds the fill-to-use distance of the
    /// timeliness histograms.
    pf_fill_at: HashMap<(u16, u64), Cycle>,
}

impl ObsInner {
    /// Cycles since `(core, line)`'s prefetch fill, forgetting the fill;
    /// 0 for a line whose fill predates arming.
    fn since_fill(&mut self, ev: &Event) -> u64 {
        match self.pf_fill_at.remove(&(ev.core, ev.line.raw())) {
            Some(fill) => ev.cycle.saturating_sub(fill),
            None => 0,
        }
    }
}

/// The recorder the simulator holds. `Obs::disabled()` is the default and
/// compiles every hook down to a `None` check.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Box<ObsInner>>,
}

impl Obs {
    /// A recorder that records nothing (the default).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A recorder for `cores` cores under `cfg`.
    pub fn new(cfg: &ObsConfig, cores: usize) -> Self {
        Obs {
            inner: Some(Box::new(ObsInner {
                recorded: [0; KIND_COUNT],
                epochs: EpochSeries::new(cfg.epoch_interval.max(1), Vec::new()),
                hists: Hists::default(),
                armed: vec![false; cores],
                pf_fill_at: HashMap::new(),
            })),
        }
    }

    /// Names the epoch series' counter columns, the order every
    /// [`EpochRow::values`] pushed later follows (builder style).
    pub fn with_epoch_columns(mut self, columns: Vec<String>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.epochs.columns = columns;
        }
        self
    }

    /// Marks `core` as past its warm-up boundary; its events and samples
    /// are recorded from now on.
    pub fn arm(&mut self, core: usize) {
        if let Some(inner) = &mut self.inner {
            if let Some(a) = inner.armed.get_mut(core) {
                *a = true;
            }
        }
    }

    /// Armed-core fast path shared by every hook.
    #[inline]
    fn armed(&mut self, core: usize) -> Option<&mut ObsInner> {
        match &mut self.inner {
            Some(inner) if inner.armed.get(core).copied().unwrap_or(false) => Some(inner),
            _ => None,
        }
    }

    /// Counts an event if its core is armed; see [`Obs::record_with`]
    /// for the histogram each kind feeds.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        self.record_with(ev, 0);
    }

    /// Counts an event and records the histogram sample its kind
    /// carries: a prefetch fill starts the line's fill-to-use clock, a
    /// useful or useless prefetch stops it into its timeliness histogram,
    /// and `sample` is the in-flight age of a late prefetch or the
    /// GhostMinion occupancy at a speculative fill. Other kinds ignore
    /// `sample`.
    #[inline]
    pub fn record_with(&mut self, ev: Event, sample: u64) {
        let Some(inner) = self.armed(ev.core as usize) else {
            return;
        };
        inner.recorded[ev.kind.index()] += 1;
        match ev.kind {
            EventKind::PrefetchFill => {
                inner.pf_fill_at.insert((ev.core, ev.line.raw()), ev.cycle);
            }
            EventKind::PrefetchUseful => {
                let d = inner.since_fill(&ev);
                inner.hists.pf_useful.record(d);
            }
            EventKind::PrefetchUseless => {
                let d = inner.since_fill(&ev);
                inner.hists.pf_useless.record(d);
            }
            EventKind::PrefetchLate => inner.hists.pf_late.record(sample),
            EventKind::GmSpecFill => inner.hists.gm_occupancy.record(sample),
        }
    }

    /// Appends an epoch sample (caller computes the deltas).
    pub fn push_epoch(&mut self, row: EpochRow) {
        if let Some(inner) = &mut self.inner {
            inner.epochs.rows.push(row);
        }
    }

    /// A demand access was counted at L1D. Returns whether it was
    /// recorded — the caller must remember the answer per request and
    /// gate the matching [`Obs::load_complete`] on it, which is what
    /// makes `demand_accesses` reconcile exactly with the report counter
    /// across the warm-up boundary.
    #[inline]
    pub fn demand_access(&mut self, core: usize) -> bool {
        match self.armed(core) {
            Some(inner) => {
                inner.hists.demand_accesses += 1;
                true
            }
            None => false,
        }
    }

    /// A counted demand access completed: `latency` cycles after issue,
    /// served by `level`. Call only when the matching
    /// [`Obs::demand_access`] returned `true`.
    #[inline]
    pub fn load_complete(&mut self, core: usize, level: LoadLevel, latency: u64) {
        if let Some(inner) = self.armed(core) {
            inner.hists.load_latency[level as usize].record(latency);
        }
    }

    /// A DRAM read completed `delay` cycles after it arrived at the
    /// controller.
    #[inline]
    pub fn dram_done(&mut self, core: usize, delay: u64) {
        if let Some(inner) = self.armed(core) {
            inner.hists.dram_queue_delay.record(delay);
        }
    }

    /// An MSHR entry at level `lvl` (0 = L1D, 1 = L2, 2 = LLC) completed
    /// after `residency` cycles.
    #[inline]
    pub fn mshr_complete(&mut self, core: usize, lvl: usize, residency: u64) {
        if let Some(inner) = self.armed(core) {
            inner.hists.mshr_residency[lvl.min(MSHR_LEVELS - 1)].record(residency);
        }
    }

    /// Consumes the recorder into its capture (None when disabled).
    pub fn finish(self) -> Option<ObsCapture> {
        self.inner.map(|inner| ObsCapture {
            recorded: inner.recorded,
            epochs: inner.epochs,
            hists: inner.hists,
            mshr_high_water: Vec::new(),
            filters: Vec::new(),
        })
    }
}

/// Everything one recorded run produced, ready for export.
#[derive(Clone, Debug)]
pub struct ObsCapture {
    /// Per-kind event totals, by [`EventKind::index`].
    pub recorded: [u64; KIND_COUNT],
    /// The epoch time-series.
    pub epochs: EpochSeries,
    /// The latency/timeliness histograms.
    pub hists: Hists,
    /// MSHR occupancy high-water marks: (label, entries), e.g.
    /// `("l1d[0]", 14)` — filled in by the simulator at finalize.
    pub mshr_high_water: Vec<(String, u64)>,
    /// Each core's commit-path update filter identity (e.g. `"suf"`), by
    /// core.
    pub filters: Vec<String>,
}

impl ObsCapture {
    /// Total recorded events of `kind`.
    pub fn recorded(&self, kind: EventKind) -> u64 {
        self.recorded[kind.index()]
    }

    /// Aggregate summary for manifests.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            events_recorded: self.recorded.iter().sum(),
            epochs: self.epochs.rows.len() as u64,
            hist_samples: self.hists.total_samples(),
        }
    }
}

/// Compact per-run recorder summary (what lands in run manifests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Events recorded, all kinds.
    pub events_recorded: u64,
    /// Epoch samples taken.
    pub epochs: u64,
    /// Samples across all histograms.
    pub hist_samples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_types::LineAddr;

    fn ev(core: u16, kind: EventKind) -> Event {
        at(core, kind, 0, 1)
    }

    fn at(core: u16, kind: EventKind, line: u64, cycle: Cycle) -> Event {
        Event {
            cycle,
            line: LineAddr::new(line),
            core,
            kind,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut obs = Obs::disabled();
        obs.arm(0);
        obs.record(ev(0, EventKind::PrefetchLate));
        obs.push_epoch(EpochRow::default());
        assert!(!obs.demand_access(0));
        obs.load_complete(0, LoadLevel::L1d, 3);
        obs.record(at(0, EventKind::PrefetchFill, 7, 10));
        obs.record(at(0, EventKind::PrefetchUseful, 7, 20));
        assert!(obs.finish().is_none());
    }

    #[test]
    fn default_config_is_off() {
        // Off is the default recorder; installing one is what enables it.
        assert!(Obs::default().finish().is_none());
        assert!(Obs::new(&ObsConfig::enabled(), 2).finish().is_some());
    }

    #[test]
    fn unarmed_cores_are_not_recorded() {
        let mut obs = Obs::new(&ObsConfig::enabled(), 2);
        obs.record(ev(0, EventKind::PrefetchFill)); // warm-up: ignored
        assert!(!obs.demand_access(0));
        obs.arm(0);
        obs.record(ev(0, EventKind::PrefetchFill));
        assert!(obs.demand_access(0));
        obs.record_with(ev(1, EventKind::GmSpecFill), 3); // core 1 still warming
        assert!(!obs.demand_access(1));
        let cap = obs.finish().unwrap();
        assert_eq!(cap.recorded(EventKind::PrefetchFill), 1);
        assert_eq!(cap.recorded(EventKind::GmSpecFill), 0);
        assert_eq!(cap.hists.gm_occupancy.count(), 0);
        assert_eq!(cap.hists.demand_accesses, 1);
    }

    #[test]
    fn summary_counts_add_up() {
        let mut obs = Obs::new(&ObsConfig::enabled(), 1);
        obs.arm(0);
        obs.record(ev(0, EventKind::PrefetchFill));
        obs.record(ev(0, EventKind::PrefetchFill));
        obs.record_with(ev(0, EventKind::GmSpecFill), 9);
        obs.push_epoch(EpochRow::default());
        let s = obs.finish().unwrap().summary();
        assert_eq!(s.events_recorded, 3);
        assert_eq!(s.epochs, 1);
        assert_eq!(s.hist_samples, 1);
    }

    #[test]
    fn fill_to_use_distance_is_measured() {
        let mut obs = Obs::new(&ObsConfig::enabled(), 1);
        obs.arm(0);
        obs.record(at(0, EventKind::PrefetchFill, 100, 1_000));
        obs.record(at(0, EventKind::PrefetchUseful, 100, 1_250));
        obs.record(at(0, EventKind::PrefetchFill, 200, 2_000));
        obs.record(at(0, EventKind::PrefetchUseless, 200, 2_010));
        // A useful hit on a line filled before arming records distance 0.
        obs.record(at(0, EventKind::PrefetchUseful, 999, 3_000));
        obs.record_with(at(0, EventKind::PrefetchLate, 300, 3_100), 40);
        let h = obs.finish().unwrap().hists;
        assert_eq!(h.pf_useful.count(), 2);
        assert_eq!(h.pf_useful.max(), Some(250));
        assert_eq!(h.pf_useful.min(), Some(0));
        assert_eq!(h.pf_useless.count(), 1);
        assert_eq!(h.pf_useless.sum(), 10);
        assert_eq!(h.pf_late.sum(), 40);
    }

    #[test]
    fn capture_merge_adds_everything() {
        let mut a = Obs::new(&ObsConfig::enabled(), 1);
        a.arm(0);
        a.demand_access(0);
        a.load_complete(0, LoadLevel::L2, 14);
        let mut b = Obs::new(&ObsConfig::enabled(), 1);
        b.arm(0);
        b.demand_access(0);
        b.dram_done(0, 77);
        let mut h = a.finish().unwrap().hists;
        let mut other = b.finish().unwrap().hists;
        other.unfinished_demands = 1;
        h.merge(&other);
        assert_eq!(h.demand_accesses, 2);
        assert_eq!(h.unfinished_demands, 1);
        assert_eq!(h.load_latency[LoadLevel::L2 as usize].count(), 1);
        assert_eq!(h.dram_queue_delay.count(), 1);
    }

    #[test]
    fn named_order_is_stable() {
        let h = Hists::default();
        let names: Vec<String> = h.named().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "load_latency/gm");
        assert_eq!(names[LOAD_LEVELS], "dram_queue_delay");
        assert_eq!(*names.last().unwrap(), "gm_occupancy");
        assert_eq!(names.len(), LOAD_LEVELS + MSHR_LEVELS + 5);
    }
}
