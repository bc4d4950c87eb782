//! Latency/timeliness telemetry for the secure-prefetch simulator:
//! log2-bucketed distribution capture, Chrome-trace-event span export, and
//! a throttled live progress line — std-only, zero dependencies beyond
//! `secpref-types`, and one predictable branch per hook when off.
//!
//! The paper's central phenomenon is a *distribution* shift, not a count
//! shift: on-commit issue makes prefetches later relative to their demand
//! uses, and the cost lives in the tail of load-to-use latency. Scalar
//! report counters cannot show that; this crate captures it:
//!
//! - [`Tel`] — the distribution recorder handed to the simulator, built
//!   on [`secpref_types::Hist`]. Disabled it is a `None` behind one
//!   branch per hook (the same pattern as `secpref-obs`); enabled it is
//!   armed per core at the warm-up boundary, so histogram totals
//!   reconcile exactly with the measurement-window report counters
//!   (`secpref-check` has the audit rule).
//! - [`trace_event`] — a Chrome trace-event JSON builder (`ph: B/E/X/C`
//!   records) whose output loads in Perfetto / `chrome://tracing`; used
//!   by `secpref-exp`'s engine spans and `repro --profile`.
//! - [`progress`] — a rate-limited stderr progress line for sweeps,
//!   disabled under `--quiet` and on non-TTY stderr, and structurally
//!   unable to reach result bytes (it only ever renders to a string the
//!   caller prints to stderr).
//!
//! Exporters that need JSON *parsing* (artifact writers, trace
//! validation) live in `secpref-exp`, which owns the workspace's
//! hand-rolled JSON; this crate stays dependency-free so every simulator
//! layer can link it.
//!
//! # Examples
//!
//! ```
//! use secpref_telemetry::{Tel, TelConfig, LoadLevel};
//!
//! let mut tel = Tel::new(&TelConfig::enabled(), 1);
//! tel.arm(0); // core 0 passed its warm-up boundary
//! assert!(tel.demand_access(0));
//! tel.load_complete(0, LoadLevel::Dram, 180);
//! let cap = tel.finish().unwrap();
//! assert_eq!(cap.demand_accesses, 1);
//! assert_eq!(cap.load_latency[LoadLevel::Dram as usize].count(), 1);
//! ```

#![warn(missing_docs)]

pub mod progress;
pub mod trace_event;

pub use progress::Progress;
pub use trace_event::TraceBuilder;

use secpref_types::{Cycle, Hist};
use std::collections::HashMap;

/// Serving levels distinguished by the load-to-use latency histograms.
/// GhostMinion hits are split out of L1D because their 1-cycle service is
/// a different population than real L1D hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum LoadLevel {
    /// Served by the GhostMinion buffer (secure-mode speculative hit).
    Gm = 0,
    /// Served by the L1 data cache.
    L1d = 1,
    /// Served by the private L2.
    L2 = 2,
    /// Served by the shared LLC.
    Llc = 3,
    /// Served by DRAM.
    Dram = 4,
}

/// Number of [`LoadLevel`] variants.
pub const LOAD_LEVELS: usize = 5;
/// Stable export names for the load-latency histograms, by [`LoadLevel`].
pub const LOAD_LEVEL_NAMES: [&str; LOAD_LEVELS] = ["gm", "l1d", "l2", "llc", "dram"];
/// MSHR files tracked by the residency histograms (l1d, l2, llc).
pub const MSHR_LEVELS: usize = 3;
/// Stable export names for the MSHR-residency histograms.
pub const MSHR_LEVEL_NAMES: [&str; MSHR_LEVELS] = ["l1d", "l2", "llc"];

/// Telemetry configuration. Off by default: `TelConfig::default()`
/// disables everything and every simulator hook reduces to one branch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelConfig {
    /// Master switch.
    pub enabled: bool,
}

impl TelConfig {
    /// An enabled configuration.
    pub fn enabled() -> Self {
        TelConfig { enabled: true }
    }
}

/// Everything one telemetry run captured, ready for export.
#[derive(Clone, Debug, Default)]
pub struct TelCapture {
    /// Load-to-use latency (issue to data return, cycles) per serving
    /// level, indexed by [`LoadLevel`]. Includes demand stores and
    /// wrong-path loads — everything counted as an L1D demand access.
    pub load_latency: [Hist; LOAD_LEVELS],
    /// DRAM controller delay per read: arrival at the controller to data
    /// return on the bus (queueing + service), in cycles.
    pub dram_queue_delay: Hist,
    /// MSHR entry residency (allocate to fill), in cycles, per level
    /// (l1d, l2, llc; per-core files aggregated).
    pub mshr_residency: [Hist; MSHR_LEVELS],
    /// Timeliness of *useful* prefetches: fill to first demand use,
    /// in cycles. One sample per `prefetch.useful` report count.
    pub pf_useful: Hist,
    /// Timeliness of *late* prefetches: how long the prefetch had been in
    /// flight when the demand caught it (the fill-to-use distance is
    /// negative; this is the in-flight age at merge). One sample per
    /// `prefetch.late` report count.
    pub pf_late: Hist,
    /// Timeliness of *useless* prefetches: fill to eviction without a
    /// demand use, in cycles. One sample per `prefetch.useless` count.
    pub pf_useless: Hist,
    /// GhostMinion occupancy (lines resident), sampled at every
    /// speculative GM fill.
    pub gm_occupancy: Hist,
    /// Demand accesses counted while armed — increments at exactly the
    /// site that bumps the report's L1D `demand_accesses` counter, so the
    /// two reconcile exactly.
    pub demand_accesses: u64,
    /// Counted demand accesses still in flight when the run ended (their
    /// latency is unknowable, so they appear in no histogram); the audit
    /// rule is `demand_accesses == Σ load_latency + unfinished_demands`.
    pub unfinished_demands: u64,
}

impl TelCapture {
    fn new() -> Self {
        TelCapture {
            load_latency: [
                Hist::new(),
                Hist::new(),
                Hist::new(),
                Hist::new(),
                Hist::new(),
            ],
            dram_queue_delay: Hist::new(),
            mshr_residency: [Hist::new(), Hist::new(), Hist::new()],
            pf_useful: Hist::new(),
            pf_late: Hist::new(),
            pf_useless: Hist::new(),
            gm_occupancy: Hist::new(),
            demand_accesses: 0,
            unfinished_demands: 0,
        }
    }

    /// All histograms with their stable export names, in a fixed order
    /// (the artifact byte-determinism contract depends on this order).
    pub fn named(&self) -> Vec<(String, &Hist)> {
        let mut out = Vec::with_capacity(LOAD_LEVELS + MSHR_LEVELS + 5);
        for (i, h) in self.load_latency.iter().enumerate() {
            out.push((format!("load_latency/{}", LOAD_LEVEL_NAMES[i]), h));
        }
        out.push(("dram_queue_delay".to_string(), &self.dram_queue_delay));
        for (i, h) in self.mshr_residency.iter().enumerate() {
            out.push((format!("mshr_residency/{}", MSHR_LEVEL_NAMES[i]), h));
        }
        out.push(("pf_timeliness/useful".to_string(), &self.pf_useful));
        out.push(("pf_timeliness/late".to_string(), &self.pf_late));
        out.push(("pf_timeliness/useless".to_string(), &self.pf_useless));
        out.push(("gm_occupancy".to_string(), &self.gm_occupancy));
        out
    }

    /// Total samples across all histograms (for manifests).
    pub fn total_samples(&self) -> u64 {
        self.named().iter().map(|(_, h)| h.count()).sum()
    }

    /// Folds `other` into `self` histogram-by-histogram (multi-core or
    /// multi-run aggregation).
    pub fn merge(&mut self, other: &TelCapture) {
        for (a, b) in self.load_latency.iter_mut().zip(other.load_latency.iter()) {
            a.merge(b);
        }
        self.dram_queue_delay.merge(&other.dram_queue_delay);
        for (a, b) in self
            .mshr_residency
            .iter_mut()
            .zip(other.mshr_residency.iter())
        {
            a.merge(b);
        }
        self.pf_useful.merge(&other.pf_useful);
        self.pf_late.merge(&other.pf_late);
        self.pf_useless.merge(&other.pf_useless);
        self.gm_occupancy.merge(&other.gm_occupancy);
        self.demand_accesses += other.demand_accesses;
        self.unfinished_demands += other.unfinished_demands;
    }
}

/// Live recorder state (present only when telemetry is on).
#[derive(Clone, Debug)]
struct TelInner {
    cap: TelCapture,
    /// Per-core: record only once the core passed warm-up, so histogram
    /// totals match the measurement-window metrics.
    armed: Vec<bool>,
    /// `(core, line) → fill cycle` of prefetched lines awaiting their
    /// first demand use, maintained only while recording; feeds the
    /// fill-to-use distance of the timeliness histograms.
    pf_fill_at: HashMap<(u32, u64), Cycle>,
}

/// The distribution recorder the simulator holds. `Tel::disabled()` is
/// the default and compiles every hook down to a `None` check.
#[derive(Clone, Debug, Default)]
pub struct Tel {
    inner: Option<Box<TelInner>>,
}

impl Tel {
    /// A recorder that records nothing (the default).
    pub fn disabled() -> Self {
        Tel { inner: None }
    }

    /// A recorder for `cores` cores under `cfg` (disabled configs yield a
    /// disabled recorder).
    pub fn new(cfg: &TelConfig, cores: usize) -> Self {
        if !cfg.enabled {
            return Tel::disabled();
        }
        Tel {
            inner: Some(Box::new(TelInner {
                cap: TelCapture::new(),
                armed: vec![false; cores],
                pf_fill_at: HashMap::new(),
            })),
        }
    }

    /// Whether recording is active at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Marks `core` as past its warm-up boundary; samples from it are
    /// recorded from now on.
    pub fn arm(&mut self, core: usize) {
        if let Some(inner) = &mut self.inner {
            if let Some(a) = inner.armed.get_mut(core) {
                *a = true;
            }
        }
    }

    /// Armed-core fast path shared by every hook.
    #[inline]
    fn armed_inner(&mut self, core: usize) -> Option<&mut TelInner> {
        match &mut self.inner {
            Some(inner) if inner.armed.get(core).copied().unwrap_or(false) => Some(inner),
            _ => None,
        }
    }

    /// A demand access was counted at L1D. Returns whether telemetry
    /// recorded it — the caller must remember the answer per request and
    /// gate the matching [`Tel::load_complete`] on it, which is what
    /// makes `demand_accesses` reconcile exactly with the report counter
    /// across the warm-up boundary.
    #[inline]
    pub fn demand_access(&mut self, core: usize) -> bool {
        match self.armed_inner(core) {
            Some(inner) => {
                inner.cap.demand_accesses += 1;
                true
            }
            None => false,
        }
    }

    /// A counted demand access completed: `latency` cycles after issue,
    /// served by `level`. Call only when the matching
    /// [`Tel::demand_access`] returned `true`.
    #[inline]
    pub fn load_complete(&mut self, core: usize, level: LoadLevel, latency: u64) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.load_latency[level as usize].record(latency);
        }
    }

    /// A counted demand access was still in flight when the run ended.
    #[inline]
    pub fn unfinished_demand(&mut self, core: usize) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.unfinished_demands += 1;
        }
    }

    /// A DRAM read completed `delay` cycles after it arrived at the
    /// controller.
    #[inline]
    pub fn dram_done(&mut self, core: usize, delay: u64) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.dram_queue_delay.record(delay);
        }
    }

    /// An MSHR entry at level `lvl` (0 = L1D, 1 = L2, 2 = LLC) completed
    /// after `residency` cycles.
    #[inline]
    pub fn mshr_complete(&mut self, core: usize, lvl: usize, residency: u64) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.mshr_residency[lvl.min(MSHR_LEVELS - 1)].record(residency);
        }
    }

    /// A prefetch filled `line` at `now` (starts the fill-to-use clock).
    #[inline]
    pub fn pf_fill(&mut self, core: usize, line: u64, now: Cycle) {
        if let Some(inner) = self.armed_inner(core) {
            inner.pf_fill_at.insert((core as u32, line), now);
        }
    }

    /// A prefetched `line` saw its first demand use at `now` (the
    /// `prefetch.useful` site). Records fill-to-use distance; lines whose
    /// fill predates arming record 0.
    #[inline]
    pub fn pf_useful(&mut self, core: usize, line: u64, now: Cycle) {
        if let Some(inner) = self.armed_inner(core) {
            let d = match inner.pf_fill_at.remove(&(core as u32, line)) {
                Some(fill) => now.saturating_sub(fill),
                None => 0,
            };
            inner.cap.pf_useful.record(d);
        }
    }

    /// A demand merged onto an in-flight prefetch that had been in flight
    /// for `age` cycles (the `prefetch.late` site).
    #[inline]
    pub fn pf_late(&mut self, core: usize, age: u64) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.pf_late.record(age);
        }
    }

    /// A prefetched `line` was evicted unused at `now` (the
    /// `prefetch.useless` site).
    #[inline]
    pub fn pf_useless(&mut self, core: usize, line: u64, now: Cycle) {
        if let Some(inner) = self.armed_inner(core) {
            let d = match inner.pf_fill_at.remove(&(core as u32, line)) {
                Some(fill) => now.saturating_sub(fill),
                None => 0,
            };
            inner.cap.pf_useless.record(d);
        }
    }

    /// GhostMinion occupancy sample at a speculative fill.
    #[inline]
    pub fn gm_fill(&mut self, core: usize, occupancy: u64) {
        if let Some(inner) = self.armed_inner(core) {
            inner.cap.gm_occupancy.record(occupancy);
        }
    }

    /// Consumes the recorder into its capture (`None` when disabled).
    pub fn finish(self) -> Option<TelCapture> {
        self.inner.map(|inner| inner.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut tel = Tel::disabled();
        assert!(!tel.is_enabled());
        tel.arm(0);
        assert!(!tel.demand_access(0));
        tel.load_complete(0, LoadLevel::L1d, 3);
        tel.pf_fill(0, 7, 10);
        tel.pf_useful(0, 7, 20);
        assert!(tel.finish().is_none());
    }

    #[test]
    fn default_config_is_off() {
        assert!(!TelConfig::default().enabled);
        assert!(!Tel::new(&TelConfig::default(), 2).is_enabled());
        assert!(Tel::new(&TelConfig::enabled(), 2).is_enabled());
    }

    #[test]
    fn unarmed_cores_are_not_recorded() {
        let mut tel = Tel::new(&TelConfig::enabled(), 2);
        assert!(!tel.demand_access(0)); // warm-up: ignored
        tel.arm(0);
        assert!(tel.demand_access(0));
        assert!(!tel.demand_access(1)); // core 1 still warming
        let cap = tel.finish().unwrap();
        assert_eq!(cap.demand_accesses, 1);
    }

    #[test]
    fn fill_to_use_distance_is_measured() {
        let mut tel = Tel::new(&TelConfig::enabled(), 1);
        tel.arm(0);
        tel.pf_fill(0, 100, 1_000);
        tel.pf_useful(0, 100, 1_250);
        tel.pf_fill(0, 200, 2_000);
        tel.pf_useless(0, 200, 2_010);
        // A useful hit on a line filled before arming records distance 0.
        tel.pf_useful(0, 999, 3_000);
        let cap = tel.finish().unwrap();
        assert_eq!(cap.pf_useful.count(), 2);
        assert_eq!(cap.pf_useful.max(), Some(250));
        assert_eq!(cap.pf_useful.min(), Some(0));
        assert_eq!(cap.pf_useless.count(), 1);
        assert_eq!(cap.pf_useless.sum(), 10);
    }

    #[test]
    fn capture_merge_adds_everything() {
        let mut a = Tel::new(&TelConfig::enabled(), 1);
        a.arm(0);
        a.demand_access(0);
        a.load_complete(0, LoadLevel::L2, 14);
        let mut b = Tel::new(&TelConfig::enabled(), 1);
        b.arm(0);
        b.demand_access(0);
        b.unfinished_demand(0);
        b.dram_done(0, 77);
        let mut cap = a.finish().unwrap();
        cap.merge(&b.finish().unwrap());
        assert_eq!(cap.demand_accesses, 2);
        assert_eq!(cap.unfinished_demands, 1);
        assert_eq!(cap.load_latency[LoadLevel::L2 as usize].count(), 1);
        assert_eq!(cap.dram_queue_delay.count(), 1);
    }

    #[test]
    fn named_order_is_stable() {
        let cap = TelCapture::new();
        let names: Vec<String> = cap.named().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "load_latency/gm");
        assert_eq!(names[LOAD_LEVELS], "dram_queue_delay");
        assert_eq!(*names.last().unwrap(), "gm_occupancy");
        assert_eq!(names.len(), LOAD_LEVELS + MSHR_LEVELS + 5);
    }
}
