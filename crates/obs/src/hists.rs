//! The distribution half of a capture: log2-bucketed histograms of the
//! latencies and occupancies behind the report's scalar counters.
//!
//! The paper's central phenomenon is a *distribution* shift, not a count
//! shift: on-commit issue makes prefetches later relative to their demand
//! uses, and the cost lives in the tail of load-to-use latency. Each
//! histogram is filled at the program point that bumps its counter, so
//! sample totals reconcile exactly with the report (`secpref-check`'s
//! `tel-*` audit rules).

use secpref_types::Hist;

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

/// Every histogram one run captured, plus the two demand-conservation
/// scalars.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hists {
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

impl Hists {
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
    pub fn merge(&mut self, other: &Hists) {
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
