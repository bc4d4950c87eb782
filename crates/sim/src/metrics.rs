//! Per-core, per-level simulation counters — the raw material for every
//! figure in the paper.

use secpref_types::{counters, AccessKind, CacheLevel, Cycle};

counters! {
    /// Traffic and miss counters for one cache level of one core.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LevelMetrics {
        /// Demand (load/store) accesses.
        pub demand_accesses: u64,
        /// Demand misses.
        pub demand_misses: u64,
        /// Prefetch accesses.
        pub prefetch_accesses: u64,
        /// GhostMinion commit-path accesses (commit writes + re-fetches +
        /// clean-line propagation) — the "Commit Requests" of Fig. 3.
        pub commit_accesses: u64,
        /// Writeback accesses (dirty evictions arriving here).
        pub writeback_accesses: u64,
        /// Cycles×entries of MSHR occupancy (integral; divide by cycles for
        /// mean occupancy).
        pub mshr_occupancy_integral: u64,
        /// Cycles the MSHR file was completely full.
        pub mshr_full_cycles: u64,
        /// Retries caused by a full MSHR file.
        pub mshr_full_stalls: u64,
        /// Retries caused by exhausted ports.
        pub port_stalls: u64,
        /// Sum of demand-load miss latencies observed at this level.
        pub miss_latency_sum: u64,
        /// Number of demand-load misses contributing to `miss_latency_sum`.
        pub miss_latency_count: u64,
    }
}

impl LevelMetrics {
    /// Total accesses of all kinds.
    pub fn total_accesses(&self) -> u64 {
        self.demand_accesses
            + self.prefetch_accesses
            + self.commit_accesses
            + self.writeback_accesses
    }

    /// Records an access of the given kind.
    pub fn record_access(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load | AccessKind::Store => self.demand_accesses += 1,
            AccessKind::Prefetch => self.prefetch_accesses += 1,
            AccessKind::CommitWrite | AccessKind::Refetch => self.commit_accesses += 1,
            AccessKind::Writeback => self.writeback_accesses += 1,
        }
    }

    /// Mean demand-load miss latency in cycles.
    pub fn avg_miss_latency(&self) -> f64 {
        if self.miss_latency_count == 0 {
            0.0
        } else {
            self.miss_latency_sum as f64 / self.miss_latency_count as f64
        }
    }
}

counters! {
    /// Prefetcher effectiveness counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct PrefetchMetrics {
        /// Prefetch requests the prefetcher produced.
        pub proposed: u64,
        /// Requests actually injected into the hierarchy (post duplicate/
        /// resource drops).
        pub issued: u64,
        /// Dropped because the line was already resident or in flight.
        pub dropped_duplicate: u64,
        /// Dropped for lack of MSHRs/queue space.
        pub dropped_resources: u64,
        /// Prefetched lines that were later demanded (useful).
        pub useful: u64,
        /// Demand merged onto an in-flight prefetch (late prefetch).
        pub late: u64,
        /// Prefetched lines evicted without use.
        pub useless: u64,
    }
}

impl PrefetchMetrics {
    /// Prefetch accuracy: fraction of completed prefetches that were used
    /// (late prefetches are used too).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            (self.useful + self.late) as f64 / self.issued as f64
        }
    }

    /// Lateness ratio (paper Section V-D): late / (late + useful).
    pub fn lateness(&self) -> f64 {
        let used = self.useful + self.late;
        if used == 0 {
            0.0
        } else {
            self.late as f64 / used as f64
        }
    }
}

counters! {
    /// GhostMinion commit-path counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct CommitMetrics {
        /// On-commit writes issued (GM hit at commit).
        pub commit_writes: u64,
        /// Re-fetches issued (GM miss at commit).
        pub refetches: u64,
        /// Updates dropped by the SUF.
        pub suf_dropped: u64,
        /// SUF drop decisions that were correct (line still in L1D/GM).
        pub suf_drop_correct: u64,
        /// SUF drop decisions that were wrong (line had been evicted).
        pub suf_drop_wrong: u64,
        /// Clean-line propagations skipped thanks to a clear writeback bit.
        pub propagation_skipped: u64,
        /// Skipped propagations that were correct (next level held the line).
        pub propagation_skip_correct: u64,
        /// Skipped propagations that were wrong.
        pub propagation_skip_wrong: u64,
        /// Clean-line propagations performed.
        pub propagations: u64,
    }
}

impl CommitMetrics {
    /// SUF filtering accuracy over all filtering decisions.
    pub fn suf_accuracy(&self) -> f64 {
        let correct = self.suf_drop_correct + self.propagation_skip_correct;
        let total = correct + self.suf_drop_wrong + self.propagation_skip_wrong;
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

counters! {
    /// Demand-miss classification at the prefetcher's level (Fig. 6).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct MissClassCounts {
        /// Classic late prefetch: demand merged onto an in-flight prefetch.
        pub late: u64,
        /// Commit-late: the on-access shadow had triggered the prefetch, the
        /// on-commit prefetcher triggered it only after the miss.
        pub commit_late: u64,
        /// Missed opportunity: the shadow covered it, on-commit never did.
        pub missed_opportunity: u64,
        /// Neither prefetcher would have covered it.
        pub uncovered: u64,
    }
}

impl MissClassCounts {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }
}

/// All metrics for one core.
#[derive(Clone, Debug, Default)]
pub struct CoreMetrics {
    /// Instructions counted in the measurement window.
    pub instructions: u64,
    /// Cycles in the measurement window.
    pub cycles: Cycle,
    /// Per-level traffic/miss counters.
    pub l1d: LevelMetrics,
    /// L2 counters.
    pub l2: LevelMetrics,
    /// LLC counters (this core's contribution).
    pub llc: LevelMetrics,
    /// DRAM reads+writes attributed to this core.
    pub dram_accesses: u64,
    /// GM accesses (every speculative load probes the GM).
    pub gm_accesses: u64,
    /// Prefetcher effectiveness.
    pub prefetch: PrefetchMetrics,
    /// Commit-path activity.
    pub commit: CommitMetrics,
    /// Fig. 6 classification.
    pub class: MissClassCounts,
    /// Wrong-path (transient) loads injected.
    pub wrong_path_loads: u64,
}

impl CoreMetrics {
    /// Field-wise accumulation over measured sampling windows. Cycles
    /// and instructions add too: the aggregate IPC is the
    /// window-population mean weighted by window cycles.
    pub fn accumulate(&mut self, o: &Self) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.l1d.accumulate(&o.l1d);
        self.l2.accumulate(&o.l2);
        self.llc.accumulate(&o.llc);
        self.dram_accesses += o.dram_accesses;
        self.gm_accesses += o.gm_accesses;
        self.prefetch.accumulate(&o.prefetch);
        self.commit.accumulate(&o.commit);
        self.class.accumulate(&o.class);
        self.wrong_path_loads += o.wrong_path_loads;
    }

    /// Instructions per cycle over the measurement window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Accesses per kilo-instruction at `level` (Fig. 3's APKI).
    pub fn apki(&self, level: CacheLevel) -> f64 {
        let m = match level {
            CacheLevel::L1d => &self.l1d,
            CacheLevel::L2 => &self.l2,
            CacheLevel::Llc => &self.llc,
            CacheLevel::Dram => {
                return self.dram_accesses as f64 * 1000.0 / self.instructions.max(1) as f64
            }
        };
        m.total_accesses() as f64 * 1000.0 / self.instructions.max(1) as f64
    }

    /// Demand misses per kilo-instruction at `level`.
    pub fn mpki(&self, level: CacheLevel) -> f64 {
        let m = match level {
            CacheLevel::L1d => &self.l1d,
            CacheLevel::L2 => &self.l2,
            CacheLevel::Llc => &self.llc,
            CacheLevel::Dram => return 0.0,
        };
        m.demand_misses as f64 * 1000.0 / self.instructions.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_buckets() {
        let mut m = LevelMetrics::default();
        m.record_access(AccessKind::Load);
        m.record_access(AccessKind::Store);
        m.record_access(AccessKind::Prefetch);
        m.record_access(AccessKind::CommitWrite);
        m.record_access(AccessKind::Refetch);
        m.record_access(AccessKind::Writeback);
        assert_eq!(m.demand_accesses, 2);
        assert_eq!(m.prefetch_accesses, 1);
        assert_eq!(m.commit_accesses, 2);
        assert_eq!(m.writeback_accesses, 1);
        assert_eq!(m.total_accesses(), 6);
    }

    #[test]
    fn derived_ratios() {
        let mut c = CoreMetrics {
            instructions: 2000,
            cycles: 1000,
            ..Default::default()
        };
        c.l1d.demand_accesses = 400;
        c.l1d.demand_misses = 50;
        assert!((c.ipc() - 2.0).abs() < 1e-9);
        assert!((c.apki(CacheLevel::L1d) - 200.0).abs() < 1e-9);
        assert!((c.mpki(CacheLevel::L1d) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_accuracy_and_lateness() {
        let p = PrefetchMetrics {
            issued: 100,
            useful: 60,
            late: 20,
            ..Default::default()
        };
        assert!((p.accuracy() - 0.8).abs() < 1e-9);
        assert!((p.lateness() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_yield_zero_not_nan() {
        // Every derived ratio must be well-defined on empty metrics:
        // 0/0 would be NaN and poison downstream geomeans.
        let m = LevelMetrics::default();
        assert_eq!(m.avg_miss_latency(), 0.0);
        let p = PrefetchMetrics::default();
        assert_eq!(p.accuracy(), 0.0);
        assert_eq!(p.lateness(), 0.0);
        let c = CoreMetrics::default();
        assert_eq!(c.ipc(), 0.0);
        // APKI/MPKI clamp the instruction count to ≥ 1 instead.
        assert_eq!(c.apki(CacheLevel::L1d), 0.0);
        assert_eq!(c.mpki(CacheLevel::L1d), 0.0);
        assert_eq!(c.apki(CacheLevel::Dram), 0.0);
        assert_eq!(c.mpki(CacheLevel::Dram), 0.0);
    }

    #[test]
    fn apki_clamps_zero_instructions() {
        // Accesses with zero retired instructions: the max(1) clamp makes
        // the rate finite (per-1000 of one instruction), not infinite.
        let mut c = CoreMetrics::default();
        c.l1d.demand_accesses = 7;
        c.dram_accesses = 3;
        assert!((c.apki(CacheLevel::L1d) - 7000.0).abs() < 1e-9);
        assert!((c.apki(CacheLevel::Dram) - 3000.0).abs() < 1e-9);
        assert!(c.apki(CacheLevel::L1d).is_finite());
    }

    #[test]
    fn accuracy_counts_late_prefetches_as_used() {
        let p = PrefetchMetrics {
            issued: 4,
            useful: 1,
            late: 3,
            ..Default::default()
        };
        assert!((p.accuracy() - 1.0).abs() < 1e-9);
        assert!((p.lateness() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn avg_miss_latency_is_exact_mean() {
        let m = LevelMetrics {
            miss_latency_sum: 10,
            miss_latency_count: 4,
            ..Default::default()
        };
        // 10/4 must not truncate to an integer mean.
        assert!((m.avg_miss_latency() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn suf_accuracy_mixes_both_decision_kinds() {
        let c = CommitMetrics {
            suf_drop_correct: 3,
            suf_drop_wrong: 1,
            propagation_skip_correct: 5,
            propagation_skip_wrong: 1,
            ..Default::default()
        };
        assert!((c.suf_accuracy() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn suf_accuracy_defaults_to_one() {
        assert_eq!(CommitMetrics::default().suf_accuracy(), 1.0);
        let c = CommitMetrics {
            suf_drop_correct: 99,
            suf_drop_wrong: 1,
            ..Default::default()
        };
        assert!((c.suf_accuracy() - 0.99).abs() < 1e-9);
    }
}
