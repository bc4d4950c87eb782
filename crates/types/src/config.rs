//! System configuration — the Table II baseline parameters of the paper,
//! expressed as plain data structures with builder-style setters.

use crate::Cycle;

/// Largest hit latency `validate` accepts for the L1D, L2 or LLC: every
/// timed step the hierarchy schedules is at most one cache latency ahead,
/// and the simulator's event wheel must reach that far.
pub const MAX_CACHE_LATENCY: Cycle = 1024;

/// Largest associativity `validate` accepts for the L1D, L2 or LLC: a
/// cache set keeps 16-bit LRU stamps, and renumbering a full set must
/// leave most of them free to hand out.
pub const MAX_CACHE_WAYS: usize = 1 << 15;

/// Out-of-order core parameters (Table II, "Core" row).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Instructions fetched/dispatched per cycle (6 in the baseline).
    pub fetch_width: usize,
    /// Instructions retired per cycle (4 in the baseline).
    pub retire_width: usize,
    /// Reorder-buffer entries (352 in the baseline).
    pub rob_entries: usize,
    /// Load-queue entries (128, matching the SUF/X-LQ sizing).
    pub lq_entries: usize,
    /// Extra pipeline depth between fetch and execute, modelling the
    /// decoupled front end (cycles an instruction waits before it may issue).
    pub dispatch_latency: Cycle,
    /// Pipeline-refill penalty after a branch misprediction, on top of
    /// waiting for the branch to resolve at execute.
    pub mispredict_penalty: Cycle,
    /// Maximum loads the core may issue to the memory system per cycle.
    pub load_issue_width: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 6,
            retire_width: 4,
            rob_entries: 352,
            lq_entries: 128,
            dispatch_latency: 4,
            mispredict_penalty: 12,
            load_issue_width: 2,
        }
    }
}

/// Replacement policy choice for a cache level (Table II baseline: LRU).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementChoice {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction.
    Srrip,
    /// Pseudo-random victims.
    Random,
}

/// Parameters for one cache level (Table II, L1D/L2/LLC rows).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub latency: Cycle,
    /// Number of miss status holding registers.
    pub mshrs: usize,
    /// Tag/data port bandwidth: accesses accepted per cycle. Demand loads,
    /// prefetches, commit writes, and re-fetches all compete for these slots
    /// — the contention mechanism behind Fig. 4/5 of the paper.
    pub ports_per_cycle: usize,
    /// Replacement policy (LRU in the Table II baseline).
    pub replacement: ReplacementChoice,
}

impl CacheConfig {
    /// Number of sets implied by size, ways, and the 64 B line size.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * crate::LINE_SIZE as usize)
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / crate::LINE_SIZE as usize
    }

    /// The baseline 48 KB, 12-way, 5-cycle, 16-MSHR L1D.
    pub fn baseline_l1d() -> Self {
        CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            latency: 5,
            mshrs: 16,
            ports_per_cycle: 2,
            replacement: ReplacementChoice::Lru,
        }
    }

    /// The baseline 512 KB, 8-way, 15-cycle, 32-MSHR L2.
    pub fn baseline_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            latency: 15,
            mshrs: 32,
            ports_per_cycle: 2,
            replacement: ReplacementChoice::Lru,
        }
    }

    /// The baseline 2 MB/16-way/35-cycle/64-MSHR LLC bank (one per core).
    ///
    /// The per-core scaling factor rounds up to a power of two so the set
    /// count stays a power of two for any core count (a 3- or 24-core mix
    /// gets the next larger LLC rather than a non-indexable one).
    pub fn baseline_llc(cores: usize) -> Self {
        let scale = cores.max(1).next_power_of_two();
        CacheConfig {
            size_bytes: 2 * 1024 * 1024 * scale,
            ways: 16,
            latency: 35,
            mshrs: 64 * scale,
            ports_per_cycle: 2 * scale,
            replacement: ReplacementChoice::Lru,
        }
    }
}

/// The GhostMinion GM (Table II, "GM" row): a fully associative
/// speculative-fill cache probed beside the L1D. Its 1-cycle hit is fixed
/// in the hierarchy; capacity is the one parameter the model reads.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GmConfig {
    /// Total capacity in bytes (2 KB in the baseline).
    pub size_bytes: usize,
}

impl GmConfig {
    /// Number of GM entries (64 B lines).
    pub fn lines(&self) -> usize {
        self.size_bytes / crate::LINE_SIZE as usize
    }
}

impl Default for GmConfig {
    fn default() -> Self {
        GmConfig {
            size_bytes: 2 * 1024,
        }
    }
}

/// DRAM timing parameters (Table II, DRAM row), in core cycles at 4 GHz.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of banks the channel interleaves over.
    pub banks: usize,
    /// Row-buffer size in bytes (4 KB open-page).
    pub row_bytes: usize,
    /// Row-precharge latency, cycles (12.5 ns at 4 GHz = 50).
    pub t_rp: Cycle,
    /// Row-to-column (activate) latency, cycles.
    pub t_rcd: Cycle,
    /// Column-access latency, cycles.
    pub t_cas: Cycle,
    /// Data-bus occupancy per 64 B transfer, cycles (6400 MT/s, 8 B bus:
    /// 64 B / (6.4 GT/s * 8 B) at 4 GHz ≈ 5 cycles).
    pub bus_cycles_per_line: Cycle,
    /// Maximum requests buffered in the memory controller per channel.
    pub queue_depth: usize,
    /// Write-queue high watermark as (num, den): writes drain when the
    /// write queue is ≥ num/den full (7/8 in the baseline).
    pub write_watermark: (usize, usize),
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            row_bytes: 4096,
            t_rp: 50,
            t_rcd: 50,
            t_cas: 50,
            bus_cycles_per_line: 5,
            queue_depth: 64,
            write_watermark: (7, 8),
        }
    }
}

/// Which hardware prefetcher is instantiated (Section VI / Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Classic IP-stride (the Intel/AMD L1D prefetcher), at L1D.
    IpStride,
    /// Instruction-pointer classifier prefetching (ISCA 2020), at L1D.
    Ipcp,
    /// Bingo spatial prefetcher (HPCA 2019), at L2.
    Bingo,
    /// Signature-path prefetcher + perceptron filter (ISCA 2019), at L2.
    SppPpf,
    /// Berti local-delta prefetcher (MICRO 2022), at L1D.
    Berti,
}

impl PrefetcherKind {
    /// All real prefetchers, in the order the paper's figures list them.
    pub const EVALUATED: [PrefetcherKind; 5] = [
        PrefetcherKind::IpStride,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Bingo,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Berti,
    ];

    /// True if the prefetcher observes and fills the L1D (IP-stride, IPCP,
    /// Berti); false for the L2 prefetchers (Bingo, SPP+PPF).
    pub const fn is_l1_prefetcher(self) -> bool {
        matches!(
            self,
            PrefetcherKind::IpStride | PrefetcherKind::Ipcp | PrefetcherKind::Berti
        )
    }

    /// Display name used in figures.
    pub const fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "No-Pref",
            PrefetcherKind::IpStride => "IP-Stride",
            PrefetcherKind::Ipcp => "IPCP",
            PrefetcherKind::Bingo => "Bingo",
            PrefetcherKind::SppPpf => "SPP+PPF",
            PrefetcherKind::Berti => "Berti",
        }
    }
}

impl std::fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When the prefetcher trains and triggers (Section III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// Train and trigger on (speculative) cache access — fast but insecure.
    OnAccess,
    /// Train and trigger at instruction commit — secure but commit-late.
    OnCommit,
}

impl PrefetchMode {
    /// Display name used in figures.
    pub const fn name(self) -> &'static str {
        match self {
            PrefetchMode::OnAccess => "on-access",
            PrefetchMode::OnCommit => "on-commit",
        }
    }
}

impl std::fmt::Display for PrefetchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the cache system is the non-secure baseline or GhostMinion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SecureMode {
    /// Conventional (insecure) cache hierarchy.
    NonSecure,
    /// GhostMinion invisible-speculation secure cache system.
    GhostMinion,
}

impl SecureMode {
    /// True for GhostMinion.
    pub const fn is_secure(self) -> bool {
        matches!(self, SecureMode::GhostMinion)
    }
}

/// Per-core policy knobs for heterogeneous multi-core mixes: which
/// prefetcher one core runs, when it trains, and whether that core's
/// speculation is secured. Geometry (cache sizes, DRAM timing, core
/// width) stays global — heterogeneity is about policy, matching the
/// attacker/victim co-scheduling scenarios where one hart runs a secure
/// victim while co-runners keep insecure fast paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CorePolicy {
    /// Secure or non-secure cache system for this core.
    pub secure: SecureMode,
    /// Which prefetcher this core runs.
    pub prefetcher: PrefetcherKind,
    /// On-access or on-commit training/triggering for this core.
    pub prefetch_mode: PrefetchMode,
    /// Secure Update Filter on this core (requires GhostMinion).
    pub suf: bool,
    /// Timely-secure wrapper on this core (requires on-commit + prefetcher).
    pub timely_secure: bool,
}

impl CorePolicy {
    /// The policy expressed by a config's top-level knobs.
    pub fn of(cfg: &SystemConfig) -> Self {
        CorePolicy {
            secure: cfg.secure,
            prefetcher: cfg.prefetcher,
            prefetch_mode: cfg.prefetch_mode,
            suf: cfg.suf,
            timely_secure: cfg.timely_secure,
        }
    }

    /// Validates this policy's internal consistency (same rules as the
    /// top-level knobs).
    pub fn validate(&self) -> Result<(), String> {
        if self.suf && !self.secure.is_secure() {
            return Err("SUF requires the GhostMinion secure cache system".into());
        }
        if self.timely_secure && self.prefetch_mode != PrefetchMode::OnCommit {
            return Err("timely-secure prefetching applies to on-commit mode".into());
        }
        if self.timely_secure && self.prefetcher == PrefetcherKind::None {
            return Err("timely-secure prefetching requires a prefetcher".into());
        }
        Ok(())
    }
}

/// Full single-core (or per-core) system configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// L1D parameters.
    pub l1d: CacheConfig,
    /// L2 parameters.
    pub l2: CacheConfig,
    /// LLC parameters (shared in multi-core).
    pub llc: CacheConfig,
    /// GM parameters (used only under GhostMinion).
    pub gm: GmConfig,
    /// DRAM parameters (shared in multi-core).
    pub dram: DramConfig,
    /// Secure or non-secure cache system.
    pub secure: SecureMode,
    /// Which prefetcher to run.
    pub prefetcher: PrefetcherKind,
    /// On-access or on-commit training/triggering.
    pub prefetch_mode: PrefetchMode,
    /// Enable the Secure Update Filter (paper contribution #1).
    pub suf: bool,
    /// Enable the timely-secure mechanism for the chosen prefetcher:
    /// TSB for Berti, lateness-adaptive distance for IP-stride/IPCP,
    /// skip-k for SPP+PPF, tempo for Bingo (paper contribution #2).
    pub timely_secure: bool,
    /// Number of cores sharing the LLC and DRAM.
    pub cores: usize,
    /// Optional per-core policy overrides for heterogeneous mixes. Empty
    /// means every core follows the top-level `secure`/`prefetcher`/
    /// `prefetch_mode`/`suf`/`timely_secure` knobs (the homogeneous case);
    /// non-empty must have exactly `cores` entries.
    pub per_core: Vec<CorePolicy>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::baseline(1)
    }
}

impl SystemConfig {
    /// The Table II baseline for `cores` cores, non-secure, no prefetching.
    pub fn baseline(cores: usize) -> Self {
        SystemConfig {
            core: CoreConfig::default(),
            l1d: CacheConfig::baseline_l1d(),
            l2: CacheConfig::baseline_l2(),
            llc: CacheConfig::baseline_llc(cores),
            gm: GmConfig::default(),
            dram: DramConfig::default(),
            secure: SecureMode::NonSecure,
            prefetcher: PrefetcherKind::None,
            prefetch_mode: PrefetchMode::OnAccess,
            suf: false,
            timely_secure: false,
            cores,
            per_core: Vec::new(),
        }
    }

    /// The effective policy for `core`: the per-core override when one is
    /// configured, otherwise the top-level knobs.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores` when per-core overrides are configured.
    pub fn policy(&self, core: usize) -> CorePolicy {
        if self.per_core.is_empty() {
            CorePolicy::of(self)
        } else {
            self.per_core[core]
        }
    }

    /// Sets per-core policy overrides (builder style). Pass an empty vec
    /// to return to homogeneous top-level knobs.
    pub fn with_core_policies(mut self, policies: Vec<CorePolicy>) -> Self {
        self.per_core = policies;
        self
    }

    /// Sets the secure mode (builder style).
    pub fn with_secure(mut self, secure: SecureMode) -> Self {
        self.secure = secure;
        self
    }

    /// Sets the prefetcher kind (builder style).
    pub fn with_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetcher = kind;
        self
    }

    /// Sets the prefetch mode (builder style).
    pub fn with_mode(mut self, mode: PrefetchMode) -> Self {
        self.prefetch_mode = mode;
        self
    }

    /// Enables/disables SUF (builder style).
    pub fn with_suf(mut self, on: bool) -> Self {
        self.suf = on;
        self
    }

    /// Enables/disables the timely-secure mechanism (builder style).
    pub fn with_timely_secure(mut self, on: bool) -> Self {
        self.timely_secure = on;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a parameter combination is
    /// meaningless (zero-sized structures, widths or queues, SUF without
    /// GhostMinion, timely-secure with on-access mode, non-power-of-two
    /// cache sets, a GM or DRAM row size that is not a whole number of
    /// lines, a cache latency above [`MAX_CACHE_LATENCY`] or an
    /// associativity above [`MAX_CACHE_WAYS`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be >= 1".into());
        }
        // A zero here stalls the core forever (the watchdog's livelock
        // panic) or divides by zero; each message names its field.
        for (field, value) in [
            ("core.fetch_width", self.core.fetch_width),
            ("core.retire_width", self.core.retire_width),
            ("core.rob_entries", self.core.rob_entries),
            ("core.lq_entries", self.core.lq_entries),
            ("core.load_issue_width", self.core.load_issue_width),
            ("dram.queue_depth", self.dram.queue_depth),
            ("dram.banks", self.dram.banks),
            (
                "dram.write_watermark denominator",
                self.dram.write_watermark.1,
            ),
        ] {
            if value == 0 {
                return Err(format!("{field} must be nonzero"));
            }
        }
        let gm_bytes = self.gm.size_bytes;
        if gm_bytes == 0 || !gm_bytes.is_multiple_of(crate::LINE_SIZE as usize) {
            return Err("gm.size_bytes must be a nonzero whole number of 64 B lines".into());
        }
        let row_bytes = self.dram.row_bytes;
        if row_bytes == 0 || !row_bytes.is_multiple_of(crate::LINE_SIZE as usize) {
            return Err("dram.row_bytes must be a nonzero whole number of 64 B lines".into());
        }
        for (name, c) in [("l1d", &self.l1d), ("l2", &self.l2), ("llc", &self.llc)] {
            if c.ways == 0 || c.mshrs == 0 || c.ports_per_cycle == 0 {
                return Err(format!("{name}: ways/mshrs/ports must be nonzero"));
            }
            if c.ways > MAX_CACHE_WAYS {
                return Err(format!("{name}.ways must be at most {MAX_CACHE_WAYS}"));
            }
            if c.sets() == 0 || !c.sets().is_power_of_two() {
                return Err(format!("{name}: set count must be a power of two"));
            }
            if c.latency > MAX_CACHE_LATENCY {
                return Err(format!(
                    "{name}.latency must be at most {MAX_CACHE_LATENCY} cycles"
                ));
            }
        }
        CorePolicy::of(self).validate()?;
        if !self.per_core.is_empty() {
            if self.per_core.len() != self.cores {
                return Err(format!(
                    "per_core has {} entries but cores = {}",
                    self.per_core.len(),
                    self.cores
                ));
            }
            for (i, p) in self.per_core.iter().enumerate() {
                p.validate().map_err(|e| format!("core {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_ii() {
        let c = SystemConfig::baseline(1);
        assert_eq!(c.l1d.size_bytes, 48 * 1024);
        assert_eq!(c.l1d.ways, 12);
        assert_eq!(c.l1d.latency, 5);
        assert_eq!(c.l1d.mshrs, 16);
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l1d.lines(), 768); // the SUF L2-writeback-bit count
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.gm.lines(), 32); // 2 KB GM
        assert_eq!(c.core.rob_entries, 352);
        assert_eq!(c.core.lq_entries, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn llc_scales_with_cores() {
        let c = SystemConfig::baseline(4);
        assert_eq!(c.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(c.llc.mshrs, 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_suf_without_ghostminion() {
        let c = SystemConfig::baseline(1).with_suf(true);
        assert!(c.validate().is_err());
        let c = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_ts_on_access() {
        let c = SystemConfig::baseline(1)
            .with_prefetcher(PrefetcherKind::Berti)
            .with_mode(PrefetchMode::OnAccess)
            .with_timely_secure(true);
        assert!(c.validate().is_err());
        let c = c.with_mode(PrefetchMode::OnCommit);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut c = SystemConfig::baseline(1);
        c.cores = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_configs_that_would_hang_or_panic() {
        // Before these checks each one spun into the livelock watchdog,
        // divided by zero, or tripped a constructor assert mid-build.
        type Edit = fn(&mut SystemConfig);
        let cases: [(&str, Edit); 12] = [
            ("core.lq_entries", |c| c.core.lq_entries = 0),
            ("core.rob_entries", |c| c.core.rob_entries = 0),
            ("core.fetch_width", |c| c.core.fetch_width = 0),
            ("core.retire_width", |c| c.core.retire_width = 0),
            ("core.load_issue_width", |c| c.core.load_issue_width = 0),
            ("dram.queue_depth", |c| c.dram.queue_depth = 0),
            ("dram.write_watermark", |c| c.dram.write_watermark = (7, 0)),
            ("dram.banks", |c| c.dram.banks = 0),
            ("dram.row_bytes", |c| c.dram.row_bytes = 32),
            ("gm.size_bytes", |c| c.gm.size_bytes = 0),
            ("l1d", |c| c.l1d.ways = 0),
            ("llc.ways", |c| c.llc.ways = MAX_CACHE_WAYS + 1),
        ];
        for (field, edit) in cases {
            let mut c = SystemConfig::baseline(1);
            edit(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn validate_accepts_max_cache_latency_and_rejects_one_cycle_more() {
        type Field = fn(&mut SystemConfig) -> &mut Cycle;
        let fields: [(&str, Field); 3] = [
            ("l1d", |c| &mut c.l1d.latency),
            ("l2", |c| &mut c.l2.latency),
            ("llc", |c| &mut c.llc.latency),
        ];
        for (name, field) in fields {
            let mut c = SystemConfig::baseline(1);
            *field(&mut c) = MAX_CACHE_LATENCY;
            assert!(c.validate().is_ok(), "{name} at the maximum");
            *field(&mut c) += 1;
            let err = c.validate().expect_err(name);
            assert!(err.contains(&format!("{name}.latency")), "{err}");
        }
    }

    #[test]
    fn gm_size_must_be_whole_lines() {
        let mut c = SystemConfig::baseline(1);
        c.gm.size_bytes = 64 * 48; // not a power of two: the GM is fully associative
        assert!(c.validate().is_ok());
        c.gm.size_bytes = 2 * 1024 + 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn llc_rounds_non_pow2_core_counts_up() {
        // 24 cores would give a non-power-of-two set count if scaled
        // linearly; the baseline rounds the scale to 32.
        let c = SystemConfig::baseline(24);
        assert_eq!(c.llc.size_bytes, 2 * 1024 * 1024 * 32);
        assert!(c.llc.sets().is_power_of_two());
        assert!(c.validate().is_ok());
        for cores in [1usize, 2, 4, 8, 16, 32, 64] {
            // Power-of-two counts are unchanged by the rounding.
            assert_eq!(
                CacheConfig::baseline_llc(cores).size_bytes,
                2 * 1024 * 1024 * cores
            );
        }
    }

    #[test]
    fn policy_defaults_to_top_level_knobs() {
        let c = SystemConfig::baseline(4)
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(PrefetcherKind::Berti)
            .with_mode(PrefetchMode::OnCommit)
            .with_suf(true);
        for core in 0..4 {
            assert_eq!(c.policy(core), CorePolicy::of(&c));
        }
        assert_eq!(c.policy(0).secure, SecureMode::GhostMinion);
        assert!(c.policy(0).suf);
    }

    #[test]
    fn per_core_policies_override_and_validate() {
        let secure = CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::IpStride,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            timely_secure: false,
        };
        let insecure = CorePolicy {
            secure: SecureMode::NonSecure,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnAccess,
            suf: false,
            timely_secure: false,
        };
        let c = SystemConfig::baseline(2).with_core_policies(vec![secure, insecure]);
        assert!(c.validate().is_ok());
        assert_eq!(c.policy(0), secure);
        assert_eq!(c.policy(1), insecure);

        // Wrong length is rejected.
        let c = SystemConfig::baseline(3).with_core_policies(vec![secure, insecure]);
        assert!(c.validate().is_err());

        // Per-core SUF without GhostMinion is rejected with the core index.
        let bad = CorePolicy {
            suf: true,
            ..insecure
        };
        let c = SystemConfig::baseline(2).with_core_policies(vec![secure, bad]);
        let err = c.validate().unwrap_err();
        assert!(err.contains("core 1"), "{err}");
    }

    #[test]
    fn prefetcher_level_placement() {
        assert!(PrefetcherKind::IpStride.is_l1_prefetcher());
        assert!(PrefetcherKind::Ipcp.is_l1_prefetcher());
        assert!(PrefetcherKind::Berti.is_l1_prefetcher());
        assert!(!PrefetcherKind::Bingo.is_l1_prefetcher());
        assert!(!PrefetcherKind::SppPpf.is_l1_prefetcher());
    }

    #[test]
    fn debug_repr_names_every_knob() {
        let c = SystemConfig::baseline(2)
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(PrefetcherKind::Berti)
            .with_mode(PrefetchMode::OnCommit)
            .with_suf(true)
            .with_timely_secure(true);
        let s = format!("{c:?}");
        assert!(s.contains("GhostMinion"));
        assert!(s.contains("Berti"));
        assert!(s.contains("OnCommit"));
    }

    #[test]
    fn configs_are_hashable_map_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<SystemConfig, u32> = HashMap::new();
        m.insert(SystemConfig::baseline(1), 1);
        m.insert(SystemConfig::baseline(2), 2);
        assert_eq!(m.get(&SystemConfig::baseline(1)), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
