//! Sampled-vs-full differential validation (`repro --sampled`).
//!
//! Every pinned cell of the fuzz matrix — the 13 [`cells`]
//! labels plus the five timely-secure GhostMinion+SUF configurations —
//! runs the same pinned trace twice: once in full detail and once in
//! SMARTS sampled mode, both with a warmed reference window. The sampled
//! IPC must land within 2% of the full-detail IPC *and* the full-detail
//! IPC must fall inside the sampled run's own reported 95% confidence
//! interval; the sampled report must additionally pass the
//! [`audit_sampled`] reconciliation rules.
//!
//! The trace axis comes from the workload suite, not the fuzzer: the
//! fuzz traces loop a footprint that fits in the L1, so in steady state
//! every configuration collapses to the same IPC and the differential
//! would not exercise config-dependent behavior at all. The suite
//! traces below (pointer-chasing mcf, event-queue omnetpp, irregular
//! GAP BFS) keep the memory hierarchy, GhostMinion, and the prefetchers
//! live across the measured windows while staying stationary enough for
//! SMARTS at this scale. Streaming kernels (pr_large, stride-heavy SPEC
//! traces) are deliberately absent: instant prefetch fills during
//! functional warming let an aggressive prefetcher run ahead for free,
//! biasing sampled IPC up by far more than 2% (Bingo on pr_large reads
//! ~40% high) — the known SMARTS caveat that functional warming cannot
//! model prefetch timeliness or bandwidth contention.
//!
//! Both runs use a 40k-instruction warm-up. The reference must be warmed:
//! on traces this short, full detail at warm-up 0 still carries the
//! cold-start transient (the GhostMinion commit-write/refetch carousel
//! decays over tens of thousands of instructions), which is precisely the
//! state functional warming exists to fast-forward. Comparing against an
//! unwarmed reference would mis-attribute that transient to sampling
//! error (DESIGN.md §14).

use crate::fuzz::cells;
use crate::invariants::audit_sampled;
use secpref_sim::System;
use secpref_trace::suite;
use secpref_types::{PrefetchMode, PrefetcherKind, SamplingConfig, SecureMode, SystemConfig};

/// Relative IPC error bound for the differential.
pub const MAX_IPC_ERROR: f64 = 0.02;

/// Warm-up and measurement window (instructions) both runs use.
pub const WINDOW: (u64, u64) = (40_000, 160_000);

/// The differential's trace axis: memory-bound suite workloads with
/// working sets past the LLC, so secure-mode and prefetcher choices
/// change the measured IPC (see the module docs).
pub const TRACES: [&str; 3] = ["mcf_like_a", "omnetpp_like", "bfs_small"];

/// The pinned sampling plan of the differential.
pub fn plan() -> SamplingConfig {
    SamplingConfig::new(2_000, 500, 3_500).with_jitter(300, 11)
}

/// The differential's cell axis: every fuzz-matrix configuration plus
/// the five timely-secure GhostMinion+SUF cells — 18 in total.
pub fn diff_cells() -> Vec<(String, SystemConfig)> {
    let mut out: Vec<(String, SystemConfig)> =
        cells().into_iter().map(|c| (c.label, c.cfg)).collect();
    for kind in [
        PrefetcherKind::IpStride,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Bingo,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Berti,
    ] {
        out.push((
            format!("ts+suf/{}", kind.name()),
            SystemConfig::baseline(1)
                .with_secure(SecureMode::GhostMinion)
                .with_prefetcher(kind)
                .with_mode(PrefetchMode::OnCommit)
                .with_timely_secure(true)
                .with_suf(true),
        ));
    }
    out
}

/// Outcome of one cell × trace combination.
#[derive(Clone, Debug)]
pub struct SampledDiffCell {
    /// Cell label.
    pub label: String,
    /// Suite trace name.
    pub trace: String,
    /// Full-detail IPC (the reference).
    pub full_ipc: f64,
    /// Sampled-mode IPC point estimate.
    pub sampled_ipc: f64,
    /// `|sampled - full| / full`.
    pub rel_error: f64,
    /// Half-width of the sampled run's 95% CI on IPC.
    pub ci_half: f64,
    /// Whether the full-detail IPC lies inside the sampled CI.
    pub in_ci: bool,
    /// Detailed windows the sampled run measured.
    pub windows: u64,
    /// Audit violations raised against the sampled report.
    pub violations: Vec<String>,
}

impl SampledDiffCell {
    /// Whether this combination passes all three gates.
    pub fn ok(&self) -> bool {
        self.rel_error < MAX_IPC_ERROR && self.in_ci && self.violations.is_empty()
    }
}

/// Result of a full differential run.
#[derive(Clone, Debug)]
pub struct SampledDiffSummary {
    /// Per-combination outcomes, in deterministic (cell, trace) order.
    pub cells: Vec<SampledDiffCell>,
}

impl SampledDiffSummary {
    /// Whether every combination passed.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(SampledDiffCell::ok)
    }

    /// The largest relative IPC error observed.
    pub fn worst_error(&self) -> f64 {
        self.cells.iter().map(|c| c.rel_error).fold(0.0, f64::max)
    }

    /// Failing combinations.
    pub fn failures(&self) -> impl Iterator<Item = &SampledDiffCell> {
        self.cells.iter().filter(|c| !c.ok())
    }
}

fn run_one(label: &str, cfg: &SystemConfig, trace_name: &str) -> SampledDiffCell {
    let (warm, meas) = WINDOW;
    let s = plan();
    let trace = suite::cached_trace(trace_name, (warm + meas) as usize);
    let mut full_sys = System::new(cfg.clone(), vec![trace.clone()]).with_window(warm, meas);
    full_sys.run();
    let full = full_sys.report();
    let mut sampled_sys = System::new(cfg.clone(), vec![trace]).with_window(warm, meas);
    sampled_sys.run_sampled(&s);
    let report = sampled_sys.report();
    let summary = report
        .sampling
        .clone()
        .expect("sampled run carries a sampling summary");
    let rel_error = (report.ipc() - full.ipc()).abs() / full.ipc();
    let violations = audit_sampled(cfg, &report)
        .into_iter()
        .map(|v| v.to_string())
        .collect();
    SampledDiffCell {
        label: label.to_string(),
        trace: trace_name.to_string(),
        full_ipc: full.ipc(),
        sampled_ipc: report.ipc(),
        rel_error,
        ci_half: summary.ipc.ci_half,
        in_ci: (full.ipc() - report.ipc()).abs() <= summary.ipc.ci_half,
        windows: summary.windows,
        violations,
    }
}

/// Runs the sampled-vs-full differential over the pinned matrix.
///
/// `quick` restricts the run to three representative cells × one trace
/// (the slice `cargo test` runs); the full run covers all 18 cells × the
/// three [`TRACES`]. Combinations fan out across `workers` pool
/// threads; the result order is deterministic for any worker count.
pub fn run_sampled_differential(quick: bool, workers: usize) -> SampledDiffSummary {
    let all = diff_cells();
    let cells: Vec<(String, SystemConfig)> = if quick {
        // One non-secure anchor, one GhostMinion+SUF prefetcher cell, and
        // one timely-secure cell: the three distinct sampled code paths.
        let want = [
            "nonsecure/IP-Stride",
            "ghostminion+suf/Berti",
            "ts+suf/IP-Stride",
        ];
        all.into_iter()
            .filter(|(l, _)| want.contains(&l.as_str()))
            .collect()
    } else {
        all
    };
    let traces: &[&str] = if quick { &TRACES[..1] } else { &TRACES };
    let combos: Vec<(String, SystemConfig, &str)> = cells
        .iter()
        .flat_map(|(l, c)| traces.iter().map(move |&t| (l.clone(), c.clone(), t)))
        .collect();
    let results = secpref_exp::pool::run_items(
        &combos,
        workers.max(1),
        |(label, cfg, trace)| run_one(label, cfg, trace),
        |_, _, _, _| {},
    );
    SampledDiffSummary {
        cells: results.into_iter().map(|(c, _)| c).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_differential_passes() {
        let summary = run_sampled_differential(true, 2);
        assert_eq!(summary.cells.len(), 3, "quick mode runs 3 cells x 1 trace");
        for c in &summary.cells {
            assert!(
                c.ok(),
                "{} x {}: err {:.4} ci ±{:.4} in_ci {} violations {:?}",
                c.label,
                c.trace,
                c.rel_error,
                c.ci_half,
                c.in_ci,
                c.violations
            );
        }
    }

    #[test]
    fn quick_cells_exercise_config_differences() {
        // The reason the trace axis is the suite and not the fuzzer:
        // configurations must actually produce different reference IPCs.
        let summary = run_sampled_differential(true, 2);
        let ipcs: Vec<u64> = summary.cells.iter().map(|c| c.full_ipc.to_bits()).collect();
        assert!(
            ipcs.windows(2).any(|w| w[0] != w[1]),
            "all quick cells produced identical full-detail IPC: {ipcs:?}"
        );
    }

    #[test]
    fn differential_is_deterministic_across_worker_counts() {
        let a = run_sampled_differential(true, 1);
        let b = run_sampled_differential(true, 4);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.trace, y.trace);
            assert_eq!(x.full_ipc.to_bits(), y.full_ipc.to_bits());
            assert_eq!(x.sampled_ipc.to_bits(), y.sampled_ipc.to_bits());
        }
    }

    #[test]
    fn full_matrix_has_18_cells() {
        assert_eq!(diff_cells().len(), 18);
    }
}
