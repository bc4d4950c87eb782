//! Online invariant auditing over a recorder capture.
//!
//! The auditor consumes what a single-core, single-pass run (window
//! `(0, trace_len)`, the recorder armed from cycle 0) already produces —
//! the [`SimReport`] counters and the [`ObsCapture`] event counts,
//! histograms and epochs — and checks the conservation laws that must
//! hold for *any* trace:
//!
//! 1. **Commit reconciliation** (secure): every retired load takes exactly
//!    one commit action, so `suf_dropped + commit_writes + refetches`
//!    equals the trace's load count.
//! 2. **GM fill accounting** (secure): every demand load served beyond the
//!    L1D inserts into the GM, so `GmSpecFill` events equal the L1D
//!    miss-latency sample count exactly.
//! 3. **Correctness-score completeness**: SUF drop and propagation-skip
//!    decisions are each scored correct or wrong, never unscored.
//! 4. **Resource bounds**: every MSHR high-water mark is within its
//!    configured capacity; misses never exceed accesses; prefetch fills
//!    never exceed issues; useful/late classifications never exceed
//!    demand accesses and useless evictions never exceed prefetch fills.
//! 5. **Mode hygiene**: a non-secure run performs no GM accesses, no GM
//!    fills and no commit-path work at all.
//! 6. **Histogram reconciliation** (rules `tel-*`): histograms record at
//!    the exact program points that increment the report counters and
//!    arm at the same boundary, so the equalities are exact, not bounds —
//!    the timeliness histograms count the prefetch useful/late/useless
//!    counters, the recorder's demand mirror equals the L1D
//!    demand-access counter, and that mirror equals the load-latency
//!    samples plus the demand accesses still in flight at capture.
//! 7. **Epoch partition** (`epoch-partition`): the finish boundary closes
//!    the last epoch, so the rows split the measured window and every
//!    epoch column sums to its report counter — the core's and, with the
//!    recorder armed from cycle 0, the DRAM channel's. `class_*` is
//!    exempt: the classifier spans warm-up and drains its pending misses
//!    at finalize (DESIGN.md §5).

use secpref_obs::EventKind;
use secpref_sim::{ObsCapture, SimReport};
use secpref_types::SystemConfig;

/// One failed invariant.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable invariant name (what tier-1 greps for).
    pub invariant: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

macro_rules! check_eq {
    ($out:ident, $name:literal, $got:expr, $want:expr) => {
        if $got != $want {
            $out.push(Violation {
                invariant: $name,
                detail: format!(
                    "{} = {} but {} = {}",
                    stringify!($got),
                    $got,
                    stringify!($want),
                    $want
                ),
            });
        }
    };
}

macro_rules! check_le {
    ($out:ident, $name:literal, $lhs:expr, $rhs:expr) => {
        if $lhs > $rhs {
            $out.push(Violation {
                invariant: $name,
                detail: format!(
                    "{} = {} exceeds {} = {}",
                    stringify!($lhs),
                    $lhs,
                    stringify!($rhs),
                    $rhs
                ),
            });
        }
    };
}

/// Audits one single-core run executed with `with_window(0, trace_len)`
/// and observability enabled. `retired_loads` is the trace's (correct
/// path) load count. Returns every violated invariant; an empty vector
/// means the run is clean.
pub fn audit_run(
    cfg: &SystemConfig,
    report: &SimReport,
    capture: &ObsCapture,
    retired_loads: u64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let m = &report.cores[0];
    let rec = |k: EventKind| capture.recorded(k);

    if cfg.secure.is_secure() {
        // (1) Every retired load commits exactly one action.
        let commits = m.commit.suf_dropped + m.commit.commit_writes + m.commit.refetches;
        check_eq!(out, "commit-reconciliation", commits, retired_loads);
        // (2) Speculative GM fills are exactly the L1D demand misses.
        check_eq!(
            out,
            "gm-fill-accounting",
            rec(EventKind::GmSpecFill),
            m.l1d.miss_latency_count
        );
    } else {
        // (5) Non-secure runs must not touch the commit path or the GM.
        check_eq!(out, "nonsecure-no-gm", m.gm_accesses, 0u64);
        check_eq!(
            out,
            "nonsecure-no-commit-path",
            m.commit.suf_dropped
                + m.commit.commit_writes
                + m.commit.refetches
                + m.commit.propagations
                + m.commit.propagation_skipped,
            0u64
        );
        check_eq!(
            out,
            "nonsecure-no-commit-events",
            rec(EventKind::GmSpecFill),
            0u64
        );
    }

    // (3) Every filtered decision carries a correctness score.
    check_eq!(
        out,
        "suf-drop-scoring",
        m.commit.suf_drop_correct + m.commit.suf_drop_wrong,
        m.commit.suf_dropped
    );
    check_eq!(
        out,
        "propagation-skip-scoring",
        m.commit.propagation_skip_correct + m.commit.propagation_skip_wrong,
        m.commit.propagation_skipped
    );

    // (4) Resource bounds and flow inequalities.
    for (label, hw) in &capture.mshr_high_water {
        let cap = if label.starts_with("l1d") {
            cfg.l1d.mshrs
        } else if label.starts_with("l2") {
            cfg.l2.mshrs
        } else if label.starts_with("llc") {
            cfg.llc.mshrs
        } else {
            out.push(Violation {
                invariant: "mshr-capacity",
                detail: format!("unknown MSHR label {label:?}"),
            });
            continue;
        };
        if *hw > cap as u64 {
            out.push(Violation {
                invariant: "mshr-capacity",
                detail: format!("{label} high water {hw} exceeds capacity {cap}"),
            });
        }
    }
    for (name, lvl) in [("l1d", &m.l1d), ("l2", &m.l2), ("llc", &m.llc)] {
        if lvl.demand_misses > lvl.demand_accesses {
            out.push(Violation {
                invariant: "misses-within-accesses",
                detail: format!(
                    "{name}: {} misses > {} accesses",
                    lvl.demand_misses, lvl.demand_accesses
                ),
            });
        }
    }
    check_le!(
        out,
        "l1d-miss-samples",
        m.l1d.miss_latency_count,
        m.l1d.demand_accesses
    );
    check_le!(
        out,
        "prefetch-issue-flow",
        m.prefetch.issued,
        m.prefetch.proposed
    );
    check_le!(
        out,
        "prefetch-fill-flow",
        rec(EventKind::PrefetchFill),
        m.prefetch.issued
    );
    // Classification events are per *demand interaction*, not per issued
    // prefetch — one prefetch can be merged onto by a demand (late) and
    // its filled line later hit by another (useful) — so their sum is not
    // bounded by `issued`. What is sound: a run that issued no prefetches
    // classifies nothing, each demand request is classified at most once
    // (it stops at its first hit or merge), and every useless eviction
    // consumes one prefetched fill.
    if m.prefetch.issued == 0 {
        check_eq!(
            out,
            "prefetch-classification-flow",
            m.prefetch.useful + m.prefetch.late + m.prefetch.useless,
            0u64
        );
    }
    check_le!(
        out,
        "prefetch-useful-late-flow",
        m.prefetch.useful + m.prefetch.late,
        m.l1d.demand_accesses
    );
    check_le!(
        out,
        "prefetch-useless-flow",
        m.prefetch.useless,
        rec(EventKind::PrefetchFill)
    );

    // (6) Histograms reconcile exactly with their counters.
    let h = &capture.hists;
    check_eq!(
        out,
        "tel-useful-count",
        h.pf_useful.count(),
        m.prefetch.useful
    );
    check_eq!(out, "tel-late-count", h.pf_late.count(), m.prefetch.late);
    check_eq!(
        out,
        "tel-useless-count",
        h.pf_useless.count(),
        m.prefetch.useless
    );
    let completed: u64 = h.load_latency.iter().map(|l| l.count()).sum();
    check_eq!(
        out,
        "tel-demand-conservation",
        h.demand_accesses,
        completed + h.unfinished_demands
    );
    check_eq!(
        out,
        "tel-demand-mirror",
        h.demand_accesses,
        m.l1d.demand_accesses
    );

    // (7) The epoch rows partition the run.
    let ep = &capture.epochs;
    let counters: Vec<u64> = m.values().into_iter().chain(report.dram.values()).collect();
    check_eq!(out, "epoch-partition", ep.columns.len(), counters.len());
    for (i, (name, &want)) in ep.columns.iter().zip(&counters).enumerate() {
        let got: u64 = ep.rows.iter().map(|r| r.values[i]).sum();
        if got != want && !name.starts_with("class_") {
            out.push(Violation {
                invariant: "epoch-partition",
                detail: format!("epoch column {name} sums to {got} but the report has {want}"),
            });
        }
    }

    out
}

/// Audits a SMARTS-sampled report's internal reconciliation.
///
/// A sampled report's counters are accumulated over the measured windows
/// only, so the report and its sampling block must agree with each other
/// and with the plan that produced them:
///
/// - at least one window was measured, of the configured length;
/// - `measured_instructions` equals the per-core instruction counters
///   summed (the counters cover exactly the measured windows);
/// - each window retires `window..window + retire_width - 1` instructions
///   per core (the retire stage does not stop mid-group), bounding the
///   total measured instructions on both sides;
/// - every interval estimate is finite with non-negative dispersion, and
///   the IPC estimate has exactly one sample per window;
/// - the functional fast path actually ran (a sampled run that never left
///   detailed mode is a scheduling bug, not a faster simulation).
pub fn audit_sampled(cfg: &SystemConfig, report: &SimReport) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(sm) = report.sampling.as_ref() else {
        out.push(Violation {
            invariant: "sampled-block-present",
            detail: "report carries no sampling block".to_string(),
        });
        return out;
    };
    check_le!(out, "sampled-window-count", 1u64, sm.windows);
    let total: u64 = report.cores.iter().map(|c| c.instructions).sum();
    check_eq!(
        out,
        "sampled-counter-scope",
        total,
        sm.measured_instructions
    );
    let cores = report.cores.len() as u64;
    let overshoot = cfg.core.retire_width as u64 - 1;
    let lo = sm.windows * sm.window_len * cores;
    let hi = sm.windows * (sm.window_len + overshoot) * cores;
    check_le!(out, "sampled-window-coverage", lo, sm.measured_instructions);
    check_le!(out, "sampled-window-coverage", sm.measured_instructions, hi);
    check_eq!(out, "sampled-ipc-samples", sm.ipc.n, sm.windows);
    check_le!(
        out,
        "sampled-functional-ran",
        1u64,
        sm.functional_instructions
    );
    for (name, st) in [
        ("ipc", &sm.ipc),
        ("mpki_l1d", &sm.mpki_l1d),
        ("pf_accuracy", &sm.pf_accuracy),
    ] {
        let finite = st.mean.is_finite() && st.stderr.is_finite() && st.ci_half.is_finite();
        let non_negative = st.mean >= 0.0 && st.stderr >= 0.0 && st.ci_half >= 0.0;
        if !finite || !non_negative {
            out.push(Violation {
                invariant: "sampled-ci-finite",
                detail: format!("{name}: {st:?} must be finite and non-negative"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_sim::{ObsConfig, System};
    use secpref_trace::{Instr, Trace};
    use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode};
    use std::sync::Arc;

    fn small_trace() -> Arc<Trace> {
        // Chained dependent loads: with independent loads the whole trace
        // issues into the OoO window before any DRAM response returns, so
        // every reuse merges onto the in-flight cold miss and SUF never
        // sees an L1D-served commit. The chain serializes issue so later
        // passes observe the hierarchy that earlier commits restored.
        let mut instrs: Vec<Instr> = Vec::new();
        let mut last_load: Option<usize> = None;
        for i in 0..120u64 {
            let dep = last_load.map_or(0, |l| instrs.len() - l) as u16;
            last_load = Some(instrs.len());
            instrs.push(Instr::load_dep(0x400 + i, 0x1_0000 + (i % 24) * 64, dep));
            instrs.push(Instr::alu(0x800 + i));
            if i % 7 == 0 {
                instrs.push(Instr::branch(0xc00 + i, true));
            }
        }
        Arc::new(Trace::new("audit-small", instrs))
    }

    fn run_and_audit(cfg: SystemConfig) -> (Vec<Violation>, u64) {
        let trace = small_trace();
        let n = trace.instrs.len() as u64;
        let loads = trace.load_count() as u64;
        let mut sys = System::new(cfg.clone(), vec![trace])
            .with_window(0, n)
            .with_obs(&ObsConfig::enabled());
        sys.run();
        let capture = sys.take_obs().expect("obs enabled");
        (audit_run(&cfg, &sys.report(), &capture, loads), loads)
    }

    #[test]
    fn clean_secure_run_passes() {
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true)
            .with_prefetcher(PrefetcherKind::IpStride)
            .with_mode(PrefetchMode::OnCommit);
        let (violations, _) = run_and_audit(cfg);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn clean_nonsecure_run_passes() {
        let cfg = SystemConfig::baseline(1).with_prefetcher(PrefetcherKind::Berti);
        let (violations, _) = run_and_audit(cfg);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn auditor_flags_a_missing_suf_drop() {
        // Meta-test: falsify the counters a run produced and the auditor
        // must notice both the reconciliation and the scoring breaks.
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true);
        let trace = small_trace();
        let n = trace.instrs.len() as u64;
        let loads = trace.load_count() as u64;
        let mut sys = System::new(cfg.clone(), vec![trace])
            .with_window(0, n)
            .with_obs(&ObsConfig::enabled());
        sys.run();
        let capture = sys.take_obs().unwrap();
        let mut report = sys.report();
        assert!(report.cores[0].commit.suf_dropped > 0, "vacuous meta-test");
        report.cores[0].commit.suf_dropped -= 1; // the injected bug
        let violations = audit_run(&cfg, &report, &capture, loads);
        let names: Vec<_> = violations.iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"commit-reconciliation"), "{names:?}");
        assert!(names.contains(&"suf-drop-scoring"), "{names:?}");
    }

    #[test]
    fn sampled_audit_passes_and_flags_injected_skew() {
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true)
            .with_prefetcher(PrefetcherKind::IpStride)
            .with_mode(PrefetchMode::OnCommit);
        let trace = small_trace();
        let s = secpref_types::SamplingConfig::new(400, 100, 300).with_jitter(50, 3);
        let mut sys = System::new(cfg.clone(), vec![trace]).with_window(0, 8_000);
        sys.run_sampled(&s);
        let good = sys.report();
        assert!(
            audit_sampled(&cfg, &good).is_empty(),
            "{:?}",
            audit_sampled(&cfg, &good)
        );

        // A full-detail report has no sampling block to audit.
        let mut bare = good.clone();
        bare.sampling = None;
        let names: Vec<_> = audit_sampled(&cfg, &bare)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert_eq!(names, ["sampled-block-present"]);

        // Counter scope: counters leaking activity outside the measured
        // windows (or dropping some) break the window-sum equality.
        let mut skewed = good.clone();
        skewed.cores[0].instructions += 1;
        let names: Vec<_> = audit_sampled(&cfg, &skewed)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(names.contains(&"sampled-counter-scope"), "{names:?}");

        // Window geometry: claiming more windows than the instructions
        // can cover violates windows * window_len <= measured.
        let mut short = good.clone();
        short.sampling.as_mut().unwrap().windows += 1;
        let names: Vec<_> = audit_sampled(&cfg, &short)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(names.contains(&"sampled-window-coverage"), "{names:?}");
        assert!(names.contains(&"sampled-ipc-samples"), "{names:?}");

        // CI hygiene: non-finite interval estimates must be flagged.
        let mut nan = good;
        nan.sampling.as_mut().unwrap().mpki_l1d.stderr = f64::NAN;
        let names: Vec<_> = audit_sampled(&cfg, &nan)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(names.contains(&"sampled-ci-finite"), "{names:?}");
    }

    #[test]
    fn telemetry_audit_passes_and_flags_injected_skew() {
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true)
            .with_prefetcher(PrefetcherKind::IpStride)
            .with_mode(PrefetchMode::OnCommit);
        let trace = small_trace();
        let n = trace.instrs.len() as u64;
        let loads = trace.load_count() as u64;
        let mut sys = System::new(cfg.clone(), vec![trace])
            .with_window(0, n)
            .with_obs(&ObsConfig::enabled());
        sys.run();
        let mut cap = sys.take_obs().expect("obs enabled");
        let mut report = sys.report();
        assert!(cap.hists.demand_accesses > 0, "vacuous meta-test");
        assert!(audit_run(&cfg, &report, &cap, loads).is_empty());
        // A GM fill the recorder counted and no L1D miss accounts for.
        cap.recorded[EventKind::GmSpecFill.index()] += 1;
        let names: Vec<_> = audit_run(&cfg, &report, &cap, loads)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert_eq!(names, ["gm-fill-accounting"]);
        cap.recorded[EventKind::GmSpecFill.index()] -= 1;
        // Falsify a counter: the auditor must notice the skew.
        report.cores[0].prefetch.useful += 1;
        report.cores[0].l1d.demand_accesses += 1;
        let names: Vec<_> = audit_run(&cfg, &report, &cap, loads)
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(names.contains(&"tel-useful-count"), "{names:?}");
        assert!(names.contains(&"tel-demand-mirror"), "{names:?}");
    }

    #[test]
    fn epoch_partition_passes_and_flags_injected_skew() {
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true)
            .with_prefetcher(PrefetcherKind::IpStride)
            .with_mode(PrefetchMode::OnCommit);
        let trace = small_trace();
        let n = trace.instrs.len() as u64;
        let loads = trace.load_count() as u64;
        // Epochs shorter than the run, so the partition has several rows.
        let mut sys = System::new(cfg.clone(), vec![trace])
            .with_window(0, n)
            .with_obs(&ObsConfig::enabled().with_epoch_interval(n / 3));
        sys.run();
        let mut cap = sys.take_obs().expect("obs enabled");
        let mut report = sys.report();
        assert!(cap.epochs.rows.len() >= 3, "vacuous meta-test");
        assert!(audit_run(&cfg, &report, &cap, loads).is_empty());
        let names = |report: &SimReport, cap: &ObsCapture| -> Vec<&'static str> {
            audit_run(&cfg, report, cap, loads)
                .iter()
                .map(|v| v.invariant)
                .collect()
        };
        // A counter bumped outside every epoch breaks the partition...
        report.cores[0].l1d.port_stalls += 1;
        assert_eq!(names(&report, &cap), ["epoch-partition"]);
        report.cores[0].l1d.port_stalls -= 1;
        // ...and so does a row that lost part of its delta, DRAM included.
        let col = cap.epochs.columns.iter().position(|c| c == "dram_reads");
        cap.epochs.rows[1].values[col.expect("dram_reads column")] += 1;
        assert_eq!(names(&report, &cap), ["epoch-partition"]);
    }
}
