//! `repro --profile`: where the simulator's host time goes, matrix-wide.
//!
//! Runs a pinned configuration × trace matrix once with the built-in
//! phase profiler on and merges the per-cell attributions into one
//! ranked table, with the detailed driver's work counts
//! ([`secpref_sim::DriverCounts`]) beside it. How *fast* the simulator
//! is belongs to the repo's benchmark (`benchmark/`, `BENCHMARK.json`);
//! this module only says where the time went.
//!
//! The matrix is deliberately small and fixed: the eighteen
//! configurations of the sampled differential
//! ([`secpref_check::sampling::diff_cells`]), which exercise every
//! distinct hot path (non-secure demand flow, on-access prefetch
//! injection, the GhostMinion GM + commit engine, SUF filtering on the
//! commit path, and the timely-secure variant of every prefetcher),
//! crossed with three trace classes (pointer-chasing, streaming,
//! graph-irregular), plus one sampled cell for the functional-warming
//! phase.

use crate::configs;
use secpref_sim::System;
use secpref_trace::suite;
use secpref_types::{PrefetcherKind, SystemConfig};

/// Warm-up window per cell, in instructions.
pub const WARMUP: u64 = 10_000;
/// Measurement window per cell, in instructions.
pub const MEASURE: u64 = 40_000;

/// The pinned trace axis: one representative per access-pattern class.
pub fn trace_matrix() -> Vec<&'static str> {
    vec!["mcf_like_a", "bwaves_like", "bfs_small"]
}

/// What `repro --profile` prints: the matrix-wide phase attribution
/// and, beside it, how much event handling the full-detail cells did.
#[derive(Clone, Debug)]
pub struct MatrixProfile {
    /// Wall time per phase, merged over every cell.
    pub phases: secpref_sim::ProfileReport,
    /// Request walks, ticked cycles, request records read for blocked
    /// requests and load-queue slots examined, summed over the
    /// full-detail cells (the sampled cell is left out: its cycle count
    /// covers only the detailed windows), and the longest wait list any
    /// of them saw.
    pub driver: secpref_sim::DriverCounts,
    /// Instructions (warm-up + measured) of the same cells: the base of
    /// walks per instruction.
    pub instructions: u64,
    /// Simulated cycles of the same cells: the base of the ticked share.
    pub cycles: u64,
}

impl MatrixProfile {
    fn merge_phases(&mut self, cell_name: &str, sys: &mut System, verbose: bool) {
        let cell = sys.profile_report();
        if verbose {
            eprintln!(
                "[profile] {cell_name}: {:.1} ms",
                cell.total().as_secs_f64() * 1e3
            );
        }
        self.phases.merge(&cell);
    }
}

impl std::fmt::Display for MatrixProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.phases)?;
        let d = &self.driver;
        write!(
            f,
            "detailed driver: {:.2} request walks/instr ({} over {} instrs), \
             {:.1}% of cycles ticked ({} of {}), wait-list high water {}, \
             {:.2} blocked-request record reads/instr ({}), \
             {:.2} load-queue slots examined/instr ({})",
            d.walks as f64 / self.instructions.max(1) as f64,
            d.walks,
            self.instructions,
            100.0 * d.ticked_cycles as f64 / self.cycles.max(1) as f64,
            d.ticked_cycles,
            self.cycles,
            d.wait_high_water,
            d.blocked_req_reads as f64 / self.instructions.max(1) as f64,
            d.blocked_req_reads,
            d.lq_slots_examined as f64 / self.instructions.max(1) as f64,
            d.lq_slots_examined,
        )
    }
}

/// Runs every `configs` × `traces` cell once with the phase profiler
/// enabled and returns the aggregated wall-time attribution; `repro
/// --profile` passes [`secpref_check::sampling::diff_cells`] and
/// [`trace_matrix`]. `verbose` prints one stderr line per cell.
///
/// Each cell simulates the full warm-up + measurement window exactly
/// once (no repetition — profiling wants attribution, not variance
/// control) and the per-cell profiles are merged into one ranked table.
pub fn run_profile(
    configs: &[(impl std::fmt::Display, SystemConfig)],
    traces: &[&str],
    verbose: bool,
) -> MatrixProfile {
    let window = WARMUP + MEASURE;
    let mut agg = MatrixProfile {
        phases: secpref_sim::ProfileReport::empty(),
        driver: secpref_sim::DriverCounts::default(),
        instructions: 0,
        cycles: 0,
    };
    for (label, cfg) in configs {
        for trace_name in traces {
            let trace = suite::cached_trace(trace_name, window as usize);
            let mut sys = System::new(cfg.clone(), vec![trace])
                .with_window(WARMUP, MEASURE)
                .with_profiling();
            sys.run();
            agg.merge_phases(&format!("{label} x {trace_name}"), &mut sys, verbose);
            let d = sys.driver_counts();
            agg.driver.walks += d.walks;
            agg.driver.ticked_cycles += d.ticked_cycles;
            agg.driver.wait_high_water = agg.driver.wait_high_water.max(d.wait_high_water);
            agg.driver.blocked_req_reads += d.blocked_req_reads;
            agg.driver.lq_slots_examined += d.lq_slots_examined;
            agg.instructions += window;
            agg.cycles += sys.cycles();
        }
    }
    // One sampled cell on top, so the functional-warming phase
    // (`funcwarm`) gets real attribution in the ranked table instead of
    // a zero row: the full-detail matrix never enters that phase.
    let cfg = configs::on_commit_suf(PrefetcherKind::IpStride);
    let trace = suite::cached_trace("mcf_like_a", window as usize);
    let s = secpref_types::SamplingConfig::new(2_000, 500, 47_500).with_jitter(300, 11);
    let mut sys = System::new(cfg, vec![trace])
        .with_window(WARMUP, 500_000)
        .with_profiling();
    sys.run_sampled(&s);
    let name = "ghostminion+suf/ip-stride-on-commit x mcf_like_a (sampled)";
    agg.merge_phases(name, &mut sys, verbose);
    agg
}

/// Renders an aggregated phase profile as Chrome trace-event JSON — the
/// same exporter the experiment engine uses for sweep span traces, so
/// `repro --profile` output loads in Perfetto alongside them. Phases
/// are laid end to end on one track as complete (`ph: "X"`) spans, in
/// report order, each annotated with its enter count.
pub fn profile_trace_json(report: &secpref_sim::ProfileReport) -> String {
    let mut tb = secpref_telemetry::TraceBuilder::new();
    tb.thread_name(0, "phases");
    let mut at_us = 0u64;
    for row in &report.rows {
        let dur = row.time.as_micros() as u64;
        let enters = row.enters.to_string();
        tb.complete(0, row.phase.name(), at_us, dur, &[("enters", &enters)]);
        at_us += dur;
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_trace_export_is_valid_and_ordered() {
        use secpref_sim::{Phase, ProfileReport, ProfileRow};
        use std::time::Duration;
        let report = ProfileReport {
            rows: vec![
                ProfileRow {
                    phase: Phase::Core,
                    time: Duration::from_micros(120),
                    enters: 7,
                },
                ProfileRow {
                    phase: Phase::Dram,
                    time: Duration::from_micros(30),
                    enters: 2,
                },
            ],
        };
        let json = profile_trace_json(&report);
        let stats = secpref_exp::validate_trace_json(&json).expect("profile trace must validate");
        // thread_name metadata + one X span per row.
        assert_eq!(stats.events, 3);
        assert_eq!(stats.tracks, 1);
        // Spans are laid end to end: second starts where the first ends.
        assert!(json.contains("\"ts\":0,\"dur\":120"), "{json}");
        assert!(json.contains("\"ts\":120,\"dur\":30"), "{json}");
        assert!(json.contains("\"enters\":\"7\""), "{json}");
    }

    #[test]
    fn empty_profile_trace_is_a_valid_shell() {
        use secpref_sim::ProfileReport;
        // An all-zero aggregation seed still carries one zero-length span
        // per phase (plus the track-name metadata record).
        let json = profile_trace_json(&ProfileReport::empty());
        let stats = secpref_exp::validate_trace_json(&json).expect("empty profile trace validates");
        assert_eq!(stats.tracks, 1);
        assert_eq!(stats.events, 1 + secpref_sim::PHASES);
    }

    #[test]
    fn one_cell_profile_covers_every_phase() {
        // The smallest run of what `repro --profile` does: one
        // full-detail cell plus the sampled cell.
        let cells = [("ghostminion/nopf", configs::secure_nopref())];
        let p = run_profile(&cells, &["bfs_small"], false);
        for phase in secpref_sim::ProfileReport::empty().rows {
            let name = phase.phase.name();
            assert!(
                p.phases.rows.iter().any(|r| r.phase == phase.phase),
                "{name}"
            );
            assert!(p.to_string().contains(name), "{name}");
        }
        let funcwarm = p
            .phases
            .rows
            .iter()
            .find(|r| r.phase == secpref_sim::Phase::FuncWarm);
        assert!(funcwarm.expect("funcwarm row").time > std::time::Duration::ZERO);
        // Driver counts cover the full-detail cell only.
        assert_eq!(p.instructions, WARMUP + MEASURE);
        assert!(p.driver.walks > 0 && p.driver.ticked_cycles > 0);
        assert!(p.to_string().contains("detailed driver:"));
        secpref_exp::validate_trace_json(&profile_trace_json(&p.phases))
            .expect("profile trace must validate");
    }

    #[test]
    fn matrix_axes_are_known() {
        for t in trace_matrix() {
            assert!(suite::trace_by_name(t).is_some(), "{t}");
        }
        for (_, cfg) in secpref_check::sampling::diff_cells() {
            assert!(cfg.validate().is_ok());
        }
    }
}
