//! Differential proof that the run loop's idle-cycle fast-forward is
//! exact: the same system run with and without skipping must produce an
//! identical [`secpref_sim::System::report`] and finish on the identical
//! cycle. Complements the pinned report digests (which run with the
//! fast-forward on, against pins recorded before it existed).
//!
//! Observability runs fast-forward too, so the same differential is made
//! on their captures: every stored event, the per-kind recorded and
//! dropped totals, every epoch row and the MSHR high-water marks.

use secpref_sim::{ObsCapture, ObsConfig, SimReport, System};
use secpref_trace::{Instr, Trace};
use secpref_types::{
    CorePolicy, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig, MAX_CACHE_LATENCY,
};
use std::sync::Arc;

/// Deterministic mixed trace: strided and scattered loads (cache misses
/// with long DRAM round-trips → real idle spans), dependent-load chains
/// (serialized memory → deeper idle spans), stores, and poorly
/// predictable branches (squash/replay paths).
fn mixed_trace(seed: u64, n: usize) -> Arc<Trace> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut instrs = Vec::with_capacity(n);
    while instrs.len() < n {
        match rng() % 10 {
            0..=2 => {
                // Strided stream a prefetcher can learn.
                let base = (rng() % 8) * 0x10_0000;
                for k in 0..16u64 {
                    instrs.push(Instr::load(0x400 + base % 97, base + k * 64));
                }
            }
            3..=4 => {
                // Pointer-chase flavor: each load depends on the last.
                let base = rng() % 0x80_0000;
                instrs.push(Instr::load(0x500, base));
                for k in 1..8u64 {
                    instrs.push(Instr::load_dep(0x500, base ^ (k * 0x4111), 1));
                }
            }
            5 => {
                let a = rng() % 0x80_0000;
                instrs.push(Instr::store(0x600, a));
            }
            6 => {
                instrs.push(Instr::branch(0x700 + rng() % 5, rng() % 3 == 0));
            }
            _ => {
                for _ in 0..(rng() % 30) {
                    instrs.push(Instr::alu(0x800));
                }
            }
        }
    }
    instrs.truncate(n);
    Arc::new(Trace::new("skip-equiv", instrs))
}

/// DRAM-bound scattered trace: bursts of independent loads spread over
/// 256 MiB (every one an LLC miss) between short ALU runs, so a small
/// MSHR file is full most of the time with further loads parked behind
/// it while the core can do nothing but wait.
fn scattered_trace(seed: u64, n: usize) -> Arc<Trace> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut instrs = Vec::with_capacity(n);
    while instrs.len() < n {
        for _ in 0..8 {
            instrs.push(Instr::load(0x400 + rng() % 7, (rng() % 0x40_0000) * 64));
        }
        if rng() % 4 == 0 {
            instrs.push(Instr::store(0x600, (rng() % 0x40_0000) * 64));
        }
        for _ in 0..(rng() % 6) {
            instrs.push(Instr::alu(0x800));
        }
    }
    instrs.truncate(n);
    Arc::new(Trace::new("skip-equiv-scattered", instrs))
}

fn run(cfg: &SystemConfig, traces: Vec<Arc<Trace>>, skip: bool) -> (SimReport, u64, u64) {
    let n = traces[0].instrs.len() as u64;
    let mut sys = System::new(cfg.clone(), traces)
        .with_window(n / 4, n)
        .with_cycle_skip(skip);
    sys.run();
    (
        sys.report(),
        sys.cycles(),
        sys.driver_counts().ticked_cycles,
    )
}

/// Runs `cfg` skipping and cycle by cycle, asserts the full reports
/// (every counter, the per-cycle MSHR integrals included) and the end
/// cycles agree, and returns the skipping run's report, its end cycle
/// and how many of its cycles were ticked.
fn assert_equiv(label: &str, cfg: &SystemConfig, traces: Vec<Arc<Trace>>) -> (SimReport, u64, u64) {
    let (rep_skip, cyc_skip, ticked) = run(cfg, traces.clone(), true);
    let (rep_step, cyc_step, ticked_step) = run(cfg, traces, false);
    assert_eq!(cyc_skip, cyc_step, "{label}: end cycle diverged");
    assert_eq!(
        format!("{rep_skip:?}"),
        format!("{rep_step:?}"),
        "{label}: report diverged"
    );
    assert!(
        ticked_step >= cyc_step,
        "{label}: cycle-by-cycle run skipped"
    );
    (rep_skip, cyc_skip, ticked)
}

#[test]
fn skip_matches_cycle_by_cycle_nonsecure() {
    let cfg = SystemConfig::baseline(1);
    assert_equiv("nonsecure/nopf", &cfg, vec![mixed_trace(0xA1, 4000)]);
}

#[test]
fn skip_matches_cycle_by_cycle_bingo_on_access() {
    let cfg = SystemConfig::baseline(1).with_prefetcher(PrefetcherKind::Bingo);
    assert_equiv("nonsecure/bingo", &cfg, vec![mixed_trace(0xB2, 4000)]);
}

#[test]
fn skip_matches_cycle_by_cycle_secure_berti_on_commit() {
    let cfg = SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_suf(true)
        .with_prefetcher(PrefetcherKind::Berti)
        .with_mode(PrefetchMode::OnCommit);
    assert_equiv(
        "gm+suf/berti-on-commit",
        &cfg,
        vec![mixed_trace(0xC3, 4000)],
    );
}

#[test]
fn skip_matches_cycle_by_cycle_two_cores() {
    let cfg = SystemConfig::baseline(2).with_prefetcher(PrefetcherKind::IpStride);
    assert_equiv(
        "2core/ip-stride",
        &cfg,
        vec![mixed_trace(0xD4, 3000), mixed_trace(0xE5, 3000)],
    );
}

/// Heterogeneous per-core policies: every prefetcher kind, secure and
/// non-secure cores, on-access and on-commit, with and without SUF/TS.
fn mixed_policies() -> Vec<CorePolicy> {
    let base = CorePolicy::of(&SystemConfig::baseline(1));
    vec![
        CorePolicy {
            prefetcher: PrefetcherKind::IpStride,
            ..base
        },
        CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            ..base
        },
        CorePolicy {
            prefetcher: PrefetcherKind::Bingo,
            ..base
        },
        CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::SppPpf,
            prefetch_mode: PrefetchMode::OnAccess,
            ..base
        },
        CorePolicy {
            prefetcher: PrefetcherKind::Ipcp,
            ..base
        },
        CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            timely_secure: true,
        },
        base, // no prefetcher
        CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::IpStride,
            prefetch_mode: PrefetchMode::OnAccess,
            ..base
        },
    ]
}

#[test]
fn skip_matches_cycle_by_cycle_eight_cores_mixed_prefetchers() {
    // The idle-span detector must agree with the cycle-by-cycle loop even
    // when eight differently-configured cores contend for the shared LLC
    // and DRAM channel.
    let cfg = SystemConfig::baseline(8).with_core_policies(mixed_policies());
    cfg.validate().expect("8-core mixed config must be valid");
    let traces = (0..8u64)
        .map(|c| mixed_trace(0xF6 + 0x11 * c, 2000))
        .collect();
    assert_equiv("8core/mixed", &cfg, traces);
}

/// Starves `cfg` of L1D MSHRs and DRAM queue slots: loads park on the
/// full MSHR file, misses park on the full DRAM queue.
fn starved(mut cfg: SystemConfig) -> SystemConfig {
    cfg.l1d.mshrs = 2;
    cfg.dram.queue_depth = 4;
    cfg
}

#[test]
fn skip_matches_with_waiters_parked_across_skipped_spans() {
    // GhostMinion + on-commit Berti (commit writes and re-fetches contend
    // with the loads for the two ports) on a DRAM-bound trace.
    let label = "2-mshr gm+suf/berti-on-commit";
    let cfg = starved(
        SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_suf(true)
            .with_prefetcher(PrefetcherKind::Berti)
            .with_mode(PrefetchMode::OnCommit),
    );
    let (rep, cycles, ticked) = assert_equiv(label, &cfg, vec![scattered_trace(0x17, 6000)]);
    let l1d = &rep.cores[0].l1d;
    assert!(l1d.mshr_full_stalls > 0, "{label}: nothing ever parked");
    assert!(l1d.port_stalls > 0, "{label}: ports never contended");
    // Some skipped cycles had a full L1D MSHR file with requests parked
    // behind it: full cycles plus skipped cycles exceed the run.
    assert!(
        l1d.mshr_full_cycles + (cycles - ticked) > cycles,
        "{label}: no MSHR-full cycle was skipped ({} full, {ticked} ticked of {cycles})",
        l1d.mshr_full_cycles
    );
}

#[test]
fn skip_matches_at_the_maximum_cache_latency() {
    // Every LLC access schedules its next step MAX_CACHE_LATENCY cycles
    // ahead: the farthest any event reaches into the wheel.
    let label = "llc latency at the maximum";
    let mut cfg = SystemConfig::baseline(1);
    cfg.llc.latency = MAX_CACHE_LATENCY;
    cfg.validate().expect("the maximum latency is valid");
    let (rep, ..) = assert_equiv(label, &cfg, vec![mixed_trace(0xB3, 1500)]);
    assert!(
        rep.cores[0].llc.demand_accesses > 0,
        "{label}: no LLC access"
    );
}

#[test]
fn skip_matches_with_a_load_parked_longer_than_the_wheel_horizon() {
    // One L1D MSHR and a 3 000-cycle column access: every miss holds the
    // MSHR file full for longer than the wheel's 2 048 slots while the
    // next load waits parked behind it. DRAM timing never passes through
    // the wheel; the wait only has to survive the skipped spans.
    let label = "1-mshr, 3000-cycle tCAS";
    let mut cfg = SystemConfig::baseline(1);
    cfg.l1d.mshrs = 1;
    cfg.dram.t_cas = 3_000;
    let (rep, ..) = assert_equiv(label, &cfg, vec![scattered_trace(0x29, 300)]);
    let l1d = &rep.cores[0].l1d;
    assert!(l1d.mshr_full_stalls > 0, "{label}: nothing ever parked");
    assert!(
        l1d.mshr_full_cycles / l1d.demand_misses.max(1) > 2_048,
        "{label}: a miss held the MSHR file for less than the horizon"
    );
}

#[test]
fn skip_matches_with_waiters_parked_eight_cores_mixed_prefetchers() {
    // The mixed cell again, starved: eight cores are rarely all idle, so
    // the spans that do get skipped begin and end in the middle of other
    // cores' MSHR and DRAM-queue waits.
    let label = "8core/mixed, 2-mshr";
    let cfg = starved(SystemConfig::baseline(8).with_core_policies(mixed_policies()));
    let traces = (0..8u64)
        .map(|c| scattered_trace(0x31 + 0x11 * c, 1500))
        .collect();
    let (rep, cycles, ticked) = assert_equiv(label, &cfg, traces);
    assert!(ticked < cycles, "{label}: nothing was skipped");
    assert!(rep.cores.iter().all(|c| c.l1d.mshr_full_stalls > 0));
}

/// Runs `cfg` under an observability recorder, skipping or not.
fn run_obs(
    cfg: &SystemConfig,
    traces: Vec<Arc<Trace>>,
    skip: bool,
) -> (SimReport, ObsCapture, u64) {
    let n = traces[0].instrs.len() as u64;
    let obs = ObsConfig::enabled().with_epoch_interval(700);
    let mut sys = System::new(cfg.clone(), traces)
        .with_window(n / 4, n)
        .with_obs(&obs)
        .with_cycle_skip(skip);
    sys.run();
    let capture = sys.take_obs().expect("recorder was on");
    (sys.report(), capture, sys.driver_counts().ticked_cycles)
}

/// The observability differential: with the recorder on, a skipping run
/// and a cycle-by-cycle run must capture the same thing — epoch crossings
/// happen only on cycles a core ticks, every other hook inside an event,
/// and none of those cycles may be skipped. The histograms hold every
/// cycle-derived latency, so a skip that moved one would show there.
fn assert_obs_equiv(label: &str, cfg: &SystemConfig, traces: Vec<Arc<Trace>>) {
    let (rep_skip, cap_skip, ticked_skip) = run_obs(cfg, traces.clone(), true);
    let (rep_step, cap_step, ticked_step) = run_obs(cfg, traces, false);
    assert!(
        ticked_skip < ticked_step,
        "{label}: the recorder turned the fast-forward off ({ticked_skip} of {ticked_step} cycles ticked)"
    );
    assert_eq!(
        format!("{rep_skip:?}"),
        format!("{rep_step:?}"),
        "{label}: report diverged"
    );
    assert!(
        cap_skip.hists.total_samples() > 0,
        "{label}: no samples recorded"
    );
    assert!(
        cap_skip.hists == cap_step.hists,
        "{label}: histograms diverged"
    );
    assert_eq!(cap_skip.recorded, cap_step.recorded, "{label}: recorded");
    assert!(!cap_skip.epochs.rows.is_empty(), "{label}: no epoch rows");
    assert_eq!(
        cap_skip.epochs.rows, cap_step.epochs.rows,
        "{label}: epoch rows diverged"
    );
    assert_eq!(
        cap_skip.mshr_high_water, cap_step.mshr_high_water,
        "{label}: MSHR high-water marks diverged"
    );
}

#[test]
fn obs_capture_is_identical_with_and_without_skipping() {
    let gm = SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion);
    let single = [
        ("nonsecure/nopf", SystemConfig::baseline(1)),
        ("gm/nopf", gm.clone()),
        (
            "gm+suf/berti-on-commit",
            gm.with_suf(true)
                .with_prefetcher(PrefetcherKind::Berti)
                .with_mode(PrefetchMode::OnCommit),
        ),
    ];
    for (i, (label, cfg)) in single.iter().enumerate() {
        assert_obs_equiv(label, cfg, vec![mixed_trace(0xA1 + i as u64, 4000)]);
        // Starved: port stalls and parked waiters across skipped spans.
        assert_obs_equiv(
            &format!("{label}, 2-mshr"),
            &starved(cfg.clone()),
            vec![scattered_trace(0x17 + i as u64, 4000)],
        );
    }
    let policies = mixed_policies()[..4].to_vec();
    let mc = SystemConfig::baseline(4).with_core_policies(policies);
    mc.validate().expect("4-core mixed config must be valid");
    let traces = (0..4u64)
        .map(|c| mixed_trace(0xF6 + 0x11 * c, 2500))
        .collect();
    assert_obs_equiv("4core/mixed", &mc, traces);
}
