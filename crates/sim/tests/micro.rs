//! Micro-traces exercising each commit-path mechanism in isolation:
//! commit writes, re-fetches, SUF filtering, clean-line propagation,
//! dirty writebacks, write-queue forwarding, and prefetch fill levels.

use secpref_sim::System;
use secpref_trace::{Instr, Trace};
use secpref_types::{Addr, CacheLevel, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
use std::sync::Arc;

fn run_system(cfg: &SystemConfig, instrs: Vec<Instr>) -> System {
    let n = instrs.len() as u64;
    let trace = Arc::new(Trace::new("micro", instrs));
    let mut sys = System::new(cfg.clone(), vec![trace]).with_window(0, n);
    sys.run();
    sys
}

fn gm_cfg() -> SystemConfig {
    SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion)
}

/// Loads with padding so each retires long after issuing.
fn padded_loads(addrs: &[u64]) -> Vec<Instr> {
    let mut v = Vec::new();
    for &a in addrs {
        v.push(Instr::load(0x100, a));
        for _ in 0..40 {
            v.push(Instr::alu(0x200));
        }
    }
    // Drain padding so all commit-path traffic lands before probing.
    for _ in 0..2000 {
        v.push(Instr::alu(0x300));
    }
    v
}

#[test]
fn commit_write_moves_line_into_l1d() {
    // A missing load fills the GM speculatively; its commit must move the
    // line into the L1D (GhostMinion Fig. 2, arrow 2a).
    let sys = run_system(&gm_cfg(), padded_loads(&[0x4_0000]));
    let line = Addr::new(0x4_0000).line();
    assert!(
        sys.probe_line(0, CacheLevel::L1d, line),
        "committed line must be in L1D"
    );
    let m = sys.report().cores[0].clone();
    assert!(m.commit.commit_writes >= 1, "{:?}", m.commit);
}

#[test]
fn non_secure_fills_l1d_at_access() {
    let sys = run_system(&SystemConfig::baseline(1), padded_loads(&[0x4_0000]));
    assert!(sys.probe_line(0, CacheLevel::L1d, Addr::new(0x4_0000).line()));
    assert_eq!(sys.report().cores[0].commit.commit_writes, 0);
}

#[test]
fn suf_drops_l1d_hit_commits() {
    // Two loads of the same line: the first misses and commit-writes; the
    // second hits the L1D (or GM), and with SUF its commit is dropped.
    let mut instrs = padded_loads(&[0x4_0000]);
    instrs.extend(padded_loads(&[0x4_0000]));
    let with_suf = run_system(&gm_cfg().with_suf(true), instrs.clone());
    let m = with_suf.report().cores[0].clone();
    assert!(m.commit.suf_dropped >= 1, "{:?}", m.commit);
    assert_eq!(
        m.commit.suf_drop_wrong, 0,
        "drop decisions must be correct here"
    );

    // Without SUF, the same second commit becomes a redundant re-fetch.
    let without = run_system(&gm_cfg(), instrs);
    let m2 = without.report().cores[0].clone();
    assert_eq!(m2.commit.suf_dropped, 0);
    assert!(
        m2.commit.refetches + m2.commit.commit_writes > m.commit.refetches + m.commit.commit_writes,
        "SUF must reduce commit-path operations"
    );
}

#[test]
fn clean_lines_propagate_on_eviction_without_suf() {
    // Fill a single L1D set past its associativity (12 ways, 64 sets):
    // evicted clean committed lines must propagate into L2 under baseline
    // GhostMinion (writeback bit always set).
    let set_conflicting: Vec<u64> = (0..14).map(|k| 0x10_0000 + k * 64 * 64).collect();
    let sys = run_system(&gm_cfg(), padded_loads(&set_conflicting));
    let m = sys.report().cores[0].clone();
    assert!(m.commit.propagations >= 1, "{:?}", m.commit);
    // At least one of the early (evicted) lines now lives in L2.
    let in_l2 = set_conflicting
        .iter()
        .filter(|&&a| sys.probe_line(0, CacheLevel::L2, Addr::new(a).line()))
        .count();
    assert!(in_l2 >= 1, "evicted clean lines must land in L2");
}

#[test]
fn suf_stops_propagation_for_l2_resident_lines() {
    // Load a line set twice: the second pass finds the lines in L2 (after
    // L1D eviction) → hit level L2 → SUF clears the writeback bit → their
    // next eviction is silent (propagation_skipped grows).
    let set_conflicting: Vec<u64> = (0..14).map(|k| 0x10_0000 + k * 64 * 64).collect();
    let mut instrs = padded_loads(&set_conflicting);
    instrs.extend(padded_loads(&set_conflicting));
    instrs.extend(padded_loads(&set_conflicting));
    // A wave of fresh same-set lines evicts everything — including the
    // wb=false lines installed by the L2-hit commits above.
    let flush: Vec<u64> = (14..28).map(|k| 0x10_0000 + k * 64 * 64).collect();
    instrs.extend(padded_loads(&flush));
    let sys = run_system(&gm_cfg().with_suf(true), instrs);
    let m = sys.report().cores[0].clone();
    assert!(
        m.commit.propagation_skipped >= 1,
        "SUF must skip some clean propagations: {:?}",
        m.commit
    );
    assert!(
        m.commit.suf_accuracy() > 0.8,
        "accuracy {:.2}",
        m.commit.suf_accuracy()
    );
}

#[test]
fn dirty_stores_write_back_through_the_hierarchy() {
    // Stores dirty L1D lines; conflict evictions must write them back to
    // L2 (not drop them), in both secure and non-secure systems.
    for cfg in [SystemConfig::baseline(1), gm_cfg()] {
        let mut instrs = Vec::new();
        for k in 0..14u64 {
            instrs.push(Instr::store(0x110, 0x20_0000 + k * 64 * 64));
            for _ in 0..30 {
                instrs.push(Instr::alu(0x200));
            }
        }
        for _ in 0..2000 {
            instrs.push(Instr::alu(0x300));
        }
        let sys = run_system(&cfg, instrs);
        let in_l2 = (0..14u64)
            .filter(|k| {
                sys.probe_line(0, CacheLevel::L2, Addr::new(0x20_0000 + k * 64 * 64).line())
            })
            .count();
        assert!(
            in_l2 >= 1,
            "dirty evictions must land in L2 (secure={})",
            cfg.secure.is_secure()
        );
    }
}

#[test]
fn queued_writeback_forwards_to_a_reload() {
    // Direct-mapped 16-, 64- and 256-set levels: lines 256 apart share a
    // set at all three. A write waits in the DRAM write queue while any
    // read is queued, unless the queue passes its watermark; at (1, 1)
    // only a full write queue drains ahead of reads.
    let mut cfg = SystemConfig::baseline(1);
    (cfg.l1d.size_bytes, cfg.l1d.ways) = (1024, 1);
    (cfg.l2.size_bytes, cfg.l2.ways) = (4096, 1);
    (cfg.llc.size_bytes, cfg.llc.ways) = (16 * 1024, 1);
    cfg.dram.write_watermark = (1, 1);
    cfg.validate().expect("micro config is valid");

    let line = |l: u64| l * 64;
    let pad = |v: &mut Vec<Instr>, n: usize| v.extend((0..n).map(|_| Instr::alu(0x300)));
    let x = 0x1000;
    let (y, z, w) = (x + 256, x + 512, x + 768);
    let mut instrs = vec![Instr::store(0x110, line(x))];
    pad(&mut instrs, 2000);
    // Y's fill evicts dirty X from the L1D into the L2, Z's from the L2
    // into the LLC.
    for conflict in [y, z] {
        instrs.push(Instr::load(0x120, line(conflict)));
        pad(&mut instrs, 2000);
    }
    // Eight store misses to distinct rows of DRAM bank 2 (and distinct
    // cache sets): their reads keep the read queue busy for hundreds of
    // cycles. Meanwhile W's fill evicts dirty X from the LLC into the
    // write queue, and the reload of X, issued once W's data is back,
    // finds it there.
    for r in 1..=8 {
        instrs.push(Instr::store(0x130, line(512 * r + 128 + r)));
    }
    instrs.push(Instr::load(0x140, line(w)));
    let warmup = instrs.len() as u64;
    instrs.push(Instr::load_dep(0x150, line(x), 1));
    pad(&mut instrs, 500);
    let measure = instrs.len() as u64 - warmup;

    let trace = Arc::new(Trace::new("wq-forward", instrs));
    let mut sys = System::new(cfg.clone(), vec![trace]).with_window(warmup, measure);
    sys.run();
    let report = sys.report();
    assert!(report.dram.wq_forwards >= 1, "{:?}", report.dram);
    // The reload is the window's one L1D miss: it walks the three levels
    // and is served from the write queue after one column access. A load
    // issues after its cycle's memory tick, so its L1D lookup comes one
    // cycle later (an L2 hit takes 1 + 5 + 15 cycles).
    let l1d = &report.cores[0].l1d;
    assert_eq!(l1d.miss_latency_count, 1, "{l1d:?}");
    let walk = 1 + cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency;
    assert_eq!(l1d.miss_latency_sum, walk + cfg.dram.t_cas);
}

#[test]
fn l2_prefetcher_fills_l2_not_l1d() {
    // Bingo (an L2 prefetcher) learns a recurring footprint; its
    // prefetches must appear in L2/LLC but never in L1D.
    let mut instrs = Vec::new();
    // Many regions with footprint {0, 3} from one IP; single-visit misses.
    for r in 0..200u64 {
        for off in [0u64, 3] {
            instrs.push(Instr::load(0x500, (0x40_0000 + r * 2048 + off * 64) & !63));
            for _ in 0..12 {
                instrs.push(Instr::alu(0x600));
            }
        }
    }
    for _ in 0..3000 {
        instrs.push(Instr::alu(0x700));
    }
    let cfg = SystemConfig::baseline(1).with_prefetcher(PrefetcherKind::Bingo);
    let sys = run_system(&cfg, instrs);
    let m = sys.report().cores[0].clone();
    assert!(
        m.prefetch.issued > 0,
        "Bingo must prefetch: {:?}",
        m.prefetch
    );
    assert_eq!(
        m.l1d.prefetch_accesses, 0,
        "an L2 prefetcher generates no L1D accesses (paper Section III-A)"
    );
    assert!(m.l2.prefetch_accesses > 0);
}

#[test]
fn wrong_path_loads_never_commit() {
    let mut instrs = Vec::new();
    for _ in 0..80 {
        instrs.push(Instr::branch(0x900, true));
        instrs.push(Instr::alu(0x901));
    }
    instrs.push(Instr::branch(0x900, false));
    let idx = (instrs.len() - 1) as u32;
    for _ in 0..400 {
        instrs.push(Instr::alu(0x902));
    }
    let mut t = Trace::new("wp", instrs);
    t.attach_wrong_path(idx, vec![Addr::new(0x7700_0000)]);
    let n = t.instrs.len() as u64;
    let mut sys = System::new(gm_cfg(), vec![Arc::new(t)]).with_window(0, n);
    sys.run();
    assert!(sys.wrong_path_loads(0) > 0);
    let m = sys.report().cores[0].clone();
    // The transient load generated no commit-path traffic for its line.
    assert!(!sys.probe_line(0, CacheLevel::L1d, Addr::new(0x7700_0000).line()));
    assert!(m.wrong_path_loads > 0);
}

#[test]
fn on_commit_mode_trains_at_retire_only() {
    // A strided stream under on-commit IP-stride: prefetch proposals must
    // exist (trained from commits), and every issued prefetch happens
    // after its trigger retired — verified indirectly: with a trace whose
    // loads never retire (all on the wrong path), nothing trains.
    let mut instrs = Vec::new();
    for i in 0..60u64 {
        instrs.push(Instr::load(0x100, 0x9_0000 + i * 64));
        instrs.push(Instr::alu(0x200));
    }
    for _ in 0..1500 {
        instrs.push(Instr::alu(0x300));
    }
    let cfg = gm_cfg()
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit);
    let sys = run_system(&cfg, instrs);
    let m = sys.report().cores[0].clone();
    assert!(
        m.prefetch.proposed > 0,
        "commits of a strided stream must train the prefetcher"
    );
}

#[test]
fn replay_covers_short_traces() {
    // A 50-instruction trace with a 500-instruction window must replay.
    let instrs: Vec<Instr> = (0..50)
        .map(|i| Instr::load(0x100, 0x1000 + (i % 8) * 64))
        .collect();
    let trace = Arc::new(Trace::new("short", instrs));
    let mut sys = System::new(SystemConfig::baseline(1), vec![trace]).with_window(100, 500);
    sys.run();
    let m = sys.report().cores[0].clone();
    assert!(m.instructions >= 500);
}

/// A core with no instructions could never retire: the system refuses
/// it at construction, not at the run loop's livelock watchdog.
#[test]
#[should_panic(expected = "feed 0 holds no instructions")]
fn an_empty_feed_is_refused_at_construction() {
    let empty = Arc::new(Trace::new("empty", Vec::new()));
    let _ = System::new(SystemConfig::baseline(1), vec![empty]);
}
