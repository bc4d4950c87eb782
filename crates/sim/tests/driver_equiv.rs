//! Two drivers, one policy: the detailed driver (event wheel, MSHRs,
//! ports, DRAM) and the instant driver (functional warming) call the
//! same `policy` functions, so when accesses never overlap in time the
//! machine they leave behind must be the same machine.
//!
//! One seeded random load/store sequence is fed to two [`Hierarchy`]
//! instances: one through `issue_load` → tick to quiescence →
//! `commit_load` (or `commit_store`) → tick to quiescence, one access at
//! a time; the other through `functional_load` / `functional_store`.
//! After *every* access, every line touched so far must be resident at
//! exactly the same places — L1D, L2, LLC and the GM — in both.
//!
//! Prefetch-free configurations only: with a prefetcher the two drivers
//! differ on purpose (a prefetch takes time in one and none in the
//! other — the fill-latency boundary DESIGN.md §14 documents).

use secpref_core::SecureUpdateFilter;
use secpref_cpu::LoadIssue;
use secpref_ghostminion::{AlwaysUpdate, UpdateFilter};
use secpref_sim::hierarchy::Hierarchy;
use secpref_types::rng::Xoshiro256ss;
use secpref_types::{Addr, CacheLevel, Cycle, Ip, LineAddr, SecureMode, SystemConfig};

/// Lines the sequence draws from: twice the LLC below, so all three
/// levels evict continuously.
const FOOTPRINT: u64 = 512;
const ACCESSES: usize = 6_000;

/// A machine small enough that a few thousand accesses churn every level:
/// 16-line L1D, 64-line L2, 256-line LLC (the GM keeps its 32 lines).
fn small(cfg: SystemConfig) -> SystemConfig {
    let mut cfg = cfg;
    (cfg.l1d.size_bytes, cfg.l1d.ways) = (1024, 2);
    (cfg.l2.size_bytes, cfg.l2.ways) = (4096, 4);
    (cfg.llc.size_bytes, cfg.llc.ways) = (16 * 1024, 4);
    cfg.validate().expect("small config is valid");
    cfg
}

fn hierarchy(cfg: &SystemConfig) -> Hierarchy {
    let filter: Box<dyn UpdateFilter> = if cfg.suf {
        Box::new(SecureUpdateFilter::new())
    } else {
        Box::new(AlwaysUpdate)
    };
    let pf = secpref_sim::build_prefetcher(cfg);
    Hierarchy::new(cfg.clone(), vec![pf], vec![filter], vec![None])
}

/// Ticks until no request is alive; returns the cycle reached.
fn quiesce(h: &mut Hierarchy, mut now: Cycle) -> Cycle {
    while h.live_requests() > 0 {
        now += 1;
        h.tick(now);
        assert!(now < 1 << 40, "detailed driver did not quiesce");
    }
    now
}

fn residency(h: &Hierarchy, line: LineAddr) -> [bool; 4] {
    [
        h.probe_line(0, CacheLevel::L1d, line),
        h.probe_line(0, CacheLevel::L2, line),
        h.probe_line(0, CacheLevel::Llc, line),
        h.probe_gm(0, line),
    ]
}

fn drivers_agree(label: &str, cfg: SystemConfig, seed: u64) {
    let cfg = small(cfg);
    let mut detailed = hierarchy(&cfg);
    let mut instant = hierarchy(&cfg);
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let mut touched: Vec<LineAddr> = Vec::new();
    let mut now: Cycle = 0;
    for i in 0..ACCESSES {
        // Three in four accesses go to a hot eighth of the footprint, so
        // hits at every level are as common as misses.
        let span = if rng.gen_index(4) > 0 {
            FOOTPRINT / 8
        } else {
            FOOTPRINT
        };
        let addr = Addr::new(rng.gen_u64(span) * 64 + rng.gen_u64(64));
        let ip = Ip::new(0x400 + rng.gen_u64(8) * 4);
        let is_store = rng.gen_index(4) == 0;
        let ts = i as u64 + 1;
        let line = addr.line();
        if !touched.contains(&line) {
            touched.push(line);
        }

        now += 1;
        if is_store {
            detailed.commit_store(now, 0, ip, line, ts);
            instant.functional_store(ts, 0, ip, addr, ts);
        } else {
            let issue = LoadIssue {
                core: 0,
                lq_id: 0,
                gen: 0,
                addr,
                ip,
                ts,
                wrong_path: false,
            };
            assert!(detailed.issue_load(now, issue), "idle L1D refused a load");
            now = quiesce(&mut detailed, now);
            let (_, _, _, fill) = detailed.completions.pop().expect("load completes");
            assert!(detailed.completions.is_empty());
            detailed.commit_load(now, 0, ip, line, ts, &fill);
            instant.functional_load(ts, 0, ip, addr, ts);
        }
        now = quiesce(&mut detailed, now);

        for &l in &touched {
            assert_eq!(
                residency(&detailed, l),
                residency(&instant, l),
                "{label}, seed {seed}: after access {i} ({} {addr:?}) line {l:?} \
                 [L1D, L2, LLC, GM] detailed vs instant",
                if is_store { "store" } else { "load" },
            );
        }
    }
    // The test would be vacuous if the footprint never left the LLC.
    let gone = |h: &Hierarchy, l: &LineAddr| !residency(h, *l)[2];
    assert!(
        touched.iter().any(|l| gone(&detailed, l)),
        "LLC never evicted"
    );
}

#[test]
fn nonsecure_drivers_agree() {
    for seed in [1, 2, 3] {
        drivers_agree("nonsecure", SystemConfig::baseline(1), seed);
    }
}

#[test]
fn ghostminion_always_update_drivers_agree() {
    let cfg = SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion);
    for seed in [1, 2, 3] {
        drivers_agree("ghostminion", cfg.clone(), seed);
    }
}

#[test]
fn ghostminion_suf_drivers_agree() {
    let cfg = SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_suf(true);
    for seed in [1, 2, 3] {
        drivers_agree("ghostminion+suf", cfg.clone(), seed);
    }
}
