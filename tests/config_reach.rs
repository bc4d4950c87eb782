//! Every settable value of `SystemConfig` reaches the simulator: one edit
//! to it either changes the report of a short run or is refused by
//! `SystemConfig::validate`. A value neither of those can see is a knob
//! the model never reads.
//!
//! The config structs are destructured below without `..`, so a new
//! field fails to compile here until it is listed and given an edit.

use secure_prefetch::exp::codec::report_to_string;
use secure_prefetch::prelude::*;
use secure_prefetch::sim::run_multi_with_window;
use secure_prefetch::trace::suite::cached_trace;
use secure_prefetch::types::config::{
    CacheConfig, CoreConfig, DramConfig, GmConfig, ReplacementChoice,
};
use std::collections::{BTreeSet, HashMap};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 8_000;

/// The names of a struct's fields, checked exhaustive at compile time.
macro_rules! fields {
    ($ty:ident { $($f:ident),* $(,)? }) => {{
        let _exhaustive = |v: &$ty| {
            let $ty { $($f: _),* } = v;
        };
        [$(stringify!($f)),*]
    }};
}

/// Every settable value, as `path.to.value`; `dram.write_watermark`
/// counts as two and `per_core` as one.
fn settable_values() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let top = fields!(SystemConfig {
        core,
        l1d,
        l2,
        llc,
        gm,
        dram,
        secure,
        prefetcher,
        prefetch_mode,
        suf,
        timely_secure,
        cores,
        per_core,
    });
    let core = fields!(CoreConfig {
        fetch_width,
        retire_width,
        rob_entries,
        lq_entries,
        dispatch_latency,
        mispredict_penalty,
        load_issue_width,
    });
    let cache = fields!(CacheConfig {
        size_bytes,
        ways,
        latency,
        mshrs,
        ports_per_cycle,
        replacement,
    });
    let gm = fields!(GmConfig { size_bytes });
    let dram = fields!(DramConfig {
        banks,
        row_bytes,
        t_rp,
        t_rcd,
        t_cas,
        bus_cycles_per_line,
        queue_depth,
        write_watermark,
    });
    for field in top {
        let inner: &[&str] = match field {
            "core" => &core,
            "l1d" | "l2" | "llc" => &cache,
            "gm" => &gm,
            "dram" => &dram,
            _ => {
                names.insert(field.to_string());
                continue;
            }
        };
        for f in inner {
            if *f == "write_watermark" {
                names.insert(format!("{field}.{f}.0"));
                names.insert(format!("{field}.{f}.1"));
            } else {
                names.insert(format!("{field}.{f}"));
            }
        }
    }
    names
}

/// The baseline with every cache small enough that a short run evicts
/// from all three levels and keeps DRAM busy with reads and writebacks.
fn small() -> SystemConfig {
    let mut c = SystemConfig::baseline(1);
    c.l1d.size_bytes /= 8; // 6 KB, 8 sets
    c.l2.size_bytes /= 32; // 16 KB, 32 sets
    c.llc.size_bytes /= 64; // 32 KB, 32 sets
    c
}

fn secure() -> SystemConfig {
    small().with_secure(SecureMode::GhostMinion)
}

fn on_commit(kind: PrefetcherKind) -> SystemConfig {
    secure()
        .with_prefetcher(kind)
        .with_mode(PrefetchMode::OnCommit)
}

type Edit = fn(&mut SystemConfig);
/// The value edited, the workload, the base config and the edit.
type Row = (&'static str, &'static str, fn() -> SystemConfig, Edit);

/// One row per settable value. `mcf_like_a` chases pointers (misses and
/// mispredicts, but no reuse in a short window), `bfs_small` re-touches
/// lines and writes back dirty ones, `lbm_like` streams (row-buffer hits).
#[rustfmt::skip]
fn rows() -> Vec<Row> {
    const MCF: &str = "mcf_like_a";
    const LBM: &str = "lbm_like";
    const BFS: &str = "bfs_small";
    vec![
        ("core.fetch_width", MCF, small, |c| c.core.fetch_width = 2),
        ("core.retire_width", MCF, small, |c| c.core.retire_width = 1),
        ("core.rob_entries", MCF, small, |c| c.core.rob_entries = 32),
        ("core.lq_entries", MCF, small, |c| c.core.lq_entries = 8),
        ("core.dispatch_latency", MCF, small, |c| c.core.dispatch_latency = 16),
        ("core.mispredict_penalty", MCF, small, |c| c.core.mispredict_penalty = 48),
        ("core.load_issue_width", MCF, small, |c| c.core.load_issue_width = 1),
        ("l1d.size_bytes", BFS, small, |c| c.l1d.size_bytes /= 2),
        ("l1d.ways", BFS, small, |c| c.l1d.ways /= 2),
        ("l1d.latency", MCF, small, |c| c.l1d.latency *= 2),
        ("l1d.mshrs", MCF, small, |c| c.l1d.mshrs = 2),
        ("l1d.ports_per_cycle", MCF, small, |c| c.l1d.ports_per_cycle = 1),
        ("l1d.replacement", BFS, small, |c| c.l1d.replacement = ReplacementChoice::Random),
        ("l2.size_bytes", BFS, small, |c| c.l2.size_bytes /= 2),
        ("l2.ways", BFS, small, |c| c.l2.ways /= 2),
        ("l2.latency", MCF, small, |c| c.l2.latency *= 2),
        ("l2.mshrs", MCF, small, |c| c.l2.mshrs = 2),
        ("l2.ports_per_cycle", MCF, small, |c| c.l2.ports_per_cycle = 1),
        ("l2.replacement", BFS, small, |c| c.l2.replacement = ReplacementChoice::Random),
        ("llc.size_bytes", BFS, small, |c| c.llc.size_bytes /= 2),
        ("llc.ways", BFS, small, |c| c.llc.ways /= 2),
        ("llc.latency", MCF, small, |c| c.llc.latency *= 2),
        ("llc.mshrs", MCF, small, |c| c.llc.mshrs = 2),
        ("llc.ports_per_cycle", MCF, small, |c| c.llc.ports_per_cycle = 1),
        ("llc.replacement", BFS, small, |c| c.llc.replacement = ReplacementChoice::Random),
        ("gm.size_bytes", MCF, secure, |c| c.gm.size_bytes /= 2),
        ("dram.banks", MCF, small, |c| c.dram.banks /= 2),
        ("dram.row_bytes", LBM, small, |c| c.dram.row_bytes /= 2),
        ("dram.t_rp", MCF, small, |c| c.dram.t_rp *= 2),
        ("dram.t_rcd", MCF, small, |c| c.dram.t_rcd *= 2),
        ("dram.t_cas", MCF, small, |c| c.dram.t_cas *= 2),
        ("dram.bus_cycles_per_line", MCF, small, |c| c.dram.bus_cycles_per_line *= 4),
        ("dram.queue_depth", LBM, small, |c| c.dram.queue_depth = 4),
        ("dram.write_watermark.0", BFS, small, |c| c.dram.write_watermark.0 = 1),
        ("dram.write_watermark.1", BFS, small, |c| c.dram.write_watermark.1 = 64),
        ("secure", MCF, small, |c| c.secure = SecureMode::GhostMinion),
        ("prefetcher", LBM, small, |c| c.prefetcher = PrefetcherKind::IpStride),
        ("prefetch_mode", LBM, || small().with_prefetcher(PrefetcherKind::IpStride),
            |c| c.prefetch_mode = PrefetchMode::OnCommit),
        ("suf", MCF, || on_commit(PrefetcherKind::Berti), |c| c.suf = true),
        ("timely_secure", LBM, || on_commit(PrefetcherKind::IpStride).with_suf(true),
            |c| c.timely_secure = true),
        ("cores", MCF, small, |c| c.cores = 2),
        ("per_core", LBM, small, |c| {
            c.per_core = vec![CorePolicy { prefetcher: PrefetcherKind::IpStride, ..CorePolicy::of(c) }]
        }),
    ]
}

/// The report of a short run of `cfg`, one copy of `workload` per core.
fn report(cfg: &SystemConfig, workload: &str) -> String {
    let trace = cached_trace(workload, (WARMUP + MEASURE) as usize + 2_000);
    let traces = vec![trace; cfg.cores];
    report_to_string(&run_multi_with_window(cfg, traces, WARMUP, MEASURE))
}

#[test]
fn every_settable_value_is_listed_once() {
    let listed: Vec<&str> = rows().iter().map(|r| r.0).collect();
    let unique: BTreeSet<String> = listed.iter().map(|s| s.to_string()).collect();
    assert_eq!(unique.len(), listed.len(), "a value is listed twice");
    assert_eq!(unique, settable_values());
    assert_eq!(unique.len(), 42);
}

#[test]
fn every_settable_value_moves_the_report_or_is_refused() {
    let mut bases: HashMap<(SystemConfig, &str), String> = HashMap::new();
    let mut unread = Vec::new();
    for (name, workload, base, edit) in rows() {
        let base = base();
        base.validate().expect(name);
        let mut edited = base.clone();
        edit(&mut edited);
        assert_ne!(edited, base, "{name}: the edit must change the config");
        if edited.validate().is_err() {
            continue;
        }
        let before = bases
            .entry((base.clone(), workload))
            .or_insert_with(|| report(&base, workload));
        if *before == report(&edited, workload) {
            unread.push(name);
        }
    }
    assert!(
        unread.is_empty(),
        "edits the report does not see: {unread:?}"
    );
}
