//! One regeneration function per table and figure of the paper.
//!
//! Every speedup is normalized to the non-secure system without
//! prefetching, averaged with the geometric mean across the workload
//! suite (arithmetic mean for raw quantities), exactly as Section VII
//! prescribes. Absolute values differ from the paper (synthetic traces,
//! scaled windows); the *shape* — orderings, gaps, crossovers — is the
//! reproduction target (see EXPERIMENTS.md). Every report comes through
//! the [`Cx`], which is also how `repro` learns each figure's jobs.

use crate::configs::{self, *};
use crate::runner::Cx;
use crate::table::Table;
use secpref_sim::{geomean, mean, weighted_speedup, MissClassCounts, SimReport};
use secpref_types::{CacheLevel, PrefetcherKind, SystemConfig};

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Mean over the full suite of `f` of each run of `cfg`.
fn suite_mean(cx: &Cx, cfg: &SystemConfig, f: impl Fn(&SimReport) -> f64) -> f64 {
    let runs: Vec<f64> = full_suite()
        .iter()
        .map(|tr| f(&cx.single(cfg, tr)))
        .collect();
    mean(&runs)
}

/// `count` per kilo-instruction of core 0.
fn pki(r: &SimReport, count: u64) -> f64 {
    let k = 1000.0 / r.cores[0].instructions.max(1) as f64;
    count as f64 * k
}

/// L1D load / prefetch / commit accesses per kilo-instruction of core 0.
fn l1d_apki(r: &SimReport) -> [f64; 3] {
    let m = &r.cores[0].l1d;
    [m.demand_accesses, m.prefetch_accesses, m.commit_accesses].map(|n| pki(r, n))
}

/// Fig. 1 — Speedup of state-of-the-art prefetchers (on-access non-secure,
/// on-access secure, on-commit secure) normalized to non-secure no-pref.
pub fn fig1(cx: &Cx) -> Table {
    let traces = full_suite();
    let mut t = Table::new(
        "Fig. 1 — Prefetcher speedup vs cache-system/prefetch-point",
        &[
            "prefetcher",
            "on-access (non-secure)",
            "on-access (secure)",
            "on-commit (secure)",
        ],
    );
    for kind in PrefetcherKind::EVALUATED {
        t.row(vec![
            kind.name().to_string(),
            f3(cx.geomean_speedup(&on_access_nonsecure(kind), &traces)),
            f3(cx.geomean_speedup(&on_access_secure(kind), &traces)),
            f3(cx.geomean_speedup(&on_commit_secure(kind), &traces)),
        ]);
    }
    t.row(vec![
        "No-Pref (secure, red line)".into(),
        String::new(),
        String::new(),
        f3(cx.geomean_speedup(&secure_nopref(), &traces)),
    ]);
    t
}

/// The on-access configurations Figs. 3 and 5 break down, labelled.
fn on_access_rows() -> Vec<(String, SystemConfig)> {
    let mut rows = vec![
        ("No-Pref / non-secure".to_string(), nonsecure_nopref()),
        ("No-Pref / secure".to_string(), secure_nopref()),
    ];
    for kind in PrefetcherKind::EVALUATED {
        rows.push((
            format!("{} / non-secure", kind.name()),
            on_access_nonsecure(kind),
        ));
        rows.push((format!("{} / secure", kind.name()), on_access_secure(kind)));
    }
    rows
}

/// Fig. 3 — Average L1D APKI split into Load / Prefetch / Commit traffic,
/// non-secure vs GhostMinion, with on-access prefetching.
pub fn fig3(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 3 — L1D accesses per kilo-instruction (on-access prefetching)",
        &["config", "load", "prefetch", "commit", "total"],
    );
    for (label, cfg) in on_access_rows() {
        let [l, p, c] = [0, 1, 2].map(|i| suite_mean(cx, &cfg, |r| l1d_apki(r)[i]));
        t.row(vec![label, f1(l), f1(p), f1(c), f1(l + p + c)]);
    }
    t
}

/// Fig. 4 — Average L1D load miss latency (cycles) with on-access
/// prefetching, four configurations per prefetcher.
pub fn fig4(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 4 — L1D load miss latency (cycles, on-access prefetching)",
        &[
            "prefetcher",
            "pref non-secure",
            "pref secure",
            "no-pref non-secure",
            "no-pref secure",
        ],
    );
    let avg_lat = |cfg| f1(suite_mean(cx, &cfg, SimReport::l1d_miss_latency));
    let (base_ns, base_s) = (avg_lat(nonsecure_nopref()), avg_lat(secure_nopref()));
    for kind in PrefetcherKind::EVALUATED {
        t.row(vec![
            kind.name().to_string(),
            avg_lat(on_access_nonsecure(kind)),
            avg_lat(on_access_secure(kind)),
            base_ns.clone(),
            base_s.clone(),
        ]);
    }
    t
}

/// Fig. 5 — Deep dive on the mcf-like trace: (a) speedup, (b) L1D traffic
/// split, (c) L1D load miss latency — on-access prefetching.
pub fn fig5(cx: &Cx) -> Table {
    let tr = configs::mcf_trace();
    let base = cx.baseline_ipc(&tr);
    let mut t = Table::new(
        format!("Fig. 5 — {tr} deep dive (on-access prefetching)"),
        &[
            "config",
            "speedup",
            "L1D load APKI",
            "L1D pf APKI",
            "L1D commit APKI",
            "miss lat",
        ],
    );
    for (label, cfg) in on_access_rows() {
        let r = cx.single(&cfg, &tr);
        let [l, p, c] = l1d_apki(&r);
        let speedup = f3(r.ipc() / base);
        t.row(vec![
            label,
            speedup,
            f1(l),
            f1(p),
            f1(c),
            f1(r.l1d_miss_latency()),
        ]);
    }
    t
}

/// Fig. 6 — Demand MPKI at the prefetcher's level split into uncovered /
/// missed-opportunity / late / commit-late, on-access vs on-commit (both
/// on GhostMinion).
pub fn fig6(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 6 — Demand MPKI by coverage/lateness class (secure cache)",
        &[
            "prefetcher",
            "mode",
            "uncovered",
            "missed-opp",
            "late",
            "commit-late",
            "total MPKI",
        ],
    );
    for kind in PrefetcherKind::EVALUATED {
        let level = if kind.is_l1_prefetcher() {
            CacheLevel::L1d
        } else {
            CacheLevel::L2
        };
        // On-access: no commit-late / missed-opportunity classes exist.
        let acc = on_access_secure(kind);
        let late = |r: &SimReport| pki(r, r.cores[0].prefetch.late);
        t.row(vec![
            kind.name().into(),
            "on-access".into(),
            f1(suite_mean(cx, &acc, |r| (r.mpki(level) - late(r)).max(0.0))),
            "0.0".into(),
            f1(suite_mean(cx, &acc, late)),
            "0.0".into(),
            f1(suite_mean(cx, &acc, |r| r.mpki(level))),
        ]);
        // On-commit: full classification from the shadow classifier.
        let commit = on_commit_secure(kind);
        let class = |n: fn(&MissClassCounts) -> u64| {
            f1(suite_mean(cx, &commit, |r| pki(r, n(&r.cores[0].class))))
        };
        t.row(vec![
            kind.name().into(),
            "on-commit".into(),
            class(|c| c.uncovered),
            class(|c| c.missed_opportunity),
            class(|c| c.late),
            class(|c| c.commit_late),
            f1(suite_mean(cx, &commit, |r| r.mpki(level))),
        ]);
    }
    t
}

/// Fig. 10 — Speedup of the timely-secure (TS) versions vs the naive
/// on-commit versions.
pub fn fig10(cx: &Cx) -> Table {
    let traces = full_suite();
    let mut t = Table::new(
        "Fig. 10 — Timely-secure prefetcher speedup (GhostMinion)",
        &["prefetcher", "on-commit", "timely-secure", "TS gain %"],
    );
    for kind in PrefetcherKind::EVALUATED {
        let oc = cx.geomean_speedup(&on_commit_secure(kind), &traces);
        let ts = cx.geomean_speedup(&timely_secure(kind), &traces);
        t.row(vec![
            kind.name().to_string(),
            f3(oc),
            f3(ts),
            format!("{:+.1}", (ts / oc - 1.0) * 100.0),
        ]);
    }
    t.row(vec![
        "No-Pref (secure)".into(),
        f3(cx.geomean_speedup(&secure_nopref(), &traces)),
        String::new(),
        String::new(),
    ]);
    t
}

/// Fig. 11 — SUF: on-access non-secure vs on-commit secure vs
/// on-commit+SUF, plus the TSB rows the text quotes.
pub fn fig11(cx: &Cx) -> Table {
    let traces = full_suite();
    let mut t = Table::new(
        "Fig. 11 — Secure Update Filter speedup",
        &[
            "config",
            "on-access non-secure",
            "on-commit secure",
            "on-commit + SUF",
        ],
    );
    let speedup = |cfg| f3(cx.geomean_speedup(&cfg, &traces));
    for kind in PrefetcherKind::EVALUATED {
        t.row(vec![
            kind.name().to_string(),
            speedup(on_access_nonsecure(kind)),
            speedup(on_commit_secure(kind)),
            speedup(on_commit_suf(kind)),
        ]);
    }
    t.row(vec![
        "TSB".into(),
        String::new(),
        speedup(timely_secure(PrefetcherKind::Berti)),
        speedup(timely_secure_suf(PrefetcherKind::Berti)),
    ]);
    t.row(vec![
        "No-Pref (secure)".into(),
        String::new(),
        speedup(secure_nopref()),
        speedup(secure_nopref().with_suf(true)),
    ]);
    t
}

/// Fig. 12 — Per-trace speedup of on-commit Berti, TSB, and TSB+SUF
/// (SPEC-like then GAP-like), normalized to non-secure no-pref.
pub fn fig12(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 12 — Per-trace speedup: on-commit Berti vs TSB vs TSB+SUF",
        &["trace", "on-commit Berti", "TSB", "TSB+SUF"],
    );
    let berti = on_commit_secure(PrefetcherKind::Berti);
    let tsb = timely_secure(PrefetcherKind::Berti);
    let tsb_suf = timely_secure_suf(PrefetcherKind::Berti);
    let mut geos: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for tr in &full_suite() {
        let base = cx.baseline_ipc(tr);
        let vals = [
            cx.single(&berti, tr).ipc() / base,
            cx.single(&tsb, tr).ipc() / base,
            cx.single(&tsb_suf, tr).ipc() / base,
        ];
        for (g, v) in geos.iter_mut().zip(vals) {
            g.push(v);
        }
        t.row(vec![tr.clone(), f3(vals[0]), f3(vals[1]), f3(vals[2])]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        f3(geomean(&geos[0])),
        f3(geomean(&geos[1])),
        f3(geomean(&geos[2])),
    ]);
    t
}

/// Fig. 13 — Average prefetch accuracy: on-access non-secure, on-commit
/// secure, on-commit+SUF, and the TS version.
pub fn fig13(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 13 — Prefetch accuracy (%)",
        &[
            "prefetcher",
            "on-access",
            "on-commit",
            "on-commit+SUF",
            "timely-secure",
        ],
    );
    let acc = |cfg: &SystemConfig| suite_mean(cx, cfg, |r| r.prefetch_accuracy() * 100.0);
    for kind in PrefetcherKind::EVALUATED {
        t.row(vec![
            kind.name().to_string(),
            f1(acc(&on_access_nonsecure(kind))),
            f1(acc(&on_commit_secure(kind))),
            f1(acc(&on_commit_suf(kind))),
            f1(acc(&timely_secure(kind))),
        ]);
    }
    t
}

/// Fig. 14 — Normalized dynamic energy of the memory hierarchy.
pub fn fig14(cx: &Cx) -> Table {
    let traces = full_suite();
    let mut t = Table::new(
        "Fig. 14 — Dynamic energy normalized to non-secure no-pref",
        &[
            "prefetcher",
            "on-access non-secure",
            "on-commit secure",
            "on-commit+SUF",
            "no-pref secure",
        ],
    );
    let energy_ratio = |cfg: &SystemConfig| {
        let ratios: Vec<f64> = traces
            .iter()
            .map(|tr| {
                let base = cx.single(&nonsecure_nopref(), tr).energy_nj;
                cx.single(cfg, tr).energy_nj / base.max(1e-9)
            })
            .collect();
        geomean(&ratios)
    };
    let nopref_secure = energy_ratio(&secure_nopref());
    for kind in PrefetcherKind::EVALUATED {
        t.row(vec![
            kind.name().to_string(),
            f3(energy_ratio(&on_access_nonsecure(kind))),
            f3(energy_ratio(&on_commit_secure(kind))),
            f3(energy_ratio(&on_commit_suf(kind))),
            f3(nopref_secure),
        ]);
    }
    t
}

/// Fig. 15 — 4-core mixes: weighted speedup normalized to the non-secure
/// no-prefetch weighted IPC, six configurations, sorted per config.
pub fn fig15(cx: &Cx) -> Table {
    let mix_count = cx.mix_count;
    let mixes = multicore_mixes(mix_count);
    use PrefetcherKind::Berti;
    let cfgs = [
        ("No-Pref secure", secure_nopref()),
        ("Berti on-access non-secure", on_access_nonsecure(Berti)),
        ("Berti on-commit secure", on_commit_secure(Berti)),
        ("Berti on-commit + SUF", on_commit_suf(Berti)),
        ("TSB", timely_secure(Berti)),
        ("TSB+SUF", timely_secure_suf(Berti)),
    ];
    let mut t = Table::new(
        format!("Fig. 15 — Weighted speedup over {mix_count} 4-core mixes (sorted per config)"),
        &["config", "geomean", "min", "max", "sorted mix speedups"],
    );
    // Per-mix normalization data, computed once.
    let alone: Vec<Vec<f64>> = mixes
        .iter()
        .map(|mix| mix.iter().map(|n| cx.baseline_ipc(n)).collect())
        .collect();
    let base_ws: Vec<f64> = mixes
        .iter()
        .zip(&alone)
        .map(|(mix, alone)| weighted_speedup(&cx.mix(&nonsecure_nopref(), mix).ipcs(), alone))
        .collect();
    for (label, cfg) in cfgs {
        let mut ws: Vec<f64> = (mixes.iter().zip(&alone).zip(&base_ws))
            .map(|((mix, alone), den)| {
                weighted_speedup(&cx.mix(&cfg, mix).ipcs(), alone) / den.max(1e-9)
            })
            .collect();
        ws.sort_by(f64::total_cmp);
        let series: Vec<String> = ws.iter().map(|x| format!("{x:.2}")).collect();
        t.row(vec![
            label.to_string(),
            f3(geomean(&ws)),
            f3(*ws.first().expect("nonempty")),
            f3(*ws.last().expect("nonempty")),
            series.join(" "),
        ]);
    }
    t
}

/// Co-runner counts the mix-pressure sweep (Fig. 16) covers.
pub const MIX_PRESSURE_CORES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Fig. 16 — mix pressure vs secure-prefetch overhead: the deterministic
/// `pressure_mix(n)` co-runner mixes for n = 1..32, comparing insecure
/// on-access Berti against the secure stacks at each pressure level.
/// "Overhead" is how much weighted speedup the secure configuration
/// gives up relative to insecure on-access prefetching with the *same*
/// co-runners — the cross-core cost of security as LLC/DRAM contention
/// grows.
pub fn fig16(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Fig. 16 — Mix pressure (co-runners) vs secure-prefetch overhead (Berti)",
        &[
            "co-runners",
            "insecure WS",
            "on-commit+SUF WS",
            "overhead %",
            "TSB+SUF WS",
            "overhead %",
            "No-Pref secure WS",
        ],
    );
    for n in MIX_PRESSURE_CORES {
        let mix = pressure_mix(n);
        let alone: Vec<f64> = mix.iter().map(|name| cx.baseline_ipc(name)).collect();
        let ws = |cfg: &SystemConfig| weighted_speedup(&cx.mix(cfg, &mix).ipcs(), &alone);
        let insecure = ws(&on_access_nonsecure(PrefetcherKind::Berti));
        let suf = ws(&on_commit_suf(PrefetcherKind::Berti));
        let tsb = ws(&timely_secure_suf(PrefetcherKind::Berti));
        let nopref = ws(&secure_nopref());
        let ovh = |secure: f64| 100.0 * (1.0 - secure / insecure.max(1e-9));
        t.row(vec![
            n.to_string(),
            f3(insecure),
            f3(suf),
            format!("{:.1}", ovh(suf)),
            f3(tsb),
            format!("{:.1}", ovh(tsb)),
            f3(nopref),
        ]);
    }
    t
}

/// Table I — the literature summary (static content from the paper).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table I — Mitigation techniques (from the paper, for reference)",
        &[
            "technique",
            "classification",
            "secure?",
            "storage",
            "slowdown",
        ],
    );
    for (a, b, c, d, e) in [
        ("CleanupSpec", "Undo-based", "No", "<1KB", "Medium"),
        ("NDA", "Delay-based", "Yes", "~150B", "High"),
        ("STT", "Delay-based", "Yes", "~1.4KB", "Medium"),
        (
            "NDA+Doppelganger",
            "Delay-based",
            "Yes",
            "~13.5KB",
            "Medium",
        ),
        ("DoM", "Delay+invisible", "No", "~0.4KB", "High"),
        (
            "DoM+Doppelganger",
            "Delay+invisible",
            "No",
            "~13.9KB",
            "High",
        ),
        ("STT+Doppelganger", "Delay-based", "Yes", "~14.9KB", "Low"),
        (
            "InvisiSpec",
            "Invisible speculation",
            "No",
            "~9.5KB",
            "High",
        ),
        ("MuonTrap", "Invisible speculation", "No", "2KB", "Low"),
        ("GhostMinion*", "Invisible speculation", "Yes", "2KB", "Low"),
    ] {
        t.row(vec![a.into(), b.into(), c.into(), d.into(), e.into()]);
    }
    t
}

/// Table II — the simulated baseline parameters actually in effect.
pub fn table2() -> Table {
    let cfg = nonsecure_nopref();
    let mut t = Table::new(
        "Table II — Baseline system parameters (as simulated)",
        &["component", "parameters"],
    );
    t.row(vec![
        "Core".into(),
        format!(
            "OoO, {}-issue, {}-retire, {}-entry ROB, {}-entry LQ, hashed perceptron",
            cfg.core.fetch_width, cfg.core.retire_width, cfg.core.rob_entries, cfg.core.lq_entries
        ),
    ]);
    t.row(vec![
        "TLBs".into(),
        "flat translation (not modelled)".into(),
    ]);
    for (name, c) in [("L1D", &cfg.l1d), ("L2", &cfg.l2), ("LLC", &cfg.llc)] {
        t.row(vec![
            name.into(),
            format!(
                "{} KB, {}-way, {} cycles, {} MSHRs, {}",
                c.size_bytes / 1024,
                c.ways,
                c.latency,
                c.mshrs,
                format!("{:?}", c.replacement).to_uppercase()
            ),
        ]);
    }
    t.row(vec![
        "GM".into(),
        format!(
            "{} KB, fully associative, 1 cycle (fixed)",
            cfg.gm.size_bytes / 1024
        ),
    ]);
    t.row(vec![
        "DRAM".into(),
        format!(
            "{} banks, {} B rows, tRP/tRCD/tCAS {}/{}/{} cycles, FR-FCFS, wm {}/{}",
            cfg.dram.banks,
            cfg.dram.row_bytes,
            cfg.dram.t_rp,
            cfg.dram.t_rcd,
            cfg.dram.t_cas,
            cfg.dram.write_watermark.0,
            cfg.dram.write_watermark.1
        ),
    ]);
    t
}

/// Table III — prefetcher configurations and storage, from the
/// implementations themselves.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table III — Prefetcher configurations (sizes from the implementations)",
        &["prefetcher", "size (KB)", "paper (KB)"],
    );
    for (kind, paper) in [
        (PrefetcherKind::IpStride, 8.0),
        (PrefetcherKind::Ipcp, 0.87),
        (PrefetcherKind::SppPpf, 39.2),
        (PrefetcherKind::Berti, 2.55),
        (PrefetcherKind::Bingo, 124.0),
    ] {
        let p = secpref_prefetch::build(kind);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.2}", p.storage_bytes() / 1024.0),
            format!("{paper:.2}"),
        ]);
    }
    t.row(vec![
        "SUF".into(),
        format!("{:.2}", {
            use secpref_ghostminion::UpdateFilter;
            secpref_core::SecureUpdateFilter::new().storage_bits() as f64 / 8.0 / 1024.0
        }),
        "0.12".into(),
    ]);
    t.row(vec![
        "TSB X-LQ".into(),
        format!(
            "{:.2}",
            secpref_core::Tsb::XLQ_STORAGE_BITS as f64 / 8.0 / 1024.0
        ),
        "0.47".into(),
    ]);
    t
}

/// Section III-A / VII text statistics: MSHR pressure, SUF accuracy, and
/// traffic deltas.
pub fn stats(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Text statistics (Sections III & VII)",
        &["statistic", "value"],
    );
    let avg = |f: fn(&SimReport) -> f64, cfg: &SystemConfig| suite_mean(cx, cfg, f);
    let occ: fn(&SimReport) -> f64 =
        |r| r.cores[0].l1d.mshr_occupancy_integral as f64 / r.cores[0].cycles.max(1) as f64;
    let full_pct: fn(&SimReport) -> f64 =
        |r| r.cores[0].l1d.mshr_full_cycles as f64 * 100.0 / r.cores[0].cycles.max(1) as f64;
    let berti = PrefetcherKind::Berti;
    t.row(vec![
        "L1D MSHR occupancy, no-pref: non-secure → secure".into(),
        format!(
            "{:.2} → {:.2}",
            avg(occ, &nonsecure_nopref()),
            avg(occ, &secure_nopref())
        ),
    ]);
    t.row(vec![
        "L1D MSHR occupancy, Berti on-access: non-secure → secure".into(),
        format!(
            "{:.2} → {:.2}",
            avg(occ, &on_access_nonsecure(berti)),
            avg(occ, &on_access_secure(berti))
        ),
    ]);
    t.row(vec![
        "L1D MSHR full (% cycles), Berti: non-secure → secure".into(),
        format!(
            "{:.1}% → {:.1}%",
            avg(full_pct, &on_access_nonsecure(berti)),
            avg(full_pct, &on_access_secure(berti))
        ),
    ]);
    t.row(vec![
        "SUF accuracy (on-commit Berti + SUF)".into(),
        format!(
            "{:.2}%",
            avg(|r| r.suf_accuracy() * 100.0, &on_commit_suf(berti))
        ),
    ]);
    let l1_apki = |r: &SimReport| r.apki(CacheLevel::L1d);
    t.row(vec![
        "L1D APKI, Berti on-commit secure: without vs with SUF".into(),
        format!(
            "{:.0} vs {:.0}",
            avg(l1_apki, &on_commit_secure(berti)),
            avg(l1_apki, &on_commit_suf(berti))
        ),
    ]);
    t.row(vec![
        "Storage overhead (SUF + TSB X-LQ)".into(),
        format!(
            "{:.2} KB per core",
            secpref_core::total_storage_overhead_kb()
        ),
    ]);
    t
}
