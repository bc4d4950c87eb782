//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * **GM capacity** — GhostMinion's refetch traffic (and hence overhead)
//!   against the speculative-window coverage of the GM.
//! * **SUF decomposition** — the re-fetch-drop half vs the
//!   propagation-stop half vs the full filter.
//! * **IP-stride prefetch distance** — on-commit IP-stride's speedup
//!   across the distances the timely-secure knob can move it to.
//! * **TSB on a non-secure system** — the paper's claim that TSB matches
//!   on-access Berti when security is not required (Section VII-A).
//! * **LLC replacement** — LRU vs SRRIP vs random under GhostMinion.
//!
//! Every point is a job in the one parallel sweep: a `SystemConfig`,
//! plus, for the SUF halves and the fixed distances, the
//! [`Ablation`] applied to the built system.

use crate::configs::*;
use crate::runner::Cx;
use crate::table::Table;
use secpref_sim::build_filter;
use secpref_sim::Ablation::{self, DropOnlySuf, PropagateOnlySuf, TimelinessKnob};
use secpref_types::PrefetcherKind::{self, Berti};

/// All five ablation tables, in print order.
pub fn all(cx: &Cx) -> Vec<Table> {
    vec![
        gm_size(cx),
        suf_parts(cx),
        prefetch_distance(cx),
        tsb_non_secure(cx),
        llc_replacement(cx),
    ]
}

/// GM capacity sweep: 16/32/64/128 entries (the paper's GM is 2 KB = 32).
pub fn gm_size(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Ablation — GM capacity vs GhostMinion overhead (no prefetching)",
        &["GM entries", "GM bytes", "speedup vs non-secure"],
    );
    for entries in [16usize, 32, 64, 128] {
        let mut cfg = secure_nopref();
        cfg.gm.size_bytes = entries * 64;
        let s = cx.geomean_speedup(&cfg, &quick_suite());
        t.row(vec![
            entries.to_string(),
            (entries * 64).to_string(),
            format!("{s:.3}"),
        ]);
    }
    t
}

/// SUF decomposition: baseline GhostMinion vs drop-only vs
/// propagation-only vs full SUF, under on-commit Berti.
pub fn suf_parts(cx: &Cx) -> Table {
    let (gm, suf) = (on_commit_secure(Berti), on_commit_suf(Berti));
    let mut t = Table::new(
        "Ablation — SUF decomposition (on-commit Berti)",
        &["filter", "storage (bits)", "speedup vs non-secure"],
    );
    let rows = [
        ("none (baseline GhostMinion)", &gm, None),
        ("drop-only (hit-level bits)", &gm, Some(DropOnlySuf)),
        ("propagation-only (wb bits)", &gm, Some(PropagateOnlySuf)),
        ("full SUF", &suf, None),
    ];
    for (name, cfg, ablation) in rows {
        let filter = ablation.and_then(Ablation::update_filter);
        let bits = filter
            .unwrap_or_else(|| build_filter(cfg, 0))
            .storage_bits();
        let s = cx.geomean_speedup_with(cfg, ablation, &quick_suite());
        t.row(vec![name.into(), bits.to_string(), format!("{s:.3}")]);
    }
    t
}

/// On-commit IP-stride's speedup at fixed prefetch distances: the range
/// the timely-secure wrapper's distance knob moves through.
pub fn prefetch_distance(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Ablation — IP-stride prefetch distance (the TS knob's range)",
        &["distance", "speedup vs non-secure"],
    );
    let cfg = on_commit_secure(PrefetcherKind::IpStride);
    for d in [1u32, 2, 4, 8, 12] {
        let s = cx.geomean_speedup_with(&cfg, Some(TimelinessKnob(d)), &quick_suite());
        t.row(vec![d.to_string(), format!("{s:.3}")]);
    }
    t
}

/// TSB on a *non-secure* system vs on-access Berti (paper Section VII-A:
/// "TSB performs on par with on-access Berti", closing the prefetcher
/// side channel even without a secure cache).
pub fn tsb_non_secure(cx: &Cx) -> Table {
    let mut t = Table::new(
        "Ablation — TSB on a non-secure cache system",
        &["config", "speedup vs non-secure no-pref"],
    );
    let acc = on_access_nonsecure(PrefetcherKind::Berti);
    let tsb_ns = nonsecure_nopref()
        .with_prefetcher(PrefetcherKind::Berti)
        .with_mode(secpref_types::PrefetchMode::OnCommit)
        .with_timely_secure(true);
    for (name, cfg) in [("on-access Berti", acc), ("TSB (commit-trained)", tsb_ns)] {
        let s = cx.geomean_speedup(&cfg, &quick_suite());
        t.row(vec![name.into(), format!("{s:.3}")]);
    }
    t
}

/// Replacement-policy sweep at the LLC (baseline LRU vs SRRIP vs random)
/// under GhostMinion: the commit-propagation traffic interacts with the
/// LLC's victim choice.
pub fn llc_replacement(cx: &Cx) -> Table {
    use secpref_types::config::ReplacementChoice;
    let mut t = Table::new(
        "Ablation — LLC replacement policy under GhostMinion (no prefetch)",
        &["policy", "speedup vs non-secure"],
    );
    for (name, policy) in [
        ("LRU (baseline)", ReplacementChoice::Lru),
        ("SRRIP", ReplacementChoice::Srrip),
        ("random", ReplacementChoice::Random),
    ] {
        let mut cfg = secure_nopref();
        cfg.llc.replacement = policy;
        let s = cx.geomean_speedup(&cfg, &quick_suite());
        t.row(vec![name.into(), format!("{s:.3}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gm_size_monotone_in_capacity() {
        let t = crate::runner::render_from_sweep("gm-size", gm_size);
        assert_eq!(t.rows.len(), 4);
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows[3][2].parse().unwrap();
        assert!(
            last >= first - 0.02,
            "a bigger GM should not make GhostMinion slower: {first} → {last}"
        );
    }
}
