//! Pinned report-digest regression test — the permanent tripwire for the
//! hot-path data-structure work (ISSUE 4 and beyond).
//!
//! Every fuzz-matrix cell ([`secpref_check::cells`]) is run on three
//! pinned adversarial traces through a *production-shaped* system (no
//! checkers installed — `System::new` wires the filter from the config,
//! exactly as `repro` does). The full [`SimReport`] is serialized with
//! the canonical deterministic codec and FNV-1a-64 hashed; the resulting
//! 13 digests are pinned below.
//!
//! Any change to simulator behavior — timing, eviction order,
//! tie-breaking, counter accounting — moves at least one digest. Pure
//! data-structure or allocation changes must leave all 13 untouched.
//! If a digest moves *intentionally* (a modeled-behavior change),
//! re-pin it and say why in the commit message.

use std::sync::Arc;

use secpref_check::fuzz::gen_trace;
use secpref_check::{cells, PINNED_SEED};
use secpref_exp::codec::report_to_string;
use secpref_sim::System;
use secpref_tracestore::fnv::{fnv1a64, FNV_OFFSET};

/// Trace seeds: three flavors of adversarial trace per cell, derived
/// from the fuzzer's pinned seed. Offsets chosen so the generator's
/// flavor wheel lands on distinct classes (gadget burst, alias strides,
/// mixed soup).
const TRACE_SEEDS: [u64; 3] = [PINNED_SEED, PINNED_SEED + 3, PINNED_SEED + 5];

/// Expected FNV-1a-64 digest per cell, in `cells()` order.
const PINNED: [(&str, u64); 13] = [
    ("nonsecure/No-Pref", 0xBC9D2F8EEAD83795),
    ("nonsecure/IP-Stride", 0x33A0B0AEFCDEA7C5),
    ("nonsecure/IPCP", 0xFE7EE16845357415),
    ("nonsecure/Bingo", 0xC7A4302FDE655219),
    ("nonsecure/SPP+PPF", 0xD00EA8C32C4D9637),
    ("nonsecure/Berti", 0x8437DFAFB1054B21),
    ("ghostminion+suf/No-Pref", 0x6C6EB4F88D7A3E1F),
    ("ghostminion+suf/IP-Stride", 0xE36D1AEF4E51E9F2),
    ("ghostminion+suf/IPCP", 0x67BC7C91AB141D98),
    ("ghostminion+suf/Bingo", 0x2C09353425DFFDCF),
    ("ghostminion+suf/SPP+PPF", 0x9DBCAFA829D47F4F),
    ("ghostminion+suf/Berti", 0xB4EE1E4B0FDAA56A),
    ("ghostminion/always-update", 0x0ADC09B4DB6063FD),
];

/// Expected FNV-1a-64 digest per timely-secure cell (TS-*/TSB + SUF —
/// the paper's full proposal), one per prefetcher. These exercise the
/// `TimelySecure`/`Tsb` wrappers, which own their own copies of the
/// prefetcher hot structures and are therefore *also* guarded against
/// the indexed rewrites.
const PINNED_TS: [(&str, u64); 5] = [
    ("ts+suf/IP-Stride", 0x2CC3DAEA2263F4F4),
    ("ts+suf/IPCP", 0x5446C4E0883F2628),
    ("ts+suf/Bingo", 0xA96AE928F487423F),
    ("ts+suf/SPP+PPF", 0xE000C70D431F7D0B),
    ("ts+suf/Berti", 0x02A5843DFDCB8DE2),
];

fn cell_digest(cfg: &secpref_types::SystemConfig) -> u64 {
    cfg.validate().expect("pinned cell config must be valid");
    let mut hash = FNV_OFFSET;
    for seed in TRACE_SEEDS {
        let trace = Arc::new(gen_trace(seed));
        let n = trace.instrs.len() as u64;
        let mut sys = System::new(cfg.clone(), vec![trace]).with_window(0, n);
        sys.run();
        let text = report_to_string(&sys.report());
        hash = fnv1a64(text.as_bytes(), hash);
    }
    hash
}

#[test]
fn report_digests_are_pinned() {
    let cells = cells();
    assert_eq!(cells.len(), PINNED.len(), "fuzz matrix changed shape");
    let mut mismatches = Vec::new();
    for (cell, &(label, expected)) in cells.iter().zip(PINNED.iter()) {
        assert_eq!(cell.label, label, "fuzz matrix changed order");
        let actual = cell_digest(&cell.cfg);
        if actual != expected {
            mismatches.push(format!(
                "    (\"{label}\", {actual:#018X}), // was {expected:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests moved — simulator behavior changed.\n\
         If intentional, re-pin:\n{}",
        mismatches.join("\n")
    );
}

/// Expected FNV-1a-64 digest per multi-core cell. Each cell runs one
/// pinned adversarial trace per core through a *heterogeneous* per-core
/// policy mix ([`secpref_types::CorePolicy`]), so these pins guard the
/// shared-LLC/DRAM interleaving, the per-core filter/prefetcher wiring,
/// and the per-core-context scheduling order all at once.
const PINNED_MC: [(usize, u64); 3] = [
    (2, 0xB6F5DBD0934F3DEE),
    (4, 0xE2F8F7C5C97384BD),
    (8, 0xF9C686FB8CC31BC5),
];

/// The rotating per-core policy mix for the multi-core pins.
fn mc_policy(core: usize) -> secpref_types::CorePolicy {
    use secpref_types::{CorePolicy, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
    let base = CorePolicy::of(&SystemConfig::baseline(1));
    match core % 4 {
        0 => base, // non-secure, no prefetcher
        1 => CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            ..base
        },
        2 => CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::IpStride,
            prefetch_mode: PrefetchMode::OnAccess,
            ..base
        },
        _ => CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            timely_secure: true,
        },
    }
}

fn mc_digest(cores: usize) -> u64 {
    use secpref_types::SystemConfig;
    let cfg = SystemConfig::baseline(cores).with_core_policies((0..cores).map(mc_policy).collect());
    cfg.validate().expect("multi-core pin config must be valid");
    let traces: Vec<_> = (0..cores)
        .map(|c| Arc::new(gen_trace(PINNED_SEED + 7 * c as u64)))
        .collect();
    let n = traces.iter().map(|t| t.instrs.len()).min().unwrap() as u64;
    let mut sys = System::new(cfg, traces).with_window(0, n);
    sys.run();
    fnv1a64(report_to_string(&sys.report()).as_bytes(), FNV_OFFSET)
}

#[test]
fn multicore_report_digests_are_pinned() {
    let mut mismatches = Vec::new();
    for &(cores, expected) in PINNED_MC.iter() {
        let actual = mc_digest(cores);
        if actual != expected {
            mismatches.push(format!(
                "    ({cores}, {actual:#018X}), // was {expected:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "multi-core report digests moved — simulator behavior changed.\n\
         If intentional, re-pin:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn timely_secure_report_digests_are_pinned() {
    use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
    let kinds = [
        PrefetcherKind::IpStride,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Bingo,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Berti,
    ];
    assert_eq!(kinds.len(), PINNED_TS.len());
    let mut mismatches = Vec::new();
    for (kind, &(label, expected)) in kinds.iter().zip(PINNED_TS.iter()) {
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(*kind)
            .with_mode(PrefetchMode::OnCommit)
            .with_timely_secure(true)
            .with_suf(true);
        let actual = cell_digest(&cfg);
        if actual != expected {
            mismatches.push(format!(
                "    (\"{label}\", {actual:#018X}), // was {expected:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "timely-secure report digests moved — simulator behavior changed.\n\
         If intentional, re-pin:\n{}",
        mismatches.join("\n")
    );
}

/// Expected FNV-1a-64 digest of a *sampled* run per cell. Nothing else
/// pins the functional-warming walk bit-for-bit (`benchmark/pins.json`
/// pins no sampled cell; the sampled differential only bounds IPC error
/// at 2%), so these are the tripwire for any change to the instant
/// driver or the shared hierarchy policy: warming decides what every
/// detailed window starts from, and each window's counters are in the
/// report.
///
/// Generated on parent commit c8865bb (PR 12), i.e. by the `functional_*`
/// copy of the walk, before ISSUE 13 replaced it with the policy/driver
/// split — the split reproduces them unchanged.
const PINNED_SAMPLED: [(&str, u64); 11] = [
    ("nonsecure/nopf", 0x1345AA8B08E1A056),
    ("nonsecure/ip-stride on access", 0xD195FFC7D4DDECD6),
    ("nonsecure/bingo on access", 0xCF96BEA1A74A89D2),
    ("ghostminion/nopf always-update", 0x775AE50F2BBBADFC),
    ("ghostminion/ip-stride on access", 0x33A0E1B5D06E84D7),
    ("ghostminion+suf/berti on commit", 0xD08C079C5D8253EF),
    ("ghostminion+suf/spp-ppf on commit", 0xB0520704E330C99D),
    ("ghostminion+suf/bingo on commit", 0x6C2EFE18CB22AA13),
    ("tsb+suf/berti", 0x4279B3F7A57432D3),
    ("ts+suf/ipcp", 0x63DE0D87715077DA),
    (
        "2-core nonsecure bingo + ghostminion+suf berti",
        0x22A98891D48D2FE6,
    ),
];

/// The configurations behind [`PINNED_SAMPLED`], in order: L1 and L2
/// prefetchers on access and on commit, always-update and SUF commit
/// engines, the timely-secure wrappers, and a heterogeneous 2-core mix.
fn sampled_cells() -> Vec<secpref_types::SystemConfig> {
    use secpref_types::{CorePolicy, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
    let base = || SystemConfig::baseline(1);
    let gm = |kind, mode| {
        base()
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(kind)
            .with_mode(mode)
    };
    let oc_suf = |kind| gm(kind, PrefetchMode::OnCommit).with_suf(true);
    let p0 = CorePolicy::of(&base());
    let mix = SystemConfig::baseline(2).with_core_policies(vec![
        CorePolicy {
            prefetcher: PrefetcherKind::Bingo,
            prefetch_mode: PrefetchMode::OnAccess,
            ..p0
        },
        CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            ..p0
        },
    ]);
    vec![
        base(),
        base().with_prefetcher(PrefetcherKind::IpStride),
        base().with_prefetcher(PrefetcherKind::Bingo),
        gm(PrefetcherKind::None, PrefetchMode::OnAccess),
        gm(PrefetcherKind::IpStride, PrefetchMode::OnAccess),
        oc_suf(PrefetcherKind::Berti),
        oc_suf(PrefetcherKind::SppPpf),
        oc_suf(PrefetcherKind::Bingo),
        oc_suf(PrefetcherKind::Berti).with_timely_secure(true),
        oc_suf(PrefetcherKind::Ipcp).with_timely_secure(true),
        mix,
    ]
}

fn sampled_digest(cfg: &secpref_types::SystemConfig) -> u64 {
    use secpref_trace::suite::cached_trace;
    use secpref_types::SamplingConfig;
    cfg.validate().expect("sampled pin config must be valid");
    let names = ["mcf_like_a", "bfs_small"];
    let traces = (0..cfg.cores)
        .map(|c| cached_trace(names[c % names.len()], 60_000))
        .collect();
    let plan = SamplingConfig::new(2_000, 1_000, 5_000).with_jitter(500, 7);
    let mut sys = System::new(cfg.clone(), traces).with_window(10_000, 40_000);
    sys.run_sampled(&plan);
    let report = sys.report();
    assert!(report.sampling.is_some(), "sampled run carries a summary");
    fnv1a64(report_to_string(&report).as_bytes(), FNV_OFFSET)
}

#[test]
fn sampled_report_digests_are_pinned() {
    let cells = sampled_cells();
    assert_eq!(cells.len(), PINNED_SAMPLED.len());
    let mut mismatches = Vec::new();
    for (cfg, &(label, expected)) in cells.iter().zip(PINNED_SAMPLED.iter()) {
        let actual = sampled_digest(cfg);
        if actual != expected {
            mismatches.push(format!(
                "    (\"{label}\", {actual:#018X}), // was {expected:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "sampled report digests moved — the warming walk or the detailed \
         windows changed behavior.\nIf intentional, re-pin:\n{}",
        mismatches.join("\n")
    );
}
