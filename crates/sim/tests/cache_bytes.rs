//! The simulated caches' host bytes at Fig. 16's largest row. A 32-core
//! baseline `System` (non-secure, no prefetcher) holds 1 335 296 cache
//! ways: a 64 MiB LLC, 32 L2s and 32 L1Ds. At 16 B a way (an 8-byte tag
//! and an 8-byte way record) they take 20.4 MiB; at 40 B a way, with a
//! second copy of the tag and a 64-bit LRU stamp, 51 MiB. Release-only:
//! `cargo test --release -p secpref-sim --test cache_bytes -- --ignored`
//! (a `tools/tier1.sh` stage).

use secpref_sim::System;
use secpref_trace::gen::spec;
use secpref_types::SystemConfig;
use std::sync::Arc;

/// A `/proc/self/status` field in KiB (`None` off Linux).
fn status_kib(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "release-only: builds a 32-core system"]
fn thirty_two_core_caches_take_sixteen_bytes_a_way() {
    const CORES: usize = 32;
    let cfg = SystemConfig::baseline(CORES);
    let ways = CORES * (cfg.l1d.lines() + cfg.l2.lines()) + cfg.llc.lines();
    assert_eq!(ways, 1_335_296);
    let kernel = spec::roster()
        .into_iter()
        .find(|k| k.name == "lbm_like")
        .expect("lbm_like is in the roster");
    // One trace shared by every core, built before the first reading.
    let trace = Arc::new(kernel.generate(20_000));

    let before = status_kib("VmRSS:");
    let mut sys = System::new(cfg, vec![trace; CORES]).with_window(0, 2_000);
    sys.run();
    let peak = status_kib("VmHWM:");
    assert!(sys.report().cores.iter().all(|c| c.instructions > 0));
    // The caches are most of what the system holds: the rest (cores,
    // MSHRs, DRAM queues) takes about 3 MiB on Linux x86-64.
    if let (Some(before), Some(peak)) = (before, peak) {
        let at_16 = ways * 16 / 1024;
        let grew = peak.saturating_sub(before);
        assert!(
            grew < at_16 * 5 / 4,
            "a 32-core system grew the peak by {grew} KiB, {:.1} B per cache way; \
             {ways} ways at 16 B take {at_16} KiB",
            grew as f64 * 1024.0 / ways as f64
        );
    }
}
