//! Count regressions for the detailed driver's host-side work
//! (`System::driver_counts`; simulated results are pinned elsewhere).
//!
//! A blocked request waits in the wait list and is passed over, it is
//! not walked again every cycle: re-polled through the event wheel a
//! GhostMinion cell of this shape made 145 request walks per retired
//! instruction and ticked 85 % of its cycles; woken instead of polled it
//! makes 5–6 and ticks well under half (DESIGN.md §10, wave 3).
//!
//! A waiter that stays blocked is passed over from what its list entry
//! carries, and the load queue's issue scan visits only un-issued slots:
//! scanning, these cells read 108 / 148 request records per instruction
//! for requests that stayed blocked and examined 233 / 309 load-queue
//! slots; indexed they read under one and examine a few dozen (wave 4).

use secpref_sim::System;
use secpref_trace::suite;
use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};

const WARM: u64 = 10_000;
const MEASURE: u64 = 40_000;

/// Runs `cfg` on `cc_large` and checks the count bounds; `walks` and
/// `ticked_cycles` are exact — no host-side change may move them.
fn check_cell(cfg: SystemConfig, walks: u64, ticked_cycles: u64) {
    let trace = suite::cached_trace("cc_large", (WARM + MEASURE) as usize);
    let mut sys = System::new(cfg, vec![trace]).with_window(WARM, MEASURE);
    sys.run();
    let counts = sys.driver_counts();
    let report = sys.report();
    // Anti-vacuity: the cell really is the port- and MSHR-bound one.
    let l1d = &report.cores[0].l1d;
    assert!(l1d.port_stalls > 10 * MEASURE, "ports not contended");
    assert!(l1d.mshr_full_cycles > 0, "L1D MSHR file never full");
    let instrs = WARM + MEASURE;
    assert_eq!(
        (counts.walks, counts.ticked_cycles),
        (walks, ticked_cycles),
        "request walks / ticked cycles moved"
    );
    assert!(
        counts.walks <= 10 * instrs,
        "{} request walks for {instrs} instructions",
        counts.walks
    );
    assert!(
        counts.ticked_cycles * 10 <= sys.cycles() * 7,
        "ticked {} of {} cycles: MSHR-full spans are not skipped",
        counts.ticked_cycles,
        sys.cycles()
    );
    assert!(
        counts.blocked_req_reads <= 2 * instrs,
        "{} request records read for blocked requests over {instrs} instructions",
        counts.blocked_req_reads
    );
    assert!(
        counts.lq_slots_examined <= 80 * instrs,
        "{} load-queue slots examined for {instrs} instructions",
        counts.lq_slots_examined
    );
}

#[test]
fn ghostminion_graph_cell_walks_few_times_per_instruction() {
    let cfg = SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion);
    check_cell(cfg, 268_997, 142_633);
}

#[test]
fn tsb_suf_graph_cell_walks_few_times_per_instruction() {
    let cfg = SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::Berti)
        .with_mode(PrefetchMode::OnCommit)
        .with_timely_secure(true)
        .with_suf(true);
    check_cell(cfg, 273_931, 144_123);
}
