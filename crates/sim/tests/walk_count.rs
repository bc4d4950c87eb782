//! Count regression for the detailed driver's event handling: a blocked
//! request waits in the wait list and is passed over, it is not walked
//! again every cycle. When blocked requests were re-polled through the
//! event wheel a GhostMinion cell of this shape made 145 request walks
//! per retired instruction and ticked 85 % of its cycles; woken instead
//! of polled it makes 5–6 and ticks well under half (DESIGN.md §10,
//! wave 3).

use secpref_sim::System;
use secpref_trace::suite;
use secpref_types::{SecureMode, SystemConfig};

#[test]
fn ghostminion_graph_cell_walks_few_times_per_instruction() {
    const WARM: u64 = 10_000;
    const MEASURE: u64 = 40_000;
    let cfg = SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion);
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
}
