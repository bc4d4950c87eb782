//! Recorder contract tests: event and histogram totals reconcile with the
//! final report's counters, epochs cover the measurement window, the
//! capture names every core's filter, and a run without a recorder has
//! no capture, the same results and the same driver work.

use secpref_obs::{EventKind, LOAD_LEVEL_NAMES};
use secpref_sim::{system_for, DriverCounts, ObsCapture, ObsConfig, SimReport, TraceFeed};
use secpref_trace::suite;
use secpref_types::{CorePolicy, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
use std::sync::OnceLock;

const WARMUP: u64 = 5_000;
const MEASURE: u64 = 30_000;

/// The paper's headline configuration: Berti, on-commit issue,
/// GhostMinion with the Secure Update Filter.
fn traced_cfg() -> SystemConfig {
    SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::Berti)
        .with_mode(PrefetchMode::OnCommit)
        .with_suf(true)
}

/// One run of `traced_cfg` over `gcc_like`: its report, its capture and
/// the work its driver did.
type Run = (SimReport, Option<ObsCapture>, DriverCounts);

/// `traced_cfg` over `gcc_like`, with the recorder installed or not.
fn run(obs: Option<&ObsConfig>) -> Run {
    let feeds = vec![TraceFeed::Mem(suite::cached_trace("gcc_like", 40_000))];
    let mut sys = system_for(&traced_cfg(), feeds, WARMUP, MEASURE);
    if let Some(obs) = obs {
        sys = sys.with_obs(obs);
    }
    sys.run();
    let capture = sys.take_obs();
    (sys.report(), capture, sys.driver_counts())
}

/// The plain run, simulated once.
fn plain() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| run(None))
}

/// The recorded run every test reads, simulated once.
fn recorded() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| run(Some(&ObsConfig::enabled())))
}

/// The recorded run's report and capture.
fn traced() -> (&'static SimReport, &'static ObsCapture) {
    let (report, capture, _) = recorded();
    (
        report,
        capture.as_ref().expect("the recorder was installed"),
    )
}

#[test]
fn event_totals_reconcile_with_report_counters() {
    let (report, cap) = traced();
    let m = &report.cores[0];

    // Each event is recorded at exactly the program point that bumps its
    // counter, and recording arms at the warm-up boundary where metrics
    // reset — so per-kind totals must match the report exactly. Every
    // L1D miss of a demand load fills the GM.
    let pairs: [(EventKind, u64); 4] = [
        (EventKind::PrefetchUseful, m.prefetch.useful),
        (EventKind::PrefetchLate, m.prefetch.late),
        (EventKind::PrefetchUseless, m.prefetch.useless),
        (EventKind::GmSpecFill, m.l1d.miss_latency_count),
    ];
    for (kind, counter) in pairs {
        assert_eq!(
            cap.recorded(kind),
            counter,
            "event kind {} must reconcile with its report counter",
            kind.name()
        );
    }

    // The workload must actually exercise the traced mechanisms, or the
    // reconciliation above would be vacuous.
    assert!(
        m.prefetch.useful > 0 && m.prefetch.late > 0,
        "no useful or late prefetches: {:?}",
        m.prefetch
    );
    assert!(
        cap.recorded(EventKind::PrefetchFill) > 0,
        "no prefetch fills traced"
    );
    assert!(
        cap.recorded(EventKind::GmSpecFill) > 0,
        "no GM fills traced"
    );
    assert_eq!(cap.filters, ["suf"]);
    assert!(
        cap.mshr_high_water.iter().any(|(_, v)| *v > 0),
        "MSHR high-water marks missing: {:?}",
        cap.mshr_high_water
    );
}

#[test]
fn histograms_reconcile_exactly_with_report_counters() {
    let (report, cap) = traced();
    let (h, m) = (&cap.hists, &report.cores[0]);

    // Demand-access equation: every counted L1D demand access either
    // completed (one load-latency histogram sample at some level) or was
    // still in flight at capture time.
    let completed: u64 = h.load_latency.iter().map(|l| l.count()).sum();
    assert_eq!(
        h.demand_accesses,
        completed + h.unfinished_demands,
        "demand accesses must equal completed + unfinished"
    );
    assert_eq!(
        h.demand_accesses, m.l1d.demand_accesses,
        "the recorder mirrors the L1D demand-access counter site"
    );

    // Timeliness histograms record at the exact counter-increment sites.
    assert_eq!(h.pf_useful.count(), m.prefetch.useful);
    assert_eq!(h.pf_late.count(), m.prefetch.late);
    assert_eq!(h.pf_useless.count(), m.prefetch.useless);

    // The workload must exercise the instrumented paths, or the
    // reconciliation above is vacuous.
    assert!(h.demand_accesses > 0, "no demand accesses recorded");
    assert!(
        m.prefetch.useful > 0,
        "no useful prefetches: {:?}",
        m.prefetch
    );
    assert!(
        h.gm_occupancy.count() > 0,
        "GhostMinion fills must sample occupancy"
    );
    assert!(
        h.dram_queue_delay.count() > 0,
        "DRAM traffic must sample queue delay"
    );
    assert!(
        h.mshr_residency.iter().any(|l| l.count() > 0),
        "MSHR completions must sample residency"
    );
    // GM-hit loads are split out of L1D (the secure config must hit GM).
    let gm_idx = LOAD_LEVEL_NAMES.iter().position(|&n| n == "gm").unwrap();
    assert!(
        h.load_latency[gm_idx].count() > 0,
        "secure config must serve some loads from the GhostMinion"
    );
}

#[test]
fn latency_histograms_are_plausible() {
    let h = &traced().1.hists;
    // GM/L1 hits are short; DRAM completions are long. The histograms
    // must reflect the hierarchy's latency ordering.
    let gm = &h.load_latency[0];
    let dram = &h.load_latency[4];
    if let (Some(gm_max), Some(dram_min)) = (gm.max(), dram.min()) {
        assert!(
            gm_max < dram_min || dram.mean().unwrap() > gm.mean().unwrap(),
            "DRAM loads must be slower than GM hits on average"
        );
    }
    // Named export covers every histogram in a fixed order.
    let named = h.named();
    assert_eq!(named[0].0, "load_latency/gm");
    assert!(named.iter().any(|(n, _)| n == "pf_timeliness/useful"));
    let total: u64 = named.iter().map(|(_, l)| l.count()).sum();
    assert_eq!(total, h.total_samples());
}

#[test]
fn epochs_cover_the_measurement_window() {
    let (report, cap) = traced();
    let (ep, m) = (&cap.epochs, &report.cores[0]);
    let interval = ObsConfig::enabled().epoch_interval;
    assert!(
        !ep.rows.is_empty(),
        "a {MEASURE}-instruction window must produce epochs at interval {interval}"
    );
    assert!(ep.rows.len() as u64 <= MEASURE / interval + 1);
    // One column per counter: every core counter, then the DRAM channel's.
    let report_values: Vec<u64> = m.values().into_iter().chain(report.dram.values()).collect();
    assert_eq!(ep.columns.len(), report_values.len());
    for name in [
        "instructions",
        "l1d_port_stalls",
        "llc_mshr_full_stalls",
        "dram_row_hits",
    ] {
        assert!(ep.columns.iter().any(|c| c == name), "no column {name}");
    }
    let col = |name: &str| ep.columns.iter().position(|c| c == name).unwrap();
    let (instructions, cycles) = (col("instructions"), col("cycles"));
    // Per-core epoch indices are consecutive from zero; every epoch but
    // the last, which the finish boundary closes, spans an interval.
    for (i, row) in ep.rows.iter().enumerate() {
        assert_eq!(row.epoch, i as u64);
        assert_eq!(row.core, 0);
        assert_eq!(row.values.len(), ep.columns.len());
        assert!(row.values[cycles] > 0);
        if i + 1 < ep.rows.len() {
            assert!(row.values[instructions] >= interval);
        }
    }
    // The rows partition the measured window, so every core counter sums
    // to its report value. Exempt: `class_*`, whose classifier spans
    // warm-up, and the DRAM channel, whose report counters span warm-up
    // too (DESIGN.md §5) — its rows sum to no more than the report.
    for (i, name) in ep.columns.iter().enumerate() {
        let sum: u64 = ep.rows.iter().map(|r| r.values[i]).sum();
        if i >= m.values().len() {
            assert!(sum <= report_values[i], "{name}: {sum} > report");
        } else if !name.starts_with("class_") {
            assert_eq!(sum, report_values[i], "column {name}");
        }
    }
    // The CSV export carries every row and column.
    let csv = ep.to_csv();
    assert_eq!(csv.lines().count(), ep.rows.len() + 1);
    assert!(csv
        .lines()
        .all(|l| l.split(',').count() == 4 + ep.columns.len()));
}

#[test]
fn disabled_obs_yields_no_capture_and_same_results() {
    let (plain, none, _) = plain();
    assert!(none.is_none(), "a run without a recorder has no capture");
    // Recording must not perturb the simulation itself: it records at
    // existing event sites and never adds events or cycles.
    let traced = traced().0;
    assert_eq!(plain.cores[0].instructions, traced.cores[0].instructions);
    assert_eq!(plain.cores[0].cycles, traced.cores[0].cycles);
    assert_eq!(
        plain.cores[0].prefetch.issued,
        traced.cores[0].prefetch.issued
    );
    assert_eq!(plain.dram, traced.dram);
}

#[test]
fn a_recorded_run_does_the_driver_work_of_a_plain_one() {
    // The recorder only counts and samples at sites the driver reaches
    // anyway: it takes no branch of its own through the wait list, so
    // every port denial is settled by its gate's verdict either way.
    let (report, _, with) = recorded();
    let (_, _, without) = plain();
    let m = &report.cores[0];
    let port_stalls = m.l1d.port_stalls + m.l2.port_stalls + m.llc.port_stalls;
    assert!(port_stalls > 0, "the cell never denied a port");
    assert_eq!(with, without);
}

#[test]
fn a_mix_capture_names_each_cores_filter() {
    // Regression: the capture used to name core 0's filter for the whole
    // mix.
    let gm = CorePolicy {
        secure: SecureMode::GhostMinion,
        ..CorePolicy::of(&SystemConfig::baseline(1))
    };
    let cfg =
        SystemConfig::baseline(2).with_core_policies(vec![gm, CorePolicy { suf: true, ..gm }]);
    let feeds = ["leela_like", "gcc_like"]
        .into_iter()
        .map(|n| TraceFeed::Mem(suite::cached_trace(n, 2_000)))
        .collect();
    let mut sys = system_for(&cfg, feeds, 200, 1_000).with_obs(&ObsConfig::enabled());
    sys.run();
    let cap = sys.take_obs().expect("the recorder was installed");
    assert_eq!(cap.filters, ["always-update", "suf"]);
}
