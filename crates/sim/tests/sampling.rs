//! Statistical-sampling (SMARTS-style) integration tests: the sampled
//! run loop must stay close to full detail, reconcile its own counters,
//! and leave the full-detail path bit-identical.

use secpref_sim::{
    run_multi_sampled_with_window, run_single_sampled_with_window, run_single_with_window,
    SamplingConfig,
};
use secpref_trace::suite;
use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};

fn secure_cfg() -> SystemConfig {
    SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit)
        .with_suf(true)
}

#[test]
fn sampled_ipc_tracks_full_detail() {
    // Both runs use a warm-up long enough for full detail to reach steady
    // state: the comparison then isolates the sampling estimator from the
    // cold-start transient (which functional warming fast-forwards).
    let trace = suite::cached_trace("leela_like", 60_000);
    let cfg = secure_cfg();
    let full = run_single_with_window(&cfg, &trace, 40_000, 40_000);
    let s = SamplingConfig::new(2_000, 1_000, 5_000);
    let sampled = run_single_sampled_with_window(&cfg, &trace, 40_000, 40_000, &s);
    let summary = sampled.sampling.as_ref().expect("sampled report");
    assert!(
        summary.windows >= 3,
        "want several windows, got {summary:?}"
    );
    let err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
    assert!(
        err < 0.05,
        "sampled IPC {} vs full {} ({:.1}% off)",
        sampled.ipc(),
        full.ipc(),
        err * 100.0
    );
    // The whole-span full-detail IPC must fall inside the sampled CI.
    assert!(
        (full.ipc() - sampled.ipc()).abs() <= summary.ipc.ci_half,
        "full {} outside sampled CI {} ± {}",
        full.ipc(),
        sampled.ipc(),
        summary.ipc.ci_half
    );
}

#[test]
fn sampled_counters_reconcile() {
    let trace = suite::cached_trace("mcf_like_a", 60_000);
    let cfg = secure_cfg();
    let s = SamplingConfig::new(2_000, 1_000, 5_000).with_jitter(500, 7);
    let r = run_single_sampled_with_window(&cfg, &trace, 10_000, 40_000, &s);
    let sm = r.sampling.as_ref().expect("sampled report");
    // Aggregate instructions must equal the sum over measured windows;
    // each window retires `window..window+retire_width` instructions.
    let total: u64 = r.cores.iter().map(|c| c.instructions).sum();
    assert_eq!(total, sm.measured_instructions);
    let lo = sm.windows * sm.window_len;
    let hi = sm.windows * (sm.window_len + 3);
    assert!(
        (lo..=hi).contains(&sm.measured_instructions),
        "measured {} outside [{lo}, {hi}]",
        sm.measured_instructions
    );
    assert_eq!(sm.ipc.n, sm.windows);
    for stats in [&sm.ipc, &sm.mpki_l1d, &sm.pf_accuracy] {
        assert!(stats.mean.is_finite() && stats.mean >= 0.0);
        assert!(stats.stderr.is_finite() && stats.stderr >= 0.0);
        assert!(stats.ci_half.is_finite() && stats.ci_half >= 0.0);
    }
    assert!(sm.functional_instructions > 0);
}

#[test]
fn sampled_run_is_deterministic() {
    let trace = suite::cached_trace("xz_like", 60_000);
    let cfg = secure_cfg();
    let s = SamplingConfig::new(2_000, 1_000, 5_000).with_jitter(500, 7);
    let a = run_single_sampled_with_window(&cfg, &trace, 10_000, 40_000, &s);
    let b = run_single_sampled_with_window(&cfg, &trace, 10_000, 40_000, &s);
    assert_eq!(format!("{:?}", a.sampling), format!("{:?}", b.sampling));
    assert_eq!(a.ipc().to_bits(), b.ipc().to_bits());
}

#[test]
fn full_detail_report_has_no_sampling_block() {
    let trace = suite::cached_trace("leela_like", 20_000);
    let r = run_single_with_window(&secure_cfg(), &trace, 2_000, 10_000);
    assert!(r.sampling.is_none());
}

#[test]
fn multicore_sampled_runs_and_reconciles() {
    let traces = vec![
        suite::cached_trace("leela_like", 40_000),
        suite::cached_trace("mcf_like_a", 40_000),
    ];
    let cfg = SystemConfig::baseline(2)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit)
        .with_suf(true);
    let s = SamplingConfig::new(2_000, 1_000, 5_000);
    let r = run_multi_sampled_with_window(&cfg, traces, 10_000, 40_000, &s);
    let sm = r.sampling.as_ref().expect("sampled report");
    assert!(sm.windows >= 3);
    let total: u64 = r.cores.iter().map(|c| c.instructions).sum();
    assert_eq!(total, sm.measured_instructions);
    // Two cores: per-window bounds scale by the core count.
    let lo = sm.windows * sm.window_len * 2;
    let hi = sm.windows * (sm.window_len + 3) * 2;
    assert!((lo..=hi).contains(&sm.measured_instructions));
    for c in &r.cores {
        assert!(c.ipc() > 0.0, "every core must measure");
    }
}

#[test]
fn plan_that_does_not_fit_fails_before_warming() {
    // One period needs 8 000 instructions; the span has 5 000. The run
    // must refuse up front, not after functionally warming 10 000
    // instructions (which would have advanced the clock).
    let trace = suite::cached_trace("leela_like", 20_000);
    let mut sys = secpref_sim::System::new(secure_cfg(), vec![trace]).with_window(10_000, 5_000);
    let s = SamplingConfig::new(2_000, 1_000, 5_000);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run_sampled(&s)))
        .expect_err("plan does not fit");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("first period needs 8000"), "{msg}");
    assert_eq!(sys.cycles(), 0, "nothing may be warmed first");
}
