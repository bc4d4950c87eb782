//! The engine's determinism contract, end to end:
//!
//! 1. the same job produces a bit-identical report on every run,
//! 2. a sweep's results are independent of the worker count,
//! 3. a resumed run (fresh engine over an existing store) returns exactly
//!    what the cold run produced, and its manifest proves nothing was
//!    re-simulated.

use secpref_exp::{codec, Engine, ExpScale, JobSpec, RunMode, RunSummary};
use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("secpref-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small but representative sweep: plain baseline, a secure on-commit
/// prefetcher, a duplicate, and a 4-core mix.
fn sweep() -> Vec<JobSpec> {
    let base = SystemConfig::baseline(1);
    let secure = base
        .clone()
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit);
    let mix = [
        "leela_like".to_string(),
        "gcc_like".to_string(),
        "leela_like".to_string(),
        "bfs_small".to_string(),
    ];
    vec![
        JobSpec::single(base.clone(), "leela_like", ExpScale::Quick),
        JobSpec::single(secure.clone(), "leela_like", ExpScale::Quick),
        JobSpec::single(base.clone(), "gcc_like", ExpScale::Quick),
        JobSpec::single(secure, "bfs_small", ExpScale::Quick),
        JobSpec::single(base.clone(), "leela_like", ExpScale::Quick), // duplicate
        JobSpec::mix(
            base.with_secure(SecureMode::GhostMinion),
            &mix,
            ExpScale::Quick,
        ),
    ]
}

fn serialize_all(reports: &[secpref_sim::SimReport]) -> Vec<String> {
    reports.iter().map(codec::report_to_string).collect()
}

#[test]
fn same_job_is_bit_identical_across_runs() {
    let job = sweep().remove(1);
    let a = codec::report_to_string(&job.run());
    let b = codec::report_to_string(&job.run());
    assert_eq!(
        a, b,
        "two fresh simulations of one job must agree bit for bit"
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let jobs = sweep();
    let dir1 = tmp_dir("w1");
    let dir4 = tmp_dir("w4");
    let serial = Engine::new(&dir1, 1).unwrap().run_all(&jobs);
    let parallel = Engine::new(&dir4, 4).unwrap().run_all(&jobs);
    assert_eq!(serialize_all(&serial), serialize_all(&parallel));
    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
}

#[test]
fn resumed_run_matches_cold_run_without_resimulating() {
    let jobs = sweep();
    let dir = tmp_dir("resume");

    let (cold_reports, cold) = Engine::new(&dir, 4).unwrap().run_all_with_summary(&jobs);
    assert_eq!(cold.jobs_requested, jobs.len());
    assert_eq!(
        cold.jobs_unique, 5,
        "one duplicate job must be deduplicated"
    );
    assert_eq!(cold.executed, 5);
    assert_eq!(cold.from_store, 0);

    // A fresh engine on the same store — as after a kill + restart.
    let (warm_reports, warm) = Engine::new(&dir, 4).unwrap().run_all_with_summary(&jobs);
    assert_eq!(warm.executed, 0, "resume must not re-simulate anything");
    assert_eq!(warm.from_store, 5);
    assert_eq!(serialize_all(&cold_reports), serialize_all(&warm_reports));

    // The manifests on disk tell the same story.
    let cold_manifest = std::fs::read_to_string(&cold.manifest_path).unwrap();
    let warm_manifest = std::fs::read_to_string(&warm.manifest_path).unwrap();
    let get = |text: &str, field: &str| {
        secpref_exp::json::parse(text.trim())
            .unwrap()
            .get(field)
            .and_then(secpref_exp::json::Json::as_u64)
            .unwrap()
    };
    assert_eq!(get(&cold_manifest, "jobs_executed"), 5);
    assert_eq!(get(&warm_manifest, "jobs_executed"), 0);
    assert_eq!(get(&warm_manifest, "jobs_from_store"), 5);

    // Both sweep span traces must validate: the cold run exercises the
    // execute/simulate/store-append spans, the warm run the all-dedup-hit
    // resolve path (whose events trail the phase start — a trailing `X`
    // there once regressed the engine track's timestamp order).
    for summary in [&cold, &warm] {
        let path = summary.trace_path.as_ref().expect("span trace written");
        let text = std::fs::read_to_string(path).unwrap();
        secpref_exp::validate_trace_json(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The artifact-byte contract of a diagnostic sweep, checked the same way
/// for both recorders. `mode` is the sweep under test; `subdir` and
/// `suffixes` name the content-keyed artifact files it must leave under
/// the store directory. Returns the serial run's summary for
/// the mode-specific record checks.
///
/// Artifacts are a pure function of (job, recorder config): worker
/// count, completion interleaving, and whatever an earlier run left in
/// the result store must all be invisible. The span trace
/// (`trace-<run_id>.json`) embeds wall-clock durations, so it is
/// validated structurally instead of byte-compared.
fn assert_artifact_contract(
    tag: &str,
    subdir: &str,
    suffixes: &[&str],
    mode: RunMode<'_>,
) -> RunSummary {
    let jobs = sweep();
    let dir1 = tmp_dir(&format!("{tag}-w1"));
    let dir4 = tmp_dir(&format!("{tag}-w4"));

    // The store already holds every result of the sweep, so a diagnostic
    // run that consulted it would simulate nothing — and one that wrote
    // to it would change these bytes.
    Engine::new(&dir1, 2).unwrap().run_all(&jobs);
    let results = dir1.join("results.jsonl");
    let store_before = std::fs::read(&results).unwrap();

    let (serial_reports, serial_summary) = Engine::new(&dir1, 1).unwrap().run_with(&jobs, mode);
    let (parallel_reports, parallel_summary) = Engine::new(&dir4, 4).unwrap().run_with(&jobs, mode);

    // Reports are worker-count independent, as in plain sweeps.
    assert_eq!(
        serialize_all(&serial_reports),
        serialize_all(&parallel_reports)
    );

    let artifact = |dir: &PathBuf, key: &str, suffix: &str| {
        std::fs::read(dir.join(subdir).join(format!("{key}.{suffix}"))).unwrap()
    };
    let keys: Vec<String> = {
        let mut seen = std::collections::HashSet::new();
        jobs.iter()
            .map(JobSpec::key)
            .filter(|k| seen.insert(k.clone()))
            .collect()
    };
    assert_eq!(keys.len(), serial_summary.jobs_unique);
    assert_eq!(
        serial_summary.executed, serial_summary.jobs_unique,
        "{tag} runs always re-simulate, whatever the store holds"
    );
    assert_eq!(serial_summary.from_store + serial_summary.from_memory, 0);
    for key in &keys {
        for suffix in suffixes {
            let bytes = artifact(&dir1, key, suffix);
            assert!(!bytes.is_empty());
            assert_eq!(
                bytes,
                artifact(&dir4, key, suffix),
                "{suffix} for {key} must not depend on the worker count"
            );
        }
    }

    // Re-running on a fresh engine over the same store (a "resumed"
    // diagnostic run) reproduces the artifacts bit for bit.
    let cold_bytes: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| artifact(&dir1, k, suffixes[0]))
        .collect();
    let (warm_reports, warm_summary) = Engine::new(&dir1, 4).unwrap().run_with(&jobs, mode);
    assert_eq!(
        warm_summary.executed, warm_summary.jobs_unique,
        "{tag} runs always re-simulate"
    );
    for (key, cold) in keys.iter().zip(&cold_bytes) {
        assert_eq!(
            &artifact(&dir1, key, suffixes[0]),
            cold,
            "resumed {tag} run of {key} must be byte-identical to the cold one"
        );
    }
    assert_eq!(serialize_all(&serial_reports), serialize_all(&warm_reports));

    // Three diagnostic sweeps later the result store is byte for byte
    // what the plain sweep left, and the other engine never created one.
    assert_eq!(std::fs::read(&results).unwrap(), store_before);
    assert!(!dir4.join("results.jsonl").exists());

    // Every run exported a structurally valid span trace with one track
    // per active worker plus the engine track.
    for (summary, min_tracks) in [
        (&serial_summary, 2),
        (&parallel_summary, 3),
        (&warm_summary, 3),
    ] {
        let path = summary.trace_path.as_ref().expect("span trace written");
        let text = std::fs::read_to_string(path).unwrap();
        let stats = secpref_exp::validate_trace_json(&text)
            .unwrap_or_else(|e| panic!("invalid span trace {}: {e}", path.display()));
        assert!(stats.events > 0);
        assert!(
            stats.tracks >= min_tracks,
            "expected ≥{min_tracks} tracks in {}",
            path.display()
        );
    }

    // The manifest exposes the run's utilization and dedup hit rate.
    assert!(serial_summary.utilization > 0.0 && serial_summary.utilization <= 1.0);
    let manifest = std::fs::read_to_string(&serial_summary.manifest_path).unwrap();
    let json = secpref_exp::json::parse(manifest.trim()).unwrap();
    assert!(json.get("utilization").and_then(|j| j.as_f64()).is_some());
    assert!(json
        .get("dedup_hit_rate")
        .and_then(|j| j.as_f64())
        .is_some());

    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
    serial_summary
}

#[test]
fn trace_artifacts_are_byte_identical_across_workers_and_resume() {
    let obs = secpref_exp::ObsConfig::enabled().with_epoch_interval(500);
    let summary = assert_artifact_contract(
        "obs",
        "obs",
        &["events.jsonl", "epochs.csv"],
        RunMode::Traced(&obs),
    );
    // Every traced job's manifest record carries an obs summary with a
    // populated epoch series; the secure on-commit jobs also record
    // commit/prefetch events.
    for record in &summary.jobs {
        let obs = record.obs.expect("traced jobs must report an obs summary");
        assert!(obs.epochs > 0, "{} produced no epochs", record.label);
    }
    assert!(
        summary
            .jobs
            .iter()
            .any(|r| r.obs.is_some_and(|o| o.events_recorded > 0)),
        "the sweep's secure jobs must record events"
    );
}

#[test]
fn telemetry_artifacts_are_byte_identical_across_workers_and_resume() {
    let tel = secpref_exp::TelConfig::enabled();
    let summary =
        assert_artifact_contract("tel", "telemetry", &["hist.csv"], RunMode::Telemetry(&tel));
    // Every telemetry job's manifest record carries a sample total.
    for record in &summary.jobs {
        assert!(
            record.tel_samples.is_some_and(|s| s > 0),
            "{} recorded no samples",
            record.label
        );
    }
}

#[test]
fn many_core_mix_resume_matches_cold_run() {
    // Scale-out cell: one 32-core heterogeneous mix (every suite trace,
    // cycled to 32 slots, with a rotating per-core policy wheel) must
    // satisfy the same resume contract as the small sweep — the cold run
    // simulates it once, a fresh engine over the same store returns the
    // bit-identical report without re-simulating.
    use secpref_types::CorePolicy;
    const CORES: usize = 32;
    let names = secpref_trace::suite::spec_names();
    let mix: Vec<String> = (0..CORES).map(|c| names[c % names.len()].clone()).collect();
    let base = CorePolicy::of(&SystemConfig::baseline(1));
    let policies: Vec<CorePolicy> = (0..CORES)
        .map(|c| match c % 4 {
            0 => base,
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
        })
        .collect();
    let cfg = SystemConfig::baseline(CORES).with_core_policies(policies);
    cfg.validate().expect("32-core mix config must be valid");
    let jobs = vec![JobSpec::mix(cfg, &mix, ExpScale::Quick)];
    let dir = tmp_dir("manycore");

    let (cold_reports, cold) = Engine::new(&dir, 2).unwrap().run_all_with_summary(&jobs);
    assert_eq!(cold.executed, 1);
    assert_eq!(cold_reports[0].cores.len(), CORES);

    let (warm_reports, warm) = Engine::new(&dir, 2).unwrap().run_all_with_summary(&jobs);
    assert_eq!(warm.executed, 0, "resume must not re-simulate the mix");
    assert_eq!(warm.from_store, 1);
    assert_eq!(serialize_all(&cold_reports), serialize_all(&warm_reports));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sampled_jobs_are_deterministic_across_workers_and_resume() {
    // The seeded window-offset jitter is a pure function of
    // (jitter_seed, window index), so a sampled job must be bit-identical
    // no matter which worker runs it, and a resumed run must return the
    // stored bytes. A full-detail twin of the same config must get its
    // own store key (no aliasing between sampled and full results).
    use secpref_types::SamplingConfig;
    let secure = SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit)
        .with_suf(true);
    let s = SamplingConfig::new(2_000, 500, 1_500).with_jitter(300, 11);
    let jobs = vec![
        JobSpec::single(secure.clone(), "leela_like", ExpScale::Quick).with_sampling(s),
        JobSpec::single(secure.clone(), "leela_like", ExpScale::Quick).with_sampling(s), // dup
        JobSpec::single(secure, "leela_like", ExpScale::Quick), // full-detail twin
    ];
    assert_ne!(jobs[0].key(), jobs[2].key());

    let dir1 = tmp_dir("sampled-w1");
    let dir4 = tmp_dir("sampled-w4");
    let serial = Engine::new(&dir1, 1).unwrap().run_all(&jobs);
    let parallel = Engine::new(&dir4, 4).unwrap().run_all(&jobs);
    assert_eq!(serialize_all(&serial), serialize_all(&parallel));
    let sm = serial[0].sampling.as_ref().expect("sampled block stored");
    assert!(sm.windows >= 3);
    assert!(serial[2].sampling.is_none(), "full twin stays full detail");

    let (warm_reports, warm) = Engine::new(&dir4, 4).unwrap().run_all_with_summary(&jobs);
    assert_eq!(warm.executed, 0, "resume must not re-simulate");
    assert_eq!(warm.from_store, 2);
    assert_eq!(serialize_all(&parallel), serialize_all(&warm_reports));
    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dir4);
}

#[test]
fn many_core_sampled_resume_matches_cold_run() {
    // 32-core sampled cell: per-core policy wheel plus SMARTS sampling.
    // Every core must measure every window (the scheduler waits on the
    // slowest core), and resume must return the cold run's exact bytes.
    use secpref_types::{CorePolicy, SamplingConfig};
    const CORES: usize = 32;
    let names = secpref_trace::suite::spec_names();
    let mix: Vec<String> = (0..CORES).map(|c| names[c % names.len()].clone()).collect();
    let base = CorePolicy::of(&SystemConfig::baseline(1));
    let policies: Vec<CorePolicy> = (0..CORES)
        .map(|c| match c % 2 {
            0 => base,
            _ => CorePolicy {
                secure: SecureMode::GhostMinion,
                prefetcher: PrefetcherKind::Berti,
                prefetch_mode: PrefetchMode::OnCommit,
                suf: true,
                ..base
            },
        })
        .collect();
    let cfg = SystemConfig::baseline(CORES).with_core_policies(policies);
    cfg.validate()
        .expect("32-core sampled config must be valid");
    let s = SamplingConfig::new(1_500, 500, 2_000).with_jitter(250, 7);
    let jobs = vec![JobSpec::mix(cfg, &mix, ExpScale::Quick).with_sampling(s)];
    let dir = tmp_dir("manycore-sampled");

    let (cold_reports, cold) = Engine::new(&dir, 2).unwrap().run_all_with_summary(&jobs);
    assert_eq!(cold.executed, 1);
    assert_eq!(cold_reports[0].cores.len(), CORES);
    let sm = cold_reports[0].sampling.as_ref().expect("sampled block");
    assert!(sm.windows >= 2);
    let total: u64 = cold_reports[0].cores.iter().map(|c| c.instructions).sum();
    assert_eq!(total, sm.measured_instructions);

    let (warm_reports, warm) = Engine::new(&dir, 2).unwrap().run_all_with_summary(&jobs);
    assert_eq!(warm.executed, 0, "resume must not re-simulate the mix");
    assert_eq!(warm.from_store, 1);
    assert_eq!(serialize_all(&cold_reports), serialize_all(&warm_reports));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn partial_store_resumes_the_rest() {
    // Simulate a killed run: only part of the sweep made it to disk.
    let jobs = sweep();
    let dir = tmp_dir("partial");
    {
        let engine = Engine::new(&dir, 2).unwrap();
        engine.run_all(&jobs[..2]);
    }
    let (_, summary) = Engine::new(&dir, 2).unwrap().run_all_with_summary(&jobs);
    assert_eq!(summary.from_store, 2);
    assert_eq!(summary.executed, 3);
    let _ = std::fs::remove_dir_all(dir);
}
