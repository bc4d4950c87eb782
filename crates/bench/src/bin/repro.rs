//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--workers N] [--quiet] [--timings]
//!       [--trace TARGET] [--validate-trace FILE]
//!       [--check] [--check-iters N] [--check-replay FILE] [--sampled]
//!       [--profile] [all | TARGET...]
//! ```
//!
//! A `TARGET` is a name in `secpref_bench::runner::TARGETS`; an unknown
//! one is an error that lists them.
//!
//! `--quick` shrinks the simulation windows and the Fig. 15 mix count so
//! the whole sweep finishes in a couple of minutes. `--workers N` sets
//! the experiment engine's thread count (default: all cores). `--quiet`
//! silences every stderr progress line (figures still print to stdout).
//! `--timings` prints a per-phase wall-time breakdown (sweep, render,
//! check, trace) to stderr at exit — it works with `--quiet`, which
//! silences everything else.
//!
//! `--check` runs the `secpref-check` deterministic fuzzer — the pinned
//! tier-1 seed, 2000 iterations (`--check-iters N`) over every
//! (SecureMode × PrefetcherKind) cell with the golden-model differential,
//! the invariant auditor and the secret-footprint probe armed — plus the
//! quick sampled differential (below). Failing traces are shrunk and
//! dumped under `target/check/`; `--check-replay FILE` re-runs one
//! through every cell. Both skip the figure pipeline; exit status is
//! nonzero on any failure.
//!
//! `--sampled` without positional targets runs the sampled-vs-full
//! differential over the pinned 18-configuration matrix × 3 traces
//! (`--quick`: 3 cells × 1 trace, the slice `cargo test` runs): sampled
//! IPC within 2% of full detail, full-detail IPC inside the sampled
//! run's own 95% CI, and the `audit_sampled` rules. Exit status is
//! nonzero on any failure; skips the figure pipeline.
//!
//! `--sampled` *with* targets (e.g. `repro fig5 --sampled`) instead
//! pushes those targets' job sweeps through the engine with every job
//! wrapped in the validated sampling plan (`secpref_check::sampling::plan`):
//! point estimates plus per-metric confidence intervals land in the
//! result store and manifest under sampling-qualified job keys,
//! coexisting with any full-detail results. Figure rendering is skipped
//! (figures are defined over full-detail reports).
//!
//! `--trace TARGET` (repeatable; a target with simulation jobs)
//! re-simulates the target's jobs with the in-run recorder on, bypassing
//! the result store, and writes three artifacts per job under
//! `<store>/obs/` — the summary `<key>.summary.json` (per-kind event
//! totals, MSHR high-water marks, filters), epochs `<key>.epochs.csv`
//! and latency/timeliness histograms `<key>.hist.csv` — byte-identical
//! whatever `--workers` or the store hold. Like every sweep it also
//! writes the engine span trace (`telemetry/trace-<run_id>.json`, Chrome
//! trace-event format, validated structurally since it embeds
//! wall-clock). With no positional targets nothing is rendered.
//!
//! `--validate-trace FILE` parses a trace-event JSON file and checks the
//! structural invariants Perfetto needs (balanced `B`/`E` spans,
//! monotonic per-track timestamps), then exits; nonzero on violation.
//!
//! `--profile` runs the pinned 18-configuration × 3-trace matrix (the
//! sampled differential's cells, `secpref_check::sampling::diff_cells`)
//! plus one sampled cell with the built-in phase profiler, prints the
//! ranked wall-time-per-phase table and the detailed driver's work counts
//! (EXPERIMENTS.md, "Profiling the simulator"), and writes the
//! attribution as validated Chrome trace-event JSON to
//! `<store>/telemetry/profile-trace.json`. Skips the figure pipeline.
//!
//! The run proceeds in two phases: the jobs the requested targets plan
//! (`runner::plan`) are pushed through the parallel, resumable
//! experiment engine as one sweep (progress and ETA on stderr; results
//! persisted under `target/exp/` so a killed run resumes), then each
//! target renders from the sweep's reports.

use secpref_bench::profile;
use secpref_bench::runner::{self, Cx, ExpScale, TARGETS};
use secpref_exp::{Engine, JobSpec, ObsConfig, RunMode};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        ExpScale::Quick
    } else {
        ExpScale::Full
    };
    let mix_count = if quick { 6 } else { 16 };
    let mut workers: Option<usize> = None;
    let mut quiet = false;
    let mut timings = false;
    let mut check = false;
    let mut sampled = false;
    let mut profile_run = false;
    let mut check_iters: u64 = 2_000;
    let mut check_replay: Option<String> = None;
    let mut targets: Vec<&str> = Vec::new();
    let mut trace_targets: Vec<&str> = Vec::new();
    let mut validate_traces: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--quiet" => quiet = true,
            "--timings" => timings = true,
            "--check" => check = true,
            "--sampled" => sampled = true,
            "--profile" => profile_run = true,
            "--check-iters" => {
                check_iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--check-iters needs a positive integer"));
            }
            "--check-replay" => {
                let file = it
                    .next()
                    .unwrap_or_else(|| die("--check-replay needs a .sct file"));
                check_replay = Some(file.clone());
            }
            "--workers" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
                workers = Some(n);
            }
            "--trace" => {
                let target = it
                    .next()
                    .unwrap_or_else(|| die("--trace needs a target name"));
                trace_targets.push(target.as_str());
            }
            "--validate-trace" => {
                let file = it
                    .next()
                    .unwrap_or_else(|| die("--validate-trace needs a JSON file"));
                validate_traces.push(file.clone());
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag `{flag}`")),
            target => targets.push(target),
        }
    }
    if workers == Some(0) {
        die("--workers needs a positive integer");
    }
    let plan = |targets: &[&str]| runner::plan(targets, scale, mix_count);
    if let Some(bad) = trace_targets.iter().find(|t| plan(&[t]).is_empty()) {
        let mut sim: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        sim.retain(|t| !plan(&[t]).is_empty());
        die(&format!(
            "--trace target `{bad}` has no simulation jobs (expected one of: {})",
            sim.join(", ")
        ));
    }
    // The one engine of this process (only the branch that runs builds it).
    let open_engine = || {
        Engine::from_env(workers)
            .unwrap_or_else(|e| die(&format!("experiment store: {e}")))
            .with_verbose(!quiet)
    };

    // Trace-event validation runs instead of the figure pipeline.
    if !validate_traces.is_empty() {
        let mut failed = false;
        for file in &validate_traces {
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|e| die(&format!("cannot read `{file}`: {e}")));
            match secpref_exp::validate_trace_json(&text) {
                Ok(stats) => println!(
                    "{file}: ok ({} events, {} tracks)",
                    stats.events, stats.tracks
                ),
                Err(msg) => {
                    failed = true;
                    println!("{file}: INVALID: {msg}");
                }
            }
        }
        std::process::exit(i32::from(failed));
    }

    // So does the phase profile.
    if profile_run {
        let cells = secpref_check::sampling::diff_cells();
        let report = profile::run_profile(&cells, &profile::trace_matrix(), !quiet);
        println!("repro: phase profile over the full matrix");
        println!("{report}");
        let json = profile::profile_trace_json(&report.phases);
        if let Err(e) = secpref_exp::validate_trace_json(&json) {
            die(&format!("profile trace failed validation: {e}"));
        }
        let dir = open_engine().store_dir().join("telemetry");
        let path = dir.join("profile-trace.json");
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json + "\n"))
        {
            die(&format!("writing {}: {e}", path.display()));
        }
        println!(
            "repro: phase trace (Perfetto-compatible) -> {}",
            path.display()
        );
        return;
    }

    // Correctness modes run instead of the figure pipeline. `--sampled`
    // with positional targets is the sweep mode, handled below.
    let sampled_diff = sampled && targets.is_empty();
    if check || sampled_diff || check_replay.is_some() {
        let t0 = Instant::now();
        let pool = workers.unwrap_or_else(secpref_exp::default_workers);
        let mut failed = false;
        if let Some(file) = &check_replay {
            let results = secpref_check::replay_artifact(std::path::Path::new(file))
                .unwrap_or_else(|e| die(&format!("cannot replay `{file}`: {e}")));
            println!("replay {file}:");
            for (label, outcome) in &results {
                match outcome {
                    Ok(stats) => println!(
                        "  {label:<28} ok (checks={} pf={} wp={})",
                        stats.differential_checks, stats.prefetches_issued, stats.wrong_path_loads
                    ),
                    Err(msg) => {
                        failed = true;
                        println!("  {label:<28} FAIL: {msg}");
                    }
                }
            }
        }
        if sampled_diff || check {
            // `--sampled` runs the differential the user asked for
            // (full matrix, or 3 cells with `--quick`); a plain `--check`
            // rides the quick differential along so the sampled-report
            // audit rules are armed in every tier-1 check run.
            let quick_diff = if sampled_diff { quick } else { true };
            let summary = secpref_check::run_sampled_differential(quick_diff, pool);
            if sampled_diff {
                for c in &summary.cells {
                    let mark = if c.ok() { "ok  " } else { "FAIL" };
                    let viol = if c.violations.is_empty() {
                        String::new()
                    } else {
                        format!(" violations: {}", c.violations.join("; "))
                    };
                    println!(
                        "  {mark} {:<24} x {:<14} full {:.4} sampled {:.4} \
                         err {:.2}% ci ±{:.4} in_ci {} windows {}{viol}",
                        c.label,
                        c.trace,
                        c.full_ipc,
                        c.sampled_ipc,
                        c.rel_error * 100.0,
                        c.ci_half,
                        c.in_ci,
                        c.windows
                    );
                }
            } else {
                for c in summary.failures() {
                    println!(
                        "  FAIL {} x {}: err {:.2}% ci ±{:.4} in_ci {} violations {:?}",
                        c.label,
                        c.trace,
                        c.rel_error * 100.0,
                        c.ci_half,
                        c.in_ci,
                        c.violations
                    );
                }
            }
            println!(
                "sampled differential: {} combos, worst err {:.2}% (bound {:.0}%) -> {}",
                summary.cells.len(),
                summary.worst_error() * 100.0,
                secpref_check::sampling::MAX_IPC_ERROR * 100.0,
                if summary.ok() { "ok" } else { "FAIL" }
            );
            failed |= !summary.ok();
        }
        if check {
            let summary =
                secpref_check::run_fuzz(&secpref_check::FuzzPlan::pinned(check_iters, pool));
            print!("{}", summary.render());
            failed |= !summary.is_clean();
        }
        if !quiet {
            eprintln!("[check total {:.1?}]", t0.elapsed());
        }
        if timings {
            print_timings(&[("check", t0.elapsed())], t0.elapsed());
        }
        std::process::exit(i32::from(failed));
    }
    let names = || TARGETS.iter().map(|(name, _)| *name);
    if let Some(bad) = targets
        .iter()
        .find(|&&t| t != "all" && !names().any(|n| n == t))
    {
        let known: Vec<&str> = std::iter::once("all").chain(names()).collect();
        die(&format!(
            "unknown target `{bad}` (expected one of: {})",
            known.join(", ")
        ));
    }

    let t0 = Instant::now();
    let mut phases: Vec<(&str, std::time::Duration)> = Vec::new();
    let finish = |phases: &[(&str, std::time::Duration)]| {
        if !quiet {
            eprintln!("[total {:.1?}]", t0.elapsed());
        }
        if timings {
            print_timings(phases, t0.elapsed());
        }
    };
    let engine = open_engine();

    // Diagnostic sweep: re-simulate with the recorder on, export artifacts.
    if !trace_targets.is_empty() {
        let t_diag = Instant::now();
        let mode = RunMode::Traced(&ObsConfig::enabled());
        let (_, summary) = engine.run_with(&plan(&trace_targets), mode);
        if !quiet {
            eprintln!(
                "[repro] trace for {}: {} job(s); artifacts under {}/obs, manifest {}, \
                 span trace {}",
                trace_targets.join("+"),
                summary.jobs_unique,
                engine.store_dir().display(),
                summary.manifest_path.display(),
                summary
                    .trace_path
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "(not written)".into()),
            );
        }
        phases.push(("trace", t_diag.elapsed()));
    }

    // Diagnostic-only invocation: skip figure rendering.
    if targets.is_empty() && !trace_targets.is_empty() {
        finish(&phases);
        return;
    }

    let all = targets.is_empty() || targets.contains(&"all");
    let mut wanted: Vec<&str> = names().filter(|t| all || targets.contains(t)).collect();

    // Phase 1: run the whole requested sweep through the engine.
    let mut jobs = plan(&wanted);
    if sampled {
        // Sampled sweep: every job runs under the validated SMARTS plan;
        // results (with per-metric CI blocks) land in the store and the
        // manifest under sampling-qualified keys. Figures render from
        // full-detail reports, so rendering is skipped.
        let sampling = secpref_check::sampling::plan();
        jobs = jobs
            .into_iter()
            .map(|j| j.with_sampling(sampling))
            .collect();
    }
    let mut reports = runner::Reports::new();
    if !jobs.is_empty() {
        let t_sweep = Instant::now();
        let (ran, summary) = engine.run_all_with_summary(&jobs);
        reports = jobs.iter().map(JobSpec::key).zip(ran).collect();
        phases.push(("sweep", t_sweep.elapsed()));
        if !quiet {
            eprintln!(
                "[repro] sweep: {} jobs, {} unique, {} simulated, {} resumed from store ({} workers)",
                summary.jobs_requested,
                summary.jobs_unique,
                summary.executed,
                summary.from_store,
                engine.workers(),
            );
        }
    }
    if sampled {
        wanted.retain(|t| !plan(&[t]).is_empty());
        println!(
            "repro: sampled sweep for {} done — {} job(s) under plan `{}`; \
             point estimates and CIs are in the store manifest under {}",
            wanted.join("+"),
            jobs.len(),
            secpref_check::sampling::plan().canonical(),
            engine.store_dir().display(),
        );
        finish(&phases);
        return;
    }

    // Phase 2: render from the sweep's reports.
    let t_render = Instant::now();
    for (name, render) in TARGETS.iter().filter(|(name, _)| wanted.contains(name)) {
        let t = Instant::now();
        for table in render(&Cx::rendering(name, scale, mix_count, &reports)) {
            println!("{table}");
        }
        if !quiet {
            eprintln!("[{name} took {:.1?}]", t.elapsed());
        }
    }
    phases.push(("render", t_render.elapsed()));
    finish(&phases);
}

/// Per-phase wall-time breakdown for `--timings` (stderr, so it composes
/// with figure output on stdout and survives `--quiet`).
fn print_timings(phases: &[(&str, std::time::Duration)], total: std::time::Duration) {
    eprintln!("[timings]");
    for (name, d) in phases {
        eprintln!("  {name:<8} {d:.1?}");
    }
    eprintln!("  {:<8} {total:.1?}", "total");
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
