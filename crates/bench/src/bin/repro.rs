//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--workers N] [--serial] [--quiet] [--timings]
//!       [--trace TARGET] [--telemetry TARGET] [--validate-trace FILE]
//!       [--check] [--check-iters N] [--check-replay FILE] [--sampled]
//!       [--profile]
//!       [all | table1 | table2 | table3 | fig1 | fig3 | fig4 | fig5 |
//!        fig6 | fig10 | fig11 | fig12 | fig13 | fig14 | fig15 | fig16 |
//!        stats | ablations]
//! ```
//!
//! `--quick` shrinks the simulation windows and the Fig. 15 mix count so
//! the whole sweep finishes in a couple of minutes. `--workers N` sets
//! the experiment engine's thread count (default: all cores; `--serial`
//! is shorthand for `--workers 1`). `--quiet` silences every stderr
//! progress line (figures still print to stdout). `--timings` prints a
//! per-phase wall-time breakdown (sweep, render, check, trace) to stderr
//! at exit — it works with `--quiet`, which silences everything else.
//!
//! `--check` runs the `secpref-check` deterministic fuzzer — the pinned
//! tier-1 seed, 2000 iterations (override with `--check-iters N`) spread
//! over every (SecureMode × PrefetcherKind) cell — with the golden-model
//! differential checker, the invariant auditor, and the secret-footprint
//! containment probe armed. Failing traces are bisection-shrunk and
//! dumped under `target/check/`; exit status is nonzero on any failure.
//! `--check-replay FILE` re-runs one dumped `.sct` artifact through
//! every cell and reports each cell's verdict. Both modes skip the
//! figure pipeline entirely. `--check` also runs the quick sampled
//! differential (below), so the sampled-report audit rules are armed in
//! every tier-1 check run.
//!
//! `--sampled` without positional targets runs the sampled-vs-full
//! differential: every cell of the pinned 18-configuration matrix
//! simulates the same suite traces in full detail and in SMARTS sampled
//! mode; the sampled IPC must land within 2% of full detail, the
//! full-detail IPC must fall inside the sampled run's own reported 95%
//! confidence interval, and the sampled report must pass the
//! `audit_sampled` reconciliation rules. With `--quick` the matrix
//! shrinks to 3 representative cells × 1 trace (the slice `cargo test`
//! runs); the full run covers 18 cells × 3 traces. Exit status is
//! nonzero on any failure; skips the figure pipeline.
//!
//! `--sampled` *with* targets (e.g. `repro fig5 --sampled`) instead
//! pushes those targets' job sweeps through the engine with every job
//! wrapped in the validated sampling plan (`sweep::sampling_plan`):
//! point estimates plus per-metric confidence intervals land in the
//! result store and manifest under sampling-qualified job keys,
//! coexisting with any full-detail results. Figure rendering is skipped
//! (figures are defined over full-detail reports).
//!
//! `--trace TARGET` (repeatable) re-simulates the target's jobs with the
//! observability recorder on and writes per-job trace artifacts —
//! `<key>.events.jsonl` and `<key>.epochs.csv` — under
//! `target/exp/obs/`. Traced runs bypass the result store, so the
//! artifacts are byte-identical regardless of `--workers` or of what an
//! earlier run already persisted. Like every sweep it also writes the
//! run's engine span trace (below). With `--trace` and no positional
//! targets, repro skips figure rendering entirely.
//!
//! `--telemetry TARGET` (repeatable) is the distribution-level analogue:
//! it re-simulates the target's jobs with the telemetry recorder on and
//! writes per-job latency/timeliness histograms (`<key>.hist.csv`) plus
//! the run's engine span trace (`trace-<run_id>.json`, Chrome
//! trace-event format — load it in Perfetto) under `target/exp/
//! telemetry/`. The histogram artifacts obey the same byte-determinism
//! contract as `--trace` artifacts; the span trace embeds wall-clock
//! and is validated structurally instead.
//!
//! `--validate-trace FILE` parses a trace-event JSON file and checks the
//! structural invariants Perfetto needs (balanced `B`/`E` spans,
//! monotonic per-track timestamps), then exits; nonzero on violation.
//!
//! `--profile` runs the pinned 13-configuration × 3-trace matrix plus one
//! sampled cell once with the built-in phase profiler and prints the
//! ranked wall-time-per-phase table — and beside it the detailed
//! driver's request walks per instruction, its share of cycles ticked
//! rather than skipped, the wait list's high-water mark, and the request
//! records read for blocked requests and load-queue slots examined per
//! instruction (EXPERIMENTS.md, "Profiling the simulator"). The phase
//! attribution is also written as Chrome trace-event JSON (loadable in
//! Perfetto, same exporter as the sweep span traces) to
//! `<store>/telemetry/profile-trace.json`, validated before it is
//! written. Skips the figure pipeline.
//!
//! The run proceeds in two phases: the requested figures' job sweeps are
//! pushed through the parallel, resumable experiment engine (progress and
//! ETA on stderr; results persisted under `target/exp/` so a killed run
//! resumes), then each figure renders from the warm cache.

use secpref_bench::runner::ExpScale;
use secpref_bench::{figures, profile, runner, sweep};
use secpref_exp::{ObsConfig, RunMode, TelConfig};
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
    let mut targets: Vec<String> = Vec::new();
    let mut trace_targets: Vec<String> = Vec::new();
    let mut telemetry_targets: Vec<String> = Vec::new();
    let mut validate_traces: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--serial" => workers = Some(1),
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
                if !sweep::SIM_TARGETS.contains(&target.as_str()) {
                    die(&format!(
                        "--trace target `{target}` has no simulation jobs (expected one of: {})",
                        sweep::SIM_TARGETS.join(", ")
                    ));
                }
                trace_targets.push(target.clone());
            }
            "--telemetry" => {
                let target = it
                    .next()
                    .unwrap_or_else(|| die("--telemetry needs a target name"));
                if !sweep::SIM_TARGETS.contains(&target.as_str()) {
                    die(&format!(
                        "--telemetry target `{target}` has no simulation jobs (expected one of: {})",
                        sweep::SIM_TARGETS.join(", ")
                    ));
                }
                telemetry_targets.push(target.clone());
            }
            "--validate-trace" => {
                let file = it
                    .next()
                    .unwrap_or_else(|| die("--validate-trace needs a JSON file"));
                validate_traces.push(file.clone());
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag `{flag}`")),
            target => targets.push(target.to_string()),
        }
    }
    if let Some(n) = workers {
        if n == 0 {
            die("--workers needs a positive integer");
        }
        // Must happen before the first `runner::engine()` touch.
        std::env::set_var("SECPREF_EXP_WORKERS", n.to_string());
    }
    if quiet {
        // The engine reads this when it is first constructed.
        std::env::set_var("SECPREF_EXP_QUIET", "1");
    }

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
        let report =
            profile::run_profile(&profile::config_matrix(), &profile::trace_matrix(), !quiet);
        println!("repro: phase profile over the full matrix");
        println!("{report}");
        let json = profile::profile_trace_json(&report.phases);
        if let Err(e) = secpref_exp::validate_trace_json(&json) {
            die(&format!("profile trace failed validation: {e}"));
        }
        let dir = runner::engine().store_dir().join("telemetry");
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
        let pool = workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        });
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
    const KNOWN: &[&str] = &[
        "all",
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "stats",
        "ablations",
    ];
    if let Some(bad) = targets.iter().find(|t| !KNOWN.contains(&t.as_str())) {
        die(&format!(
            "unknown target `{bad}` (expected one of: {})",
            KNOWN.join(", ")
        ));
    }

    let t0 = Instant::now();
    let mut phases: Vec<(&str, std::time::Duration)> = Vec::new();

    // Diagnostic sweeps: re-simulate with a recorder on, export artifacts.
    let (obs, tel) = (ObsConfig::enabled(), TelConfig::enabled());
    for (phase, subdir, mode, diag_targets) in [
        ("trace", "obs", RunMode::Traced(&obs), &trace_targets),
        (
            "telemetry",
            "telemetry",
            RunMode::Telemetry(&tel),
            &telemetry_targets,
        ),
    ] {
        if diag_targets.is_empty() {
            continue;
        }
        let t_diag = Instant::now();
        let jobs =
            sweep::jobs_for_targets(diag_targets.iter().map(String::as_str), scale, mix_count);
        let engine = runner::engine();
        let (_, summary) = engine.run_with(&jobs, mode);
        if !quiet {
            eprintln!(
                "[repro] {phase} for {}: {} job(s); artifacts under {}/{subdir}, manifest {}, \
                 span trace {}",
                diag_targets.join("+"),
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
        phases.push((phase, t_diag.elapsed()));
    }

    if !trace_targets.is_empty() || !telemetry_targets.is_empty() {
        // Diagnostic-only invocation: skip figure rendering.
        if targets.is_empty() {
            if !quiet {
                eprintln!("[total {:.1?}]", t0.elapsed());
            }
            if timings {
                print_timings(&phases, t0.elapsed());
            }
            return;
        }
    }

    let all = targets.is_empty() || targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    // Phase 1: run the whole requested sweep through the engine.
    let wanted: Vec<&str> = sweep::SIM_TARGETS
        .iter()
        .copied()
        .filter(|t| want(t))
        .collect();
    let mut jobs = sweep::jobs_for_targets(wanted.iter().copied(), scale, mix_count);
    if sampled {
        // Sampled sweep: every job runs under the validated SMARTS plan;
        // results (with per-metric CI blocks) land in the store and the
        // manifest under sampling-qualified keys. Figures render from
        // full-detail reports, so rendering is skipped.
        jobs = sweep::with_sampling(jobs);
    }
    if !jobs.is_empty() {
        let t_sweep = Instant::now();
        let summary = runner::prewarm(&jobs);
        phases.push(("sweep", t_sweep.elapsed()));
        if !quiet {
            eprintln!(
                "[repro] sweep: {} jobs, {} unique, {} simulated, {} resumed from store, {} already in memory ({} workers)",
                summary.jobs_requested,
                summary.jobs_unique,
                summary.executed,
                summary.from_store,
                summary.from_memory,
                runner::engine().workers(),
            );
        }
    }
    if sampled {
        println!(
            "repro: sampled sweep for {} done — {} job(s) under plan `{}`; \
             point estimates and CIs are in the store manifest under {}",
            wanted.join("+"),
            jobs.len(),
            sweep::sampling_plan().canonical(),
            runner::engine().store_dir().display(),
        );
        if !quiet {
            eprintln!("[total {:.1?}]", t0.elapsed());
        }
        if timings {
            print_timings(&phases, t0.elapsed());
        }
        return;
    }

    // Phase 2: render from the warm cache.
    let t_render = Instant::now();
    if want("table1") {
        println!("{}", figures::table1());
    }
    if want("table2") {
        println!("{}", figures::table2());
    }
    if want("table3") {
        println!("{}", figures::table3());
    }
    for (name, f) in [
        (
            "fig1",
            figures::fig1 as fn(ExpScale) -> secpref_bench::Table,
        ),
        ("fig3", figures::fig3),
        ("fig4", figures::fig4),
        ("fig5", figures::fig5),
        ("fig6", figures::fig6),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("fig13", figures::fig13),
        ("fig14", figures::fig14),
    ] {
        if want(name) {
            let t = Instant::now();
            println!("{}", f(scale));
            if !quiet {
                eprintln!("[{name} took {:.1?}]", t.elapsed());
            }
        }
    }
    if want("fig15") {
        let t = Instant::now();
        println!("{}", figures::fig15(scale, mix_count));
        if !quiet {
            eprintln!("[fig15 took {:.1?}]", t.elapsed());
        }
    }
    if want("fig16") {
        let t = Instant::now();
        println!("{}", figures::fig16(scale));
        if !quiet {
            eprintln!("[fig16 took {:.1?}]", t.elapsed());
        }
    }
    if want("stats") {
        println!("{}", figures::stats(scale));
    }
    if want("ablations") {
        use secpref_bench::ablations;
        let t = Instant::now();
        println!("{}", ablations::gm_size(scale));
        println!("{}", ablations::suf_parts(scale));
        println!("{}", ablations::lateness_threshold(scale));
        println!("{}", ablations::tsb_non_secure(scale));
        println!("{}", ablations::llc_replacement(scale));
        if !quiet {
            eprintln!("[ablations took {:.1?}]", t.elapsed());
        }
    }
    phases.push(("render", t_render.elapsed()));
    if !quiet {
        eprintln!("[total {:.1?}]", t0.elapsed());
    }
    if timings {
        print_timings(&phases, t0.elapsed());
    }
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
