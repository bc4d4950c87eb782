//! `simbench`: measure simulator throughput on the pinned config×trace
//! matrix and write `BENCH_simcore.json`.
//!
//! Usage:
//!
//! ```text
//! simbench [--smoke] [--sampled] [--profile] [--guard PATH] [--out PATH] [--baseline GEOMEAN]
//! ```
//!
//! - `--smoke`: tiny per-cell time budget, write to a scratch path, then
//!   parse the artifact back and assert `geomean > 0` — the tier-1 CI
//!   stage. Exits non-zero on any validation failure.
//! - `--sampled`: additionally run the SMARTS sampled-mode throughput
//!   bench (one GhostMinion+SUF cell streamed from a `.sct` store, full
//!   detail vs sampled) and record its `effective_sim_instr_per_sec` in
//!   the artifact's `sampled` block. With `--guard`, the sampled
//!   effective rate is guarded against the committed artifact's block
//!   (when present) alongside the full-detail geomean.
//! - `--profile`: run the matrix once with the built-in phase profiler
//!   and print the ranked wall-time-per-phase table — and beside it
//!   the detailed driver's request walks per instruction, its share of
//!   cycles ticked rather than skipped, the wait list's high-water
//!   mark, and the request records read for blocked requests and
//!   load-queue slots examined per instruction — instead of
//!   benchmarking (see EXPERIMENTS.md, "Profiling the simulator"). The
//!   phase attribution is also exported as Chrome trace-event JSON
//!   (loadable in Perfetto, same exporter as the experiment engine's
//!   sweep span traces) to `--out` if given, else
//!   `target/exp/telemetry/profile-trace.json`; the export is
//!   structurally validated before simbench exits.
//! - `--guard PATH`: after measuring, compare the geomean against the
//!   committed artifact at `PATH` and exit non-zero on a regression
//!   beyond the guard band (the tier-1 perf tripwire). Set
//!   `SECPREF_BENCH_SKIP_GUARD=1` to turn the comparison into a no-op
//!   (noisy shared runners, intentional perf-neutral rewrites pending a
//!   baseline regeneration — see EXPERIMENTS.md).
//! - `--out PATH`: artifact path (default `BENCH_simcore.json`).
//! - `--baseline GEOMEAN`: pre-change geomean sim-instr/sec to record in
//!   the artifact (default: the committed [`simcore::BASELINE_GEOMEAN`]).

/// A guard run fails when the measured geomean drops below this
/// fraction of the committed artifact's geomean. Wide enough to absorb
/// run-to-run noise at small time budgets, tight enough to catch a real
/// hot-path regression (anything slower than ~1.4x-off trips it).
const GUARD_BAND: f64 = 0.70;

/// Guard band for the sampled-mode effective rate. The committed value
/// comes from a full-budget (1e8-instruction) run; the tier-1 guard
/// re-measures at the smoke span (1e6 instructions), which lands at
/// ~0.9x of the full-span rate (the decoded-chunk replay cache keeps
/// the short span from paying a structural decode discount). The band
/// absorbs shared-runner noise while tripping on any real
/// functional-path regression well before the rate halves.
const SAMPLED_GUARD_BAND: f64 = 0.60;

use secpref_bench::simcore;

fn main() {
    let mut smoke = false;
    let mut sampled = false;
    let mut profile = false;
    let mut guard: Option<String> = None;
    let mut out: Option<String> = None;
    let mut baseline = simcore::BASELINE_GEOMEAN;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--sampled" => sampled = true,
            "--profile" => profile = true,
            "--guard" => {
                guard = Some(args.next().unwrap_or_else(|| die("--guard needs a path")));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--baseline" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--baseline needs a number"));
                baseline = v
                    .parse()
                    .unwrap_or_else(|_| die("--baseline needs a number"));
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }

    if profile {
        let report = simcore::run_profile();
        println!("simbench: phase profile over the full matrix");
        println!("{report}");
        let trace_out = out.unwrap_or_else(|| "target/exp/telemetry/profile-trace.json".into());
        let json = simcore::profile_trace_json(&report.phases);
        if let Err(e) = secpref_exp::validate_trace_json(&json) {
            die(&format!("profile trace failed validation: {e}"));
        }
        if let Some(dir) = std::path::Path::new(&trace_out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&trace_out, json + "\n") {
            die(&format!("writing {trace_out}: {e}"));
        }
        println!("simbench: phase trace (Perfetto-compatible) -> {trace_out}");
        return;
    }

    if smoke && std::env::var_os("SECPREF_BENCH_MS").is_none() {
        // Smoke mode only checks plumbing, not timing quality.
        std::env::set_var("SECPREF_BENCH_MS", "1");
    }
    let out = out.unwrap_or_else(|| {
        if smoke {
            let mut p = std::env::temp_dir();
            p.push("BENCH_simcore.smoke.json");
            p.to_string_lossy().into_owned()
        } else {
            "BENCH_simcore.json".to_string()
        }
    });

    let (cells, geomean) = simcore::run_matrix();
    let stream_decode = simcore::run_decode_bench();
    let sampled_result = if sampled {
        let r = simcore::run_sampled_bench();
        println!(
            "simbench: sampled {} x {} -> {:.0} effective instr/sec \
             ({:.1}x full detail {:.0}, {} windows over {} instrs)",
            r.config,
            r.trace,
            r.effective_sim_instr_per_sec,
            r.speedup_vs_full_detail,
            r.full_detail_instr_per_sec,
            r.windows,
            r.span_instructions
        );
        Some(r)
    } else {
        None
    };
    let text = simcore::render_json(
        &cells,
        geomean,
        baseline,
        stream_decode,
        sampled_result.as_ref(),
    );
    if let Err(e) = std::fs::write(&out, &text) {
        die(&format!("writing {out}: {e}"));
    }
    println!(
        "simbench: geomean {:.0} sim-instr/sec over {} cells -> {out}",
        geomean,
        cells.len()
    );
    println!("simbench: streamed decode {stream_decode:.0} instr/sec (geomean)");
    if baseline > 0.0 {
        println!(
            "simbench: {:.2}x vs baseline {:.0}",
            geomean / baseline,
            baseline
        );
    }

    if smoke {
        let read_back = std::fs::read_to_string(&out)
            .unwrap_or_else(|e| die(&format!("reading back {out}: {e}")));
        match simcore::parse_json(&read_back) {
            Ok(p) if p.geomean > 0.0 => {
                if sampled {
                    match p.sampled {
                        Some((eff, _)) if eff > 0.0 => {
                            println!(
                                "simbench: smoke OK (geomean {:.0}, sampled {eff:.0})",
                                p.geomean
                            );
                        }
                        Some((eff, _)) => die(&format!("smoke failed: sampled rate {eff} not > 0")),
                        None => die("smoke failed: --sampled run wrote no sampled block"),
                    }
                } else {
                    println!("simbench: smoke OK (geomean {:.0})", p.geomean);
                }
            }
            Ok(p) => die(&format!("smoke failed: geomean {} not > 0", p.geomean)),
            Err(e) => die(&format!("smoke failed: {e}")),
        }
    }

    if let Some(guard_path) = guard {
        if std::env::var_os("SECPREF_BENCH_SKIP_GUARD").is_some() {
            println!("simbench: guard skipped (SECPREF_BENCH_SKIP_GUARD set)");
            return;
        }
        let committed = std::fs::read_to_string(&guard_path)
            .unwrap_or_else(|e| die(&format!("guard: reading {guard_path}: {e}")));
        let p = simcore::parse_json(&committed)
            .unwrap_or_else(|e| die(&format!("guard: parsing {guard_path}: {e}")));
        let committed_geo = p.geomean;
        if committed_geo <= 0.0 {
            die(&format!("guard: committed geomean {committed_geo} not > 0"));
        }
        let ratio = geomean / committed_geo;
        if ratio < GUARD_BAND {
            die(&format!(
                "guard: geomean {geomean:.0} is {ratio:.2}x of committed {committed_geo:.0} \
                 (threshold {GUARD_BAND}) — simulator perf regression; if intentional, \
                 regenerate BENCH_simcore.json per EXPERIMENTS.md or set \
                 SECPREF_BENCH_SKIP_GUARD=1"
            ));
        }
        println!(
            "simbench: guard OK ({ratio:.2}x of committed {committed_geo:.0}, threshold {GUARD_BAND})"
        );
        if let (Some(r), Some((committed_eff, _))) = (sampled_result.as_ref(), p.sampled) {
            if committed_eff <= 0.0 {
                die(&format!(
                    "guard: committed sampled rate {committed_eff} not > 0"
                ));
            }
            let eff = r.effective_sim_instr_per_sec;
            let ratio = eff / committed_eff;
            if ratio < SAMPLED_GUARD_BAND {
                die(&format!(
                    "guard: sampled effective rate {eff:.0} is {ratio:.2}x of committed \
                     {committed_eff:.0} (threshold {SAMPLED_GUARD_BAND}) — sampled-path perf \
                     regression; if intentional, regenerate BENCH_simcore.json per \
                     EXPERIMENTS.md or set SECPREF_BENCH_SKIP_GUARD=1"
                ));
            }
            println!(
                "simbench: sampled guard OK ({ratio:.2}x of committed {committed_eff:.0}, \
                 threshold {SAMPLED_GUARD_BAND})"
            );
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("simbench: {msg}");
    std::process::exit(2);
}
