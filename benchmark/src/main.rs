//! `secbench`: the repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! secbench                                   all workloads, untraced then traced
//! secbench --workload W --seed N --seconds S --trace 0|1
//!                                            one run, last line = result object
//! secbench --smoke                           everything at 1/50 size
//! secbench compare A.json B.json             verdict per workload and metric
//! secbench manifest                          print BENCHMARK.json
//! ```

mod cell;
mod compare;
mod engine;
mod host;
mod inputs;
mod kernels;
mod metrics;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use secpref_exp::json::{self, Json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Scale, Workload, DEFAULT_SECONDS, WORKLOADS};

const PINS: &str = include_str!("../pins.json");
const PINS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");
/// The seed `pins.json` was taken at, and the default.
const PINNED_SEED: u64 = 1;

#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    child_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    write_pins: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: secbench [--workload {{{}}}] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20               [--out FILE] [--trace-out FILE] [--write-pins]\n\
         \x20      secbench compare A.json B.json\n\
         \x20      secbench manifest",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        child_dir: None,
        out: None,
        trace_out: None,
        write_pins: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(workloads::by_name(&name).ok_or_else(|| format!("no workload `{name}`"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--smoke" => cli.smoke = true,
            "--child-dir" => cli.child_dir = Some(PathBuf::from(value("--child-dir")?)),
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--write-pins" => cli.write_pins = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// This workload's part of `pins.json`, or nothing when pins do not apply.
fn pins_for(cli: &Cli, w: &Workload) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    if cli.smoke || cli.seed != PINNED_SEED || cli.write_pins {
        return Ok(out);
    }
    let doc = json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    if let Some(Json::Obj(cells)) = doc.get("pins").and_then(|p| p.get(w.name)) {
        for (id, hex) in cells {
            let digest = hex
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("pins.json: bad digest for `{id}`"))?;
            out.insert(id.clone(), digest);
        }
    }
    Ok(out)
}

/// A child process: runs one workload and prints its outcome document as
/// the last line of its output.
fn child(cli: &Cli, dir: &Path) -> Result<(), String> {
    let workload = cli.workload.ok_or("--child-dir needs --workload")?;
    let args = run::ChildArgs {
        workload,
        seed: cli.seed,
        scale: Scale {
            smoke: cli.smoke,
            seconds: cli.seconds,
        },
        trace: cli.trace.unwrap_or(false),
        dir: dir.to_path_buf(),
        pins: pins_for(cli, &workload)?,
    };
    let outcome = run::run_child(&args).map_err(|e| format!("{}: {e}", workload.name))?;
    println!("{outcome}");
    Ok(())
}

/// Scratch space of this invocation, next to the executable: inside the
/// checkout's build directory, never in a shared temporary directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let base = exe.parent().ok_or("executable has no directory")?;
    Ok(base
        .join("secbench-tmp")
        .join(format!("run-{}", std::process::id())))
}

/// Runs `w` in a child process of its own, so that peak memory and
/// allocator state belong to one workload, and returns its outcome.
fn spawn(cli: &Cli, w: &Workload, trace: bool, scratch: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = scratch.join(w.name);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--child-dir")
        .arg(&dir)
        // The engine's manifest writer shells out to `git describe`. The
        // checkout the PR driver runs in is no repository and a developer's
        // is: pointing git at nothing makes both behave alike, and keeps
        // git from walking out of the checkout.
        .env("GIT_DIR", scratch.join("no-git"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if cli.write_pins {
        cmd.arg("--write-pins");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("{}: cannot run child: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("{}: child ended with {}", w.name, output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| format!("{}: unreadable outcome: {e}", w.name))
}

/// Rewrites `pins.json` from the digests `outcomes` (untraced runs at the
/// pinned seed) report for their full-detail cells.
fn write_pins(outcomes: &[Json]) -> Result<(), String> {
    let mut text = format!(
        "{{\n  \"schema\": \"secbench-pins-v1\",\n  \"seed\": {PINNED_SEED},\n  \"digest\": \"FNV-1a-64 of secpref_exp::codec::report_to_string\",\n  \"pins\": {{\n"
    );
    for (i, o) in outcomes.iter().enumerate() {
        let name = o.get("workload").and_then(Json::as_str).unwrap_or("?");
        text.push_str(&format!("    \"{name}\": {{\n"));
        let cells: Vec<(&String, &Json)> = match o.get("digests") {
            Some(Json::Obj(d)) => d.iter().map(|(id, v)| (id, v)).collect(),
            _ => Vec::new(),
        };
        for (j, (id, hex)) in cells.iter().enumerate() {
            let sep = if j + 1 < cells.len() { "," } else { "" };
            text.push_str(&format!("      {}: {hex}{sep}\n", Json::Str((*id).clone())));
        }
        let sep = if i + 1 < outcomes.len() { "," } else { "" };
        text.push_str(&format!("    }}{sep}\n"));
    }
    text.push_str("  }\n}\n");
    std::fs::write(PINS_PATH, text).map_err(|e| format!("{PINS_PATH}: {e}"))
}

fn parent(cli: &Cli) -> Result<bool, String> {
    let scratch = scratch_dir()?;
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = parent_in(cli, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn parent_in(cli: &Cli, scratch: &Path) -> Result<bool, String> {
    let selected: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    // One workload: the mode the caller asked for. All workloads: the
    // untraced runs (end-to-end numbers), then the traced ones.
    let modes: Vec<bool> = match (cli.workload, cli.trace) {
        (_, Some(t)) => vec![t],
        (Some(_), None) => vec![false],
        (None, None) => vec![false, true],
    };
    let suite = cli.workload.is_none();
    let mut outcomes: Vec<Json> = Vec::new();
    for &trace in &modes {
        for w in &selected {
            let mut outcome = spawn(cli, w, trace, scratch)?;
            // A run during which the box changed speed is repeated once,
            // when the whole suite runs; a single run is reported as it
            // is, flagged, because its caller repeats runs itself.
            if suite && !cli.smoke && report::is(&outcome, "unsettled") {
                eprintln!("[secbench] {}: unsettled, running it once more", w.name);
                let again = spawn(cli, w, trace, scratch)?;
                outcome = report::mark_rerun(again);
            }
            report::print_outcome(&outcome);
            outcomes.push(outcome);
        }
    }

    let mut failed: u64 = outcomes
        .iter()
        .map(|o| o.get("failed").and_then(Json::as_u64).unwrap_or(1))
        .sum();
    let mut attempted: u64 = outcomes
        .iter()
        .map(|o| o.get("attempted").and_then(Json::as_u64).unwrap_or(1))
        .sum();

    // Traced runs: one trace-event document, one track per workload.
    let tracks: Vec<(String, Vec<spans::Span>)> = outcomes
        .iter()
        .filter(|o| report::is(o, "trace"))
        .map(|o| {
            (
                o.get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                o.get("spans")
                    .map(spans::spans_from_json)
                    .unwrap_or_default(),
            )
        })
        .collect();
    if !tracks.is_empty() {
        let doc = spans::trace_json(&tracks);
        attempted += 1;
        match secpref_exp::validate_trace_json(&doc) {
            Ok(stats) => eprintln!(
                "[secbench] span trace: {} events on {} tracks, valid",
                stats.events, stats.tracks
            ),
            Err(e) => {
                failed += 1;
                eprintln!("[secbench] span trace INVALID: {e}");
            }
        }
        if let Some(path) = &cli.trace_out {
            std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    if cli.write_pins {
        let untraced: Vec<Json> = outcomes
            .iter()
            .filter(|o| !report::is(o, "trace"))
            .cloned()
            .collect();
        write_pins(&untraced)?;
        eprintln!("[secbench] wrote {PINS_PATH}");
    }
    if let Some(path) = &cli.out {
        let doc = report::results_document(cli.seed, cli.seconds, cli.smoke, &outcomes);
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "secbench: {attempted} checks, {failed} failed{}",
        if failed == 0 { "" } else { " — FAILED" }
    );
    if let (Some(_), [outcome]) = (cli.workload, outcomes.as_slice()) {
        // The result object of the PR driver's contract: the last line.
        println!("{}", report::driver_line(outcome, attempted, failed));
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            Ok(true)
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse(&args).and_then(|cli| match cli.child_dir.clone() {
            Some(dir) => child(&cli, &dir).map(|()| true),
            None => parent(&cli),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("secbench: {e}");
            ExitCode::from(2)
        }
    }
}
