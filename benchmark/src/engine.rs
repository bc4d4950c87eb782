//! Everything that goes through `secpref_exp`: cold sweeps on a fresh
//! store, resume passes on a populated one, and the store/codec kernels.

use crate::spans::Spans;
use crate::stats::{median, share};
use crate::workloads::ENGINE_WORKERS;
use secpref_exp::codec::{report_from_str, report_to_string};
use secpref_exp::json::{self, Json};
use secpref_exp::{Engine, JobSpec, ResultStore, RunSummary};
use secpref_sim::SimReport;
use std::path::Path;
use std::time::Instant;

/// Empties (or creates) `dir`.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Seconds the engine's own span trace attributes to each phase of one
/// `run_all_with_summary` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub dedup_s: f64,
    pub resolve_s: f64,
    pub trace_acquire_s: f64,
    pub simulate_s: f64,
    pub store_append_s: f64,
    /// From the end of the execute phase to the return: manifest, timing
    /// table and span-trace export.
    pub manifest_s: f64,
}

/// Reads the phases out of the span trace the engine exported for a run
/// that took `wall_s` seconds in all. `None` when the trace is missing or
/// not what `validate_trace_json` accepts (the caller counts that as a
/// failed operation).
pub fn phases_of(summary: &RunSummary, wall_s: f64) -> Option<Phases> {
    let text = std::fs::read_to_string(summary.trace_path.as_ref()?).ok()?;
    secpref_exp::validate_trace_json(&text).ok()?;
    let doc = json::parse(text.trim()).ok()?;
    let mut p = Phases::default();
    let mut open: Vec<(String, u64)> = Vec::new();
    let mut execute_end_us = 0u64;
    for ev in doc.get("traceEvents")?.as_arr()? {
        let ph = ev.get("ph")?.as_str()?;
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Json::as_u64).unwrap_or(0);
        let dur_s = ev.get("dur").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6;
        let engine_track = ev.get("tid").and_then(Json::as_u64) == Some(0);
        match (ph, name) {
            ("X", "dedup") => p.dedup_s += dur_s,
            ("X", "trace-acquire") => p.trace_acquire_s += dur_s,
            ("X", "simulate") => p.simulate_s += dur_s,
            ("X", "store-append") => p.store_append_s += dur_s,
            ("B", _) if engine_track => open.push((name.to_string(), ts)),
            ("E", _) if engine_track => {
                let (name, begin) = open.pop()?;
                let secs = ts.saturating_sub(begin) as f64 / 1e6;
                match name.as_str() {
                    "resolve" => p.resolve_s += secs,
                    "execute" => execute_end_us = ts,
                    _ => {}
                }
            }
            _ => {}
        }
    }
    // The engine's own `wall` stops before it writes its artifacts.
    p.manifest_s = (wall_s - execute_end_us as f64 / 1e6).max(0.0);
    Some(p)
}

#[derive(Debug)]
pub struct EngineRun {
    pub reports: Vec<SimReport>,
    pub summary: RunSummary,
    /// `Engine::new` + `run_all_with_summary`, wall seconds.
    pub wall_s: f64,
}

/// Opens a new engine on `dir` and requests `jobs`.
pub fn run_engine(
    dir: &Path,
    jobs: &[JobSpec],
    span: &str,
    spans: &mut Spans,
) -> std::io::Result<EngineRun> {
    let sp = spans.begin(span, &format!("{} jobs", jobs.len()));
    let t = Instant::now();
    let engine = Engine::new(dir, ENGINE_WORKERS)?;
    let (reports, summary) = engine.run_all_with_summary(jobs);
    let wall_s = t.elapsed().as_secs_f64();
    spans.end(sp);
    Ok(EngineRun {
        reports,
        summary,
        wall_s,
    })
}

/// Index of the first request of each distinct job, in request order.
pub fn distinct(jobs: &[JobSpec]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..jobs.len())
        .filter(|&i| seen.insert(jobs[i].key()))
        .collect()
}

#[derive(Debug, Default)]
pub struct Resume {
    /// Wall seconds of each pass.
    pub pass_s: Vec<f64>,
    pub phases: Vec<Phases>,
    /// One line per violated check.
    pub failures: Vec<String>,
    /// Checks made (one per pass and per resumed report).
    pub attempted: u64,
}

/// `passes` resume passes over the populated store in `dir`: each opens a
/// new engine, re-requests the whole list, must simulate nothing, and
/// must return every report byte-identical to `expect` (the cold run's
/// `report_to_string`, in request order). The comparison is outside the
/// timed part.
pub fn resume_passes(
    dir: &Path,
    jobs: &[JobSpec],
    expect: &[String],
    passes: usize,
    spans: &mut Spans,
) -> std::io::Result<Resume> {
    let unique = distinct(jobs).len();
    let mut out = Resume::default();
    for pass in 0..passes {
        let run = run_engine(dir, jobs, "exp.resume_pass", spans)?;
        out.pass_s.push(run.wall_s);
        out.attempted += 1 + run.reports.len() as u64;
        if run.summary.executed != 0 || run.summary.from_store != unique {
            out.failures.push(format!(
                "resume pass {pass}: {} simulated, {} of {unique} from the store",
                run.summary.executed, run.summary.from_store
            ));
        }
        for (i, (got, want)) in run.reports.iter().zip(expect).enumerate() {
            if &report_to_string(got) != want {
                out.failures.push(format!(
                    "resume pass {pass}: request {i} differs from its cold report"
                ));
            }
        }
        match phases_of(&run.summary, run.wall_s) {
            Some(p) => out.phases.push(p),
            None => out.failures.push(format!(
                "resume pass {pass}: engine span trace missing or invalid"
            )),
        }
    }
    Ok(out)
}

/// Writes `reports` into a fresh store at `dir` under their jobs' keys,
/// without simulating anything.
pub fn populate_store(dir: &Path, jobs: &[JobSpec], reports: &[SimReport]) -> std::io::Result<()> {
    fresh_dir(dir)?;
    let store = ResultStore::open(dir)?;
    for (job, report) in jobs.iter().zip(reports) {
        store.append(&job.key(), &job.canonical(), report)?;
    }
    Ok(())
}

/// Store and codec kernels over the populated store in `dir` and the
/// reports it holds. `scratch` is emptied and used for the append kernel.
pub fn store_kernels(
    dir: &Path,
    scratch: &Path,
    reports: &[SimReport],
) -> std::io::Result<Vec<(String, f64)>> {
    let mut out = Vec::new();
    let rows = reports.len().max(1);
    // Enough repetitions that a six-row store still gives ~200 operations.
    let reps = 200usize.div_ceil(rows);

    let store = ResultStore::open(dir)?;
    let loads: Vec<f64> = (0..reps.min(20))
        .map(|_| {
            let t = Instant::now();
            let n = store.load().len();
            t.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    out.push(("exp.store_load_ns_per_row".to_string(), median(&loads)));

    fresh_dir(scratch)?;
    let scratch_store = ResultStore::open(scratch)?;
    let t = Instant::now();
    for rep in 0..reps {
        for (i, r) in reports.iter().enumerate() {
            scratch_store.append(&format!("{rep:08x}{i:08x}"), "kernel", r)?;
        }
    }
    out.push((
        "exp.store_append_ns_per_row".to_string(),
        t.elapsed().as_nanos() as f64 / (reps * rows) as f64,
    ));

    let t = Instant::now();
    let mut encoded = Vec::new();
    for _ in 0..reps {
        encoded = reports.iter().map(report_to_string).collect::<Vec<_>>();
    }
    out.push((
        "exp.codec_encode_ns".to_string(),
        t.elapsed().as_nanos() as f64 / (reps * rows) as f64,
    ));
    let t = Instant::now();
    let mut decoded = 0usize;
    for _ in 0..reps {
        decoded += encoded
            .iter()
            .filter(|s| report_from_str(s).is_ok())
            .count();
    }
    out.push((
        "exp.codec_decode_ns".to_string(),
        t.elapsed().as_nanos() as f64 / decoded.max(1) as f64,
    ));

    let text = std::fs::read_to_string(store.results_path())?;
    let t = Instant::now();
    let mut parsed = 0usize;
    for _ in 0..reps {
        parsed += text.lines().filter(|l| json::parse(l).is_ok()).count();
    }
    std::hint::black_box(parsed);
    let secs = t.elapsed().as_secs_f64();
    out.push((
        "exp.json_parse_mb_per_s".to_string(),
        share((text.len() * reps) as f64 / 1e6, secs),
    ));
    out.push((
        "exp.store_bytes_per_row".to_string(),
        share(text.len() as f64, text.lines().count() as f64),
    ));
    Ok(out)
}
