//! The experiment engine: dedupe → resume → parallel execute → persist.
//!
//! Every sweep is one loop. It takes an arbitrary job list (duplicates
//! welcome — figures freely re-request the same configurations) and:
//!
//! 1. deduplicates by content key ([`JobSpec::key`]),
//! 2. resolves what it can from the in-memory cache and the on-disk
//!    [`ResultStore`] (canonical strings are compared, so a hash
//!    collision falls through to a re-run instead of returning the wrong
//!    report),
//! 3. pre-generates the traces the remaining jobs need (in parallel, one
//!    generation per distinct trace),
//! 4. runs the remaining jobs on the worker pool, appending each result
//!    to the store the moment it completes — a killed run resumes from
//!    exactly the jobs it finished,
//! 5. writes a run manifest (JSON), a per-job timing table (CSV) and the
//!    run's span trace (`telemetry/trace-<run_id>.json`, Chrome
//!    trace-event format), and
//! 6. returns reports in the order of the *request*, independent of
//!    worker count.
//!
//! What the jobs run with — a [`RunMode`] — is the loop's one parameter
//! ([`Engine::run_with`]). [`Engine::run_all`] runs them plain. The two
//! recorder modes are *diagnostic* sweeps: step 2 resolves nothing and
//! step 4 writes each job's capture
//! to artifact files instead of appending to the store, so they always
//! re-simulate and never read or write `results.jsonl` or the in-process
//! cache. That keeps the artifacts a pure function of `(job, recorder
//! config)` — byte-identical across worker counts and across cold and
//! resumed engines — and keeps diagnostic runs from polluting the store
//! with results that sweeps would then trust. Artifacts are written from
//! the pool's `on_done` callback on the calling thread, so artifact I/O
//! is single-threaded without extra locks.
//!
//! The span trace embeds wall-clock durations, so it is validated
//! structurally ([`crate::validate_trace_json`]), never byte-compared.
//! Its shape is a contract (`benchmark/` reads every sweep's): on track 0
//! an `X` span `dedup`, a `B`/`E` pair `resolve` around the per-job
//! `dedup-hit` / `dedup-miss` marks, an `X` span `trace-acquire`, and a
//! `B`/`E` pair `execute` around one `X` span per completion
//! (`store-append`, or `obs-export` / `hist-export` in the diagnostic
//! modes) and the `cells` counter; on track `1 + worker`, one `X` span
//! `simulate` per job.

use crate::job::{Capture, JobSpec, RunMode};
use crate::json::{obj, Json};
use crate::pool;
use crate::store::{ResultStore, StoredResult};
use secpref_obs::ObsSummary;
use secpref_sim::SimReport;
use secpref_telemetry::{progress::stderr_is_tty, Progress, TraceBuilder};
use secpref_trace::suite;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where a job's report came from in this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultSource {
    /// Already computed earlier in this process.
    Memory,
    /// Loaded from the on-disk result store (a resumed job).
    Store,
    /// Simulated during this run.
    Ran,
}

impl ResultSource {
    fn name(self) -> &'static str {
        match self {
            ResultSource::Memory => "memory",
            ResultSource::Store => "store",
            ResultSource::Ran => "ran",
        }
    }
}

/// Per-job record in a run's manifest and timing export.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Content key.
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// Where the report came from.
    pub source: ResultSource,
    /// Wall-clock of the simulation (zero for cached results).
    pub wall: Duration,
    /// Observability summary (traced runs only).
    pub obs: Option<ObsSummary>,
    /// Total histogram samples (telemetry runs only).
    pub tel_samples: Option<u64>,
}

/// Summary of one [`Engine::run_all`] invocation.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Unique id of this run (also names the manifest/timing files).
    pub run_id: String,
    /// Jobs requested (before dedupe).
    pub jobs_requested: usize,
    /// Distinct jobs after dedupe.
    pub jobs_unique: usize,
    /// Served from the in-process cache.
    pub from_memory: usize,
    /// Resumed from the on-disk store.
    pub from_store: usize,
    /// Actually simulated.
    pub executed: usize,
    /// Total wall-clock of the run.
    pub wall: Duration,
    /// Path of the manifest written for this run.
    pub manifest_path: PathBuf,
    /// Path of the per-job timing CSV.
    pub timings_path: PathBuf,
    /// Worker utilization over the execute phase: simulated wall-clock
    /// divided by `workers × phase duration` (0 when nothing ran).
    pub utilization: f64,
    /// Fraction of requested jobs served without fresh simulation
    /// (request-level duplicates plus memory/store hits).
    pub dedup_hit_rate: f64,
    /// Path of the span-trace JSON exported for this run (engine spans on
    /// per-worker tracks, loadable in Perfetto), when one was written.
    pub trace_path: Option<PathBuf>,
    /// One record per unique job.
    pub jobs: Vec<JobRecord>,
}

/// Parallel, resumable experiment runner.
///
/// An engine owns a result store directory and a worker count. It is
/// safe to share one engine across threads (`run_one` from concurrent
/// tests, say); `run_all` itself is what parallelizes a sweep.
#[derive(Debug)]
pub struct Engine {
    store: ResultStore,
    workers: usize,
    verbose: bool,
    mem: Mutex<HashMap<String, SimReport>>,
    disk: Mutex<Option<HashMap<String, StoredResult>>>,
}

/// Process-wide run counter. Run ids embed `(unix second, pid, seq)`;
/// the sequence must be global — with a per-engine counter, two engines
/// created in the same process and second (e.g. a cold run and a resume
/// check in one test) would mint the same id and overwrite each other's
/// manifests.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

impl Engine {
    /// Creates an engine over the store at `dir` with a fixed worker
    /// count (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates store-directory creation failures.
    pub fn new(dir: impl Into<PathBuf>, workers: usize) -> io::Result<Self> {
        Ok(Engine {
            store: ResultStore::open(dir.into())?,
            workers: workers.max(1),
            verbose: false,
            mem: Mutex::new(HashMap::new()),
            disk: Mutex::new(None),
        })
    }

    /// Builds an engine from the environment:
    /// `SECPREF_EXP_DIR` (default `target/exp`) and
    /// `SECPREF_EXP_WORKERS` (default: available parallelism).
    ///
    /// # Errors
    ///
    /// Propagates store-directory creation failures.
    pub fn from_env() -> io::Result<Self> {
        let dir = std::env::var("SECPREF_EXP_DIR").unwrap_or_else(|_| "target/exp".to_string());
        let workers = std::env::var("SECPREF_EXP_WORKERS")
            .ok()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(default_workers);
        Engine::new(dir, workers)
    }

    /// Enables/disables progress lines on stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The store directory.
    pub fn store_dir(&self) -> &std::path::Path {
        self.store.dir()
    }

    /// Runs a sweep and returns reports in request order. See the module
    /// docs for the phases. Convenience wrapper over
    /// [`Engine::run_all_with_summary`].
    pub fn run_all(&self, jobs: &[JobSpec]) -> Vec<SimReport> {
        self.run_all_with_summary(jobs).0
    }

    /// Runs a plain sweep, returning the reports plus the run's summary
    /// (job provenance counts, manifest path, timings).
    pub fn run_all_with_summary(&self, jobs: &[JobSpec]) -> (Vec<SimReport>, RunSummary) {
        self.run_with(jobs, RunMode::Plain)
    }

    /// The one sweep loop: runs `jobs` under `mode`, which says what
    /// every job runs with and, by that alone, whether this is a
    /// diagnostic sweep (see the module docs for what that bypasses).
    ///
    /// [`RunMode::Traced`] exports `<key>.events.jsonl` and
    /// `<key>.epochs.csv` under `<store_dir>/obs/` and gives each job's
    /// manifest record an `obs` object; [`RunMode::Telemetry`] exports
    /// `<key>.hist.csv` under `<store_dir>/telemetry/` and gives each
    /// record a `tel` object.
    pub fn run_with(&self, jobs: &[JobSpec], mode: RunMode<'_>) -> (Vec<SimReport>, RunSummary) {
        let t0 = Instant::now();
        let run_id = self.next_run_id();
        let us = |d: Duration| d.as_micros() as u64;
        let mut tb = TraceBuilder::new();
        tb.thread_name(0, "engine");
        // What the mode decides, in one place: the run's name in progress
        // lines, the span around each completion's write, and where that
        // write goes.
        let dir = self.store.dir();
        let (kind, write_span, out_dir) = match mode {
            RunMode::Plain => ("sweep", "store-append", dir.to_path_buf()),
            RunMode::Traced(_) => ("traced", "obs-export", dir.join("obs")),
            RunMode::Telemetry(_) => ("telemetry", "hist-export", dir.join("telemetry")),
        };

        // Phase 1: dedupe, preserving first-occurrence order. `slot_of`
        // maps a key to its position in `unique` (indices into `jobs`).
        let keyed: Vec<(String, String)> = jobs.iter().map(|j| (j.key(), j.canonical())).collect();
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, (key, _)) in keyed.iter().enumerate() {
            slot_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
        }
        let n_req = jobs.len().to_string();
        tb.complete(0, "dedup", 0, us(t0.elapsed()), &[("requested", &n_req)]);

        // Phase 2: resolve from memory, then from the on-disk store —
        // plain sweeps only. The per-job dedup-hit/miss events below
        // carry later timestamps, so this span must OPEN before them (a
        // trailing `X` with the phase's start time would regress the
        // engine track's event order, which the validator rejects).
        tb.begin(0, "resolve", us(t0.elapsed()), &[]);
        let mut reports: Vec<Option<SimReport>> = vec![None; unique.len()];
        let mut records: Vec<Option<JobRecord>> = vec![None; unique.len()];
        let mut to_run: Vec<usize> = Vec::new();
        for (slot, &i) in unique.iter().enumerate() {
            let (key, canonical) = &keyed[i];
            let hit = match mode {
                RunMode::Plain => self.resolve(key, canonical),
                _ => None,
            };
            let Some((report, source)) = hit else {
                tb.complete(0, "dedup-miss", us(t0.elapsed()), 0, &[("key", key)]);
                to_run.push(slot);
                continue;
            };
            let args = [("key", key.as_str()), ("source", source.name())];
            tb.complete(0, "dedup-hit", us(t0.elapsed()), 0, &args);
            reports[slot] = Some(report);
            records[slot] = Some(JobRecord {
                key: key.clone(),
                label: jobs[i].label(),
                source,
                wall: Duration::ZERO,
                obs: None,
                tel_samples: None,
            });
        }
        tb.end(0, us(t0.elapsed()));
        let from = |source| {
            records
                .iter()
                .flatten()
                .filter(|r| r.source == source)
                .count()
        };
        let (from_memory, from_store) = (from(ResultSource::Memory), from(ResultSource::Store));
        self.say(&format!(
            "[exp] {kind} run {run_id}: {} jobs requested, {} unique, {from_memory} from memory, \
             {from_store} from store, {} to run on {} workers",
            jobs.len(),
            unique.len(),
            to_run.len(),
            self.workers,
        ));

        // Phase 3: pre-generate traces so workers hit a warm trace cache
        // instead of serializing on generation.
        let run_specs: Vec<JobSpec> = to_run.iter().map(|&s| jobs[unique[s]].clone()).collect();
        let pregen_start = t0.elapsed();
        self.pregenerate_traces(&run_specs);
        tb.complete(
            0,
            "trace-acquire",
            us(pregen_start),
            us(t0.elapsed().saturating_sub(pregen_start)),
            &[],
        );

        // Phase 4: execute, persisting (or exporting) and reporting each
        // completion. Span layout: one track per worker (simulate spans),
        // with dedup, store-append / export, and phase spans on the
        // engine track.
        let total = run_specs.len();
        for w in 0..self.workers.clamp(1, total.max(1)) {
            tb.thread_name(w as u32 + 1, &format!("worker-{w}"));
        }
        let n_total = total.to_string();
        tb.begin(0, "execute", us(t0.elapsed()), &[("jobs", &n_total)]);
        let exec_base = t0.elapsed();
        let mut progress = Progress::new(unique.len() as u64, self.verbose && stderr_is_tty());
        progress.set_dedup_hits((unique.len() - total) as u64);
        for _ in 0..unique.len() - total {
            if let Some(line) = progress.tick(0) {
                eprint!("\r{line}");
            }
        }
        let mut done = 0usize;
        let outcomes = pool::run_items(
            &run_specs,
            self.workers,
            |job| job.run_with(mode),
            |idx, job, (report, capture), timing| {
                let (key, canonical) = &keyed[unique[to_run[idx]]];
                let label = job.label();
                tb.complete(
                    timing.worker as u32 + 1,
                    "simulate",
                    us(exec_base + timing.start),
                    us(timing.wall),
                    &[("key", key), ("label", &label)],
                );
                // A plain job's result goes to the store the moment it
                // completes; a diagnostic job's capture goes to its
                // artifact files and the store is left alone.
                let mut record = JobRecord {
                    key: key.clone(),
                    label,
                    source: ResultSource::Ran,
                    wall: timing.wall,
                    obs: None,
                    tel_samples: None,
                };
                let write_start = t0.elapsed();
                let written = match (mode, capture) {
                    (RunMode::Plain, _) => self.store.append(key, canonical, report).map(|()| None),
                    (RunMode::Traced(cfg), Capture::Obs(cap)) => {
                        record.obs = Some(cap.summary());
                        crate::obs::write_trace_artifacts(&out_dir, key, cfg, cap)
                            .map(|(events, _)| Some(events))
                    }
                    (_, Capture::Tel(cap)) => {
                        record.tel_samples = Some(cap.total_samples());
                        crate::telemetry::write_tel_artifacts(&out_dir, key, cap).map(Some)
                    }
                    // The recorder was configured off: nothing to export.
                    _ => Ok(None),
                };
                match written {
                    Ok(Some(path)) => self.say(&format!("[exp] wrote {}", path.display())),
                    Ok(None) => {}
                    Err(e) => self.say(&format!("[exp] warning: {write_span} failed: {e}")),
                }
                tb.complete(
                    0,
                    write_span,
                    us(write_start),
                    us(t0.elapsed().saturating_sub(write_start)),
                    &[("key", key)],
                );
                done += 1;
                tb.counter(0, "cells", us(t0.elapsed()), "done", done as u64);
                let instr: u64 = report.cores.iter().map(|m| m.instructions).sum();
                if let Some(line) = progress.tick(instr) {
                    eprint!("\r{line}");
                } else if !progress.is_enabled() {
                    let elapsed = t0.elapsed();
                    let eta = elapsed.mul_f64((total - done) as f64 / done as f64);
                    self.say(&format!(
                        "[exp] {done}/{total} ({:.0}%) elapsed {} eta {} — {} in {}",
                        done as f64 * 100.0 / total as f64,
                        fmt_secs(elapsed),
                        fmt_secs(eta),
                        record.label,
                        fmt_secs(timing.wall),
                    ));
                }
                records[to_run[idx]] = Some(record);
            },
        );
        if progress.needs_newline() {
            eprintln!();
        }
        let exec_wall = t0.elapsed().saturating_sub(exec_base);
        tb.end(0, us(t0.elapsed()));
        let sim_wall: Duration = outcomes.iter().map(|(_, wall)| *wall).sum();
        let mut mem = self.mem.lock().expect("engine mem cache");
        for (&slot, ((report, _), _)) in to_run.iter().zip(outcomes) {
            if let RunMode::Plain = mode {
                mem.insert(keyed[unique[slot]].0.clone(), report.clone());
            }
            reports[slot] = Some(report);
        }
        drop(mem);

        // Phase 5: manifest + timings + span trace, then assemble
        // request-order output (duplicates share the unique job's report).
        let wall = t0.elapsed();
        let trace_path = self.write_span_trace(&run_id, tb);
        let summary = self.write_observability(RunSummary {
            run_id: run_id.clone(),
            jobs_requested: jobs.len(),
            jobs_unique: unique.len(),
            from_memory,
            from_store,
            executed: total,
            wall,
            manifest_path: PathBuf::new(),
            timings_path: PathBuf::new(),
            utilization: utilization(sim_wall, exec_wall, self.workers, total),
            dedup_hit_rate: dedup_hit_rate(jobs.len(), total),
            trace_path,
            jobs: records
                .into_iter()
                .map(|r| r.expect("every unique job resolved or ran"))
                .collect(),
        });
        let reports = keyed
            .iter()
            .map(|(key, _)| reports[slot_of[key.as_str()]].clone())
            .map(|r| r.expect("every unique job resolved or ran"))
            .collect();
        self.say(&format!(
            "[exp] {kind} run {run_id} done in {} ({} simulated, {} reused); manifest {}",
            fmt_secs(wall),
            summary.executed,
            summary.from_memory + summary.from_store,
            summary.manifest_path.display(),
        ));
        (reports, summary)
    }

    /// Looks a job up in the in-process cache, then in the on-disk store
    /// (loaded on first use). A stored result counts only if its
    /// canonical string matches — a hash collision or stale canonical
    /// falls through to a re-run instead of returning the wrong report.
    fn resolve(&self, key: &str, canonical: &str) -> Option<(SimReport, ResultSource)> {
        let mut mem = self.mem.lock().expect("engine mem cache");
        if let Some(report) = mem.get(key) {
            return Some((report.clone(), ResultSource::Memory));
        }
        let mut disk = self.disk.lock().expect("engine disk cache");
        let stored = disk.get_or_insert_with(|| self.store.load()).get(key)?;
        if stored.canonical != canonical {
            return None;
        }
        mem.insert(key.to_string(), stored.report.clone());
        Some((stored.report.clone(), ResultSource::Store))
    }

    /// Writes the run's span trace as Chrome trace-event JSON under
    /// `<store_dir>/telemetry/trace-<run_id>.json`. I/O failures degrade
    /// to a warning and `None` — span export must never kill a run.
    fn write_span_trace(&self, run_id: &str, tb: TraceBuilder) -> Option<PathBuf> {
        let dir = self.store.dir().join("telemetry");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.say(&format!("[exp] warning: trace dir failed: {e}"));
            return None;
        }
        let path = dir.join(format!("trace-{run_id}.json"));
        match std::fs::write(&path, tb.finish() + "\n") {
            Ok(()) => Some(path),
            Err(e) => {
                self.say(&format!("[exp] warning: trace write failed: {e}"));
                None
            }
        }
    }

    /// Runs (or fetches) a single job: memory → store → simulate inline.
    pub fn run_one(&self, job: &JobSpec) -> SimReport {
        let (key, canonical) = (job.key(), job.canonical());
        if let Some((report, _)) = self.resolve(&key, &canonical) {
            return report;
        }
        let report = job.run();
        if let Err(e) = self.store.append(&key, &canonical, &report) {
            self.say(&format!("[exp] warning: store append failed: {e}"));
        }
        self.mem
            .lock()
            .expect("engine mem cache")
            .insert(key, report.clone());
        report
    }

    /// Generates every distinct trace the given jobs need, in parallel,
    /// so the job phase finds them in the suite's cache.
    fn pregenerate_traces(&self, jobs: &[JobSpec]) {
        let mut needed: Vec<(String, usize)> = Vec::new();
        let mut seen = HashSet::new();
        for job in jobs {
            let len = job.scale.trace_len();
            for name in job.workload.trace_names() {
                if seen.insert((name.to_string(), len)) {
                    needed.push((name.to_string(), len));
                }
            }
        }
        if needed.is_empty() {
            return;
        }
        self.say(&format!(
            "[exp] generating {} trace(s) on {} workers",
            needed.len(),
            self.workers,
        ));
        let cursor = AtomicUsize::new(0);
        let threads = self.workers.clamp(1, needed.len());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cursor = &cursor;
                let needed = &needed;
                scope.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((name, len)) = needed.get(idx) else {
                        break;
                    };
                    let _ = suite::cached_trace(name, *len);
                });
            }
        });
    }

    /// Writes the run manifest (JSON) and timing table (CSV); fills in
    /// their paths on the summary. I/O failures degrade to a warning —
    /// observability must never kill a finished run.
    fn write_observability(&self, mut summary: RunSummary) -> RunSummary {
        let manifest_path = self
            .store
            .dir()
            .join(format!("manifest-{}.json", summary.run_id));
        let timings_path = self
            .store
            .dir()
            .join(format!("timings-{}.csv", summary.run_id));

        let jobs_json: Vec<Json> = summary
            .jobs
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("key", Json::Str(r.key.clone())),
                    ("label", Json::Str(r.label.clone())),
                    ("source", Json::Str(r.source.name().to_string())),
                    ("wall_ms", Json::Float(r.wall.as_secs_f64() * 1e3)),
                ];
                if let Some(obs) = &r.obs {
                    fields.push((
                        "obs",
                        obj(vec![
                            ("events_recorded", Json::UInt(obs.events_recorded)),
                            ("events_stored", Json::UInt(obs.events_stored)),
                            ("events_dropped", Json::UInt(obs.events_dropped)),
                            ("epochs", Json::UInt(obs.epochs)),
                        ]),
                    ));
                }
                if let Some(samples) = r.tel_samples {
                    fields.push(("tel", obj(vec![("samples", Json::UInt(samples))])));
                }
                obj(fields)
            })
            .collect();
        let manifest = obj(vec![
            ("run_id", Json::Str(summary.run_id.clone())),
            ("git", Json::Str(git_describe().to_string())),
            ("started_unix", Json::UInt(unix_now())),
            ("workers", Json::UInt(self.workers as u64)),
            ("wall_s", Json::Float(summary.wall.as_secs_f64())),
            ("jobs_requested", Json::UInt(summary.jobs_requested as u64)),
            ("jobs_unique", Json::UInt(summary.jobs_unique as u64)),
            ("jobs_from_memory", Json::UInt(summary.from_memory as u64)),
            ("jobs_from_store", Json::UInt(summary.from_store as u64)),
            ("jobs_executed", Json::UInt(summary.executed as u64)),
            ("utilization", Json::Float(summary.utilization)),
            ("dedup_hit_rate", Json::Float(summary.dedup_hit_rate)),
            (
                "results_file",
                Json::Str(self.store.results_path().display().to_string()),
            ),
            (
                "trace_file",
                Json::Str(
                    summary
                        .trace_path
                        .as_ref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_default(),
                ),
            ),
            ("jobs", Json::Arr(jobs_json)),
        ]);
        if let Err(e) = std::fs::write(&manifest_path, manifest.to_string() + "\n") {
            self.say(&format!("[exp] warning: manifest write failed: {e}"));
        }

        let mut csv = String::from("key,label,source,wall_ms\n");
        for r in &summary.jobs {
            csv.push_str(&format!(
                "{},\"{}\",{},{:.3}\n",
                r.key,
                r.label.replace('"', "\"\""),
                r.source.name(),
                r.wall.as_secs_f64() * 1e3,
            ));
        }
        if let Err(e) = std::fs::write(&timings_path, csv) {
            self.say(&format!("[exp] warning: timings write failed: {e}"));
        }

        summary.manifest_path = manifest_path;
        summary.timings_path = timings_path;
        summary
    }

    fn next_run_id(&self) -> String {
        format!(
            "{}-{}-{}",
            unix_now(),
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed),
        )
    }

    fn say(&self, line: &str) {
        if self.verbose {
            let _ = writeln!(io::stderr(), "{line}");
        }
    }
}

/// Default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// `git describe` of the working directory, resolved once per process
/// (every sweep's manifest carries it; spawning git per sweep cost more
/// than a resumed sweep's whole resolve phase).
fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Worker utilization: total simulated wall-clock over the capacity the
/// execute phase had (`workers × phase duration`), clamped to [0, 1].
fn utilization(sim_wall: Duration, exec_wall: Duration, workers: usize, jobs: usize) -> f64 {
    if jobs == 0 || exec_wall.is_zero() {
        return 0.0;
    }
    let capacity = exec_wall.as_secs_f64() * workers.clamp(1, jobs) as f64;
    (sim_wall.as_secs_f64() / capacity).clamp(0.0, 1.0)
}

/// Fraction of requested jobs that did not need fresh simulation.
fn dedup_hit_rate(requested: usize, executed: usize) -> f64 {
    if requested == 0 {
        return 0.0;
    }
    (requested.saturating_sub(executed)) as f64 / requested as f64
}

fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 10.0 {
        format!("{s:.2}s")
    } else if s < 600.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.1}m", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExpScale;
    use secpref_types::SystemConfig;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("secpref-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn jobs() -> Vec<JobSpec> {
        let base = SystemConfig::baseline(1);
        vec![
            JobSpec::single(base.clone(), "leela_like", ExpScale::Quick),
            JobSpec::single(base.clone(), "gcc_like", ExpScale::Quick),
            // Duplicate of job 0 — must be deduplicated, not re-run.
            JobSpec::single(base, "leela_like", ExpScale::Quick),
        ]
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn dedupes_and_returns_request_order() {
        let dir = tmp_dir("dedupe");
        let engine = Engine::new(&dir, 2).unwrap();
        let (reports, summary) = engine.run_all_with_summary(&jobs());
        assert_eq!(reports.len(), 3);
        assert_eq!(summary.jobs_requested, 3);
        assert_eq!(summary.jobs_unique, 2);
        assert_eq!(summary.executed, 2);
        // Duplicate job returns the identical report.
        assert_eq!(reports[0].cores[0].cycles, reports[2].cores[0].cycles);
        assert_eq!(reports[0].label, reports[2].label);
        cleanup(&dir);
    }

    #[test]
    fn second_run_comes_from_memory() {
        let dir = tmp_dir("mem");
        let engine = Engine::new(&dir, 2).unwrap();
        engine.run_all(&jobs());
        let (_, summary) = engine.run_all_with_summary(&jobs());
        assert_eq!(summary.executed, 0);
        assert_eq!(summary.from_memory, 2);
        cleanup(&dir);
    }

    #[test]
    fn fresh_engine_resumes_from_store() {
        let dir = tmp_dir("resume");
        let cold = Engine::new(&dir, 2).unwrap();
        let (cold_reports, cold_summary) = cold.run_all_with_summary(&jobs());
        assert_eq!(cold_summary.executed, 2);
        drop(cold);
        let warm = Engine::new(&dir, 2).unwrap();
        let (warm_reports, warm_summary) = warm.run_all_with_summary(&jobs());
        assert_eq!(warm_summary.executed, 0);
        assert_eq!(warm_summary.from_store, 2);
        for (a, b) in cold_reports.iter().zip(&warm_reports) {
            assert_eq!(
                crate::codec::report_to_string(a),
                crate::codec::report_to_string(b),
            );
        }
        cleanup(&dir);
    }

    #[test]
    fn manifest_and_timings_are_written() {
        let dir = tmp_dir("manifest");
        let engine = Engine::new(&dir, 1).unwrap();
        let (_, summary) = engine.run_all_with_summary(&jobs());
        let manifest = std::fs::read_to_string(&summary.manifest_path).unwrap();
        let json = crate::json::parse(manifest.trim()).unwrap();
        assert_eq!(json.get("jobs_unique").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("jobs_executed").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("jobs").unwrap().as_arr().unwrap().len(), 2);
        let csv = std::fs::read_to_string(&summary.timings_path).unwrap();
        assert!(csv.starts_with("key,label,source,wall_ms\n"));
        assert_eq!(csv.lines().count(), 3);
        cleanup(&dir);
    }

    #[test]
    fn run_one_hits_store_across_engines() {
        let dir = tmp_dir("runone");
        let job = JobSpec::single(SystemConfig::baseline(1), "leela_like", ExpScale::Quick);
        let a = Engine::new(&dir, 1).unwrap().run_one(&job);
        let b = Engine::new(&dir, 1).unwrap().run_one(&job);
        assert_eq!(
            crate::codec::report_to_string(&a),
            crate::codec::report_to_string(&b),
        );
        cleanup(&dir);
    }
}
