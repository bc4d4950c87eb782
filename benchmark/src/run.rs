//! One workload run, inside its own child process: set-up, one warm-up
//! round, the timed rounds, the resume passes, the checks, and — in the
//! traced run — the layer kernels and the engine pass.

use crate::cell::{digest_of, ipc_of, run_cell, Cell, CellRun, Feeds, Probe};
use crate::engine::{self, fresh_dir, phases_of, run_engine, EngineRun, Phases, Resume};
use crate::host;
use crate::kernels;
use crate::metrics;
use crate::spans::Spans;
use crate::stats::{floats, geomean, median, share, Quartiles};
use crate::workloads::{
    accuracy_plan, cell_job, setup, Inputs, Kind, Scale, Workload, RESUME_ROWS, SECURE_ANCHOR,
    SECURE_PROPOSAL,
};
use secpref_exp::codec::report_to_string;
use secpref_exp::json::{obj, Json};
use secpref_exp::{JobSpec, Workload as JobWorkload};
use secpref_sim::{CoreMetrics, ProfileReport, SimReport};
use secpref_types::SystemConfig;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Two calibration readings further apart than this mark a run unsettled.
const SETTLED_WITHIN: f64 = 0.05;
/// The sampled-vs-full gate of the accuracy pass, in percent.
const MAX_SAMPLED_ERR_PCT: f64 = 2.0;

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    pub dir: PathBuf,
    /// Digests every full-detail cell must reproduce (`pins.json`, this
    /// workload's part); empty when pins do not apply (other seeds, smoke).
    pub pins: HashMap<String, u64>,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One cold engine run: its phases, worker utilisation, share of requests
/// that needed no simulation, and wall seconds.
struct Cold {
    phases: Phases,
    utilization: f64,
    dedup_hit_share: f64,
    wall_s: f64,
}

/// Simulated IPC of one distinct cell.
struct CellIpc {
    config: String,
    trace: String,
    cores: usize,
    ipc: f64,
}

/// What the timed phase hands to the common tail of a run.
#[derive(Default)]
struct Timed {
    /// Simulated Minstr per host second, one value per plain round, and
    /// the fastest round there could have been (the value judged).
    minstr_per_s: Vec<f64>,
    best_minstr_per_s: f64,
    plain_round_s: Vec<f64>,
    profiled_round_s: Vec<f64>,
    /// Request list whose reports sit in `store`, and those reports.
    jobs: Vec<JobSpec>,
    reports: Vec<SimReport>,
    store: PathBuf,
    ipcs: Vec<CellIpc>,
    /// Per plain round: Σ build, run, report seconds, instructions,
    /// simulated cycles.
    plain_rounds: Vec<[f64; 5]>,
    feed: Option<(u64, u64)>,
    cold: Vec<Cold>,
    /// Σ seconds of the raw (engine-less) runs of the cold sweep's jobs.
    raw_job_s: f64,
    /// A cell cheap enough to run three more times for the recorders.
    probe_cell: Option<Cell>,
    /// Per cell: unprofiled seconds of each run, and the profiled run's
    /// phase table (the per-cell attribution of the results document).
    cells: BTreeMap<String, CellRecord>,
}

#[derive(Default)]
struct CellRecord {
    instr: u64,
    ipc: f64,
    wall_s: Vec<f64>,
    profile: Option<ProfileReport>,
}

impl Timed {
    fn record(&mut self, cell: &Cell, r: &CellRun) {
        let rec = self.cells.entry(cell.id.clone()).or_default();
        rec.instr = cell.instructions();
        rec.ipc = r.ipc();
        match &r.profile {
            Some(p) => rec.profile = Some(p.clone()),
            None => rec.wall_s.push(r.wall_s()),
        }
    }
}

struct Run<'a> {
    args: &'a ChildArgs,
    spans: Spans,
    checks: Checks,
    /// First digest seen per cell id, and whether the cell is one that
    /// `pins.json` pins; later runs must reproduce it.
    first: BTreeMap<String, (u64, bool)>,
}

impl Run<'_> {
    /// Runs a cell and checks its digest against its pin and against the
    /// first run of the same cell.
    fn checked(&mut self, cell: &Cell, probe: Probe) -> CellRun {
        let r = run_cell(cell, probe, &mut self.spans);
        self.check_digest(&cell.id, r.digest, cell.sampling.is_none());
        if cell.sampling.is_some() {
            self.checks.check(r.report.sampling.is_some(), || {
                format!("{}: sampled report carries no sampling block", cell.id)
            });
        }
        r
    }

    fn check_digest(&mut self, id: &str, digest: u64, pinned: bool) {
        if pinned {
            if let Some(&pin) = self.args.pins.get(id) {
                self.checks.check(digest == pin, || {
                    format!("{id}: digest {digest:016x} != pinned {pin:016x}")
                });
            }
        }
        let first = self
            .first
            .entry(id.to_string())
            .or_insert((digest, pinned))
            .0;
        self.checks.check(digest == first, || {
            format!("{id}: digest {digest:016x} != first run's {first:016x}")
        });
    }
}

fn job_id(job: &JobSpec, label: &str) -> String {
    match &job.workload {
        JobWorkload::Mix(names) => format!("{label} x mix{}", names.len()),
        other => format!("{label} x {}", other.describe()),
    }
}

/// The cell that runs `job` the way `JobSpec::run` does, on the suite's
/// cached traces.
fn cell_of_job(job: &JobSpec, label: &str) -> Cell {
    let names = job.workload.trace_names();
    let traces = names
        .iter()
        .map(|n| secpref_trace::suite::cached_trace(n, job.scale.trace_len()))
        .collect::<Vec<_>>();
    let mut cfg = job.cfg.clone();
    cfg.cores = traces.len();
    cfg.llc = SystemConfig::baseline(cfg.cores).llc;
    let (warm, measure) = job.window();
    Cell {
        id: job_id(job, label),
        config: label.to_string(),
        trace: job.workload.describe(),
        cfg,
        feeds: Feeds::Mem(traces),
        warm,
        measure,
        sampling: job.sampling,
    }
}

/// Σ build, run, report seconds, instructions and simulated cycles of
/// one pass over `cells`.
fn sums_of(cells: &[Cell], runs: &[CellRun]) -> [f64; 5] {
    let mut sums = [0.0; 5];
    for (c, r) in cells.iter().zip(runs) {
        sums[0] += r.build_s;
        sums[1] += r.run_s;
        sums[2] += r.report_s;
        sums[3] += c.instructions() as f64;
        sums[4] += r.cycles as f64;
    }
    sums
}

/// Label of each sweep job, by configuration.
fn sweep_labels(jobs: &[JobSpec]) -> Vec<String> {
    let configs = crate::workloads::sweep_configs();
    jobs.iter()
        .map(|j| {
            configs
                .iter()
                .find(|(_, c)| *c == j.cfg)
                .map_or_else(|| "?".to_string(), |(l, _)| l.clone())
        })
        .collect()
}

fn sim_rounds(run: &mut Run<'_>, inp: &Inputs) -> std::io::Result<Timed> {
    let args = run.args;
    let mut t = Timed::default();
    // Warm-up round, untimed: the first cell of each trace, so every
    // trace's pages and one system's worth of allocations are touched. A
    // sampled cell warms up over a tenth of its span.
    let mut warmed: Vec<&str> = Vec::new();
    for cell in &inp.cells {
        if warmed.contains(&cell.trace.as_str()) {
            continue;
        }
        warmed.push(&cell.trace);
        let sp = run.spans.begin("warmup", &cell.id);
        match &cell.sampling {
            Some(plan) => {
                let mut short = cell.clone();
                short.id = format!("{} (warm-up)", cell.id);
                short.measure = (cell.measure / 10).max(2 * plan.period());
                run_cell(&short, Probe::None, &mut run.spans);
                t.probe_cell = Some(short);
            }
            None => {
                run.checked(cell, Probe::None);
            }
        }
        run.spans.end(sp);
    }
    if t.probe_cell.is_none() {
        t.probe_cell = inp.cells.first().cloned();
    }

    let rounds = args.scale.count(args.workload.rounds, 2);
    let round_instr: u64 = inp.cells.iter().map(Cell::instructions).sum();
    let mut last: Vec<CellRun> = Vec::new();
    for round in 0..rounds {
        // The traced run profiles its second round and records spans in
        // that one only, so that the tracing overhead is a ratio of
        // rounds of one process.
        let traced = args.trace && round == 1;
        let probe = if traced { Probe::Profile } else { Probe::None };
        run.spans.record(traced);
        let sp = run.spans.begin("round", &format!("round {round}"));
        let started = Instant::now();
        let runs: Vec<CellRun> = inp.cells.iter().map(|c| run.checked(c, probe)).collect();
        let secs = started.elapsed().as_secs_f64();
        run.spans.end(sp);
        run.spans.record(args.trace);
        eprintln!(
            "[secbench] {} round {round}{}: {secs:.3} s, {:.4} Minstr/s",
            args.workload.name,
            if traced { " (traced)" } else { "" },
            round_instr as f64 / secs / 1e6
        );
        for (c, r) in inp.cells.iter().zip(&runs) {
            t.record(c, r);
        }
        if traced {
            t.profiled_round_s.push(secs);
        } else {
            t.plain_round_s.push(secs);
            t.minstr_per_s.push(round_instr as f64 / secs / 1e6);
            t.plain_rounds.push(sums_of(&inp.cells, &runs));
        }
        last = runs;
    }
    // The fastest round there could have been: each cell at its fastest
    // run. Finer-grained than the fastest whole round, so a burst of
    // interference spoils fewer of the samples it is made of.
    let fastest_s: f64 = t
        .cells
        .values()
        .map(|c| c.wall_s.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    t.best_minstr_per_s = share(round_instr as f64 / 1e6, fastest_s);
    t.feed = last.iter().find_map(|r| r.feed);
    t.ipcs = inp
        .cells
        .iter()
        .zip(&last)
        .map(|(c, r)| CellIpc {
            config: c.config.clone(),
            trace: c.trace.clone(),
            cores: c.cfg.cores,
            ipc: r.ipc(),
        })
        .collect();

    // The cells' reports go into a store under label-only jobs (plus one
    // duplicate request), for the resume passes.
    for k in 0..RESUME_ROWS.div_ceil(inp.cells.len()) {
        for (cell, r) in inp.cells.iter().zip(&last) {
            t.jobs.push(cell_job(cell, k));
            t.reports.push(r.report.clone());
        }
    }
    t.store = args.dir.join("store");
    engine::populate_store(&t.store, &t.jobs, &t.reports)?;
    t.jobs.push(t.jobs[0].clone());
    t.reports.push(t.reports[0].clone());

    if args.trace && !inp.mini_jobs.is_empty() {
        // The `exp` layer on this workload: its cells as quick-scale
        // engine jobs, cold, then the same jobs without the engine.
        let dir = args.dir.join("mini");
        fresh_dir(&dir)?;
        let cold = run_engine(&dir, &inp.mini_jobs, "exp.cold", &mut run.spans)?;
        t.cold.push(note_cold(run, &cold, &inp.mini_jobs));
        let sp = run.spans.begin("exp.raw_jobs", "mini");
        let started = Instant::now();
        for (job, via_engine) in inp.mini_jobs.iter().zip(&cold.reports) {
            let raw = job.run();
            run.checks.check(
                report_to_string(&raw) == report_to_string(via_engine),
                || format!("{}: engine report differs from raw run", job.label()),
            );
        }
        t.raw_job_s = started.elapsed().as_secs_f64();
        run.spans.end(sp);
    }
    Ok(t)
}

/// Checks a cold sweep — it must simulate every distinct job exactly once
/// and export a valid span trace — and reads its phases.
fn note_cold(run: &mut Run<'_>, cold: &EngineRun, jobs: &[JobSpec]) -> Cold {
    let unique = engine::distinct(jobs).len();
    run.checks.check(
        cold.summary.executed == unique && cold.reports.len() == jobs.len(),
        || {
            format!(
                "cold sweep simulated {} of {unique} distinct jobs",
                cold.summary.executed
            )
        },
    );
    let phases = phases_of(&cold.summary, cold.wall_s);
    run.checks.check(phases.is_some(), || {
        "engine span trace missing or invalid".to_string()
    });
    Cold {
        phases: phases.unwrap_or_default(),
        utilization: cold.summary.utilization,
        dedup_hit_share: cold.summary.dedup_hit_rate,
        wall_s: cold.wall_s,
    }
}

fn sweep_rounds(run: &mut Run<'_>, inp: &Inputs) -> std::io::Result<Timed> {
    let args = run.args;
    let mut t = Timed::default();
    let jobs = &inp.jobs;
    let labels = sweep_labels(jobs);
    let ids: Vec<String> = jobs
        .iter()
        .zip(&labels)
        .map(|(j, l)| job_id(j, l))
        .collect();
    let unique = engine::distinct(jobs);
    let executed_instr: u64 = unique
        .iter()
        .map(|&i| {
            let (w, m) = jobs[i].window();
            (w + m) * jobs[i].workload.trace_names().len() as u64
        })
        .sum();

    // Warm-up round, untimed: the first ten distinct jobs on a store of
    // their own.
    let sp = run.spans.begin("warmup", "first 10 jobs");
    let warm: Vec<JobSpec> = unique.iter().take(10).map(|&i| jobs[i].clone()).collect();
    let dir = args.dir.join("warmup");
    fresh_dir(&dir)?;
    run_engine(&dir, &warm, "exp.warmup_sweep", &mut run.spans)?;
    run.spans.end(sp);

    let rounds = args
        .scale
        .count(args.workload.rounds, if args.trace { 2 } else { 1 });
    for round in 0..rounds {
        let traced = args.trace && round == 1;
        t.store = args.dir.join(format!("cold{round}"));
        fresh_dir(&t.store)?;
        run.spans.record(traced);
        let cold = run_engine(&t.store, jobs, "exp.cold", &mut run.spans)?;
        run.spans.record(args.trace);
        eprintln!(
            "[secbench] {} cold round {round}{}: {:.3} s, {:.4} Minstr/s",
            args.workload.name,
            if traced { " (traced)" } else { "" },
            cold.wall_s,
            executed_instr as f64 / cold.wall_s / 1e6
        );
        t.cold.push(note_cold(run, &cold, jobs));
        for (id, report) in ids.iter().zip(&cold.reports) {
            run.check_digest(id, digest_of(report), true);
        }
        if traced {
            t.profiled_round_s.push(cold.wall_s);
        } else {
            t.plain_round_s.push(cold.wall_s);
            t.minstr_per_s
                .push(executed_instr as f64 / cold.wall_s / 1e6);
        }
        t.reports = cold.reports;
    }
    t.best_minstr_per_s = fastest(&t.minstr_per_s);
    t.jobs = jobs.clone();
    t.ipcs = unique
        .iter()
        .map(|&i| CellIpc {
            config: labels[i].clone(),
            trace: jobs[i].workload.describe(),
            cores: jobs[i].workload.trace_names().len(),
            ipc: ipc_of(&t.reports[i]),
        })
        .collect();
    t.probe_cell = Some(cell_of_job(&jobs[unique[0]], &labels[unique[0]]));

    if args.trace {
        // The same jobs without the engine: the `sim` layer of this
        // workload and the denominator of `exp.overhead_vs_raw`. The
        // pointer-chase and the graph cell of every configuration run
        // once more under the phase profiler (which slows a run too much
        // to time it): the pair ROADMAP item 1 asks to be told apart.
        let sp = run.spans.begin("exp.raw_jobs", "sweep");
        let cells: Vec<Cell> = unique
            .iter()
            .map(|&i| cell_of_job(&jobs[i], &labels[i]))
            .collect();
        let runs: Vec<CellRun> = cells.iter().map(|c| run.checked(c, Probe::None)).collect();
        t.raw_job_s = runs.iter().map(CellRun::wall_s).sum();
        t.plain_rounds.push(sums_of(&cells, &runs));
        for (c, r) in cells.iter().zip(&runs) {
            t.record(c, r);
        }
        for cell in cells
            .iter()
            .filter(|c| c.trace == "mcf_like_a" || c.trace == "bfs_small")
        {
            let profiled = run.checked(cell, Probe::Profile);
            t.record(cell, &profiled);
        }
        run.spans.end(sp);
    }
    Ok(t)
}

/// Geomean over traces of IPC(proposal) ÷ IPC(anchor), single-core cells
/// only; `None` when the workload has no such pair.
fn secure_pf_speedup(ipcs: &[CellIpc]) -> Option<f64> {
    let ratios: Vec<f64> = ipcs
        .iter()
        .filter(|c| c.config == SECURE_PROPOSAL && c.cores == 1)
        .filter_map(|c| {
            let anchor = ipcs
                .iter()
                .find(|a| a.config == SECURE_ANCHOR && a.trace == c.trace)?;
            Some(c.ipc / anchor.ipc)
        })
        .collect();
    (!ratios.is_empty()).then(|| geomean(&ratios))
}

/// Full detail against the dense sampled plan on the accuracy cells;
/// worst relative IPC error in percent.
fn accuracy_pass(run: &mut Run<'_>, inp: &Inputs) -> Option<f64> {
    if inp.accuracy.is_empty() {
        return None;
    }
    let sp = run.spans.begin("accuracy", "sampled vs full");
    let mut worst = 0.0f64;
    for full_cell in &inp.accuracy {
        let mut full_cell = full_cell.clone();
        full_cell.id = format!("accuracy: {}", full_cell.id);
        let mut sampled_cell = full_cell.clone();
        sampled_cell.id = format!("{} (sampled)", full_cell.id);
        sampled_cell.sampling = Some(accuracy_plan());
        let full = run.checked(&full_cell, Probe::None);
        let sampled = run.checked(&sampled_cell, Probe::None);
        let err = 100.0 * (sampled.ipc() - full.ipc()).abs() / full.ipc();
        eprintln!(
            "[secbench] {}: full {:.5}, sampled {:.5}, error {err:.3}%",
            full_cell.id,
            full.ipc(),
            sampled.ipc()
        );
        worst = worst.max(err);
    }
    run.spans.end(sp);
    // A fiftieth of the window holds three sampling periods: the error
    // bound is a statement about the full-size pass only.
    if !run.args.scale.smoke {
        run.checks.check(worst < MAX_SAMPLED_ERR_PCT, || {
            format!("sampled IPC error {worst:.3}% is not below {MAX_SAMPLED_ERR_PCT}%")
        });
    }
    Some(worst)
}

/// Same cell with each recorder on ÷ off, and the events `obs` saw per
/// thousand measured instructions.
fn recorder_slowdown(run: &mut Run<'_>, cell: &Cell, out: &mut Vec<(String, f64)>) {
    let sp = run.spans.begin("recorders", &cell.id);
    let off = run_cell(cell, Probe::None, &mut run.spans);
    let obs = run_cell(cell, Probe::Obs, &mut run.spans);
    let tel = run_cell(cell, Probe::Tel, &mut run.spans);
    run.spans.end(sp);
    // The recorders must not change what is simulated.
    for (name, r) in [("obs", &obs), ("telemetry", &tel)] {
        run.checks.check(r.digest == off.digest, || {
            format!("{}: {name} recorder changed the report", cell.id)
        });
    }
    let measured: u64 = off.report.cores.iter().map(|c| c.instructions).sum();
    out.push(("obs.on_slowdown".into(), share(obs.run_s, off.run_s)));
    out.push(("telemetry.on_slowdown".into(), share(tel.run_s, off.run_s)));
    out.push((
        "obs.events_per_kinstr".into(),
        share(obs.obs_events.unwrap_or(0) as f64 * 1000.0, measured as f64),
    ));
}

/// Shares of host time per phase, in the profiler's own row order.
fn phase_shares(profile: &ProfileReport) -> Vec<(String, f64)> {
    let total = profile.total().as_secs_f64();
    profile
        .rows
        .iter()
        .map(|r| {
            (
                r.phase.name().to_string(),
                share(r.time.as_secs_f64(), total),
            )
        })
        .collect()
}

/// The per-layer metrics of a traced run, bar the three its caller holds
/// (`trace.gen_ns_per_instr`, the two simulated copies) and
/// `host.calib_ns`: kernels, recorders, and what the rounds, the cold
/// sweeps and the resume passes left in `t` and `resume`.
fn layer_metrics(
    run: &mut Run<'_>,
    inp: &Inputs,
    t: &Timed,
    resume: &Resume,
    distinct: &[SimReport],
) -> std::io::Result<Vec<(String, f64)>> {
    let mut layer: Vec<(String, f64)> = Vec::new();
    let sp = run.spans.begin("kernels", "layer kernels");
    layer.extend(kernels::run(&inp.kernel_traces, &inp.walk_cfg));
    run.spans.end(sp);
    let sp = run.spans.begin("exp.store_kernels", "store and codec");
    layer.extend(engine::store_kernels(
        &t.store,
        &run.args.dir.join("append"),
        distinct,
    )?);
    run.spans.end(sp);
    if let Some(cell) = &t.probe_cell {
        recorder_slowdown(run, cell, &mut layer);
    }
    layer.push((
        "tracestore.replay_hit_share".into(),
        t.feed.map_or(0.0, |(hits, decodes)| {
            share(hits as f64, (hits + decodes) as f64)
        }),
    ));
    let col = |i: usize| median(&t.plain_rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    layer.push(("sim.build_s".into(), col(0)));
    layer.push(("sim.run_s".into(), col(1)));
    layer.push(("sim.report_s".into(), col(2)));
    layer.push(("sim.host_ns_per_instr".into(), share(col(1) * 1e9, col(3))));
    layer.push(("sim.host_ns_per_cycle".into(), share(col(1) * 1e9, col(4))));
    let mut profile = ProfileReport::empty();
    for p in t.cells.values().filter_map(|c| c.profile.as_ref()) {
        profile.merge(p);
    }
    for (phase, part) in phase_shares(&profile) {
        layer.push((format!("sim.phase.{phase}"), part));
    }
    // Simulated counters, summed over the distinct cells' cores.
    let mut all = CoreMetrics::default();
    for c in distinct.iter().flat_map(|r| &r.cores) {
        all.accumulate(c);
    }
    let pki = |n: u64| share(n as f64 * 1000.0, all.instructions as f64);
    layer.push(("sim.l1d_mpki".into(), pki(all.l1d.demand_misses)));
    layer.push(("sim.l2_mpki".into(), pki(all.l2.demand_misses)));
    layer.push(("sim.llc_mpki".into(), pki(all.llc.demand_misses)));
    layer.push((
        "sim.mshr_full_stalls_pki".into(),
        pki(all.l1d.mshr_full_stalls + all.l2.mshr_full_stalls + all.llc.mshr_full_stalls),
    ));
    layer.push((
        "sim.port_stalls_pki".into(),
        pki(all.l1d.port_stalls + all.l2.port_stalls + all.llc.port_stalls),
    ));
    layer.push(("sim.pf_accuracy".into(), all.prefetch.accuracy()));
    layer.push(("sim.pf_late_share".into(), all.prefetch.lateness()));
    layer.push(("sim.commit_refetch_pki".into(), pki(all.commit.refetches)));
    layer.push(("sim.suf_accuracy".into(), all.commit.suf_accuracy()));
    // exp: what simulates comes from the cold sweeps, what resolves from
    // the resume passes.
    let cold = |f: fn(&Cold) -> f64| median(&t.cold.iter().map(f).collect::<Vec<_>>());
    let warm = |f: fn(&Phases) -> f64| median(&resume.phases.iter().map(f).collect::<Vec<_>>());
    layer.push(("exp.dedup_s".into(), warm(|p| p.dedup_s)));
    layer.push(("exp.resolve_s".into(), warm(|p| p.resolve_s)));
    layer.push(("exp.manifest_s".into(), warm(|p| p.manifest_s)));
    layer.push((
        "exp.trace_acquire_s".into(),
        cold(|c| c.phases.trace_acquire_s),
    ));
    layer.push(("exp.simulate_s".into(), cold(|c| c.phases.simulate_s)));
    layer.push((
        "exp.store_append_s".into(),
        cold(|c| c.phases.store_append_s),
    ));
    layer.push(("exp.utilization".into(), cold(|c| c.utilization)));
    layer.push(("exp.dedup_hit_share".into(), cold(|c| c.dedup_hit_share)));
    layer.push((
        "exp.overhead_vs_raw".into(),
        share(
            cold(|c| c.wall_s) * crate::workloads::ENGINE_WORKERS as f64,
            t.raw_job_s,
        ),
    ));
    layer.push((
        "trace_overhead".into(),
        share(median(&t.profiled_round_s), median(&t.plain_round_s)),
    ));
    Ok(layer)
}

/// The per-cell table of the results document.
fn cells_json(cells: &BTreeMap<String, CellRecord>) -> Json {
    Json::Obj(
        cells
            .iter()
            .map(|(id, c)| {
                let secs = median(&c.wall_s);
                let mut fields = vec![
                    ("ipc", Json::Float(c.ipc)),
                    ("wall_s", Json::Float(secs)),
                    (
                        "minstr_per_s",
                        Json::Float(share(c.instr as f64 / 1e6, secs)),
                    ),
                ];
                if let Some(p) = &c.profile {
                    let shares = phase_shares(p)
                        .into_iter()
                        .map(|(phase, part)| (phase, Json::Float(part)))
                        .collect();
                    fields.push(("phase_share", Json::Obj(shares)));
                }
                (id.clone(), obj(fields))
            })
            .collect(),
    )
}

/// A metric's samples with their median, quartiles and count, and — for
/// a host-time rate — the fastest sample, which is the value judged.
fn sample_json(unit: &str, values: &[f64], best: Option<f64>) -> Json {
    let Json::Obj(mut fields) = Quartiles::of(values).to_json() else {
        unreachable!("quartiles serialise as an object")
    };
    fields.insert(0, ("unit".to_string(), Json::Str(unit.to_string())));
    if let Some(best) = best {
        fields.push(("best".to_string(), Json::Float(best)));
    }
    fields.push(("values".to_string(), floats(values)));
    Json::Obj(fields)
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Runs the workload and returns the outcome document the parent reads
/// from the child's last line of output.
pub fn run_child(args: &ChildArgs) -> std::io::Result<Json> {
    let started = Instant::now();
    let w = &args.workload;
    fresh_dir(&args.dir)?;
    let mut run = Run {
        args,
        spans: Spans::new(args.trace),
        checks: Checks::default(),
        first: BTreeMap::new(),
    };
    let calib_reps = if args.scale.smoke { 1 } else { 3 };
    let calib_before = host::calib_ns(calib_reps);

    // Set-up, several times over; the last one's inputs are used.
    let setups = if args.scale.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut gen_ns = Vec::new();
    let mut inp = Inputs::default();
    for repeat in 0..setups {
        // The previous set-up's inputs go first: two sets alive at once
        // would double the peak memory this run reports.
        drop(std::mem::take(&mut inp));
        let sp = run.spans.begin("setup", &format!("set-up {repeat}"));
        let t = Instant::now();
        inp = setup(w, args.seed, args.scale, &args.dir, repeat)?;
        setup_s.push(t.elapsed().as_secs_f64());
        run.spans.end(sp);
        gen_ns.push(share(inp.gen_s * 1e9, inp.gen_instr as f64));
    }

    // From here on the peak is the simulator's, on top of the inputs.
    host::reset_peak_rss();

    let t = match w.kind {
        Kind::SweepStore => sweep_rounds(&mut run, &inp)?,
        _ => sim_rounds(&mut run, &inp)?,
    };

    // Resume passes: every request must come back from the store,
    // byte-identical to its cold report, with nothing simulated.
    let passes = args.scale.count(w.resume_passes, 3);
    let expect: Vec<String> = t.reports.iter().map(report_to_string).collect();
    let resume = engine::resume_passes(&t.store, &t.jobs, &expect, passes, &mut run.spans)?;
    run.checks.attempted += resume.attempted;
    run.checks.failures.extend(resume.failures.iter().cloned());
    let resume_jobs_per_s: Vec<f64> = resume
        .pass_s
        .iter()
        .map(|s| share(t.jobs.len() as f64, *s))
        .collect();

    let sampled_err = accuracy_pass(&mut run, &inp);
    let pf_speedup = secure_pf_speedup(&t.ipcs);
    let sim_ipc = geomean(&t.ipcs.iter().map(|c| c.ipc).collect::<Vec<_>>());

    let distinct: Vec<SimReport> = engine::distinct(&t.jobs)
        .into_iter()
        .map(|i| t.reports[i].clone())
        .collect();
    let mut layer: Vec<(String, f64)> = Vec::new();
    if args.trace {
        layer = layer_metrics(&mut run, &inp, &t, &resume, &distinct)?;
        layer.push(("trace.gen_ns_per_instr".into(), median(&gen_ns)));
        layer.push(("sim.secure_pf_speedup".into(), pf_speedup.unwrap_or(0.0)));
        layer.push(("sim.sampled_ipc_err_pct".into(), sampled_err.unwrap_or(0.0)));
    }

    // Read before the calibration kernel allocates its 4 MiB ring.
    let peak_rss_mib = host::peak_rss_mib();
    let calib_after = host::calib_ns(calib_reps);
    if args.trace {
        layer.push(("host.calib_ns".into(), (calib_before + calib_after) / 2.0));
    }
    let unsettled =
        (calib_after - calib_before).abs() > SETTLED_WITHIN * calib_before.min(calib_after);

    // Schema: the traced run owes every per-layer name exactly once.
    if args.trace {
        let mut have: Vec<&str> = layer.iter().map(|m| m.0.as_str()).collect();
        have.sort_unstable();
        let mut want: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
        want.sort_unstable();
        let same = have.len() == want.len() && have.iter().zip(&want).all(|(a, b)| a == b);
        run.checks.check(same, || {
            let missing: Vec<&String> = want
                .iter()
                .filter(|w| !have.contains(&w.as_str()))
                .collect();
            let extra: Vec<&&str> = have
                .iter()
                .filter(|h| !want.iter().any(|w| w == **h))
                .collect();
            format!("per-layer schema: missing {missing:?}, unexpected {extra:?}")
        });
        run.checks
            .check(layer.iter().all(|m| m.1.is_finite() && m.1 >= 0.0), || {
                "per-layer schema: a value is negative or not finite".to_string()
            });
    }

    let failed = run.checks.failures.len() as u64;
    let attempted = run.checks.attempted.max(1);
    let mut e2e = vec![
        ("setup_s", sample_json("s", &setup_s, None)),
        (
            "host_minstr_per_s",
            sample_json("Minstr/s", &t.minstr_per_s, Some(t.best_minstr_per_s)),
        ),
        ("peak_rss_mib", sample_json("MiB", &[peak_rss_mib], None)),
        ("sim_ipc", sample_json("instr/cycle", &[sim_ipc], None)),
        (
            "resume_jobs_per_s",
            sample_json(
                "jobs/s",
                &resume_jobs_per_s,
                Some(fastest(&resume_jobs_per_s)),
            ),
        ),
        (
            "fail_share",
            sample_json("share", &[failed as f64 / attempted as f64], None),
        ),
    ];
    if let Some(v) = pf_speedup {
        e2e.push(("secure_pf_speedup", sample_json("x", &[v], None)));
    }
    if let Some(v) = sampled_err {
        e2e.push(("sampled_ipc_err_pct", sample_json("%", &[v], None)));
    }

    let summary = run.spans.summary();
    Ok(obj(vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.scale.seconds)),
        ("smoke", Json::Bool(args.scale.smoke)),
        ("trace", Json::Bool(args.trace)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "failures",
            Json::Arr(
                run.checks
                    .failures
                    .iter()
                    .take(50)
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("unsettled", Json::Bool(unsettled)),
        ("calib_ns", floats(&[calib_before, calib_after])),
        ("wall_s", Json::Float(started.elapsed().as_secs_f64())),
        ("end_to_end", obj(e2e)),
        (
            "per_layer",
            Json::Obj(
                layer
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "span_summary",
            Json::Obj(
                summary
                    .iter()
                    .map(|(name, (calls, total, own))| {
                        (
                            name.clone(),
                            obj(vec![
                                ("calls", Json::UInt(*calls)),
                                ("total_s", Json::Float(*total)),
                                ("self_s", Json::Float(*own)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("cells", cells_json(&t.cells)),
        ("spans", run.spans.to_json()),
        (
            "digests",
            Json::Obj(
                run.first
                    .iter()
                    .filter(|(_, (_, pinned))| *pinned)
                    .map(|(id, (d, _))| (id.clone(), Json::Str(format!("{d:016x}"))))
                    .collect(),
            ),
        ),
    ]))
}
