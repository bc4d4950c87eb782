//! The five workloads: names, sizes, why each exists, and how each one's
//! inputs are made from the seed. Sizes are fixed work (instruction
//! counts and job lists); nothing here looks at a clock.

use crate::cell::{Cell, Feeds};
use crate::inputs::{shaped_trace, write_sct};
use secpref_exp::{ExpScale, JobSpec};
use secpref_trace::Trace;
use secpref_types::rng::Xoshiro256ss;
use secpref_types::{
    CorePolicy, PrefetchMode, PrefetcherKind, SamplingConfig, SecureMode, SystemConfig,
};
use std::path::Path;
use std::sync::Arc;

/// `--seconds` the round counts below are sized for (`run_seconds` in
/// `BENCHMARK.json`). Another `--seconds` scales the round counts, never
/// the work inside a round.
pub const DEFAULT_SECONDS: u64 = 12;

/// `--smoke` divides every instruction count and job list by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Worker threads of the sweep engine: the box has two cores, and the
/// load must not depend on where the benchmark runs.
pub const ENGINE_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SecureIrregular,
    NonsecureStream,
    MulticoreMix,
    SampledStream,
    SweepStore,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Timed rounds at [`DEFAULT_SECONDS`].
    pub rounds: usize,
    /// Resume passes over the populated store at [`DEFAULT_SECONDS`].
    pub resume_passes: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::SecureIrregular,
        name: "secure_irregular",
        why: "GhostMinion, SUF and TSB cells on LLC-resident and DRAM-bound graphs: GM, commit engine, MSHRs and DRAM do the work",
        rounds: 3,
        resume_passes: 5,
    },
    Workload {
        kind: Kind::NonsecureStream,
        name: "nonsecure_stream",
        why: "non-secure stream with every prefetcher on access: GM and commit engine bypassed, core model and prefetcher tables do the work",
        rounds: 3,
        resume_passes: 5,
    },
    Workload {
        kind: Kind::MulticoreMix,
        name: "multicore_mix",
        why: "eight cores contend for one LLC and DRAM channel, defeating idle-cycle skipping: a single-core win that costs the many-core path shows",
        rounds: 4,
        resume_passes: 5,
    },
    Workload {
        kind: Kind::SampledStream,
        name: "sampled_stream",
        why: "SMARTS run streamed from a .sct store: functional warming and trace decode do the work, the detailed model almost none",
        rounds: 8,
        resume_passes: 5,
    },
    Workload {
        kind: Kind::SweepStore,
        name: "sweep_store",
        why: "experiment engine on a fresh store, cold then resumed: encode and append beside scan, decode and dedup on one layer",
        rounds: 4,
        resume_passes: 50,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How much of the nominal work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
    pub seconds: u64,
}

impl Scale {
    /// An instruction count, divided in smoke mode but never below `min`.
    pub fn instr(&self, n: u64, min: u64) -> u64 {
        if self.smoke {
            (n / SMOKE_DIVISOR).max(min)
        } else {
            n
        }
    }

    /// A round or pass count scaled by `--seconds` (smoke: a fiftieth).
    pub fn count(&self, at_default: usize, min: usize) -> usize {
        let n = if self.smoke {
            at_default as u64 / SMOKE_DIVISOR
        } else {
            (at_default as u64 * self.seconds + DEFAULT_SECONDS / 2) / DEFAULT_SECONDS
        };
        (n as usize).max(min)
    }
}

// ---- configurations ------------------------------------------------------

fn secure() -> SystemConfig {
    SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion)
}

fn on_access(kind: PrefetcherKind) -> SystemConfig {
    SystemConfig::baseline(1)
        .with_prefetcher(kind)
        .with_mode(PrefetchMode::OnAccess)
}

fn on_commit(kind: PrefetcherKind) -> SystemConfig {
    secure()
        .with_prefetcher(kind)
        .with_mode(PrefetchMode::OnCommit)
}

fn on_commit_suf(kind: PrefetcherKind) -> SystemConfig {
    on_commit(kind).with_suf(true)
}

fn timely_secure_suf(kind: PrefetcherKind) -> SystemConfig {
    on_commit_suf(kind).with_timely_secure(true)
}

/// The name a prefetcher has in configuration labels and metric names.
pub fn kind_slug(kind: PrefetcherKind) -> &'static str {
    match kind {
        PrefetcherKind::None => "nopf",
        PrefetcherKind::IpStride => "ip-stride",
        PrefetcherKind::Ipcp => "ipcp",
        PrefetcherKind::Bingo => "bingo",
        PrefetcherKind::SppPpf => "spp-ppf",
        PrefetcherKind::Berti => "berti",
    }
}

/// Label of the no-prefetch GhostMinion anchor (denominator of
/// `secure_pf_speedup`).
pub const SECURE_ANCHOR: &str = "ghostminion/nopf";
/// Label of the paper's full proposal (numerator of `secure_pf_speedup`).
pub const SECURE_PROPOSAL: &str = "tsb+suf/berti";

/// The 8-core heterogeneous policy wheel of `examples/multicore_mixes.rs`.
fn policy_wheel(core: usize) -> CorePolicy {
    let base = CorePolicy::of(&SystemConfig::baseline(1));
    match core % 4 {
        0 => CorePolicy {
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnAccess,
            ..base
        },
        1 => CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::Berti,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            timely_secure: true,
        },
        2 => CorePolicy {
            secure: SecureMode::GhostMinion,
            prefetcher: PrefetcherKind::IpStride,
            prefetch_mode: PrefetchMode::OnCommit,
            suf: true,
            ..base
        },
        _ => base,
    }
}

// ---- inputs ----------------------------------------------------------------

/// What set-up hands to the timed phase.
#[derive(Debug, Default)]
pub struct Inputs {
    /// Cells one round visits, in order.
    pub cells: Vec<Cell>,
    /// Full-detail reference cells of the accuracy pass; each also runs
    /// under [`accuracy_plan`].
    pub accuracy: Vec<Cell>,
    /// Sweep jobs in request order, duplicates included (`sweep_store`).
    pub jobs: Vec<JobSpec>,
    /// Traces whose loads drive the layer kernels.
    pub kernel_traces: Vec<Arc<Trace>>,
    /// Single-core configuration the functional-walk kernel runs under.
    pub walk_cfg: SystemConfig,
    /// The workload's cells as quick-scale engine jobs on the suite's own
    /// versions of its traces: what the traced run sends through the
    /// engine so that the `exp` layer is measured on every workload.
    pub mini_jobs: Vec<JobSpec>,
    /// Instructions generated and the seconds that took (`trace` layer).
    pub gen_instr: u64,
    pub gen_s: f64,
}

/// The validated dense plan of the sampled-vs-full differential
/// (`secpref_check::sampling::plan`): fixed, so the accuracy pass does
/// not depend on `--seed`.
pub fn accuracy_plan() -> SamplingConfig {
    SamplingConfig::new(2_000, 500, 3_500).with_jitter(300, 11)
}

/// The sparse throughput plan of `sampled_stream`; the seed moves the
/// window jitter.
pub fn throughput_plan(seed: u64) -> SamplingConfig {
    SamplingConfig::new(2_000, 500, 197_500).with_jitter(300, seed)
}

struct Gen {
    seed: u64,
    instr: u64,
    secs: f64,
}

impl Gen {
    fn trace(&mut self, shape: &str, seed: u64, n: u64) -> Arc<Trace> {
        let t = std::time::Instant::now();
        let trace = shaped_trace(shape, seed, n as usize);
        self.secs += t.elapsed().as_secs_f64();
        self.instr += n;
        trace
    }

    fn seeded(&mut self, shape: &str, n: u64) -> Arc<Trace> {
        self.trace(shape, self.seed, n)
    }
}

fn single(config: &str, cfg: SystemConfig, trace: &Arc<Trace>, warm: u64, measure: u64) -> Cell {
    Cell {
        id: format!("{config} x {}", trace.name),
        config: config.to_string(),
        trace: trace.name.clone(),
        cfg,
        feeds: Feeds::Mem(vec![trace.clone()]),
        warm,
        measure,
        sampling: None,
    }
}

/// Every distinct configuration of `cells` on each suite trace of
/// `shapes`, as quick-scale single-core engine jobs.
fn mini_singles(cells: &[Cell], shapes: &[&str]) -> Vec<JobSpec> {
    let mut cfgs: Vec<&SystemConfig> = Vec::new();
    for c in cells {
        if !cfgs.contains(&&c.cfg) {
            cfgs.push(&c.cfg);
        }
    }
    cfgs.iter()
        .flat_map(|cfg| {
            shapes
                .iter()
                .map(|t| JobSpec::single((*cfg).clone(), t, ExpScale::Quick))
        })
        .collect()
}

/// Builds the workload's inputs from `seed`. `dir` is a scratch directory
/// of this run (the `.sct` store and the sweep's result store go there).
///
/// Set-up runs several times per run; `repeat` counts them. Only the
/// sweep looks at it: its first set-up fills the suite's trace cache (the
/// engine reads from there), later ones generate the same traces uncached
/// so that every repeat does the same work.
pub fn setup(
    w: &Workload,
    seed: u64,
    scale: Scale,
    dir: &Path,
    repeat: usize,
) -> std::io::Result<Inputs> {
    let mut gen = Gen {
        seed,
        instr: 0,
        secs: 0.0,
    };
    let mut inp = Inputs::default();
    match w.kind {
        Kind::SecureIrregular => {
            let (warm, measure) = (scale.instr(40_000, 500), scale.instr(160_000, 2_000));
            let traces = [
                gen.seeded("bfs_small", warm + measure),
                gen.seeded("cc_large", warm + measure),
            ];
            for (label, cfg) in [
                (SECURE_ANCHOR, secure()),
                (
                    "ghostminion+suf/berti-on-commit",
                    on_commit_suf(PrefetcherKind::Berti),
                ),
                (SECURE_PROPOSAL, timely_secure_suf(PrefetcherKind::Berti)),
            ] {
                for t in &traces {
                    inp.cells.push(single(label, cfg.clone(), t, warm, measure));
                }
            }
            inp.kernel_traces = traces.to_vec();
            inp.walk_cfg = timely_secure_suf(PrefetcherKind::Berti);
            inp.mini_jobs = mini_singles(&inp.cells, &["bfs_small", "cc_large"]);
        }
        Kind::NonsecureStream => {
            let (warm, measure) = (scale.instr(200_000, 500), scale.instr(800_000, 2_000));
            let t = gen.seeded("lbm_like", warm + measure);
            inp.cells.push(single(
                "nonsecure/nopf",
                SystemConfig::baseline(1),
                &t,
                warm,
                measure,
            ));
            for kind in PrefetcherKind::EVALUATED {
                let label = format!("nonsecure/{}-on-access", kind_slug(kind));
                inp.cells
                    .push(single(&label, on_access(kind), &t, warm, measure));
            }
            inp.kernel_traces = vec![t];
            inp.walk_cfg = on_access(PrefetcherKind::Berti);
            inp.mini_jobs = mini_singles(&inp.cells, &["lbm_like"]);
        }
        Kind::MulticoreMix => {
            const CORES: usize = 8;
            let (warm, measure) = ExpScale::Full.multicore_window();
            let (warm, measure) = (scale.instr(warm, 500), scale.instr(measure, 2_000));
            // `pressure_mix(8)`: the first eight suite traces, one per core.
            let names = secpref_trace::suite::spec_names();
            let traces: Vec<Arc<Trace>> = names[..CORES]
                .iter()
                .map(|n| gen.seeded(n, warm + measure))
                .collect();
            let wheel = SystemConfig::baseline(CORES)
                .with_core_policies((0..CORES).map(policy_wheel).collect());
            let mut homogeneous = timely_secure_suf(PrefetcherKind::Berti);
            homogeneous.cores = CORES;
            homogeneous.llc = SystemConfig::baseline(CORES).llc;
            for (label, cfg) in [("wheel", wheel), (SECURE_PROPOSAL, homogeneous)] {
                inp.cells.push(Cell {
                    id: format!("{label} x pressure_mix8"),
                    config: label.to_string(),
                    trace: "pressure_mix8".to_string(),
                    cfg,
                    feeds: Feeds::Mem(traces.clone()),
                    warm,
                    measure,
                    sampling: None,
                });
            }
            inp.kernel_traces = traces;
            inp.walk_cfg = timely_secure_suf(PrefetcherKind::Berti);
            inp.mini_jobs = inp
                .cells
                .iter()
                .map(|c| JobSpec::mix(c.cfg.clone(), &names[..CORES], ExpScale::Quick))
                .collect();
        }
        Kind::SampledStream => {
            let span = scale.instr(15_000_000, 600_000);
            let base = gen.seeded("mcf_like_a", 200_000);
            let path = dir.join("sampled_stream.sct");
            write_sct(&base, &path)?;
            let label = "ghostminion+suf/ip-stride-on-commit";
            inp.cells.push(Cell {
                id: format!("{label} x mcf_like_a.sct"),
                config: label.to_string(),
                trace: "mcf_like_a.sct".to_string(),
                cfg: on_commit_suf(PrefetcherKind::IpStride),
                feeds: Feeds::Stream(path),
                warm: 10_000,
                measure: span,
                sampling: Some(throughput_plan(seed)),
            });
            // Accuracy pass: suite traces at the suite's own seeds.
            let (warm, measure) = (scale.instr(40_000, 2_000), scale.instr(160_000, 20_000));
            for shape in ["mcf_like_a", "omnetpp_like", "bfs_small"] {
                let t = gen.trace(shape, 0, warm + measure);
                inp.accuracy.push(single(
                    label,
                    on_commit_suf(PrefetcherKind::IpStride),
                    &t,
                    warm,
                    measure,
                ));
            }
            inp.kernel_traces = vec![base];
            inp.walk_cfg = on_commit_suf(PrefetcherKind::IpStride);
            inp.mini_jobs =
                vec![
                    JobSpec::single(inp.walk_cfg.clone(), "mcf_like_a", ExpScale::Quick)
                        .with_sampling(accuracy_plan()),
                ];
        }
        Kind::SweepStore => {
            inp.jobs = sweep_jobs(seed, scale);
            // The engine resolves suite traces by name, so the sweep's
            // traces are the suite's; pre-generating them here keeps
            // generation out of the timed cold rounds. The seed orders
            // the request list and picks the duplicates.
            let n = ExpScale::Quick.trace_len();
            let mut names: Vec<&str> = inp
                .jobs
                .iter()
                .flat_map(|j| j.workload.trace_names())
                .collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let t = std::time::Instant::now();
                let trace = if repeat == 0 {
                    secpref_trace::suite::cached_trace(name, n)
                } else {
                    shaped_trace(name, 0, n)
                };
                gen.secs += t.elapsed().as_secs_f64();
                gen.instr += n as u64;
                inp.kernel_traces.push(trace);
            }
            inp.walk_cfg = timely_secure_suf(PrefetcherKind::Berti);
        }
    }
    if scale.smoke {
        // The engine's windows are the suite's, not ours to divide: one
        // job through the engine is what a fiftieth comes to.
        inp.mini_jobs.truncate(1);
    }
    inp.gen_instr = gen.instr;
    inp.gen_s = gen.secs;
    Ok(inp)
}

/// The ten sweep configurations: the two no-prefetch anchors, and Berti
/// and SPP+PPF each on-access, on-commit, on-commit+SUF and
/// timely-secure+SUF.
pub fn sweep_configs() -> Vec<(String, SystemConfig)> {
    let mut v = vec![
        ("nonsecure/nopf".to_string(), SystemConfig::baseline(1)),
        (SECURE_ANCHOR.to_string(), secure()),
    ];
    for kind in [PrefetcherKind::Berti, PrefetcherKind::SppPpf] {
        let k = kind_slug(kind);
        v.push((format!("nonsecure/{k}-on-access"), on_access(kind)));
        v.push((format!("ghostminion/{k}-on-commit"), on_commit(kind)));
        v.push((
            format!("ghostminion+suf/{k}-on-commit"),
            on_commit_suf(kind),
        ));
        let ts = if kind == PrefetcherKind::Berti {
            SECURE_PROPOSAL.to_string()
        } else {
            format!("ts+suf/{k}")
        };
        v.push((ts, timely_secure_suf(kind)));
    }
    v
}

pub const QUICK_SUITE: [&str; 5] = [
    "mcf_like_a",
    "bwaves_like",
    "xalancbmk_like",
    "omnetpp_like",
    "bfs_small",
];

/// The sweep's request list: 60 unique quick-scale jobs (10 configs × 5
/// single-core traces + the same 10 configs on one 4-core mix) plus 12
/// duplicates, shuffled by the seed.
fn sweep_jobs(seed: u64, scale: Scale) -> Vec<JobSpec> {
    let mix: Vec<String> = QUICK_SUITE[..4].iter().map(|s| s.to_string()).collect();
    let mut unique = Vec::new();
    for (_, cfg) in sweep_configs() {
        for t in QUICK_SUITE {
            unique.push(JobSpec::single(cfg.clone(), t, ExpScale::Quick));
        }
        unique.push(JobSpec::mix(cfg, &mix, ExpScale::Quick));
    }
    let mut rng = Xoshiro256ss::seed_from_u64(0x5ec_be9c ^ seed);
    let mut dups = 12;
    if scale.smoke {
        // A fiftieth of 60 jobs is one; four jobs and one duplicate keep
        // the dedup and the mix path in the smoke run.
        unique = vec![
            unique[0].clone(),
            unique[4].clone(),
            unique[5].clone(),
            unique[11].clone(),
        ];
        dups = 1;
    }
    let mut jobs = unique.clone();
    for _ in 0..dups {
        jobs.push(unique[rng.gen_index(unique.len())].clone());
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Rows the store of a simulation workload's resume passes holds: each
/// cell's report is stored under enough labels to reach this, so that a
/// pass is mostly scan and decode (as in `sweep_store`, 60 rows) and not
/// mostly the fixed cost of opening an engine. These passes are there for
/// the resume-equals-cold check on 8-core and sampled reports and for the
/// `exp` layer's numbers; only `sweep_store` runs enough of them to time.
pub const RESUME_ROWS: usize = 48;

/// The label-only job replica `k` of a cell's report is stored under for
/// the resume passes (never executed: every request resolves from the
/// store).
pub fn cell_job(cell: &Cell, k: usize) -> JobSpec {
    let scale = ExpScale::Full;
    let mut job = match &cell.feeds {
        Feeds::Mem(traces) if traces.len() > 1 => {
            let names: Vec<String> = traces.iter().map(|t| format!("{}#{k}", t.name)).collect();
            JobSpec::mix(cell.cfg.clone(), &names, scale)
        }
        _ => JobSpec::single(cell.cfg.clone(), &format!("{}#{k}", cell.trace), scale),
    };
    job.sampling = cell.sampling;
    job
}
