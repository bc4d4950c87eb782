//! Plan by rendering: every table and figure gets its reports through
//! one [`Cx`], so a renderer is the only declaration of the jobs it
//! needs.
//!
//! `repro` runs each requested renderer twice. Against a planning `Cx`
//! it records every job asked for and hands back all-zero reports;
//! [`plan`] is the union of those jobs, pushed through the parallel,
//! deduplicated, resumable [`secpref_exp::Engine`] as one sweep. Against
//! a rendering `Cx` it reads the sweep's reports by job key. A job the
//! plan did not record — one a renderer asks for only when a simulated
//! value says so — panics with the target and job label. Nothing
//! simulates while a target renders.

pub use secpref_exp::ExpScale;

use crate::table::Table;
use crate::{ablations, figures};
use secpref_exp::JobSpec;
use secpref_sim::{Ablation, CoreMetrics, DramStats, SimReport};
use secpref_types::SystemConfig;
use std::cell::RefCell;
use std::collections::HashMap;

/// A sweep's reports by job key.
pub type Reports = HashMap<String, SimReport>;

/// Renders one target's tables.
pub type Render = fn(&Cx<'_>) -> Vec<Table>;

/// Every target `repro` knows, in print order.
pub const TARGETS: &[(&str, Render)] = &[
    ("table1", |_| vec![figures::table1()]),
    ("table2", |_| vec![figures::table2()]),
    ("table3", |_| vec![figures::table3()]),
    ("fig1", |cx| vec![figures::fig1(cx)]),
    ("fig3", |cx| vec![figures::fig3(cx)]),
    ("fig4", |cx| vec![figures::fig4(cx)]),
    ("fig5", |cx| vec![figures::fig5(cx)]),
    ("fig6", |cx| vec![figures::fig6(cx)]),
    ("fig10", |cx| vec![figures::fig10(cx)]),
    ("fig11", |cx| vec![figures::fig11(cx)]),
    ("fig12", |cx| vec![figures::fig12(cx)]),
    ("fig13", |cx| vec![figures::fig13(cx)]),
    ("fig14", |cx| vec![figures::fig14(cx)]),
    ("fig15", |cx| vec![figures::fig15(cx)]),
    ("fig16", |cx| vec![figures::fig16(cx)]),
    ("stats", |cx| vec![figures::stats(cx)]),
    ("ablations", ablations::all),
];

/// Where a renderer's reports come from.
pub struct Cx<'a> {
    /// Windows and trace length of every job.
    scale: ExpScale,
    /// How many 4-core mixes Fig. 15 averages over.
    pub(crate) mix_count: usize,
    state: State<'a>,
}

enum State<'a> {
    Plan(RefCell<Vec<JobSpec>>),
    Render {
        target: &'a str,
        reports: &'a Reports,
    },
}

impl<'a> Cx<'a> {
    fn planning(scale: ExpScale, mix_count: usize) -> Self {
        Cx {
            scale,
            mix_count,
            state: State::Plan(RefCell::default()),
        }
    }

    /// A context that renders `target` from one sweep's `reports`.
    pub fn rendering(
        target: &'a str,
        scale: ExpScale,
        mix_count: usize,
        reports: &'a Reports,
    ) -> Self {
        Cx {
            scale,
            mix_count,
            state: State::Render { target, reports },
        }
    }

    /// The jobs a planning context recorded.
    fn into_plan(self) -> Vec<JobSpec> {
        match self.state {
            State::Plan(jobs) => jobs.into_inner(),
            State::Render { .. } => unreachable!("a rendering context plans nothing"),
        }
    }

    fn report(&self, job: JobSpec) -> SimReport {
        match &self.state {
            State::Plan(jobs) => {
                let cores = vec![CoreMetrics::default(); job.workload.trace_names().len()];
                let zero = SimReport::new(&job.cfg, cores, DramStats::default());
                jobs.borrow_mut().push(job);
                zero
            }
            State::Render { target, reports } => reports
                .get(&job.key())
                .cloned()
                .unwrap_or_else(|| panic!("{target}: job {} is not in its plan", job.label())),
        }
    }

    /// Single-core run of `trace` under `cfg`.
    pub fn single(&self, cfg: &SystemConfig, trace: &str) -> SimReport {
        self.report(JobSpec::single(cfg.clone(), trace, self.scale))
    }

    /// Multi-core run of `mix`, one core per entry.
    pub fn mix(&self, cfg: &SystemConfig, mix: &[String]) -> SimReport {
        self.report(JobSpec::mix(cfg.clone(), mix, self.scale))
    }

    /// Baseline (non-secure, no-prefetch) IPC of a trace — the
    /// denominator of every speedup and of weighted speedup.
    pub fn baseline_ipc(&self, trace: &str) -> f64 {
        self.single(&crate::configs::nonsecure_nopref(), trace)
            .ipc()
    }

    /// Geomean speedup of `cfg` over the non-secure no-prefetch baseline
    /// across `traces`.
    pub fn geomean_speedup(&self, cfg: &SystemConfig, traces: &[String]) -> f64 {
        self.geomean_speedup_with(cfg, None, traces)
    }

    /// [`Cx::geomean_speedup`] with `ablation`, when set, applied to
    /// each of `cfg`'s single-core systems.
    pub fn geomean_speedup_with(
        &self,
        cfg: &SystemConfig,
        ablation: Option<Ablation>,
        traces: &[String],
    ) -> f64 {
        let ratios: Vec<f64> = traces
            .iter()
            .map(|t| {
                let job = JobSpec::single(cfg.clone(), t, self.scale);
                let ipc = self.report(JobSpec { ablation, ..job }).ipc();
                ipc / self.baseline_ipc(t).max(1e-9)
            })
            .collect();
        secpref_sim::geomean(&ratios)
    }
}

/// The jobs the named targets render from, in print order; duplicates
/// are kept (the engine dedupes) and unknown names plan nothing.
pub fn plan(targets: &[&str], scale: ExpScale, mix_count: usize) -> Vec<JobSpec> {
    let cx = Cx::planning(scale, mix_count);
    for (name, render) in TARGETS {
        if targets.contains(name) {
            render(&cx);
        }
    }
    cx.into_plan()
}

/// `render` at quick scale against a real sweep of its own plan, run on
/// a scratch store.
#[cfg(test)]
pub(crate) fn render_from_sweep<T>(tag: &str, render: impl Fn(&Cx<'_>) -> T) -> T {
    let cx = Cx::planning(ExpScale::Quick, 2);
    render(&cx);
    let jobs = cx.into_plan();
    let dir = std::env::temp_dir().join(format!("secpref-bench-{tag}-{}", std::process::id()));
    let engine = secpref_exp::Engine::new(&dir, 2).expect("scratch store");
    let reports = engine.run_all(&jobs);
    let _ = std::fs::remove_dir_all(&dir);
    let reports: Reports = jobs.iter().map(JobSpec::key).zip(reports).collect();
    render(&Cx::rendering(tag, ExpScale::Quick, 2, &reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::*;
    use secpref_exp::Workload;
    use std::collections::HashSet;

    fn names() -> Vec<&'static str> {
        TARGETS.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_sim_target_has_jobs() {
        for t in names().into_iter().filter(|t| !t.starts_with("table")) {
            assert!(
                !plan(&[t], ExpScale::Quick, 2).is_empty(),
                "target {t} planned no jobs"
            );
        }
    }

    #[test]
    fn static_targets_have_none() {
        for t in ["table1", "table2", "table3", "nonsense"] {
            assert!(plan(&[t], ExpScale::Quick, 2).is_empty());
        }
    }

    #[test]
    fn normalizing_targets_include_their_baseline() {
        // Every target that simulates normalizes against non-secure
        // no-pref, except fig6/fig13 (raw MPKI/accuracy).
        let base = nonsecure_nopref();
        for t in names()
            .into_iter()
            .filter(|t| !["fig6", "fig13"].contains(t))
        {
            let jobs = plan(&[t], ExpScale::Quick, 2);
            assert!(
                jobs.is_empty()
                    || jobs.iter().any(|j| (j.cfg.prefetcher, j.cfg.secure)
                        == (base.prefetcher, base.secure)),
                "target {t} is missing baseline jobs"
            );
        }
    }

    #[test]
    fn fig15_covers_mixes_and_alone_runs() {
        let jobs = plan(&["fig15"], ExpScale::Quick, 3);
        let mixes = jobs
            .iter()
            .filter(|j| matches!(j.workload, Workload::Mix(_)))
            .count();
        let singles = jobs.len() - mixes;
        assert_eq!(mixes, 3 * 7);
        assert_eq!(singles, 3 * 4);
    }

    #[test]
    fn fig16_sweeps_every_pressure_level() {
        let jobs = plan(&["fig16"], ExpScale::Quick, 2);
        for n in crate::figures::MIX_PRESSURE_CORES {
            let at_n = jobs
                .iter()
                .filter(|j| matches!(&j.workload, Workload::Mix(ns) if ns.len() == n))
                .count();
            assert_eq!(at_n, 4, "expected 4 configs at pressure {n}");
        }
    }

    #[test]
    fn ablations_plan_every_suf_half_and_distance() {
        let jobs = plan(&["ablations"], ExpScale::Quick, 2);
        let mut points = vec![Ablation::DropOnlySuf, Ablation::PropagateOnlySuf];
        points.extend([1, 2, 4, 8, 12].map(Ablation::TimelinessKnob));
        for a in points {
            let at_a = jobs.iter().filter(|j| j.ablation == Some(a)).count();
            assert_eq!(at_a, quick_suite().len(), "{a:?}");
        }
    }

    #[test]
    fn sampled_jobs_get_distinct_keys_and_the_validated_plan() {
        let jobs = plan(&["fig5"], ExpScale::Quick, 2);
        let plain_keys: HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        let sampling = secpref_check::sampling::plan();
        for j in jobs.into_iter().map(|j| j.with_sampling(sampling)) {
            assert!(
                !plain_keys.contains(&j.key()),
                "sampled job key collides with its full-detail twin: {}",
                j.key()
            );
        }
    }

    #[test]
    fn sweeps_are_heavily_shared() {
        // The whole point of content-keyed jobs: figure sweeps overlap, so
        // the union is much smaller than the sum.
        let per_target: Vec<Vec<JobSpec>> = names()
            .iter()
            .map(|t| plan(&[t], ExpScale::Quick, 2))
            .collect();
        let sum: usize = per_target.iter().map(Vec::len).sum();
        let union: HashSet<String> = per_target.iter().flatten().map(JobSpec::key).collect();
        assert!(
            union.len() * 2 < sum,
            "expected ≥2× sharing, got {} unique of {sum} requested",
            union.len()
        );
    }

    /// A report that differs from every planning report and from every
    /// other key's: IPC in (1, 2], demand traffic at every level.
    fn synthetic_report(job: &JobSpec) -> SimReport {
        let h = u64::from_str_radix(&job.key(), 16).expect("hex key");
        let mut core = CoreMetrics {
            instructions: 10_000,
            cycles: 5_000 + h % 5_000,
            ..CoreMetrics::default()
        };
        for lvl in [&mut core.l1d, &mut core.l2, &mut core.llc] {
            (lvl.demand_accesses, lvl.demand_misses) = (1 + h % 997, 1 + h % 97);
        }
        let cores = vec![core; job.workload.trace_names().len()];
        SimReport::new(&job.cfg, cores, DramStats::default())
    }

    #[test]
    fn every_target_renders_from_its_own_plan() {
        for (name, render) in TARGETS {
            let reports: Reports = plan(&[name], ExpScale::Quick, 2)
                .iter()
                .map(|j| (j.key(), synthetic_report(j)))
                .collect();
            let tables = render(&Cx::rendering(name, ExpScale::Quick, 2, &reports));
            assert!(!tables.is_empty(), "{name} rendered nothing");
            let titled = |t: &Table| !t.title.is_empty() && t.render().starts_with("## ");
            assert!(tables.iter().all(titled), "{name}");
        }
    }

    #[test]
    fn cache_hit_returns_same_numbers() {
        // Rendering reads the sweep's report for the job it names.
        let cfg = nonsecure_nopref();
        let run = |cx: &Cx<'_>| cx.single(&cfg, "leela_like");
        let (a, b) = render_from_sweep("cache-hit", |cx| (run(cx), run(cx)));
        assert!(a.ipc() > 0.0);
        assert_eq!((a.ipc(), a.cores[0].cycles), (b.ipc(), b.cores[0].cycles));
    }

    #[test]
    fn distinct_configs_distinct_keys() {
        use secpref_types::PrefetcherKind::Berti;
        let mk = |cfg| JobSpec::single(cfg, "mcf_like_a", ExpScale::Quick).key();
        assert_ne!(mk(on_commit_secure(Berti)), mk(on_commit_suf(Berti)));
    }

    #[test]
    fn geometry_only_changes_get_distinct_keys() {
        // Regression: the old cfg_key hashed just six mode fields, so
        // configs differing only in cache geometry shared one cache slot
        // and the second one silently returned the first one's report.
        let mut bigger_l1d = nonsecure_nopref();
        bigger_l1d.l1d.size_bytes *= 2;
        let mk = |cfg| JobSpec::single(cfg, "x", ExpScale::Quick).key();
        assert_ne!(mk(nonsecure_nopref()), mk(bigger_l1d));
    }
}
