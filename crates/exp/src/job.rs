//! Job specifications and content-addressed job keys.
//!
//! A [`JobSpec`] is one simulation the engine may have to run: a full
//! [`SystemConfig`], a workload (one trace or a 4-trace mix), and the
//! [`ExpScale`] that fixes the warm-up/measurement windows. Jobs are keyed
//! by a hash of a **canonical string** that covers every knob that can
//! change the result — including the complete cache geometry, which the
//! old `bench::runner::cfg_key` silently dropped. The canonical string is
//! persisted next to each stored result so a (vanishingly unlikely) hash
//! collision is detected instead of silently returning the wrong report.

use crate::scale::ExpScale;
use secpref_sim::{system_for, Ablation, ObsCapture, ObsConfig, SimReport, StreamFeed, TraceFeed};
use secpref_trace::suite;
use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
use secpref_types::{SamplingConfig, SystemConfig};
use std::path::PathBuf;

/// What a job runs with: nothing, or the diagnostic recorder.
///
/// The recorder's configuration is not part of the job key — recording
/// cannot change the simulation outcome (the reports are bit-identical
/// in both modes), and diagnostic sweeps bypass the result store
/// (see [`Engine::run_with`](crate::Engine::run_with)).
#[derive(Clone, Copy, Debug)]
pub enum RunMode<'a> {
    /// A plain run: the report only.
    Plain,
    /// With the in-run recorder (events, epochs, histograms).
    Traced(&'a ObsConfig),
}

/// What a job simulates: one trace on one core, a multi-core mix, or a
/// streamed on-disk chunk store.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Single-core run of one named suite trace.
    Single(String),
    /// Multiprogrammed mix of named suite traces, one per core (the
    /// length sets the core count; 1–64 in practice). The canonical
    /// string is identical to the historic fixed-width-4 form for
    /// 4-entry mixes, so existing store keys are preserved.
    Mix(Vec<String>),
    /// Single-core bounded-memory replay of a captured `.sct` chunk
    /// store. Keyed by the store's chunking-independent content digest,
    /// *not* by `path` — the same capture moved elsewhere on disk
    /// deduplicates to the same job.
    Stream {
        /// Trace name recorded in the store footer.
        name: String,
        /// Whole-trace content digest from the store footer.
        digest: u64,
        /// Where the store lives (execution only; excluded from the key).
        path: PathBuf,
    },
}

impl Workload {
    /// Suite trace names this workload needs pre-generated, in order
    /// (empty for streams — their instructions come off disk).
    pub fn trace_names(&self) -> Vec<&str> {
        match self {
            Workload::Single(n) => vec![n.as_str()],
            Workload::Mix(ns) => ns.iter().map(String::as_str).collect(),
            Workload::Stream { .. } => Vec::new(),
        }
    }

    /// Short human-readable form for progress lines.
    pub fn describe(&self) -> String {
        match self {
            Workload::Single(n) => n.clone(),
            Workload::Mix(ns) => format!("mix[{}]", ns.join("+")),
            Workload::Stream { name, .. } => format!("stream[{name}]"),
        }
    }
}

/// One deduplicatable unit of simulation work.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Full system configuration (every field participates in the key).
    pub cfg: SystemConfig,
    /// Workload to run under `cfg`.
    pub workload: Workload,
    /// Windows/trace length.
    pub scale: ExpScale,
    /// SMARTS-style sampling plan; `None` runs full detail. Part of the
    /// canonical string (appended only when set, so full-detail keys are
    /// unchanged), so sampled and full results never alias in the store.
    pub sampling: Option<SamplingConfig>,
    /// A single-core study point no `SystemConfig` expresses, applied
    /// to the built system
    /// ([`System::with_ablation`](secpref_sim::System::with_ablation));
    /// `None` runs `cfg` as built. Part of the canonical string only
    /// when set, as `sampling` is.
    pub ablation: Option<Ablation>,
}

impl JobSpec {
    /// Single-core job.
    pub fn single(cfg: SystemConfig, trace: &str, scale: ExpScale) -> Self {
        JobSpec {
            cfg,
            workload: Workload::Single(trace.to_string()),
            scale,
            sampling: None,
            ablation: None,
        }
    }

    /// Multi-core mix job: one core per entry.
    ///
    /// # Panics
    ///
    /// Panics on an empty mix.
    pub fn mix(cfg: SystemConfig, mix: &[String], scale: ExpScale) -> Self {
        assert!(!mix.is_empty(), "a mix needs at least one trace");
        JobSpec {
            cfg,
            workload: Workload::Mix(mix.to_vec()),
            scale,
            sampling: None,
            ablation: None,
        }
    }

    /// Single-core streamed job over a captured chunk store at `path`.
    /// Reads the store footer for the trace name and content digest that
    /// key the job.
    ///
    /// # Errors
    ///
    /// Propagates open/validation errors from the chunk-store reader;
    /// `InvalidData`, naming `path`, for a store that holds no
    /// instructions.
    pub fn stream(cfg: SystemConfig, path: PathBuf, scale: ExpScale) -> std::io::Result<Self> {
        let file = std::io::BufReader::new(std::fs::File::open(&path)?);
        let reader = secpref_tracestore::TraceReader::open(file)?;
        let meta = reader.meta();
        if meta.n_instr == 0 {
            let msg = format!("{}: store holds no instructions", path.display());
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
        }
        Ok(JobSpec {
            cfg,
            workload: Workload::Stream {
                name: meta.name.clone(),
                digest: meta.content_digest,
                path,
            },
            scale,
            sampling: None,
            ablation: None,
        })
    }

    /// Switches the job to SMARTS-style sampled execution (honoured
    /// under every [`RunMode`]).
    pub fn with_sampling(mut self, s: SamplingConfig) -> Self {
        self.sampling = Some(s);
        self
    }

    /// The effective (warm-up, measurement) window for this job.
    pub fn window(&self) -> (u64, u64) {
        match self.workload {
            Workload::Single(_) | Workload::Stream { .. } => self.scale.window(),
            Workload::Mix(_) => self.scale.multicore_window(),
        }
    }

    /// Canonical content string: covers the *entire* `SystemConfig` (the
    /// derived `Debug` representation is exhaustive by construction — a
    /// new config field changes the string, and therefore the key,
    /// automatically), the workload trace names, the resolved windows,
    /// and the generated trace length.
    pub fn canonical(&self) -> String {
        let (warmup, measure) = self.window();
        let workload = match &self.workload {
            Workload::Single(n) => format!("single:{n}"),
            Workload::Mix(ns) => format!("mix:{}", ns.join(",")),
            // Content-addressed: the digest covers every instruction and
            // wrong-path annotation; the on-disk location is irrelevant.
            Workload::Stream { name, digest, .. } => format!("stream:{name}:{digest:016x}"),
        };
        let mut c = format!(
            "v1|cfg={:?}|workload={workload}|scale={}|warmup={warmup}|measure={measure}|trace_len={}",
            self.cfg,
            self.scale.name(),
            self.scale.trace_len(),
        );
        // Appended only when sampling is on: every pre-existing
        // full-detail canonical string (and store key) stays intact.
        if let Some(s) = &self.sampling {
            c.push_str(&format!("|sampling={}", s.canonical()));
        }
        if let Some(a) = self.ablation {
            c.push_str(&format!("|ablation={a:?}"));
        }
        c
    }

    /// Content-addressed job key: FNV-1a 64 of [`JobSpec::canonical`],
    /// as 16 hex digits.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes(), FNV_OFFSET))
    }

    /// Short label for progress lines and timing exports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}{}{}{} @ {} ({})",
            self.cfg.prefetcher,
            self.cfg.prefetch_mode,
            if self.cfg.secure.is_secure() {
                "GhostMinion"
            } else {
                "non-secure"
            },
            if self.cfg.suf { "+SUF" } else { "" },
            if self.cfg.timely_secure { "+TS" } else { "" },
            self.ablation.map_or(String::new(), |a| format!(" [{a:?}]")),
            self.workload.describe(),
            match self.sampling {
                Some(_) => format!("{}, sampled", self.scale.name()),
                None => self.scale.name().to_string(),
            },
        )
    }

    /// Executes the job (synchronously, on the calling thread) under
    /// `mode`: sampled when a plan is attached, full detail otherwise.
    /// A traced run also returns the recorder's capture (boxed: it holds
    /// 28 KB of histograms, and every plain result would carry that much
    /// padding through the pool's channel).
    ///
    /// The system gets one feed per core (suite traces come from
    /// `secpref_trace::suite::cached_trace`, so repeated jobs over the
    /// same trace share one generated copy per process), the job's LLC
    /// rescaled to the core count, and the job's windows ([`system_for`]),
    /// then the job's ablation.
    pub fn run_with(&self, mode: RunMode<'_>) -> (SimReport, Option<Box<ObsCapture>>) {
        let (warmup, measure) = self.window();
        let mem = |n: &String| TraceFeed::Mem(suite::cached_trace(n, self.scale.trace_len()));
        let feeds = match &self.workload {
            Workload::Single(name) => vec![mem(name)],
            Workload::Mix(names) => names.iter().map(mem).collect(),
            // The store was validated when the spec was built; a failure
            // here means it vanished or was corrupted since.
            Workload::Stream { path, .. } => {
                let feed = StreamFeed::open_for_core(path, self.cfg.core.rob_entries)
                    .unwrap_or_else(|e| panic!("chunk store {}: {e}", path.display()));
                vec![TraceFeed::Stream(Box::new(feed))]
            }
        };
        let mut sys = system_for(&self.cfg, feeds, warmup, measure);
        if let Some(a) = self.ablation {
            sys = sys.with_ablation(a);
        }
        let mut sys = match mode {
            RunMode::Plain => sys,
            RunMode::Traced(obs) => sys.with_obs(obs),
        };
        match &self.sampling {
            Some(plan) => sys.run_sampled(plan),
            None => sys.run(),
        }
        let capture = sys.take_obs().map(Box::new);
        (sys.report(), capture)
    }

    /// Executes the job with no recorder attached.
    pub fn run(&self) -> SimReport {
        self.run_with(RunMode::Plain).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode};

    fn base_job() -> JobSpec {
        JobSpec::single(SystemConfig::baseline(1), "mcf_like_a", ExpScale::Quick)
    }

    #[test]
    fn key_is_stable_and_hex() {
        let j = base_job();
        assert_eq!(j.key(), j.key());
        assert_eq!(j.key().len(), 16);
        assert!(j.key().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn key_covers_cache_geometry() {
        // The historic cfg_key only looked at prefetcher/mode/secure/
        // suf/ts/cores — two configs differing in L1D or LLC geometry
        // collided. The content key must distinguish them.
        let a = base_job();
        let mut b = a.clone();
        b.cfg.l1d.ways *= 2;
        let mut c = a.clone();
        c.cfg.llc.size_bytes *= 2;
        let mut d = a.clone();
        d.cfg.l1d.mshrs += 1;
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
        assert_ne!(b.key(), c.key());
    }

    #[test]
    fn job_runs_the_llc_it_is_keyed_by() {
        // Regression: `system_for` used to replace the job's LLC with the
        // baseline one, so an LLC-only change got a new key over the
        // baseline LLC's simulation.
        use secpref_types::config::ReplacementChoice;
        let mut cfg = SystemConfig::baseline(1).with_secure(SecureMode::GhostMinion);
        cfg.llc.size_bytes /= 16;
        cfg.llc.replacement = ReplacementChoice::Random;
        let job = JobSpec::single(cfg.clone(), "xalancbmk_like", ExpScale::Quick);
        let trace = suite::cached_trace("xalancbmk_like", ExpScale::Quick.trace_len());
        let (warmup, measure) = job.window();
        let mut direct = secpref_sim::System::new(cfg, vec![trace]).with_window(warmup, measure);
        direct.run();
        assert_eq!(
            crate::codec::report_to_string(&job.run()),
            crate::codec::report_to_string(&direct.report())
        );
    }

    #[test]
    fn key_covers_mode_knobs() {
        let a = base_job();
        let mut b = a.clone();
        b.cfg = b
            .cfg
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(PrefetcherKind::Berti)
            .with_mode(PrefetchMode::OnCommit);
        let mut c = b.clone();
        c.cfg = c.cfg.with_suf(true);
        assert_ne!(a.key(), b.key());
        assert_ne!(b.key(), c.key());
    }

    #[test]
    fn key_covers_workload_and_scale() {
        let a = base_job();
        let mut b = a.clone();
        b.workload = Workload::Single("gcc_like".into());
        let mut c = a.clone();
        c.scale = ExpScale::Full;
        let names = [
            "mcf_like_a".to_string(),
            "gcc_like".to_string(),
            "lbm_like".to_string(),
            "leela_like".to_string(),
        ];
        let d = JobSpec::mix(a.cfg.clone(), &names, ExpScale::Quick);
        let keys = [a.key(), b.key(), c.key(), d.key()];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn mix_order_matters() {
        let mk = |names: [&str; 4]| {
            JobSpec::mix(
                SystemConfig::baseline(4),
                &names.map(String::from),
                ExpScale::Quick,
            )
        };
        let a = mk(["a", "b", "c", "d"]);
        let b = mk(["d", "c", "b", "a"]);
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn stream_key_is_content_addressed_not_path_addressed() {
        let mk = |digest: u64, path: &str| JobSpec {
            cfg: SystemConfig::baseline(1),
            workload: Workload::Stream {
                name: "mcf_like_a".into(),
                digest,
                path: PathBuf::from(path),
            },
            scale: ExpScale::Quick,
            sampling: None,
            ablation: None,
        };
        let a = mk(0xDEAD_BEEF, "/tmp/a.sct");
        let b = mk(0xDEAD_BEEF, "/elsewhere/moved.sct");
        let c = mk(0xFEED_FACE, "/tmp/a.sct");
        assert_eq!(a.key(), b.key(), "moving a capture must not change its key");
        assert_ne!(a.key(), c.key(), "different content must change the key");
        assert_ne!(a.key(), base_job().key());
        assert!(
            a.workload.trace_names().is_empty(),
            "streams skip pregenerate"
        );
    }

    #[test]
    fn a_stream_job_refuses_an_empty_store() {
        let path = std::env::temp_dir().join(format!("secpref-empty-{}.sct", std::process::id()));
        let file = std::fs::File::create(&path).expect("temp store");
        let w = secpref_tracestore::TraceWriter::create(file, "empty", 64).expect("header");
        w.finish().expect("footer");
        let err = JobSpec::stream(SystemConfig::baseline(1), path.clone(), ExpScale::Quick)
            .expect_err("an empty store makes no job");
        std::fs::remove_file(&path).expect("temp store removed");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("{}: store holds no instructions", path.display())
        );
    }

    #[test]
    fn key_covers_sampling_plan() {
        let full = base_job();
        assert!(
            !full.canonical().contains("sampling="),
            "full-detail canonical strings (and store keys) must be
             byte-identical to the pre-sampling format"
        );
        let s = SamplingConfig::new(2_000, 500, 1_500).with_jitter(300, 11);
        let sampled = base_job().with_sampling(s);
        assert_ne!(full.key(), sampled.key());
        assert!(sampled
            .canonical()
            .contains("|sampling=w2000+u500/g1500~j300s11"));
        assert!(sampled.label().contains("sampled"));
        // Any plan knob changes the key.
        let other = base_job().with_sampling(s.with_jitter(300, 12));
        assert_ne!(sampled.key(), other.key());
    }

    fn ablated(a: Ablation) -> JobSpec {
        JobSpec {
            ablation: Some(a),
            ..base_job()
        }
    }

    #[test]
    fn key_covers_the_ablation() {
        let points = [
            Ablation::DropOnlySuf,
            Ablation::PropagateOnlySuf,
            Ablation::TimelinessKnob(1),
            Ablation::TimelinessKnob(2),
        ];
        let mut keys: Vec<String> = points.iter().map(|&a| ablated(a).key()).collect();
        keys.push(base_job().key());
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
    }

    #[test]
    fn a_job_without_an_ablation_keeps_its_canonical_string() {
        assert!(!base_job().canonical().contains("ablation"));
        let knob = ablated(Ablation::TimelinessKnob(4));
        assert!(knob.canonical().ends_with("|ablation=TimelinessKnob(4)"));
    }

    #[test]
    fn every_entry_point_honours_the_sampling_plan() {
        // Regression: the traced run used to ignore `sampling` and return
        // a full-detail report.
        let cfg = SystemConfig::baseline(1)
            .with_secure(SecureMode::GhostMinion)
            .with_prefetcher(PrefetcherKind::IpStride)
            .with_mode(PrefetchMode::OnCommit)
            .with_suf(true);
        let plan = SamplingConfig::new(2_000, 500, 1_500).with_jitter(300, 11);
        let job = JobSpec::single(cfg, "mcf_like_a", ExpScale::Quick).with_sampling(plan);
        let (plain, none) = job.run_with(RunMode::Plain);
        let (traced, capture) = job.run_with(RunMode::Traced(&ObsConfig::enabled()));
        assert!(none.is_none() && capture.is_some());
        let digest = crate::codec::report_to_string(&plain);
        for (how, r) in [("plain", &plain), ("traced", &traced)] {
            let sm = r
                .sampling
                .as_ref()
                .unwrap_or_else(|| panic!("{how}: not sampled"));
            assert!(sm.windows >= 3, "{how}: {sm:?}");
            assert_eq!(crate::codec::report_to_string(r), digest, "{how}");
        }
        // And without a plan both stay full detail.
        let full = base_job();
        assert!(full.run().sampling.is_none());
        let traced = full.run_with(RunMode::Traced(&ObsConfig::enabled())).0;
        assert!(traced.sampling.is_none());
    }
}
