//! The full-system simulator: cores + memory hierarchy, warm-up handling,
//! and the run loop.

use crate::classify::Classifier;
use crate::hierarchy::{DriverCounts, Hierarchy};
use crate::metrics::{CoreMetrics, LevelMetrics};
use crate::profile::{Phase, ProfileReport};
use crate::report::SimReport;
use secpref_core::SecureUpdateFilter;
use secpref_cpu::{Core, CoreEvent, FunctionalPort, LoadIssue, LoadPort};
use secpref_ghostminion::{AlwaysUpdate, UpdateFilter};
use secpref_mem::dram::DramStats;
use secpref_obs::{EpochRow, Event, EventKind, LevelEpoch, Obs, ObsCapture, ObsConfig};
use secpref_prefetch::Prefetcher;
use secpref_telemetry::{Tel, TelCapture, TelConfig};
use secpref_trace::Trace;
use secpref_tracestore::TraceFeed;
use secpref_types::{
    Addr, CoreId, Cycle, Ip, LineAddr, MetricStats, PrefetchMode, PrefetcherKind, SamplingConfig,
    SamplingSummary, SystemConfig,
};
use std::sync::Arc;

/// Default warm-up window in instructions (scaled from the paper's 50 M).
pub const DEFAULT_WARMUP: u64 = 50_000;
/// Default measurement window in instructions (scaled from the paper's
/// 200 M SimPoints).
pub const DEFAULT_MEASURE: u64 = 200_000;
/// Give up if no core retires anything for this many cycles.
const WATCHDOG_CYCLES: Cycle = 2_000_000;

/// Builds the configured prefetcher instance for one core: the paper's
/// timely-secure variant when `timely_secure` is set, the base prefetcher
/// otherwise.
pub fn build_prefetcher(cfg: &SystemConfig) -> Box<dyn Prefetcher> {
    if cfg.timely_secure {
        secpref_core::build_timely_secure(cfg.prefetcher)
    } else {
        secpref_prefetch::build(cfg.prefetcher)
    }
}

/// Builds core `c`'s prefetcher from its effective policy (identical to
/// [`build_prefetcher`] for homogeneous configs).
fn build_prefetcher_for(cfg: &SystemConfig, c: usize) -> Box<dyn Prefetcher> {
    let p = cfg.policy(c);
    if p.timely_secure {
        secpref_core::build_timely_secure(p.prefetcher)
    } else {
        secpref_prefetch::build(p.prefetcher)
    }
}

fn build_filter_for(cfg: &SystemConfig, c: usize) -> Box<dyn UpdateFilter> {
    if cfg.policy(c).suf {
        Box::new(SecureUpdateFilter::with_sizes(
            cfg.core.lq_entries as u64,
            cfg.l1d.lines() as u64,
        ))
    } else {
        Box::new(AlwaysUpdate)
    }
}

fn build_classifier_for(cfg: &SystemConfig, c: usize) -> Option<Classifier> {
    let p = cfg.policy(c);
    if p.prefetch_mode == PrefetchMode::OnCommit && p.prefetcher != PrefetcherKind::None {
        // The shadow is the *base* on-access prefetcher of the same kind.
        Some(Classifier::new(secpref_prefetch::build(p.prefetcher)))
    } else {
        None
    }
}

/// Per-core epoch-sampling and squash-polling state (present only while
/// an observability recorder is installed).
#[derive(Debug)]
struct ObsTrack {
    interval: u64,
    /// Retired-instruction threshold that triggers the next sample.
    next_at: u64,
    epoch_idx: u64,
    prev_cycle: Cycle,
    prev_instr: u64,
    prev: CoreMetrics,
    prev_dram: DramStats,
    prev_squashed: u64,
}

impl ObsTrack {
    fn new(interval: u64) -> Self {
        ObsTrack {
            interval,
            next_at: u64::MAX,
            epoch_idx: 0,
            prev_cycle: 0,
            prev_instr: 0,
            prev: CoreMetrics::default(),
            prev_dram: DramStats::default(),
            prev_squashed: 0,
        }
    }

    /// (Re)starts epoch sampling at a warm-up boundary — the run's, or
    /// each sampled window's; epochs number on across windows.
    fn begin(&mut self, now: Cycle, warmup: u64, dram: DramStats) {
        self.next_at = warmup + self.interval;
        self.prev_cycle = now;
        self.prev_instr = warmup;
        self.prev = CoreMetrics::default(); // metrics were just reset
        self.prev_dram = dram;
    }
}

fn level_delta(cur: &LevelMetrics, prev: &LevelMetrics) -> LevelEpoch {
    LevelEpoch {
        demand: cur.demand_accesses - prev.demand_accesses,
        demand_misses: cur.demand_misses - prev.demand_misses,
        prefetch: cur.prefetch_accesses - prev.prefetch_accesses,
        commit: cur.commit_accesses - prev.commit_accesses,
        mshr_full_cycles: cur.mshr_full_cycles - prev.mshr_full_cycles,
    }
}

/// One core's complete private simulation state: the core model plus its
/// replay/warm-up bookkeeping and (when observability is on) its epoch
/// sampler. [`System`] holds a slice of these identical contexts — the
/// shape an intra-run parallel tick would shard over: everything not in
/// a `CoreCtx` is shared (LLC, DRAM, event wheel) and everything in one
/// is touched only by its own core's tick.
struct CoreCtx {
    core: Core,
    /// Instructions retired by already-finished replays of the trace.
    retired_base: u64,
    /// Retired-instruction count at which the current window's warm
    /// slice ends and measurement begins.
    warm_target: u64,
    warmup_cycle: Option<Cycle>,
    finished_cycle: Option<Cycle>,
    /// Epoch-sampling / squash-polling state, present only while an
    /// observability recorder is installed.
    obs: Option<ObsTrack>,
}

impl CoreCtx {
    fn total_retired(&self) -> u64 {
        self.retired_base + self.core.retired()
    }

    /// Trace exhausted but target not reached: start it over.
    fn replay(&mut self) {
        self.retired_base += self.core.retired();
        self.core.replay();
        if let Some(t) = self.obs.as_mut() {
            t.prev_squashed = 0; // fresh core, fresh counter
        }
    }
}

/// The assembled simulator.
///
/// # Examples
///
/// ```
/// use secpref_sim::System;
/// use secpref_trace::{Instr, Trace};
/// use secpref_types::SystemConfig;
/// use std::sync::Arc;
///
/// let trace = Arc::new(Trace::new("t", (0..500u64).map(|i| Instr::load(1, i * 64)).collect()));
/// let mut sys = System::new(SystemConfig::baseline(1), vec![trace]).with_window(100, 300);
/// sys.run();
/// let report = sys.report();
/// assert!(report.ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    cores: Vec<CoreCtx>,
    hierarchy: Hierarchy,
    warmup: u64,
    measure: u64,
    /// True when per-core `ObsTrack`s are installed; false is the run
    /// loop's fast-path guard.
    obs_on: bool,
    now: Cycle,
    finished: bool,
    /// Master switch for the run loop's idle-cycle fast-forward (on by
    /// default; [`System::with_cycle_skip`] turns it off for
    /// differential testing).
    allow_skip: bool,
    /// Sampling summary filled in by [`System::run_sampled`] (`None`
    /// after a full-detail [`System::run`]).
    sampling: Option<SamplingSummary>,
}

impl std::fmt::Debug for CoreCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("retired", &self.total_retired())
            .finish()
    }
}

struct PortAdapter<'a> {
    h: &'a mut Hierarchy,
}

impl LoadPort for PortAdapter<'_> {
    fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
        self.h.issue_load(now, req)
    }
}

/// Adapter wiring a core's functional retire stream into the
/// hierarchy's functional-warming path. The clock is a per-port
/// monotonic counter rather than the trace timestamp: replays reset
/// `ts` to zero, and the prefetcher latency/delta arithmetic needs a
/// monotonically increasing cycle hint.
struct FuncPort<'a> {
    h: &'a mut Hierarchy,
    now: Cycle,
}

impl FunctionalPort for FuncPort<'_> {
    fn functional_load(&mut self, core: CoreId, ip: Ip, addr: Addr, ts: u64) {
        self.now += 1;
        self.h.functional_load(self.now, core, ip, addr, ts);
    }

    fn functional_store(&mut self, core: CoreId, ip: Ip, addr: Addr, ts: u64) {
        self.now += 1;
        self.h.functional_store(self.now, core, ip, addr, ts);
    }
}

impl System {
    /// Creates a system running `traces[i]` on core `i`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does not
    /// match `cfg.cores`.
    pub fn new(cfg: SystemConfig, traces: Vec<Arc<Trace>>) -> Self {
        Self::from_feeds(cfg, traces.into_iter().map(TraceFeed::Mem).collect())
    }

    /// Creates a system running `feeds[i]` on core `i` — in-memory
    /// traces and bounded-memory streamed chunk stores mix freely.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the feed count does not
    /// match `cfg.cores`.
    pub fn from_feeds(cfg: SystemConfig, feeds: Vec<TraceFeed>) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert_eq!(feeds.len(), cfg.cores, "one feed per core");
        let prefetchers = (0..cfg.cores)
            .map(|c| build_prefetcher_for(&cfg, c))
            .collect();
        let classifiers = (0..cfg.cores)
            .map(|c| build_classifier_for(&cfg, c))
            .collect();
        let filters = (0..cfg.cores).map(|c| build_filter_for(&cfg, c)).collect();
        let hierarchy = Hierarchy::new(cfg.clone(), prefetchers, filters, classifiers);
        let cores = feeds
            .into_iter()
            .enumerate()
            .map(|(i, f)| CoreCtx {
                core: Core::from_feed(i, cfg.core.clone(), f),
                retired_base: 0,
                warm_target: 0,
                warmup_cycle: None,
                finished_cycle: None,
                obs: None,
            })
            .collect();
        System {
            cfg,
            cores,
            hierarchy,
            warmup: DEFAULT_WARMUP,
            measure: DEFAULT_MEASURE,
            obs_on: false,
            now: 0,
            finished: false,
            allow_skip: true,
            sampling: None,
        }
    }

    /// Enables or disables the run loop's idle-cycle fast-forward.
    /// Skipping is exact (see [`System::run`]); this switch exists so
    /// tests can prove that by diffing a skipping run against a
    /// cycle-by-cycle one.
    pub fn with_cycle_skip(mut self, on: bool) -> Self {
        self.allow_skip = on;
        self
    }

    /// Enables in-run observability (event tracing + epoch sampling).
    /// A disabled config is a no-op, keeping the default fast path.
    pub fn with_obs(mut self, obs: &ObsConfig) -> Self {
        if obs.enabled {
            self.hierarchy.set_obs(Obs::new(obs, self.cfg.cores));
            for ctx in &mut self.cores {
                ctx.obs = Some(ObsTrack::new(obs.epoch_interval.max(1)));
            }
            self.obs_on = true;
        }
        self
    }

    /// Extracts the observability capture after [`System::run`] (`None`
    /// when observability was off).
    pub fn take_obs(&mut self) -> Option<ObsCapture> {
        self.hierarchy.take_obs_capture()
    }

    /// Enables in-run telemetry (latency/timeliness histograms). A
    /// disabled config is a no-op, keeping the default fast path; an
    /// enabled one stays event-driven, so the idle fast-forward is
    /// unaffected and results are bit-identical either way.
    pub fn with_telemetry(mut self, tel: &TelConfig) -> Self {
        if tel.enabled {
            self.hierarchy.set_tel(Tel::new(tel, self.cfg.cores));
        }
        self
    }

    /// Extracts the telemetry capture after [`System::run`] (`None` when
    /// telemetry was off).
    pub fn take_telemetry(&mut self) -> Option<TelCapture> {
        self.hierarchy.take_tel_capture()
    }

    /// Enables the built-in wall-time phase profiler (`repro
    /// --profile`). Never changes simulation outputs; fetch the result
    /// with [`System::profile_report`] after [`System::run`].
    pub fn with_profiling(mut self) -> Self {
        self.hierarchy.enable_profiling();
        self
    }

    /// The accumulated phase profile (all-zero unless
    /// [`System::with_profiling`] was used).
    pub fn profile_report(&mut self) -> ProfileReport {
        self.hierarchy.profile_report()
    }

    /// Host-side work counts of the detailed driver so far (request
    /// walks, ticked cycles, wait-list high-water mark, request records
    /// read for blocked requests, load-queue slots examined) — what
    /// `repro --profile` prints beside the phase table. No part of
    /// the report.
    pub fn driver_counts(&self) -> DriverCounts {
        DriverCounts {
            lq_slots_examined: self.cores.iter().map(|c| c.core.lq_slots_examined()).sum(),
            ..self.hierarchy.driver_counts()
        }
    }

    /// Overrides the warm-up / measurement windows (instructions).
    pub fn with_window(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Replaces the commit-path update filter — for ablations of the
    /// SUF mechanism (e.g. [`secpref_core::DropOnlySuf`]).
    ///
    /// # Panics
    ///
    /// Panics on multi-core systems: filter ablations are single-core
    /// studies, and per-core filters are configured via
    /// [`secpref_types::CorePolicy`] instead.
    pub fn with_update_filter(mut self, filter: Box<dyn UpdateFilter>) -> Self {
        assert_eq!(self.cfg.cores, 1, "filter ablations are single-core");
        self.hierarchy.set_filter(0, filter);
        self
    }

    /// Sets a core's prefetcher timeliness knob (distance / skip-k) —
    /// used by the distance-sweep ablation.
    pub fn set_timeliness_knob(&mut self, core: usize, k: u32) {
        self.hierarchy.set_timeliness_knob(core, k);
    }

    /// Runs the simulation to completion: every core retires
    /// `warmup + measure` instructions (traces replay if shorter).
    ///
    /// # Panics
    ///
    /// Panics if the system livelocks (no retirement progress for
    /// millions of cycles) — a simulator bug, not a workload property.
    pub fn run(&mut self) {
        self.run_window(self.warmup, self.measure);
        self.hierarchy.finalize();
        self.finished = true;
    }

    /// The one detailed run loop — the whole of [`System::run`] and each
    /// measured window of [`System::run_sampled`]: every core retires
    /// `warm` more instructions (at which boundary its metrics reset and
    /// obs/telemetry arm) and then `window` measured ones.
    ///
    /// The loop fast-forwards over idle spans: when no hierarchy event
    /// is due, no core can act, and nothing retired this cycle, `now`
    /// jumps straight to the earliest cycle anything can happen. The
    /// jump is *exact*, not approximate — every skipped cycle is
    /// provably a no-op (see DESIGN.md §10) and the only per-cycle
    /// accumulation (MSHR occupancy integrals) is folded in closed form
    /// via [`Hierarchy::account_idle_cycles`].
    fn run_window(&mut self, warm: u64, window: u64) {
        for st in &mut self.cores {
            st.warm_target = st.total_retired() + warm;
            st.warmup_cycle = None;
            st.finished_cycle = None;
        }
        let start = self.now;
        let mut last_progress = (self.cores.iter().map(|s| s.total_retired()).sum(), start);
        // Scratch buffers reused across cycles (the tick loop allocates
        // nothing in steady state).
        let mut completions = Vec::new();
        let mut events: Vec<CoreEvent> = Vec::new();
        loop {
            let now = self.now;
            self.hierarchy.tick(now);
            // Deliver memory completions to the owning cores.
            completions.clear();
            completions.append(&mut self.hierarchy.completions);
            self.hierarchy.prof_enter(Phase::Core);
            for &(c, lq, gen, fill) in completions.iter() {
                self.cores[c].core.complete_load(lq, gen, fill);
            }
            self.hierarchy.prof_exit();
            let mut all_done = true;
            for c in 0..self.cores.len() {
                let st = &mut self.cores[c];
                if st.total_retired() >= st.warm_target + window {
                    if st.finished_cycle.is_none() {
                        st.finished_cycle = Some(now);
                        let warm_start = st.warmup_cycle.unwrap_or(start);
                        self.hierarchy.metrics[c].cycles = now - warm_start;
                        self.hierarchy.metrics[c].instructions =
                            st.total_retired() - st.warm_target;
                        // Flush any epoch completed in the final stretch.
                        self.obs_sample_epochs(c, now);
                    }
                    continue;
                }
                all_done = false;
                // Warm-up boundary: reset this core's metrics.
                if st.warmup_cycle.is_none() && st.total_retired() >= st.warm_target {
                    st.warmup_cycle = Some(now);
                    self.hierarchy.reset_core_metrics(c);
                    // Event recording starts here, so per-kind event
                    // totals reconcile with the measurement window.
                    self.hierarchy.arm_obs(c);
                    self.hierarchy.arm_tel(c);
                    if let Some(t) = st.obs.as_mut() {
                        t.begin(now, st.warm_target, self.hierarchy.dram_stats());
                    }
                }
                if st.core.is_done() {
                    st.replay();
                }
                events.clear();
                // Core phase: the core model itself plus the retire
                // loop; commit-path work nested under it (GM, prefetch
                // training) re-attributes itself via scoped phases.
                self.hierarchy.prof_enter(Phase::Core);
                let mut port = PortAdapter {
                    h: &mut self.hierarchy,
                };
                st.core.tick(now, &mut port, &mut events);
                for ev in &events {
                    match *ev {
                        CoreEvent::RetiredLoad { ip, addr, ts, fill } => {
                            self.hierarchy
                                .commit_load(now, c, ip, addr.line(), ts, &fill);
                        }
                        CoreEvent::RetiredStore { ip, addr, ts } => {
                            self.hierarchy.commit_store(now, c, ip, addr.line(), ts);
                        }
                    }
                }
                self.hierarchy.prof_exit();
                // Observability: poll the squash counter and close any
                // completed epoch. `obs_on == false` keeps this free.
                if self.obs_on {
                    let squashed = self.cores[c].core.squashed();
                    let t = self.cores[c].obs.as_mut().expect("obs_on implies trackers");
                    if squashed > t.prev_squashed {
                        let delta = (squashed - t.prev_squashed) as u32;
                        t.prev_squashed = squashed;
                        self.hierarchy.obs_record(Event {
                            cycle: now,
                            line: LineAddr::new(0),
                            arg: delta,
                            core: c as u16,
                            kind: EventKind::Squash,
                        });
                    }
                    self.obs_sample_epochs(c, now);
                }
            }
            if all_done {
                break;
            }
            // Watchdog.
            let retired_now: u64 = self.cores.iter().map(|s| s.total_retired()).sum();
            let progressed = retired_now > last_progress.0;
            if progressed {
                last_progress = (retired_now, now);
            } else {
                assert!(
                    now - last_progress.1 < WATCHDOG_CYCLES,
                    "simulator livelock: no retirement since cycle {} (now {now}); \
                     retired per core {:?}, core 0 (queued events, live requests, \
                     L1D MSHRs, L1D in flight) {:?}, core 0 LQ occupancy {}",
                    last_progress.1,
                    self.cores
                        .iter()
                        .map(CoreCtx::total_retired)
                        .collect::<Vec<_>>(),
                    self.hierarchy.debug_state(0),
                    self.cores[0].core.lq_occupancy(),
                );
            }
            let mut next_cycle = now + 1;
            // Idle fast-forward. Gated on `!progressed` because warm-up
            // and finish boundaries are recorded on the cycle *after*
            // the crossing retirement — that cycle must be processed.
            // With no retirement this cycle, the boundary checks, the
            // replay check, and the watchdog are all no-ops until the
            // next wake, so skipping to it is exact. It stays on under
            // observability: squashes and epoch crossings happen only on
            // cycles a core ticks, and `PortStall` events only while a
            // non-parked waiter keeps `next_due == now + 1` — none of
            // those cycles is skipped (`tests/skip_equiv.rs` diffs the
            // captures).
            if self.allow_skip && !progressed {
                let mut wake = self.hierarchy.next_due(now);
                if wake > next_cycle {
                    for st in &mut self.cores {
                        if st.finished_cycle.is_some() {
                            continue;
                        }
                        // A core awaiting trace replay re-enters at the
                        // next processed cycle; never skip past it.
                        let w = if st.core.is_done() {
                            next_cycle
                        } else {
                            st.core.next_wake(now)
                        };
                        wake = wake.min(w);
                        if wake <= next_cycle {
                            break;
                        }
                    }
                }
                if wake > next_cycle {
                    // Cap so a genuine livelock still reaches the
                    // watchdog assert instead of jumping to Cycle::MAX.
                    let wake = wake.min(now.saturating_add(WATCHDOG_CYCLES));
                    self.hierarchy.account_idle_cycles(wake - now - 1);
                    next_cycle = wake;
                }
            }
            self.now = next_cycle;
        }
    }

    /// Emits one epoch sample for `c` when its retired-instruction count
    /// crossed the next threshold: deltas of the per-level, prefetch,
    /// commit, and DRAM counters since the previous sample. A single row
    /// is emitted per crossing even when several thresholds were passed
    /// in one cycle (rows then cover more than one nominal interval).
    fn obs_sample_epochs(&mut self, c: usize, now: Cycle) {
        if !self.obs_on || self.cores[c].warmup_cycle.is_none() {
            return;
        }
        let retired = self.cores[c].total_retired();
        let next_at = match self.cores[c].obs.as_ref() {
            Some(t) => t.next_at,
            None => return,
        };
        if retired < next_at {
            return;
        }
        let cur = self.hierarchy.metrics[c].clone();
        let dram = self.hierarchy.dram_stats();
        let gm_occupancy = self.hierarchy.gm_occupancy(c);
        let t = self.cores[c].obs.as_mut().expect("checked above");
        let dd = dram.delta(&t.prev_dram);
        let row = EpochRow {
            epoch: t.epoch_idx,
            core: c as u16,
            end_cycle: now,
            instructions: retired - t.prev_instr,
            cycles: now - t.prev_cycle,
            l1d: level_delta(&cur.l1d, &t.prev.l1d),
            l2: level_delta(&cur.l2, &t.prev.l2),
            llc: level_delta(&cur.llc, &t.prev.llc),
            dram_reads: dd.reads,
            dram_writes: dd.writes,
            gm_occupancy,
            pf_issued: cur.prefetch.issued - t.prev.prefetch.issued,
            pf_useful: cur.prefetch.useful - t.prev.prefetch.useful,
            pf_late: cur.prefetch.late - t.prev.prefetch.late,
            commit_writes: cur.commit.commit_writes - t.prev.commit.commit_writes,
            refetches: cur.commit.refetches - t.prev.commit.refetches,
            suf_drops: cur.commit.suf_dropped - t.prev.commit.suf_dropped,
        };
        t.epoch_idx += 1;
        t.prev_instr = retired;
        t.prev_cycle = now;
        t.prev = cur;
        t.prev_dram = dram;
        while t.next_at <= retired {
            t.next_at += t.interval;
        }
        self.hierarchy.obs_push_epoch(row);
    }

    /// Runs the simulation in SMARTS-style sampled mode (DESIGN.md §14):
    /// functional warming over the warm-up span and the inter-window
    /// gaps, short detailed windows (each with its own detailed warm-up
    /// slice) for measurement, and per-window IPC/MPKI/accuracy samples
    /// feeding Student-t confidence intervals.
    ///
    /// The sampled span is exactly the full-detail span: `warmup`
    /// instructions of warming, then windows placed inside the
    /// `measure`-instruction region (a functional tail covers whatever
    /// the last window does not reach). Aggregate counters in
    /// [`System::report`] cover *measured* windows only; the summary's
    /// CI fields quantify the sampling error.
    ///
    /// # Panics
    ///
    /// Panics, before anything is warmed, if not even one `gap + warm +
    /// window` period fits into the measurement span; or on simulator
    /// livelock.
    pub fn run_sampled(&mut self, s: &SamplingConfig) {
        let first_period = s.gap + s.jitter(0) + s.warm + s.window;
        assert!(
            first_period <= self.measure,
            "sampling config does not fit one window into the measurement \
             span (measure={}, first period needs {first_period})",
            self.measure
        );
        let mut functional_instructions = self.run_functional(self.warmup);
        let mut measured_instructions = 0u64;
        let mut consumed = 0u64;
        let mut widx = 0u64;
        let mut windows = 0u64;
        let mut agg: Vec<CoreMetrics> = vec![CoreMetrics::default(); self.cores.len()];
        let mut samples_ipc = Vec::new();
        let mut samples_mpki = Vec::new();
        let mut samples_pfacc = Vec::new();
        loop {
            let gap = s.gap + s.jitter(widx);
            if consumed + gap + s.warm + s.window > self.measure {
                break;
            }
            functional_instructions += self.run_functional(gap);
            self.run_window(s.warm, s.window);
            // Capture this window's sample and fold its counters into
            // the aggregate (measured windows only).
            let mut wi = 0u64;
            let mut wc = 0u64;
            let mut wm = 0u64;
            let mut wu = 0u64;
            let mut wiss = 0u64;
            for (a, m) in agg.iter_mut().zip(&self.hierarchy.metrics) {
                wi += m.instructions;
                wc += m.cycles;
                wm += m.l1d.demand_misses;
                wu += m.prefetch.useful + m.prefetch.late;
                wiss += m.prefetch.issued;
                a.accumulate(m);
            }
            measured_instructions += wi;
            samples_ipc.push(wi as f64 / wc.max(1) as f64);
            samples_mpki.push(wm as f64 * 1000.0 / wi.max(1) as f64);
            samples_pfacc.push(if wiss == 0 {
                0.0
            } else {
                wu as f64 / wiss as f64
            });
            windows += 1;
            self.drain_to_functional();
            consumed += gap + s.warm + s.window;
            widx += 1;
        }
        // Functional tail: finish the nominal span so prefetcher/cache
        // state at exit matches a full-length run's footprint.
        if consumed < self.measure {
            functional_instructions += self.run_functional(self.measure - consumed);
        }
        self.hierarchy.metrics = agg;
        self.hierarchy.finalize();
        self.sampling = Some(SamplingSummary {
            windows,
            window_len: s.window,
            measured_instructions,
            functional_instructions,
            ipc: MetricStats::from_samples(&samples_ipc),
            mpki_l1d: MetricStats::from_samples(&samples_mpki),
            pf_accuracy: MetricStats::from_samples(&samples_pfacc),
        });
        self.finished = true;
    }

    /// Functionally retires up to `instrs` instructions on every core:
    /// architectural warming only — caches, GhostMinion, SUF, branch
    /// predictor, and prefetcher tables stay warm while no cycle is
    /// simulated and no metrics counter moves. Returns the instructions
    /// actually retired (short only for empty traces).
    fn run_functional(&mut self, instrs: u64) -> u64 {
        if instrs == 0 {
            return 0;
        }
        self.hierarchy.prof_enter(Phase::FuncWarm);
        let mut total = 0u64;
        let mut slice_max = 0u64;
        for c in 0..self.cores.len() {
            let st = &mut self.cores[c];
            let mut port = FuncPort {
                h: &mut self.hierarchy,
                now: self.now,
            };
            let mut remaining = instrs;
            let mut stepped_core = 0u64;
            while remaining > 0 {
                if st.core.is_done() {
                    st.replay();
                    if st.core.is_done() {
                        break; // empty trace: nothing to warm
                    }
                }
                let stepped = st.core.functional_step(remaining, &mut port);
                if stepped == 0 {
                    break;
                }
                remaining -= stepped;
                stepped_core += stepped;
            }
            total += stepped_core;
            slice_max = slice_max.max(stepped_core);
        }
        // Advance the wall clock by the longest per-core slice so the
        // next detailed window starts at a strictly later cycle and
        // GhostMinion timestamps keep moving forward.
        self.now += slice_max;
        self.hierarchy.prof_exit();
        total
    }

    /// Drains in-flight detailed state before switching to functional
    /// warming: cores functionally retire their ROB contents (see
    /// [`Core::drain_to_functional`]) and the event wheel runs dry so no
    /// stale completion can arrive mid-warming or in a later window.
    fn drain_to_functional(&mut self) {
        for st in &mut self.cores {
            st.core.drain_to_functional();
        }
        let mut guard = 0u64;
        while self.hierarchy.live_requests() > 0 {
            guard += 1;
            assert!(guard < 10_000_000, "in-flight drain did not converge");
            let now = self.now;
            self.hierarchy.tick(now);
            // The cores abandoned these loads; drop their completions.
            self.hierarchy.completions.clear();
            let due = self.hierarchy.next_due(now);
            self.now = if due == Cycle::MAX {
                now + 1
            } else {
                due.max(now + 1)
            };
        }
    }

    /// Builds the report (callable after [`System::run`]).
    pub fn report(&self) -> SimReport {
        let mut r = SimReport::new(
            &self.cfg,
            self.hierarchy.metrics.clone(),
            self.hierarchy.dram_stats(),
        );
        r.sampling = self.sampling.clone();
        r
    }

    /// Probe a cache level for a line (security experiments).
    pub fn probe_line(
        &self,
        core: usize,
        level: secpref_types::CacheLevel,
        line: secpref_types::LineAddr,
    ) -> bool {
        self.hierarchy.probe_line(core, level, line)
    }

    /// Probe the GM for a line (security experiments).
    pub fn probe_gm(&self, core: usize, line: secpref_types::LineAddr) -> bool {
        self.hierarchy.probe_gm(core, line)
    }

    /// Wrong-path loads injected so far (per core).
    pub fn wrong_path_loads(&self, core: usize) -> u64 {
        self.cores[core].core.stats().wrong_path_loads
    }

    /// Core statistics (mispredicts, squashes, …).
    pub fn core_stats(&self, core: usize) -> secpref_cpu::CoreStats {
        self.cores[core].core.stats()
    }

    /// Streamed-feed residency instrumentation for `core` (`None` when
    /// that core runs an in-memory trace).
    pub fn feed_stats(&self, core: usize) -> Option<Arc<secpref_tracestore::FeedStats>> {
        self.cores[core].core.feed_stats()
    }

    /// The cycle the simulation ended at.
    pub fn cycles(&self) -> Cycle {
        self.now
    }
}
