//! The memory system's two timing drivers over one policy.
//!
//! Every *what-happens* decision — GhostMinion's GM-only speculative
//! fills, SUF's commit actions and writeback bits, clean-line
//! propagation, prefetcher training, feedback and admission — lives in
//! [`crate::policy`] and exists once. This module decides *when*:
//!
//! **The detailed driver** ([`Hierarchy::issue_load`], [`Hierarchy::tick`],
//! [`Hierarchy::commit_load`]) walks a request level by level on a
//! cycle-ordered event wheel, contending for ports, allocating and
//! merging MSHRs, queueing at DRAM, and filling on the response unwind.
//! A request that is denied a port, finds the MSHR file full or is
//! refused by the DRAM queue leaves the wheel for the ordered wait list
//! ([`crate::wheel`]) and is woken there, never polled through the wheel.
//! It alone keeps metrics and feeds the obs/telemetry/profiler hooks and
//! the Fig. 6 classifier shadow.
//!
//! **The instant driver** ([`Hierarchy::functional_load`],
//! [`Hierarchy::functional_store`]; SMARTS functional warming, DESIGN.md
//! §14) runs the same steps back to back: one [`Hierarchy::instant_walk`]
//! per access, evictions cascading on the spot, issue and commit at the
//! same instant. It allocates nothing and touches no counter.

use crate::classify::Classifier;
use crate::metrics::CoreMetrics;
use crate::policy::{self, Admit, AfterEvict, Commit, Lookup, MemState, PerLevel, ReqKind};
use crate::profile::{Phase, ProfileReport, Profiler};
use crate::wheel::{EventWheel, Gate, WaitList, Waiter, EV_ACCESS, EV_RESPONSE};
use secpref_cpu::LoadIssue;
use secpref_ghostminion::{GmInsertOutcome, UpdateFilter, WbBits};
use secpref_mem::{DramModel, DramRequest, FillAttrs, MshrFile, MshrToken, PortScheduler};
use secpref_obs::{Event, EventKind, Obs};
use secpref_prefetch::{AccessEvent, Feedback, Prefetcher};
use secpref_telemetry::{LoadLevel, Tel, TelCapture};
use secpref_types::{
    AccessKind, Addr, CacheConfig, CacheLevel, CoreId, Cycle, FillInfo, HitLevel, Ip, LineAddr,
    PrefetchRequest, SystemConfig,
};

/// What the gate has settled, during one walk of the wait list, for
/// every later waiter of one kind ([`Hierarchy::verdicts`]): nothing —
/// ask the gate —, parked again on a still-full MSHR file, or denied a
/// port.
const ASK: u8 = 0;
const PARK: u8 = 1;
const DENY: u8 = 2;
/// Maximum in-flight prefetch requests per core (prefetch queue depth);
/// excess proposals are dropped at injection.
const PF_QUEUE_DEPTH: usize = 48;
/// Nominal DRAM portion of an instant-driver fetch latency (cycles).
/// Warming needs only a plausible constant for GhostMinion timestamps
/// and prefetcher latency hints; detailed windows use the real
/// load-dependent DRAM model.
const FUNC_DRAM_LATENCY: Cycle = 120;

#[derive(Clone, Copy, Debug)]
struct Req {
    core: CoreId,
    line: LineAddr,
    ip: Ip,
    kind: ReqKind,
    lq: u32,
    gen: u32,
    ts: u64,
    wrong_path: bool,
    issued_at: Cycle,
    /// 0 = L1D, 1 = L2, 2 = LLC, 3 = DRAM.
    cur_level: u8,
    path: [Option<MshrToken>; 3],
    merged_prefetch: bool,
    hit_prefetched: bool,
    hit_pf_latency: u32,
    hit_level: HitLevel,
    /// Writeback bits for the fill this request makes with explicit bits
    /// (see [`policy::fill_attrs`]).
    wb: WbBits,
    /// Load still holds an L1D input-queue slot (released at first grant).
    holds_l1_slot: bool,
    /// Metrics for the current level access were already recorded.
    counted: bool,
    /// Telemetry counted this request as a demand access (set only while
    /// armed, so histogram totals reconcile with the report counters).
    tel_counted: bool,
    /// A GhostMinion hit served this load (splits the GM population out
    /// of the L1D load-latency histogram).
    served_by_gm: bool,
    alive: bool,
}

/// The timing side of one cache level (its tags live in [`MemState`]).
struct LevelTiming {
    mshr: MshrFile,
    ports: PortScheduler,
    /// Requests parked on an in-flight MSHR, keyed by token. A flat vec
    /// beats a hash map here: occupancy is bounded by the MSHR count
    /// (tens), so a linear probe is cheaper than hashing, and the waiter
    /// vectors are recycled through [`Hierarchy::waiter_pool`] instead of
    /// being reallocated on every miss.
    waiting: Vec<(MshrToken, Vec<u32>)>,
    latency: Cycle,
}

impl LevelTiming {
    fn new(cfg: &CacheConfig) -> Self {
        LevelTiming {
            mshr: MshrFile::new(cfg.mshrs),
            ports: PortScheduler::new(cfg.ports_per_cycle),
            waiting: Vec::new(),
            latency: cfg.latency,
        }
    }
}

/// The simulated memory system shared by all cores.
pub struct Hierarchy {
    cfg: SystemConfig,
    /// Caches, GhostMinions, filters, prefetchers and the policy over
    /// them — all either driver may change about the modelled machine.
    st: MemState,
    timing: PerLevel<LevelTiming>,
    dram: DramModel,
    classifiers: Vec<Option<Classifier>>,
    reqs: Vec<Req>,
    free: Vec<u32>,
    events: EventWheel,
    /// Everything due next cycle, blocked requests above all; with
    /// `events` it forms the one event order (see [`crate::wheel`]).
    waits: WaitList,
    /// By [`Gate::index`], valid while the wait list is walked: how the
    /// gate's last answer to a waiter of that kind settles every later
    /// one of the walk. Ports only get scarcer within a cycle, so a
    /// denial stands to its end; a full MSHR file stays full until
    /// [`Hierarchy::on_response`] completes an entry, which resets the
    /// level's `PARK`. Blocked parked waiters and port waiters alternate
    /// in a contended level's list by the dozen, each ticked cycle: this
    /// turns the gate into one table read for all but the first of a kind.
    verdicts: Vec<u8>,
    /// Port denials handed out from `verdicts`, by [`Gate::index`],
    /// booked when the walk ends.
    denials: Vec<u32>,
    /// True while [`Hierarchy::tick`] runs: a push for the current cycle
    /// is then processed in this tick, not as a `late` event of the next.
    ticking: bool,
    /// Request walks, ticked cycles and request records read for a
    /// request that stayed blocked ([`DriverCounts`]).
    walks: u64,
    ticks: u64,
    blocked_reads: u64,
    /// Spare waiter vectors recycled across MSHR merge/complete cycles.
    waiter_pool: Vec<Vec<u32>>,
    /// Completed demand loads, drained by the system each cycle:
    /// (core, lq, gen, fill).
    pub completions: Vec<(CoreId, u32, u32, FillInfo)>,
    /// Per-core metrics.
    pub metrics: Vec<CoreMetrics>,
    l1_inflight: Vec<usize>,
    pf_outstanding: Vec<usize>,
    /// Reusable DRAM-completion buffer for `tick` (no per-cycle allocs).
    dram_done: Vec<secpref_mem::DramCompletion>,
    /// Per-core `("l1d[c]", "l2[c]")` labels, built once at construction
    /// so the capture path never formats strings.
    mshr_labels: Vec<(String, String)>,
    /// Observability recorder; `Obs::disabled()` unless tracing was
    /// requested, in which case every hook below feeds it.
    obs: Obs,
    /// Distribution recorder (latency/timeliness histograms);
    /// `Tel::disabled()` unless telemetry was requested. Every hook is
    /// event-driven, so telemetry runs keep the idle fast-forward.
    tel: Tel,
    /// Wall-time phase profiler; disabled (one branch per hook) unless
    /// `repro --profile` style runs request it.
    prof: Profiler,
    now: Cycle,
}

/// Work counts of the detailed driver ([`Hierarchy::driver_counts`]):
/// host-side cost figures, no part of any report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverCounts {
    /// Request walks: accesses that were admitted to their level (or
    /// accepted by DRAM) plus responses — every event except a blocked
    /// request being passed over.
    pub walks: u64,
    /// Cycles [`Hierarchy::tick`] ran for (the rest were fast-forwarded).
    pub ticked_cycles: u64,
    /// Longest wait list a cycle started with.
    pub wait_high_water: usize,
    /// Request records read on a visit that left the request blocked (a
    /// port denial, a still-full MSHR file, a DRAM-queue refusal). A
    /// waiter at a cache level carries its gate in its list entry and
    /// costs none; what remains are first denials and DRAM refusals.
    pub blocked_req_reads: u64,
    /// Load-queue slots the cores' issue scans examined
    /// ([`secpref_cpu::Core::lq_slots_examined`]; filled in by
    /// [`crate::System::driver_counts`], the hierarchy has no core).
    pub lq_slots_examined: u64,
}

/// Phase a cache-walk event at `lvl` is attributed to.
fn level_phase(lvl: u8) -> Phase {
    match lvl {
        0 => Phase::L1d,
        1 => Phase::L2,
        2 => Phase::Llc,
        _ => Phase::Dram,
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cores", &self.cfg.cores)
            .field("policy", &self.st.pol)
            .field("now", &self.now)
            .finish()
    }
}

impl Hierarchy {
    /// Builds the memory system for `cfg`, with the given per-core
    /// prefetchers, update filters, and optional classifiers. The
    /// per-core policy comes from `cfg.policy(c)`, so heterogeneous
    /// mixes get per-core secure-mode/prefetcher behaviour.
    pub fn new(
        cfg: SystemConfig,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        filters: Vec<Box<dyn UpdateFilter>>,
        classifiers: Vec<Option<Classifier>>,
    ) -> Self {
        assert_eq!(prefetchers.len(), cfg.cores);
        assert_eq!(filters.len(), cfg.cores);
        assert_eq!(classifiers.len(), cfg.cores);
        let cores = cfg.cores;
        Hierarchy {
            st: MemState::new(&cfg, prefetchers, filters),
            timing: PerLevel::new(&cfg, LevelTiming::new),
            dram: DramModel::new(cfg.dram.clone()),
            classifiers,
            reqs: Vec::with_capacity(4096),
            free: Vec::new(),
            events: EventWheel::new(),
            waits: WaitList::default(),
            verdicts: vec![ASK; cores * Gate::KINDS],
            denials: vec![0; cores * Gate::KINDS],
            ticking: false,
            walks: 0,
            ticks: 0,
            blocked_reads: 0,
            waiter_pool: Vec::new(),
            completions: Vec::new(),
            metrics: vec![CoreMetrics::default(); cores],
            l1_inflight: vec![0; cores],
            pf_outstanding: vec![0; cores],
            dram_done: Vec::new(),
            mshr_labels: (0..cores)
                .map(|c| (format!("l1d[{c}]"), format!("l2[{c}]")))
                .collect(),
            obs: Obs::disabled(),
            tel: Tel::disabled(),
            prof: Profiler::disabled(),
            cfg,
            now: 0,
        }
    }

    /// Enables the wall-time phase profiler (see [`crate::profile`]).
    pub fn enable_profiling(&mut self) {
        self.prof = Profiler::enabled();
    }

    /// The accumulated phase profile (all-zero unless profiling was
    /// enabled).
    pub fn profile_report(&mut self) -> ProfileReport {
        self.prof.report()
    }

    /// Phase hooks for the system run loop (core-model attribution).
    pub(crate) fn prof_enter(&mut self, phase: Phase) {
        self.prof.enter(phase);
    }

    pub(crate) fn prof_exit(&mut self) {
        self.prof.exit();
    }

    /// Installs an observability recorder (replaces the disabled default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Arms event recording for `core` (its warm-up boundary passed).
    pub fn arm_obs(&mut self, core: CoreId) {
        self.obs.arm(core);
    }

    /// The configured epoch interval, when observability is on.
    pub fn obs_epoch_interval(&self) -> Option<u64> {
        self.obs.epoch_interval()
    }

    /// Installs a telemetry recorder (replaces the disabled default).
    pub fn set_tel(&mut self, tel: Tel) {
        self.tel = tel;
    }

    /// Whether a telemetry recorder is active.
    pub fn tel_enabled(&self) -> bool {
        self.tel.is_enabled()
    }

    /// Arms telemetry recording for `core` (its warm-up boundary passed).
    pub fn arm_tel(&mut self, core: CoreId) {
        self.tel.arm(core);
    }

    /// Consumes the telemetry recorder into its capture (`None` when
    /// telemetry was off). Counted demand accesses still in flight are
    /// folded into `unfinished_demands` so the reconciliation equation
    /// `demand_accesses == Σ load_latency + unfinished_demands` is exact.
    pub fn take_tel_capture(&mut self) -> Option<TelCapture> {
        if self.tel.is_enabled() {
            for i in 0..self.reqs.len() {
                let r = self.reqs[i];
                if r.alive && r.tel_counted {
                    self.tel.unfinished_demand(r.core);
                }
            }
        }
        std::mem::take(&mut self.tel).finish()
    }

    /// Records an externally-observed event (e.g. pipeline squashes seen
    /// by the driving system, which owns the cores).
    #[inline]
    pub fn obs_record(&mut self, ev: Event) {
        self.obs.record(ev);
    }

    /// Appends an epoch sample computed by the driving system.
    pub fn obs_push_epoch(&mut self, row: secpref_obs::EpochRow) {
        self.obs.push_epoch(row);
    }

    /// GM lines currently resident for `core` (epoch-sample gauge).
    pub fn gm_occupancy(&self, core: CoreId) -> u64 {
        self.st.gm[core].occupancy() as u64
    }

    /// Consumes the recorder into its capture, annotating the MSHR
    /// high-water marks and the update filter's identity (`None` when
    /// observability was off).
    pub fn take_obs_capture(&mut self) -> Option<secpref_obs::ObsCapture> {
        let obs = std::mem::take(&mut self.obs);
        let mut cap = obs.finish()?;
        for c in 0..self.cfg.cores {
            let (l1d_label, l2_label) = &self.mshr_labels[c];
            cap.mshr_high_water.push((
                l1d_label.clone(),
                self.timing.l1d[c].mshr.high_water() as u64,
            ));
            cap.mshr_high_water
                .push((l2_label.clone(), self.timing.l2[c].mshr.high_water() as u64));
        }
        cap.mshr_high_water
            .push(("llc".to_string(), self.timing.llc.mshr.high_water() as u64));
        cap.filter = self.st.filters[0].describe().to_string();
        Some(cap)
    }

    /// Records an event at exactly the site that bumped the matching
    /// counter, keeping event totals reconcilable with the final report.
    #[inline]
    fn obs_ev(&mut self, at: Cycle, core: CoreId, kind: EventKind, line: LineAddr, arg: u32) {
        self.obs.record(Event {
            cycle: at,
            line,
            arg,
            core: core as u16,
            kind,
        });
    }

    /// Free MSHRs at `core`'s prefetcher's level (Berti's orchestration
    /// input on every training event).
    fn mshr_free(&self, core: CoreId) -> usize {
        let level = match self.st.pf_level(core) {
            0 => &self.timing.l1d[core],
            _ => &self.timing.l2[core],
        };
        level.mshr.capacity() - level.mshr.occupancy()
    }

    /// Runs a classifier hook for `core` if it has a Fig. 6 shadow.
    fn classify(&mut self, core: CoreId, hook: impl FnOnce(&mut Classifier)) {
        if let Some(c) = self.classifiers[core].as_mut() {
            self.prof.enter(Phase::Classifier);
            hook(c);
            self.prof.exit();
        }
    }

    fn alloc_req(&mut self, req: Req) -> u32 {
        if let Some(id) = self.free.pop() {
            self.reqs[id as usize] = req;
            id
        } else {
            self.reqs.push(req);
            (self.reqs.len() - 1) as u32
        }
    }

    fn free_req(&mut self, rid: u32) {
        let req = &mut self.reqs[rid as usize];
        req.alive = false;
        if matches!(req.kind, ReqKind::Prefetch) {
            let core = req.core;
            self.pf_outstanding[core] = self.pf_outstanding[core].saturating_sub(1);
        }
        self.free.push(rid);
    }

    /// Queues `(rid, kind)` for cycle `at`, keeping the one event order
    /// of [`crate::wheel`]: next-cycle pushes go to the wait list in the
    /// order they are made, same-cycle pushes made while ticking go to
    /// its FIFO, and only the rest (two or more cycles out, or `late`
    /// pushes of the core phase) goes to the wheel.
    fn schedule(&mut self, at: Cycle, rid: u32, kind: u8) {
        if at == self.now + 1 {
            self.waits.push_next(Waiter::event(rid, kind));
        } else if at == self.now && self.ticking {
            self.waits.push_same(rid, kind);
        } else {
            self.events.push(at, rid, kind);
        }
    }

    fn blank_req(core: CoreId, line: LineAddr, ip: Ip, kind: ReqKind, now: Cycle) -> Req {
        Req {
            core,
            line,
            ip,
            kind,
            lq: 0,
            gen: 0,
            ts: 0,
            wrong_path: false,
            issued_at: now,
            cur_level: 0,
            path: [None; 3],
            merged_prefetch: false,
            hit_prefetched: false,
            hit_pf_latency: 0,
            hit_level: HitLevel::L1d,
            wb: WbBits::ALL,
            holds_l1_slot: false,
            counted: false,
            tel_counted: false,
            served_by_gm: false,
            alive: true,
        }
    }

    /// Core-facing load issue (the [`secpref_cpu::LoadPort`] entry point).
    /// Returns `false` when the L1D input queue is full (backpressure).
    pub fn issue_load(&mut self, now: Cycle, issue: LoadIssue) -> bool {
        if self.l1_inflight[issue.core] >= self.cfg.l1d.queue_depth {
            return false;
        }
        self.l1_inflight[issue.core] += 1;
        let mut req = Self::blank_req(issue.core, issue.addr.line(), issue.ip, ReqKind::Load, now);
        req.lq = issue.lq_id;
        req.gen = issue.gen;
        req.ts = issue.ts;
        req.wrong_path = issue.wrong_path;
        req.holds_l1_slot = true;
        if issue.wrong_path {
            self.metrics[issue.core].wrong_path_loads += 1;
        }
        let rid = self.alloc_req(req);
        // Address translation happens before the cache access: the TLB
        // adds latency (1 cycle when it hits the dTLB).
        let at = now + self.st.translate(issue.core, issue.addr);
        self.schedule(at, rid, EV_ACCESS);
        true
    }

    /// TLB statistics for `core`, if TLB modelling is enabled.
    pub fn tlb_stats(&self, core: CoreId) -> Option<secpref_mem::tlb::TlbStats> {
        self.st.tlb_stats(core)
    }

    /// Issues the non-speculative write of a retired store.
    pub fn issue_store(&mut self, now: Cycle, core: CoreId, ip: Ip, line: LineAddr, ts: u64) {
        let mut req = Self::blank_req(core, line, ip, ReqKind::Store, now);
        req.ts = ts;
        let rid = self.alloc_req(req);
        self.schedule(now, rid, EV_ACCESS);
    }

    /// Advances the memory system to `now`: ticks DRAM and processes all
    /// events due at or before `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.now = now;
        self.ticks += 1;
        self.ticking = true;
        self.waits.begin_cycle();
        let mut done = std::mem::take(&mut self.dram_done);
        done.clear();
        self.prof.enter(Phase::Dram);
        self.dram.tick(now, &mut done);
        self.prof.exit();
        for &(rid, completed_at, arrival) in &done {
            let rid = rid as u32;
            let req = &mut self.reqs[rid as usize];
            req.hit_level = HitLevel::Dram;
            let core = req.core;
            self.tel.dram_done(core, completed_at - arrival);
            self.schedule(now, rid, EV_RESPONSE);
        }
        self.dram_done = done;
        // The three steps of the order law in `crate::wheel`.
        while let Some((rid, kind)) = self.events.pop_due(now) {
            self.dispatch(now, rid, kind);
        }
        self.walk_waiters(now);
        while let Some((rid, kind)) = self.waits.pop_same() {
            self.dispatch(now, rid, kind);
        }
        self.ticking = false;
        self.account_idle_cycles(1); // this cycle's MSHR occupancy sample
    }

    /// Step 2 of the order law: this cycle's wait list, front to back.
    /// Requests that stay blocked far outnumber every other event, so a
    /// waiter goes to the gate with what its entry carries — or not at
    /// all, once `verdicts` has the answer for its kind — and a run of
    /// waiters at one level shares one profiler scope (that level's
    /// phase, where [`Hierarchy::dispatch`] would put each) instead of
    /// paying two clock reads per waiter passed over.
    fn walk_waiters(&mut self, now: Cycle) {
        self.verdicts.fill(ASK);
        let mut scope = None;
        while let Some(w) = self.waits.pop_cur() {
            if let Some(gate) = w.gate() {
                debug_assert!(self.reqs[w.rid as usize].alive);
                if scope != Some(gate.lvl()) {
                    if scope.is_some() {
                        self.prof.exit();
                    }
                    self.prof.enter(level_phase(gate.lvl()));
                    scope = Some(gate.lvl());
                }
                let verdict = self.verdicts[gate.index()];
                if verdict != ASK {
                    // No branch on which: the two alternate.
                    self.denials[gate.index()] += (verdict == DENY) as u32;
                    self.waits.push_blocked(w, verdict == PARK);
                } else if self.admit(now, w.rid, Some(gate)) {
                    self.access_level(now, w.rid);
                }
            } else {
                if scope.take().is_some() {
                    self.prof.exit();
                }
                self.dispatch(now, w.rid, w.kind());
            }
        }
        if scope.is_some() {
            self.prof.exit();
        }
        for index in 0..self.denials.len() {
            let n = std::mem::take(&mut self.denials[index]) as u64;
            if n > 0 {
                let (core, lvl) = (Gate::at(index).core(), Gate::at(index).lvl());
                self.timing.at(core, lvl).ports.refuse(n);
                self.level_metrics(core, lvl).port_stalls += n;
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, rid: u32, kind: u8) {
        let req = &self.reqs[rid as usize];
        if !req.alive {
            return;
        }
        match kind {
            EV_ACCESS => {
                self.prof.enter(level_phase(req.cur_level));
                self.on_access(now, rid);
            }
            _ => {
                // Attributed to the level that supplied the data.
                self.prof.enter(level_phase(req.hit_level.encode()));
                self.on_response(now, rid);
            }
        }
        self.prof.exit();
    }

    /// Earliest cycle strictly after `now` at which [`Hierarchy::tick`]
    /// has work: the wait list's next cycle, the wheel's next due event
    /// or DRAM's next possible action. `Cycle::MAX` when the memory
    /// system is fully idle. Waiters parked on a full MSHR file or DRAM
    /// queue are no wake source of their own: what frees the resource is
    /// a wheel event or a DRAM action, and a waiter passed over before
    /// the resource freed marks the list due ([`WaitList::wake_parked`]).
    pub fn next_due(&self, now: Cycle) -> Cycle {
        if self.waits.due_next_cycle() {
            return now + 1;
        }
        match self.events.next_due(now) {
            // Already due next cycle: DRAM cannot beat that.
            Some(at) if at <= now + 1 => at,
            wheel => wheel.unwrap_or(Cycle::MAX).min(self.dram.next_event(now)),
        }
    }

    /// Folds in the per-cycle MSHR occupancy statistics for `n` cycles:
    /// one per [`Hierarchy::tick`], or a whole span skipped by the run
    /// loop's idle fast-forward — occupancy cannot change while no event
    /// fires, so the per-cycle sample has this closed form.
    pub fn account_idle_cycles(&mut self, n: u64) {
        for c in 0..self.cfg.cores {
            let m = &mut self.metrics[c];
            m.l1d.mshr_occupancy_integral += self.timing.l1d[c].mshr.occupancy() as u64 * n;
            m.l1d.mshr_full_cycles += self.timing.l1d[c].mshr.is_full() as u64 * n;
            m.l2.mshr_occupancy_integral += self.timing.l2[c].mshr.occupancy() as u64 * n;
            m.l2.mshr_full_cycles += self.timing.l2[c].mshr.is_full() as u64 * n;
        }
    }

    fn level_metrics(&mut self, core: CoreId, lvl: u8) -> &mut crate::metrics::LevelMetrics {
        match lvl {
            0 => &mut self.metrics[core].l1d,
            1 => &mut self.metrics[core].l2,
            _ => &mut self.metrics[core].llc,
        }
    }

    fn access_kind(kind: ReqKind) -> AccessKind {
        match kind {
            ReqKind::Load => AccessKind::Load,
            ReqKind::Store => AccessKind::Store,
            ReqKind::Prefetch => AccessKind::Prefetch,
            ReqKind::Refetch => AccessKind::Refetch,
            ReqKind::CommitWrite => AccessKind::CommitWrite,
            ReqKind::CleanProp => AccessKind::Writeback,
            ReqKind::DirtyWb => AccessKind::Writeback,
        }
    }

    fn on_access(&mut self, now: Cycle, rid: u32) {
        if self.reqs[rid as usize].cur_level == 3 {
            self.access_dram(now, rid);
        } else if self.admit(now, rid, None) {
            self.access_level(now, rid);
        }
    }

    /// The gate `r` stands at at its level.
    fn gate_of(r: &Req, for_mshr: bool) -> Gate {
        let prefetch = matches!(r.kind, ReqKind::Prefetch);
        Gate::new(r.core, r.cur_level, prefetch, for_mshr)
    }

    /// The gate of a cache-level access: `false` when the request is
    /// still blocked and went (back) to the wait list. A waiter brings
    /// its gate in `carried`; the request record is read only for a
    /// request that arrives for the first time (or, under obs, for the
    /// line of a `PortStall` event). Nothing counts how long a waiter
    /// waits; a request that is never admitted stops retirement and
    /// trips `WATCHDOG_CYCLES` in the run loop.
    fn admit(&mut self, now: Cycle, rid: u32, carried: Option<Gate>) -> bool {
        let gate = carried.unwrap_or_else(|| Self::gate_of(&self.reqs[rid as usize], false));
        let (core, lvl) = (gate.core(), gate.lvl());
        let level = self.timing.at(core, lvl);
        // A request parked on a full MSHR file waits without consuming
        // lookup bandwidth (it sits in the input queue in hardware).
        let parked = gate.for_mshr() && level.mshr.is_full();
        let gate = Gate::new(core, lvl, gate.prefetch(), parked);
        if !parked {
            // Port arbitration at this level; prefetches yield to demands.
            let granted = if gate.prefetch() {
                level.ports.try_acquire_low_priority(now)
            } else {
                level.ports.try_acquire(now)
            };
            if granted {
                return true;
            }
            self.level_metrics(core, lvl).port_stalls += 1;
        }
        // Under obs every denial is an event carrying the request's
        // line, so denials are never handed out from the table.
        let traced = !parked && self.obs.is_enabled();
        if traced {
            let line = self.reqs[rid as usize].line;
            self.obs_ev(now, core, EventKind::PortStall, line, lvl as u32);
        } else {
            self.verdicts[gate.index()] = if parked { PARK } else { DENY };
        }
        self.blocked_reads += (carried.is_none() || traced) as u64;
        self.waits.push_blocked(Waiter::blocked(rid, gate), parked);
        false
    }

    /// An admitted access at L1D/L2/LLC: counts it and does what its
    /// kind asks of the level.
    fn access_level(&mut self, now: Cycle, rid: u32) {
        self.walks += 1;
        let req = self.reqs[rid as usize];
        let (core, lvl) = (req.core, req.cur_level);
        if req.holds_l1_slot {
            self.l1_inflight[core] = self.l1_inflight[core].saturating_sub(1);
            self.reqs[rid as usize].holds_l1_slot = false;
        }
        if !req.counted {
            self.level_metrics(core, lvl)
                .record_access(Self::access_kind(req.kind));
            self.reqs[rid as usize].counted = true;
            // Telemetry mirrors the L1D demand-access counter at exactly
            // this site; the returned flag gates the completion-side
            // histogram record so the two reconcile across the warm-up
            // boundary.
            if lvl == 0 && req.kind.is_demand() && self.tel.demand_access(core) {
                self.reqs[rid as usize].tel_counted = true;
            }
        }

        match req.kind {
            ReqKind::CommitWrite | ReqKind::CleanProp | ReqKind::DirtyWb => {
                // A single-level install: GM → L1D transfer with the
                // filter's wb bits, or a writeback landing at its target.
                let attrs = policy::fill_attrs(req.kind, true, lvl, req.wb, 0);
                self.fill_cache(
                    now,
                    core,
                    lvl,
                    req.line,
                    attrs.expect("installs always fill"),
                );
                if req.kind == ReqKind::CommitWrite {
                    // On-commit L1 prefetchers observe the (misleading)
                    // 1-cycle commit-write fill latency.
                    self.pf_fill_event(core, true, req.line, req.ip, now + 1, 1);
                }
                self.free_req(rid);
            }
            ReqKind::Load | ReqKind::Store | ReqKind::Prefetch | ReqKind::Refetch => {
                self.access_cache_level(now, rid);
            }
        }
    }

    /// Demand/prefetch/refetch lookup at L1D/L2/LLC.
    fn access_cache_level(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        let lvl = req.cur_level;
        let is_demand = req.kind.is_demand();

        if self.st.probes_gm(core, lvl, req.kind) {
            self.metrics[core].gm_accesses += 1;
            self.prof.enter(Phase::Gm);
            let gm_hit = self.st.gm[core].lookup(req.line, req.ts).is_some();
            self.prof.exit();
            if gm_hit {
                self.observe_demand(now, &req, &Lookup::GM_HIT);
                let r = &mut self.reqs[rid as usize];
                r.hit_level = HitLevel::L1d;
                r.served_by_gm = true;
                self.schedule(now + 1, rid, EV_RESPONSE); // 1-cycle GM
                return;
            }
        }

        let lk = self.st.lookup(core, lvl, req.kind, req.line);
        if lk.hit && lvl > 0 && self.st.speculative(core, req.kind) {
            // A speculative hit marks first demand use in the *L1D* even
            // when L2 or the LLC supplied the line: a no-op unless the
            // line reached the L1D after this load's L1D lookup, in which
            // case its prefetched bit is cleared early. The pinned
            // digests see this, so it stays until a modelling PR decides
            // otherwise; the instant driver has no such window (its L1D
            // lookup missed this very instant) and skips the scan.
            self.st.caches.at(core, 0).mark_demand_use(req.line);
        }
        if lk.useful {
            self.metrics[core].prefetch.useful += 1;
            self.obs_ev(
                now,
                core,
                EventKind::PrefetchUseful,
                req.line,
                lk.pf_latency,
            );
            self.tel.pf_useful(core, req.line.raw(), now);
        }
        if is_demand {
            self.observe_demand(now, &req, &lk);
        }

        // A prefetch may be dropped only before it has allocated any MSHR;
        // afterwards it must run to completion or it would leak entries.
        let is_pf = matches!(req.kind, ReqKind::Prefetch);
        let droppable = is_pf && req.path.iter().all(Option::is_none);
        if lk.hit {
            if droppable {
                // Already resident at its origin level: drop.
                self.metrics[core].prefetch.dropped_duplicate += 1;
                self.free_req(rid);
            } else {
                let lat = self.timing.at(core, lvl).latency;
                let r = &mut self.reqs[rid as usize];
                r.hit_level = HitLevel::decode(lvl);
                r.hit_prefetched = lk.was_prefetched;
                r.hit_pf_latency = lk.pf_latency;
                self.schedule(now + lat, rid, EV_RESPONSE);
            }
            return;
        }

        // Miss: merge or allocate an MSHR.
        let pf_here = self.st.pf_here(core, lvl);
        let in_flight = self.timing.at(core, lvl).mshr.find(req.line);
        if let Some((token, in_flight_is_pf, in_flight_since)) =
            in_flight.map(|(t, e)| (t, e.is_prefetch, e.alloc_cycle))
        {
            if droppable {
                self.metrics[core].prefetch.dropped_duplicate += 1;
                self.free_req(rid);
                return;
            }
            let level = self.timing.at(core, lvl);
            level.mshr.merge(req.line, !is_pf, req.ts);
            match level.waiting.iter_mut().find(|(t, _)| *t == token) {
                Some((_, v)) => v.push(rid),
                None => {
                    let mut v = self.waiter_pool.pop().unwrap_or_default();
                    v.push(rid);
                    self.timing.at(core, lvl).waiting.push((token, v));
                }
            }
            // Merging onto an in-flight *demand* is a hit-under-miss, not
            // a new miss; merging onto a *prefetch* is the paper's "late
            // prefetch" and counts as a demand miss (Fig. 6).
            if is_demand && in_flight_is_pf {
                self.count_demand_miss(now, rid, lvl, true);
                if pf_here {
                    self.metrics[core].prefetch.late += 1;
                    self.obs_ev(now, core, EventKind::PrefetchLate, req.line, 0);
                    self.tel.pf_late(core, now - in_flight_since);
                    self.reqs[rid as usize].merged_prefetch = true;
                    self.prof.enter(Phase::Prefetcher);
                    self.st.prefetchers[core].feedback(Feedback::Late { line: req.line });
                    self.prof.exit();
                }
            }
            return;
        }
        if self.timing.at(core, lvl).mshr.is_full() {
            self.level_metrics(core, lvl).mshr_full_stalls += 1;
            self.obs_ev(now, core, EventKind::MshrFull, req.line, lvl as u32);
            if droppable {
                self.metrics[core].prefetch.dropped_resources += 1;
                self.free_req(rid);
            } else {
                self.waits
                    .park(Waiter::blocked(rid, Self::gate_of(&req, true)));
            }
            return;
        }
        // Allocate and descend.
        let level = self.timing.at(core, lvl);
        let lat = level.latency;
        let token = level
            .mshr
            .alloc(req.line, is_pf, now, if is_pf { u64::MAX } else { req.ts })
            .expect("checked not-full, no existing entry");
        if is_demand {
            self.count_demand_miss(now, rid, lvl, false);
        }
        // `issued` counts requests entering the hierarchy, so only the
        // origin-level allocation increments it; the same prefetch
        // allocating deeper MSHRs as it descends is still one request.
        if droppable {
            self.metrics[core].prefetch.issued += 1;
            self.obs_ev(now, core, EventKind::PrefetchIssue, req.line, lvl as u32);
        }
        let r = &mut self.reqs[rid as usize];
        r.path[lvl as usize] = Some(token);
        r.cur_level = lvl + 1;
        r.counted = false;
        self.schedule(now + lat, rid, EV_ACCESS);
    }

    fn access_dram(&mut self, now: Cycle, rid: u32) {
        let r = &self.reqs[rid as usize];
        let (core, is_write) = (r.core, matches!(r.kind, ReqKind::DirtyWb));
        let dram_req = DramRequest {
            line: r.line,
            is_write,
            token: rid as u64,
            arrival: now,
        };
        if self.dram.enqueue(dram_req).is_err() {
            // Queue full: wait for DRAM to pick a request, which is a
            // wake source of its own (`DramModel::next_event`). Whether
            // the queue takes it depends on its line (a queued write
            // forwards), so this waiter is re-offered from its record.
            self.blocked_reads += 1;
            self.waits.park(Waiter::event(rid, EV_ACCESS));
            return;
        }
        self.walks += 1;
        self.metrics[core].dram_accesses += 1;
        if is_write {
            // A queued write forwards to reads of its line, so a read
            // parked on the full read queue may be accepted now.
            self.waits.wake_parked();
            self.free_req(rid); // writes complete silently
        }
        // Reads resolve via dram.tick → EV_RESPONSE.
    }

    fn count_demand_miss(&mut self, now: Cycle, rid: u32, lvl: u8, merged_onto_pf: bool) {
        let req = self.reqs[rid as usize];
        self.level_metrics(req.core, lvl).demand_misses += 1;
        self.prof.enter(Phase::Prefetcher);
        let pf_here = self.st.demand_miss(req.core, lvl, req.line);
        self.prof.exit();
        if pf_here {
            self.classify(req.core, |c| c.demand_miss(req.line, now, merged_onto_pf));
        }
    }

    /// Shows a demand access to the prefetcher at its level: the Fig. 6
    /// shadow always sees it, the prefetcher trains if it is on-access.
    fn observe_demand(&mut self, now: Cycle, r: &Req, lk: &Lookup) {
        let free = || self.mshr_free(r.core);
        let ev = self
            .st
            .access_event(r.core, r.cur_level, r.ip, r.line, now, lk, free);
        if let Some(ev) = ev {
            self.classify(r.core, |c| c.shadow_access(&ev));
            self.train_and_inject(now, r.core, &ev, false);
        }
    }

    fn train_and_inject(&mut self, now: Cycle, core: CoreId, ev: &AccessEvent, on_commit: bool) {
        self.prof.enter(Phase::Prefetcher);
        let n = self.st.train(core, ev, on_commit);
        self.prof.exit();
        // Index-copy: `inject_prefetch` needs `&mut self` but never touches
        // the scratch buffer.
        for i in 0..n {
            let pf = self.st.pf_scratch[i];
            self.inject_prefetch(now, core, pf);
        }
    }

    fn inject_prefetch(&mut self, now: Cycle, core: CoreId, pf: PrefetchRequest) {
        self.metrics[core].prefetch.proposed += 1;
        self.classify(core, |c| c.actual_issue(pf.line, now));
        // Prefetch-queue depth: a full PQ drops further proposals.
        let room = self.pf_outstanding[core] < PF_QUEUE_DEPTH;
        match self.st.admit_prefetch(core, &pf, room) {
            Admit::Duplicate => self.metrics[core].prefetch.dropped_duplicate += 1,
            Admit::QueueFull => self.metrics[core].prefetch.dropped_resources += 1,
            Admit::At(origin) => {
                self.pf_outstanding[core] += 1;
                let mut req = Self::blank_req(core, pf.line, pf.trigger_ip, ReqKind::Prefetch, now);
                req.cur_level = origin;
                let rid = self.alloc_req(req);
                self.schedule(now, rid, EV_ACCESS);
            }
        }
    }

    /// L1D-level fill as seen by L1 prefetchers and the shadow: commit
    /// writes and re-fetch fills (`commit_path`) or access-path fills.
    fn pf_fill_event(
        &mut self,
        core: CoreId,
        commit_path: bool,
        line: LineAddr,
        ip: Ip,
        at: Cycle,
        latency: u32,
    ) {
        self.prof.enter(Phase::Prefetcher);
        let ev = self.st.fill_event(core, commit_path, line, ip, at, latency);
        self.prof.exit();
        if let (Some(ev), false) = (ev, commit_path) {
            self.classify(core, |c| c.shadow_fill(&ev));
        }
    }

    /// Installs a line and enacts what the policy decided for the victim:
    /// writebacks become requests that reach the next level a cycle on.
    fn fill_cache(&mut self, now: Cycle, core: CoreId, lvl: u8, line: LineAddr, attrs: FillAttrs) {
        let Some(ev) = self.st.fill(core, lvl, line, attrs) else {
            return;
        };
        if ev.useless {
            self.metrics[core].prefetch.useless += 1;
            self.obs_ev(now, core, EventKind::PrefetchUseless, ev.line, 0);
            self.tel.pf_useless(core, ev.line.raw(), now);
        }
        match ev.then {
            AfterEvict::Nothing => {}
            AfterEvict::Writeback { kind, wb } => {
                if kind == ReqKind::CleanProp {
                    // GhostMinion clean-line commit propagation.
                    self.metrics[core].commit.propagations += 1;
                    self.obs_ev(now, core, EventKind::CleanProp, ev.line, lvl as u32);
                }
                let mut req = Self::blank_req(core, ev.line, Ip::new(0), kind, now);
                req.cur_level = lvl + 1;
                req.wb = wb;
                let rid = self.alloc_req(req);
                self.schedule(now + 1, rid, EV_ACCESS);
            }
            AfterEvict::SufSkip => {
                // SUF skipped a propagation: score its accuracy.
                let present =
                    (lvl + 1..3).any(|l| self.st.caches.at(core, l).probe(ev.line).is_some());
                let m = &mut self.metrics[core].commit;
                m.propagation_skipped += 1;
                if present {
                    m.propagation_skip_correct += 1;
                } else {
                    m.propagation_skip_wrong += 1;
                }
                self.obs_ev(
                    now,
                    core,
                    EventKind::PropagationSkip,
                    ev.line,
                    present as u32,
                );
            }
        }
    }

    /// Data became available for `rid` (probe hit deeper in the hierarchy
    /// or DRAM completion): unwind the MSHR path, fill caches per policy,
    /// wake waiters, and deliver the completion.
    fn on_response(&mut self, now: Cycle, rid: u32) {
        self.walks += 1;
        let req = self.reqs[rid as usize];
        let core = req.core;
        let latency = (now - req.issued_at) as u32;
        // Unwind allocated MSHRs from deepest to shallowest.
        for lvl in (0..3u8).rev() {
            let Some(token) = req.path[lvl as usize] else {
                continue;
            };
            let level = self.timing.at(core, lvl);
            if level.mshr.is_full() {
                self.waits.wake_parked();
                for prefetch in [false, true] {
                    self.verdicts[Gate::new(core, lvl, prefetch, true).index()] = ASK;
                }
            }
            let allocated_at = level.mshr.complete(token).alloc_cycle;
            let mut waiters = match level.waiting.iter().position(|(t, _)| *t == token) {
                Some(i) => level.waiting.swap_remove(i).1,
                None => Vec::new(),
            };
            self.tel
                .mshr_complete(core, lvl as usize, now - allocated_at);
            let attrs = policy::fill_attrs(req.kind, self.st.pol[core].sec, lvl, req.wb, latency);
            if let Some(attrs) = attrs {
                self.fill_cache(now, core, lvl, req.line, attrs);
            }
            for &w in &waiters {
                self.reqs[w as usize].hit_level = req.hit_level;
                self.schedule(now, w, EV_RESPONSE);
            }
            if waiters.capacity() > 0 && self.waiter_pool.len() < 64 {
                waiters.clear();
                self.waiter_pool.push(waiters);
            }
        }
        self.finish_request(now, rid, latency);
    }

    fn finish_request(&mut self, now: Cycle, rid: u32, latency: u32) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        let missed_l1 = req.hit_level != HitLevel::L1d;
        match req.kind {
            ReqKind::Load => {
                if missed_l1 {
                    // Speculative fill into the GM, timestamped with the
                    // oldest waiting instruction.
                    self.prof.enter(Phase::Gm);
                    let filled = self.st.spec_fill(core, req.line, req.ts, latency);
                    self.prof.exit();
                    if filled.is_some() {
                        self.obs_ev(now, core, EventKind::GmSpecFill, req.line, latency);
                        let occ = self.st.gm[core].occupancy() as u64;
                        self.tel.gm_fill(core, occ);
                    }
                    let m = &mut self.metrics[core].l1d;
                    m.miss_latency_sum += latency as u64;
                    m.miss_latency_count += 1;
                    // Access-path fill event (real latency) for on-access
                    // prefetchers and the shadow.
                    self.pf_fill_event(core, false, req.line, req.ip, now, latency);
                }
                if !req.wrong_path {
                    let fill = FillInfo {
                        line: req.line,
                        hit_level: req.hit_level,
                        issued_at: req.issued_at,
                        filled_at: now,
                        merged_with_prefetch: req.merged_prefetch,
                        hit_prefetched_line: req.hit_prefetched,
                        fetch_latency: policy::xlq_latency(
                            req.hit_level,
                            req.hit_prefetched,
                            req.hit_pf_latency,
                            latency,
                        ),
                    };
                    self.completions.push((core, req.lq, req.gen, fill));
                }
            }
            // On-commit L1 prefetchers observe the re-fetch fill with
            // its (real, long) latency.
            ReqKind::Refetch if missed_l1 => {
                self.pf_fill_event(core, true, req.line, req.ip, now, latency);
            }
            ReqKind::Prefetch => {
                self.obs_ev(now, core, EventKind::PrefetchFill, req.line, latency);
                // Starts the fill-to-first-demand-use clock of the
                // timeliness histograms.
                self.tel.pf_fill(core, req.line.raw(), now);
            }
            _ => {}
        }
        if req.tel_counted {
            let level = if req.served_by_gm {
                LoadLevel::Gm
            } else {
                match req.hit_level {
                    HitLevel::L1d => LoadLevel::L1d,
                    HitLevel::L2 => LoadLevel::L2,
                    HitLevel::Llc => LoadLevel::Llc,
                    HitLevel::Dram => LoadLevel::Dram,
                }
            };
            self.tel.load_complete(core, level, latency as u64);
        }
        self.free_req(rid);
    }

    /// Commit-path processing of a retired load (GhostMinion Section II-C,
    /// SUF Section IV, on-commit prefetcher training Section V).
    pub fn commit_load(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        ts: u64,
        fill: &FillInfo,
    ) {
        // The whole commit engine (GM lookup, SUF decision, GM removal
        // and expiry, action dispatch) is GhostMinion work.
        self.prof.enter(Phase::Gm);
        match self.st.commit(core, line, ts, now, fill.hit_level, None) {
            None => {}
            Some(Commit::Drop { gm_hit }) => {
                let present = gm_hit || self.st.caches.at(core, 0).probe(line).is_some();
                let m = &mut self.metrics[core].commit;
                m.suf_dropped += 1;
                if present {
                    m.suf_drop_correct += 1;
                } else {
                    m.suf_drop_wrong += 1;
                }
                self.obs_ev(now, core, EventKind::SufDrop, line, present as u32);
            }
            Some(Commit::Update { kind, wb }) => {
                let m = &mut self.metrics[core].commit;
                let event = if kind == ReqKind::CommitWrite {
                    m.commit_writes += 1;
                    EventKind::CommitWrite
                } else {
                    m.refetches += 1;
                    EventKind::Refetch
                };
                self.obs_ev(now, core, event, line, 0);
                let mut req = Self::blank_req(core, line, ip, kind, now);
                req.ts = ts;
                req.wb = wb;
                let rid = self.alloc_req(req);
                self.schedule(now, rid, EV_ACCESS);
            }
        }
        self.prof.exit();
        // On-commit prefetcher training/triggering.
        let free = || self.mshr_free(core);
        if let Some(ev) = self.st.commit_event(core, ip, line, now, fill, free) {
            self.train_and_inject(now, core, &ev, true);
        }
    }

    /// Commit-path processing of a retired store (non-speculative write).
    pub fn commit_store(&mut self, now: Cycle, core: CoreId, ip: Ip, line: LineAddr, ts: u64) {
        self.issue_store(now, core, ip, line, ts);
    }

    /// Finishes classification, folding pending entries into the metrics.
    pub fn finalize(&mut self) {
        for core in 0..self.cfg.cores {
            if let Some(c) = self.classifiers[core].take() {
                self.metrics[core].class = c.finish();
            }
        }
    }

    /// Resets one core's metrics at its warm-up boundary.
    pub fn reset_core_metrics(&mut self, core: CoreId) {
        self.metrics[core] = CoreMetrics::default();
    }

    /// Replaces one core's commit-path update filter (ablation studies).
    pub fn set_filter(&mut self, core: CoreId, filter: Box<dyn UpdateFilter>) {
        self.st.filters[core] = filter;
    }

    /// Sets a core's prefetcher timeliness knob (ablation studies).
    pub fn set_timeliness_knob(&mut self, core: CoreId, k: u32) {
        self.st.prefetchers[core].set_timeliness_knob(k);
    }

    /// DRAM statistics (shared).
    pub fn dram_stats(&self) -> secpref_mem::dram::DramStats {
        self.dram.stats()
    }

    /// Debug snapshot: (queued events incl. listed waiters, live requests,
    /// L1 MSHR occupancy, L1 inflight count) — used by the livelock
    /// watchdog.
    pub fn debug_state(&self, core: CoreId) -> (usize, usize, usize, usize) {
        (
            self.events.len() + self.waits.len(),
            self.live_requests(),
            self.timing.l1d[core].mshr.occupancy(),
            self.l1_inflight[core],
        )
    }

    /// Probes whether `line` is resident in the given level of `core`'s
    /// hierarchy without disturbing any state (used by security tests:
    /// "did the transient load leave a footprint?").
    pub fn probe_line(&self, core: CoreId, level: CacheLevel, line: LineAddr) -> bool {
        self.st.resident(core, level, line)
    }

    /// Probes the GM (timing-unaware residence check for tests).
    pub fn probe_gm(&self, core: CoreId, line: LineAddr) -> bool {
        self.st.gm[core].lookup(line, u64::MAX).is_some()
    }

    /// In-flight classifier counts (debug/tests).
    pub fn classification(&self, core: CoreId) -> Option<crate::metrics::MissClassCounts> {
        self.classifiers[core].as_ref().map(|c| c.counts())
    }

    /// How much event handling the detailed driver has done so far.
    pub fn driver_counts(&self) -> DriverCounts {
        DriverCounts {
            walks: self.walks,
            ticked_cycles: self.ticks,
            wait_high_water: self.waits.high_water(),
            blocked_req_reads: self.blocked_reads,
            lq_slots_examined: 0,
        }
    }

    /// Live (allocated, un-freed) requests. The sampling scheduler
    /// drains this to zero before switching to functional warming.
    pub fn live_requests(&self) -> usize {
        self.reqs.len() - self.free.len()
    }

    // =================================================================
    // The instant driver (SMARTS functional warming, DESIGN.md §14)
    // =================================================================
    //
    // Same policy calls as the detailed driver above, with time collapsed:
    // every access completes on the spot at the nominal uncontended
    // latency of the level that supplied it, and a load commits the
    // instant it issues. Everything in `MemState` stays warm; no request,
    // event, MSHR, port or DRAM state is allocated and *no metrics
    // counter is ever touched* (sampled reports accumulate measured
    // windows only; audited by `secpref-check`). The Fig. 6 classifier
    // shadow is not fed: it is instrumentation, not warmth-bearing state.

    /// Nominal uncontended latency of a fetch served by `hl`.
    fn functional_latency(&self, core: CoreId, hl: HitLevel) -> u32 {
        let mut lat = self.timing.l1d[core].latency;
        if hl >= HitLevel::L2 {
            lat += self.timing.l2[core].latency;
        }
        if hl >= HitLevel::Llc {
            lat += self.timing.llc.latency;
        }
        if hl == HitLevel::Dram {
            lat += FUNC_DRAM_LATENCY;
        }
        lat as u32
    }

    /// Functionally retires one load: issue, speculative fill and commit
    /// at one instant.
    pub fn functional_load(&mut self, now: Cycle, core: CoreId, ip: Ip, addr: Addr, ts: u64) {
        self.now = now;
        let _ = self.st.translate(core, addr); // dTLB/STLB stay warm
        let line = addr.line();
        let (hit_level, lk, mut gm_visible) = self.instant_walk(
            core,
            ReqKind::Load,
            0,
            line,
            ts,
            WbBits::ALL,
            |h, lvl, lk| h.instant_observe(now, core, lvl, ip, line, lk),
        );
        let latency = self.functional_latency(core, hit_level);
        if hit_level != HitLevel::L1d {
            // Functional retirement is in strict `ts` order, so what the
            // speculative fill leaves in the GM is what commit will see
            // there: no second GM scan before the commit decision.
            if let Some(outcome) = self.st.spec_fill(core, line, ts, latency) {
                gm_visible = outcome != GmInsertOutcome::Dropped;
            }
            self.st.fill_event(core, false, line, ip, now, latency);
        }
        let commit = self
            .st
            .commit(core, line, ts, now, hit_level, Some(gm_visible));
        match commit {
            None | Some(Commit::Drop { .. }) => {}
            Some(Commit::Update { kind, wb }) if kind == ReqKind::CommitWrite => {
                let attrs = policy::fill_attrs(kind, true, 0, wb, 0);
                self.instant_fill(core, 0, line, attrs.expect("installs always fill"));
                self.st.fill_event(core, true, line, ip, now + 1, 1);
            }
            Some(Commit::Update { kind, wb }) => {
                let (served_by, ..) = self.instant_walk(core, kind, 0, line, ts, wb, |_, _, _| {});
                if served_by != HitLevel::L1d {
                    let lat = self.functional_latency(core, served_by);
                    self.st.fill_event(core, true, line, ip, now, lat);
                }
            }
        }
        if self.st.trains(core, true) {
            let (hitp, pf_lat) = (lk.was_prefetched, lk.pf_latency);
            let fill = FillInfo {
                line,
                hit_level,
                issued_at: now,
                filled_at: now,
                merged_with_prefetch: false,
                hit_prefetched_line: hitp,
                fetch_latency: policy::xlq_latency(hit_level, hitp, pf_lat, latency),
            };
            let free = || self.mshr_free(core);
            if let Some(ev) = self.st.commit_event(core, ip, line, now, &fill, free) {
                self.instant_train(core, &ev, true);
            }
        }
    }

    /// Functionally retires one store (the non-speculative write walk;
    /// stores skip address translation in the detailed model too).
    pub fn functional_store(&mut self, now: Cycle, core: CoreId, ip: Ip, addr: Addr, ts: u64) {
        self.now = now;
        let line = addr.line();
        self.instant_walk(
            core,
            ReqKind::Store,
            0,
            line,
            ts,
            WbBits::ALL,
            |h, lvl, lk| h.instant_observe(now, core, lvl, ip, line, lk),
        );
    }

    /// Walks one `kind` request from `origin` to the level that has the
    /// line and fills the levels that missed, deepest first (the response
    /// unwind) — the detailed driver's `access_cache_level` +
    /// `on_response`, minus everything that takes time. `at_level` is
    /// what the requester does with each level's lookup: demands show it
    /// to the prefetcher ([`Hierarchy::instant_observe`]), prefetches and
    /// re-fetches do nothing. Returns the serving level, the lookup that
    /// hit there, and whether the GM served it.
    #[allow(clippy::too_many_arguments)]
    fn instant_walk(
        &mut self,
        core: CoreId,
        kind: ReqKind,
        origin: u8,
        line: LineAddr,
        ts: u64,
        wb: WbBits,
        mut at_level: impl FnMut(&mut Self, u8, &Lookup),
    ) -> (HitLevel, Lookup, bool) {
        let mut lvl = origin;
        let (lk, gm_hit) = loop {
            let gm_hit =
                self.st.probes_gm(core, lvl, kind) && self.st.gm[core].lookup(line, ts).is_some();
            let lk = if gm_hit {
                Lookup::GM_HIT
            } else {
                self.st.lookup(core, lvl, kind, line)
            };
            at_level(self, lvl, &lk);
            if lk.hit {
                break (lk, gm_hit);
            }
            lvl += 1;
            if lvl == 3 {
                break (lk, false); // DRAM serves it
            }
        };
        let hit_level = HitLevel::decode(lvl);
        if lvl > origin {
            let latency = self.functional_latency(core, hit_level);
            for lvl in (origin..lvl).rev() {
                if let Some(attrs) =
                    policy::fill_attrs(kind, self.st.pol[core].sec, lvl, wb, latency)
                {
                    self.instant_fill(core, lvl, line, attrs);
                }
            }
        }
        (hit_level, lk, gm_hit)
    }

    /// A demand's business at each level of its walk: show the lookup to
    /// the prefetcher there, then report the miss if it was one.
    fn instant_observe(
        &mut self,
        now: Cycle,
        core: CoreId,
        lvl: u8,
        ip: Ip,
        line: LineAddr,
        lk: &Lookup,
    ) {
        // No shadow to feed here, so an event nobody trains on is not built.
        if self.st.trains(core, false) {
            let free = || self.mshr_free(core);
            if let Some(ev) = self.st.access_event(core, lvl, ip, line, now, lk, free) {
                self.instant_train(core, &ev, false);
            }
        }
        if !lk.hit {
            self.st.demand_miss(core, lvl, line);
        }
    }

    /// Trains on `ev` and completes every accepted candidate on the spot.
    /// Nothing is outstanding while warming, so the prefetch queue always
    /// has room.
    fn instant_train(&mut self, core: CoreId, ev: &AccessEvent, on_commit: bool) {
        for i in 0..self.st.train(core, ev, on_commit) {
            let pf = self.st.pf_scratch[i];
            if let Admit::At(origin) = self.st.admit_prefetch(core, &pf, true) {
                self.instant_walk(
                    core,
                    ReqKind::Prefetch,
                    origin,
                    pf.line,
                    0,
                    WbBits::ALL,
                    |_, _, _| {},
                );
            }
        }
    }

    /// Installs a line with the eviction cascade collapsed: each victim
    /// the policy sends down lands in the next level at once (an LLC
    /// victim's DRAM write leaves no cache state behind).
    fn instant_fill(
        &mut self,
        core: CoreId,
        mut lvl: u8,
        mut line: LineAddr,
        mut attrs: FillAttrs,
    ) {
        while let Some(ev) = self.st.fill(core, lvl, line, attrs) {
            let AfterEvict::Writeback { kind, wb } = ev.then else {
                return;
            };
            if lvl == 2 {
                return;
            }
            lvl += 1;
            line = ev.line;
            attrs = policy::fill_attrs(kind, true, lvl, wb, 0).expect("installs always fill");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_ghostminion::AlwaysUpdate;
    use secpref_obs::ObsConfig;
    use secpref_prefetch::NullPrefetcher;

    const NOW: Cycle = 7;

    /// `walk_waiters` without its table — the gate applied entry by
    /// entry, nothing ever settled for the next waiter — kept as the
    /// reference the table is checked against.
    fn walk_entry_by_entry(h: &mut Hierarchy) {
        while let Some(w) = h.waits.pop_cur() {
            h.verdicts.fill(ASK);
            match w.gate() {
                Some(gate) => {
                    if h.admit(NOW, w.rid, Some(gate)) {
                        h.access_level(NOW, w.rid);
                    }
                }
                None => h.dispatch(NOW, w.rid, w.kind()),
            }
        }
        assert!(
            h.denials.iter().all(|&n| n == 0),
            "nothing came from the table"
        );
    }

    /// A two-core hierarchy one cycle before a crowded walk: core 0's
    /// L1D and core 1's L2 MSHR files full and the DRAM read queue full;
    /// in the list, in mixed order, waiters parked at those two levels,
    /// port waiters of both priorities at four levels of both cores, the
    /// response that frees one of core 0's L1D MSHRs half-way, and a
    /// DRAM-parked read.
    fn crowded(obs: bool) -> Hierarchy {
        let mut cfg = SystemConfig::baseline(2);
        cfg.dram.queue_depth = 2;
        let boxed = |_| Box::new(NullPrefetcher) as Box<dyn Prefetcher>;
        let mut h = Hierarchy::new(
            cfg,
            (0..2).map(boxed).collect(),
            (0..2).map(|_| Box::new(AlwaysUpdate) as _).collect(),
            vec![None, None],
        );
        if obs {
            let on = ObsConfig {
                enabled: true,
                ..ObsConfig::default()
            };
            h.set_obs(Obs::new(&on, 2));
            h.arm_obs(0);
            h.arm_obs(1);
        }
        let mut line = 0x4_0000u64;
        let mut fresh = || {
            line += 97;
            LineAddr::new(line)
        };
        let mut tokens = Vec::new();
        for (level, ts) in [(&mut h.timing.l1d[0], 1), (&mut h.timing.l2[1], 2)] {
            while !level.mshr.is_full() {
                tokens.push(level.mshr.alloc(fresh(), false, 0, ts).expect("room"));
            }
        }
        for token in 0..2 {
            let read = DramRequest {
                line: fresh(),
                is_write: false,
                token,
                arrival: 0,
            };
            h.dram.enqueue(read).expect("room");
        }
        // (core, level, kind, parked on the MSHR file)
        let demand = ReqKind::Load;
        let pf = ReqKind::Prefetch;
        let response = ReqKind::Store; // stands for the response below
        let list = [
            (0, 0, demand, true),
            (0, 0, demand, true),
            (0, 0, demand, false), // port 1 of 2, then finds the file full
            (0, 0, response, false),
            (0, 0, demand, true), // the file has room: port 2 of 2
            (0, 0, demand, true), // and is full again
            (0, 0, pf, true),
            (1, 1, demand, true),
            (0, 0, demand, false),
            (0, 2, demand, false),
            (0, 0, pf, false),
            (1, 0, demand, false),
            (0, 0, demand, false),
            (1, 1, demand, true),
            (1, 2, demand, false),
            (0, 3, demand, false), // DRAM read queue full
            (0, 0, pf, false),
            (1, 1, demand, false),
            (1, 0, demand, false),
            (0, 2, pf, false),
            (1, 1, pf, false),
            (0, 0, demand, true),
            (1, 2, demand, false),
            (1, 1, demand, false),
            (1, 0, demand, false),
            (1, 1, demand, false),
            (0, 2, demand, false),
            (1, 2, pf, false),
            (0, 0, demand, false),
        ];
        for (core, lvl, kind, parked) in list {
            let mut req = Hierarchy::blank_req(core, fresh(), Ip::new(0x40), kind, 0);
            req.cur_level = lvl;
            if kind == response {
                req.kind = ReqKind::Load;
                req.wrong_path = true;
                req.cur_level = 1;
                req.hit_level = HitLevel::L2;
                req.path[0] = Some(tokens[3]);
                let rid = h.alloc_req(req);
                h.waits.push_next(Waiter::event(rid, EV_RESPONSE));
                continue;
            }
            let gate = Hierarchy::gate_of(&req, parked);
            let rid = h.alloc_req(req);
            match (lvl, parked) {
                (3, _) => h.waits.park(Waiter::event(rid, EV_ACCESS)),
                (_, true) => h.waits.park(Waiter::blocked(rid, gate)),
                (_, false) => h.waits.push_next(Waiter::blocked(rid, gate)),
            }
        }
        h.now = NOW;
        h.ticking = true;
        h.waits.begin_cycle();
        h
    }

    /// Everything a walk may leave behind.
    fn aftermath(h: &mut Hierarchy) -> String {
        let rejected: Vec<u64> = [&h.timing.l1d[0], &h.timing.l1d[1]]
            .into_iter()
            .chain([&h.timing.l2[0], &h.timing.l2[1], &h.timing.llc])
            .map(|level| level.ports.total_rejected())
            .collect();
        let events = h.take_obs_capture().map(|cap| cap.events);
        format!(
            "{:?}\n{rejected:?}\n{:?}\n{:?}\n{events:?}\n{:?}\n{}",
            h.waits,
            h.metrics,
            h.reqs,
            h.driver_counts(),
            h.events.len()
        )
    }

    #[test]
    fn table_walk_equals_the_gate_applied_entry_by_entry() {
        for obs in [false, true] {
            let (mut fast, mut slow) = (crowded(obs), crowded(obs));
            fast.walk_waiters(NOW);
            walk_entry_by_entry(&mut slow);
            // Anti-vacuity: the scene is what `crowded` says it is.
            let m = &fast.metrics;
            let denials = |c: usize| {
                [
                    m[c].l1d.port_stalls,
                    m[c].l2.port_stalls,
                    m[c].llc.port_stalls,
                ]
            };
            assert_eq!((denials(0), denials(1)), ([5, 0, 1], [1, 2, 1]));
            assert_eq!(
                (m[0].l1d.mshr_full_stalls, m[1].l2.mshr_full_stalls),
                (1, 2)
            );
            // One record read for the DRAM refusal; under obs one more
            // per denial, for the event's line.
            assert_eq!(fast.driver_counts().blocked_req_reads, 1 + 10 * obs as u64);
            assert_eq!(aftermath(&mut fast), aftermath(&mut slow), "obs {obs}");
        }
    }
}
