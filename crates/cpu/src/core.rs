//! The out-of-order core: dispatch, load issue, branch resolution with
//! squash, and in-order retirement.

use crate::predictor::PerceptronPredictor;
use secpref_trace::{InstrKind, Trace};
use secpref_tracestore::TraceFeed;
use secpref_types::{config::CoreConfig, Addr, CoreId, Cycle, FillInfo, Ip};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A load request presented to the memory system.
#[derive(Clone, Copy, Debug)]
pub struct LoadIssue {
    /// Issuing core.
    pub core: CoreId,
    /// Load-queue slot (use [`LoadIssue::WRONG_PATH`] for transient
    /// wrong-path loads that expect no completion).
    pub lq_id: u32,
    /// Generation counter guarding against completions for squashed slots.
    pub gen: u32,
    /// Byte address.
    pub addr: Addr,
    /// Load instruction pointer.
    pub ip: Ip,
    /// GhostMinion strictness-ordering timestamp of the instruction.
    pub ts: u64,
    /// True for a transient wrong-path load (Spectre gadget accesses).
    pub wrong_path: bool,
}

impl LoadIssue {
    /// Sentinel `lq_id` for wrong-path loads.
    pub const WRONG_PATH: u32 = u32::MAX;
}

/// Memory interface the core issues loads through; implemented by the
/// full-system simulator over the cache hierarchy.
pub trait LoadPort {
    /// Attempts to issue a load at `now`; returning `false` makes the core
    /// retry on a later cycle (L1D ports or MSHRs exhausted).
    fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool;
}

/// Memory interface for SMARTS-style functional warming: the core retires
/// instructions architecturally (no ROB, no load queue, no cycle
/// accounting) and reports each memory access so the hierarchy can keep
/// caches, GhostMinion, SUF filters, and prefetcher training state warm.
pub trait FunctionalPort {
    /// A load retired on the functional fast path.
    fn functional_load(&mut self, core: CoreId, ip: Ip, addr: Addr, ts: u64);
    /// A store retired on the functional fast path.
    fn functional_store(&mut self, core: CoreId, ip: Ip, addr: Addr, ts: u64);
}

/// Notification produced by the retire stage.
#[derive(Clone, Copy, Debug)]
pub enum CoreEvent {
    /// A load committed. Drives the GhostMinion commit engine (on-commit
    /// write / re-fetch, SUF filtering) and on-commit prefetcher training.
    RetiredLoad {
        /// Load IP.
        ip: Ip,
        /// Accessed byte address.
        addr: Addr,
        /// Strictness-ordering timestamp.
        ts: u64,
        /// What the speculative access observed (hit level, latencies).
        fill: FillInfo,
    },
    /// A store committed; the simulator performs the non-speculative write.
    RetiredStore {
        /// Store IP.
        ip: Ip,
        /// Accessed byte address.
        addr: Addr,
        /// Strictness-ordering timestamp.
        ts: u64,
    },
}

/// Aggregate core statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Instructions dispatched (includes squashed work).
    pub dispatched: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Instructions squashed by mispredictions.
    pub squashed: u64,
    /// Wrong-path (transient) loads injected into the memory system.
    pub wrong_path_loads: u64,
    /// Load-issue attempts rejected by the memory system (backpressure).
    pub issue_rejects: u64,
}

#[derive(Clone, Copy, Debug)]
enum RobKind {
    Alu,
    Store { addr: Addr },
    Load,
    Branch { resolved: bool },
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    trace_idx: u32,
    ts: u64,
    ip: Ip,
    kind: RobKind,
    ready_at: Cycle,
    lq_id: u32,
}

/// One load-queue slot. Whether the load still waits to be issued, when
/// it becomes ready and which producer it waits for are not here: the
/// issue scan reads them from `Core::lq_unissued`, `Core::lq_held` and
/// the dense arrays beside them.
#[derive(Clone, Copy, Debug)]
struct LqEntry {
    in_use: bool,
    gen: u32,
    addr: Addr,
    ip: Ip,
    ts: u64,
    trace_idx: u32,
    fill: Option<FillInfo>,
}

impl LqEntry {
    const EMPTY: LqEntry = LqEntry {
        in_use: false,
        gen: 0,
        addr: Addr::new(0),
        ip: Ip::new(0),
        ts: 0,
        trace_idx: 0,
        fill: None,
    };
}

/// The set bits of word `w` of a load-queue bitmap as slot numbers,
/// ascending.
fn slots(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(slot)
    })
}

/// Sentinel for "load not (yet) completed" in the per-trace completion
/// time table.
const NOT_DONE: Cycle = Cycle::MAX;

/// One branch-resolve heap entry:
/// `(resolve_at, ts, ip_raw, trace_idx, taken | predicted << 1)`.
/// Metadata lives inline (ts is unique per dispatch, so the trailing
/// fields never influence the ordering); a squashed branch is detected
/// at resolve by its ts no longer being in the ROB.
type ResolveEntry = (Cycle, u64, u64, u32, u8);

/// The trace-driven out-of-order core.
///
/// Drive it by calling [`Core::tick`] once per cycle with the memory
/// system, then deliver completions via [`Core::complete_load`].
///
/// # Examples
///
/// ```
/// use secpref_cpu::{Core, LoadPort, LoadIssue};
/// use secpref_trace::{Instr, Trace};
/// use secpref_types::{config::CoreConfig, Cycle, FillInfo, HitLevel};
/// use std::sync::Arc;
///
/// // A memory that answers every load instantly from "L1D".
/// struct InstantMem(Vec<(u32, u32, Cycle)>);
/// impl LoadPort for InstantMem {
///     fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
///         self.0.push((req.lq_id, req.gen, now));
///         true
///     }
/// }
///
/// let trace = Arc::new(Trace::new("t", vec![Instr::load(1, 64), Instr::alu(2)]));
/// let mut core = Core::new(0, CoreConfig::default(), trace);
/// let mut mem = InstantMem(Vec::new());
/// let mut events = Vec::new();
/// for now in 0..100 {
///     core.tick(now, &mut mem, &mut events);
///     for (lq, gen, at) in mem.0.drain(..) {
///         core.complete_load(lq, gen, FillInfo {
///             line: secpref_types::LineAddr::new(1),
///             hit_level: HitLevel::L1d,
///             issued_at: at,
///             filled_at: at + 5,
///             merged_with_prefetch: false,
///             hit_prefetched_line: false,
///             fetch_latency: 5,
///         });
///     }
///     if core.is_done() { break; }
/// }
/// assert!(core.is_done());
/// assert_eq!(core.stats().retired, 2);
/// ```
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    feed: TraceFeed,
    cursor: usize,
    rob: VecDeque<RobEntry>,
    lq: Vec<LqEntry>,
    lq_free: Vec<u32>,
    predictor: PerceptronPredictor,
    resolve_heap: BinaryHeap<Reverse<ResolveEntry>>,
    dispatch_stall_until: Cycle,
    /// One bit per load-queue slot, set from dispatch until the memory
    /// system accepts the load. Issue priority is ascending slot index,
    /// so `issue_loads` and `next_wake` walk set bits in that order and
    /// never look at a slot that is free or already issued.
    lq_unissued: Vec<u64>,
    /// The un-issued loads whose producer has not completed: the scans
    /// pass them over, [`Core::complete_load`] of the producer releases
    /// them.
    lq_held: Vec<u64>,
    /// By slot, for the un-issued loads not held: the first cycle the
    /// load may issue (its own readiness and its producer's completion).
    lq_ready_at: Vec<Cycle>,
    /// By slot, for the held loads: the producer's `load_done_at` index.
    lq_dep: Vec<u32>,
    /// Load-queue slots the scans have examined (a host-side work count,
    /// not a statistic; survives [`Core::replay`]).
    lq_examined: u64,
    next_ts: u64,
    /// Load completion times by trace index, a power-of-two ring indexed
    /// by `trace_idx & done_mask` and sized past `rob_entries` + the
    /// feed's largest `dep_dist`: a slot is rewritten to `NOT_DONE` at
    /// dispatch before any dependent can read it, and the span of live
    /// indices (ROB contents plus the furthest producer they name) never
    /// exceeds the ring length.
    load_done_at: Vec<Cycle>,
    done_mask: usize,
    stats: CoreStats,
}

impl Core {
    /// Creates a core over an in-memory `trace` with the given
    /// configuration.
    pub fn new(id: CoreId, cfg: CoreConfig, trace: Arc<Trace>) -> Self {
        Self::from_feed(id, cfg, TraceFeed::Mem(trace))
    }

    /// Creates a core over any [`TraceFeed`] (in-memory or streamed).
    pub fn from_feed(id: CoreId, cfg: CoreConfig, feed: TraceFeed) -> Self {
        let lq_n = cfg.lq_entries;
        let done_len = (cfg.rob_entries + feed.max_dep_dist() + 64).next_power_of_two();
        Core {
            id,
            cfg,
            feed,
            cursor: 0,
            rob: VecDeque::with_capacity(512),
            lq: vec![LqEntry::EMPTY; lq_n],
            lq_free: (0..lq_n as u32).rev().collect(),
            predictor: PerceptronPredictor::new(),
            resolve_heap: BinaryHeap::new(),
            dispatch_stall_until: 0,
            lq_unissued: vec![0; lq_n.div_ceil(64)],
            lq_held: vec![0; lq_n.div_ceil(64)],
            lq_ready_at: vec![0; lq_n],
            lq_dep: vec![0; lq_n],
            lq_examined: 0,
            next_ts: 1,
            load_done_at: vec![NOT_DONE; done_len],
            done_mask: done_len - 1,
            stats: CoreStats::default(),
        }
    }

    /// Resets the core to a fresh state over the same feed (stream
    /// cursors rewound), discarding all statistics. Used between the
    /// warmup and measurement phases of a simulation run.
    ///
    /// The result is the core [`Core::from_feed`] would build, without
    /// its pass over the trace (the completion ring keeps its length)
    /// and without its allocations.
    pub fn replay(&mut self) {
        self.feed.rewind();
        self.cursor = 0;
        self.rob.clear();
        self.lq.fill(LqEntry::EMPTY);
        self.lq_free.clear();
        self.lq_free.extend((0..self.lq.len() as u32).rev());
        self.lq_unissued.fill(0);
        self.lq_held.fill(0);
        self.predictor = PerceptronPredictor::new();
        self.resolve_heap.clear();
        self.dispatch_stall_until = 0;
        self.next_ts = 1;
        self.load_done_at.fill(NOT_DONE);
        self.stats = CoreStats::default();
    }

    /// Residency instrumentation for streamed feeds (`None` for
    /// in-memory traces).
    pub fn feed_stats(&self) -> Option<Arc<secpref_tracestore::FeedStats>> {
        self.feed.stats()
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// True when the whole trace has been dispatched and retired.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.feed.len() && self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Current load-queue occupancy (for MSHR/LQ statistics).
    pub fn lq_occupancy(&self) -> usize {
        self.lq.len() - self.lq_free.len()
    }

    /// Load-queue slots the issue scan, [`Core::next_wake`] and the
    /// release of held loads have examined since the core was built —
    /// host-side work, counted so a test can bound it; no part of
    /// [`CoreStats`].
    pub fn lq_slots_examined(&self) -> u64 {
        self.lq_examined
    }

    fn is_unissued(&self, slot: usize) -> bool {
        self.lq_unissued[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Frees `lq_id` for a squashed or drained load of `trace_idx`.
    fn discard_load(&mut self, lq_id: u32, trace_idx: u32) {
        let slot = lq_id as usize;
        let lq = &mut self.lq[slot];
        lq.in_use = false;
        lq.gen = lq.gen.wrapping_add(1);
        lq.fill = None;
        self.lq_unissued[slot / 64] &= !(1 << (slot % 64));
        self.lq_held[slot / 64] &= !(1 << (slot % 64));
        self.lq_free.push(lq_id);
        // Its completion, if it landed, must not satisfy the
        // re-dispatched instance's dependents prematurely.
        self.load_done_at[trace_idx as usize & self.done_mask] = NOT_DONE;
    }

    /// Delivers a load completion from the memory system. Stale
    /// generations (squashed slots) are ignored.
    pub fn complete_load(&mut self, lq_id: u32, gen: u32, fill: FillInfo) {
        if lq_id == LoadIssue::WRONG_PATH {
            return;
        }
        let unissued = self.is_unissued(lq_id as usize);
        let e = &mut self.lq[lq_id as usize];
        if !e.in_use || e.gen != gen || unissued || e.fill.is_some() {
            return;
        }
        e.fill = Some(fill);
        let done = e.trace_idx as usize & self.done_mask;
        self.load_done_at[done] = fill.filled_at;
        // Release the loads held on this one: they may issue the cycle
        // after their producer's data arrived.
        for w in 0..self.lq_held.len() {
            for i in slots(w, self.lq_held[w]) {
                self.lq_examined += 1;
                if self.lq_dep[i] as usize == done {
                    self.lq_held[w] &= !(1 << (i % 64));
                    self.lq_ready_at[i] = self.lq_ready_at[i].max(fill.filled_at + 1);
                }
            }
        }
    }

    /// Advances the core by one cycle: retire → resolve branches →
    /// issue loads → dispatch. Retirement notifications are appended to
    /// `events`.
    pub fn tick(&mut self, now: Cycle, mem: &mut dyn LoadPort, events: &mut Vec<CoreEvent>) {
        self.retire(now, events);
        self.resolve_branches(now);
        self.issue_loads(now, mem);
        self.dispatch(now, mem);
    }

    /// Earliest cycle strictly after `now` at which [`Core::tick`] could
    /// do anything the caller cannot otherwise observe coming: retire
    /// the ROB head, resolve a branch, issue a (possibly backpressured)
    /// load, or dispatch. `Cycle::MAX` means the core is quiescent until
    /// an external event ([`Core::complete_load`]) arrives.
    ///
    /// Skipping to the returned cycle is *exact*, not just safe: a
    /// backpressured load keeps the wake at `now + 1` (it is retried —
    /// and counted as an issue reject — every cycle), and loads waiting
    /// on an unfinished producer report `MAX` because the completion
    /// that unblocks them is itself a wake source for the caller.
    pub fn next_wake(&mut self, now: Cycle) -> Cycle {
        let mut wake = Cycle::MAX;
        if let Some(head) = self.rob.front() {
            wake = match head.kind {
                RobKind::Alu | RobKind::Store { .. } => head.ready_at.max(now + 1),
                RobKind::Load if self.lq[head.lq_id as usize].fill.is_some() => now + 1,
                RobKind::Branch { resolved } if resolved => now + 1,
                // Unfilled load / unresolved branch: unblocked by
                // complete_load or the resolve_heap entry below.
                _ => Cycle::MAX,
            };
        }
        if wake == now + 1 {
            return wake;
        }
        if let Some(&Reverse((at, ..))) = self.resolve_heap.peek() {
            wake = wake.min(at.max(now + 1));
        }
        // Held loads wake via the producer's completion.
        for w in 0..self.lq_unissued.len() {
            for i in slots(w, self.lq_unissued[w] & !self.lq_held[w]) {
                self.lq_examined += 1;
                wake = wake.min(self.lq_ready_at[i].max(now + 1));
                if wake == now + 1 {
                    return wake;
                }
            }
        }
        if self.cursor < self.feed.len() && self.rob.len() < self.cfg.rob_entries {
            let lq_blocked = self.lq_free.is_empty()
                && matches!(self.feed.get(self.cursor).kind, InstrKind::Load { .. });
            if !lq_blocked {
                // ROB-full / LQ-full stalls clear on a retirement, which
                // the head-of-ROB term above already tracks.
                wake = wake.min(self.dispatch_stall_until.max(now + 1));
            }
        }
        wake
    }

    fn retire(&mut self, now: Cycle, events: &mut Vec<CoreEvent>) {
        for _ in 0..self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            let done = match head.kind {
                RobKind::Alu | RobKind::Store { .. } => head.ready_at <= now,
                RobKind::Load => self.lq[head.lq_id as usize].fill.is_some(),
                RobKind::Branch { resolved, .. } => resolved,
            };
            if !done {
                break;
            }
            let head = self.rob.pop_front().expect("head exists");
            self.stats.retired += 1;
            match head.kind {
                RobKind::Load => {
                    let e = &mut self.lq[head.lq_id as usize];
                    let fill = e.fill.expect("retiring load completed");
                    events.push(CoreEvent::RetiredLoad {
                        ip: e.ip,
                        addr: e.addr,
                        ts: e.ts,
                        fill,
                    });
                    e.in_use = false;
                    e.gen = e.gen.wrapping_add(1);
                    self.lq_free.push(head.lq_id);
                }
                RobKind::Store { addr } => {
                    events.push(CoreEvent::RetiredStore {
                        ip: head.ip,
                        addr,
                        ts: head.ts,
                    });
                }
                RobKind::Branch { .. } => {
                    self.stats.branches += 1;
                }
                RobKind::Alu => {}
            }
        }
    }

    fn rob_position(&self, ts: u64) -> Option<usize> {
        // The ROB is sorted by ts; binary search.
        let mut lo = 0;
        let mut hi = self.rob.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.rob[mid].ts < ts {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.rob.len() && self.rob[lo].ts == ts).then_some(lo)
    }

    fn resolve_branches(&mut self, now: Cycle) {
        while let Some(&Reverse((at, ts, ip_raw, trace_idx, flags))) = self.resolve_heap.peek() {
            if at > now {
                break;
            }
            self.resolve_heap.pop();
            let (taken, predicted) = (flags & 1 != 0, flags & 2 != 0);
            let Some(pos) = self.rob_position(ts) else {
                continue; // squashed before resolving
            };
            let ip = Ip::new(ip_raw);
            self.predictor.update(ip, taken, predicted);
            if let RobKind::Branch { resolved, .. } = &mut self.rob[pos].kind {
                *resolved = true;
            }
            if predicted != taken {
                self.stats.mispredicts += 1;
                self.squash_younger(ts, trace_idx, now);
            }
        }
    }

    fn squash_younger(&mut self, branch_ts: u64, branch_trace_idx: u32, now: Cycle) {
        while let Some(back) = self.rob.back() {
            if back.ts <= branch_ts {
                break;
            }
            let e = self.rob.pop_back().expect("back exists");
            self.stats.squashed += 1;
            if matches!(e.kind, RobKind::Load) {
                self.discard_load(e.lq_id, e.trace_idx);
            }
            // Squashed branches leave their resolve_heap entry behind;
            // resolve finds their ts gone from the ROB and skips them.
        }
        self.cursor = branch_trace_idx as usize + 1;
        self.dispatch_stall_until = now + self.cfg.mispredict_penalty;
    }

    /// Offers the memory system the ready un-issued loads in ascending
    /// slot order, at most `load_issue_width` of them; the first
    /// rejection ends the cycle's scan.
    fn issue_loads(&mut self, now: Cycle, mem: &mut dyn LoadPort) {
        let mut issued = 0;
        for w in 0..self.lq_unissued.len() {
            for i in slots(w, self.lq_unissued[w] & !self.lq_held[w]) {
                if issued >= self.cfg.load_issue_width {
                    return;
                }
                self.lq_examined += 1;
                if self.lq_ready_at[i] > now {
                    continue;
                }
                let e = &self.lq[i];
                let req = LoadIssue {
                    core: self.id,
                    lq_id: i as u32,
                    gen: e.gen,
                    addr: e.addr,
                    ip: e.ip,
                    ts: e.ts,
                    wrong_path: false,
                };
                if mem.try_issue_load(now, req) {
                    self.lq_unissued[w] &= !(1 << (i % 64));
                    issued += 1;
                } else {
                    self.stats.issue_rejects += 1;
                    return; // memory is backpressuring; retry next cycle
                }
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, mem: &mut dyn LoadPort) {
        if now < self.dispatch_stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.cursor >= self.feed.len() {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let instr = self.feed.get(self.cursor);
            let trace_idx = self.cursor as u32;
            let ts = self.next_ts;
            let ready_at = now + self.cfg.dispatch_latency;
            let kind = match instr.kind {
                InstrKind::Alu => RobKind::Alu,
                InstrKind::Store { addr } => RobKind::Store { addr },
                InstrKind::Load { addr, dep_dist } => {
                    let Some(&lq_id) = self.lq_free.last() else {
                        break; // LQ full: stall dispatch
                    };
                    self.lq_free.pop();
                    // The producer's completion time is re-established
                    // when (re-)dispatched; see squash_younger.
                    let slot = lq_id as usize;
                    let mut issue_at = ready_at;
                    if dep_dist > 0 {
                        let p = trace_idx.saturating_sub(dep_dist as u32);
                        if p != trace_idx
                            && matches!(self.feed.get(p as usize).kind, InstrKind::Load { .. })
                        {
                            let dep = p as usize & self.done_mask;
                            match self.load_done_at[dep] {
                                NOT_DONE => {
                                    self.lq_held[slot / 64] |= 1 << (slot % 64);
                                    self.lq_dep[slot] = dep as u32;
                                }
                                // It may issue the cycle after.
                                done => issue_at = issue_at.max(done + 1),
                            }
                        }
                    }
                    self.lq[slot] = LqEntry {
                        in_use: true,
                        gen: self.lq[slot].gen,
                        addr,
                        ip: instr.ip,
                        ts,
                        trace_idx,
                        fill: None,
                    };
                    self.lq_unissued[slot / 64] |= 1 << (slot % 64);
                    self.lq_ready_at[slot] = issue_at;
                    self.load_done_at[trace_idx as usize & self.done_mask] = NOT_DONE;
                    let mut e = RobEntry {
                        trace_idx,
                        ts,
                        ip: instr.ip,
                        kind: RobKind::Load,
                        ready_at,
                        lq_id,
                    };
                    self.push_rob(&mut e);
                    self.cursor += 1;
                    self.next_ts += 1;
                    self.stats.dispatched += 1;
                    continue;
                }
                InstrKind::Branch { taken } => {
                    let predicted = self.predictor.predict(instr.ip);
                    let resolve_at = ready_at + 1;
                    let flags = taken as u8 | (predicted as u8) << 1;
                    self.resolve_heap.push(Reverse((
                        resolve_at,
                        ts,
                        instr.ip.raw(),
                        trace_idx,
                        flags,
                    )));
                    if predicted != taken {
                        // The wrong path executes transiently between now
                        // and resolve: inject its loads if the trace
                        // specifies them (security experiments).
                        if let Some(addrs) = self.feed.wrong_path(trace_idx) {
                            for &a in addrs {
                                self.stats.wrong_path_loads += 1;
                                let _ = mem.try_issue_load(
                                    now,
                                    LoadIssue {
                                        core: self.id,
                                        lq_id: LoadIssue::WRONG_PATH,
                                        gen: 0,
                                        addr: a,
                                        ip: instr.ip,
                                        ts,
                                        wrong_path: true,
                                    },
                                );
                            }
                        }
                    }
                    RobKind::Branch { resolved: false }
                }
            };
            let mut e = RobEntry {
                trace_idx,
                ts,
                ip: instr.ip,
                kind,
                ready_at,
                lq_id: u32::MAX,
            };
            self.push_rob(&mut e);
            self.cursor += 1;
            self.next_ts += 1;
            self.stats.dispatched += 1;
        }
    }

    fn push_rob(&mut self, e: &mut RobEntry) {
        debug_assert!(self.rob.back().is_none_or(|b| b.ts < e.ts));
        self.rob.push_back(*e);
    }

    /// Transitions the core out of detailed mode: every un-retired
    /// instruction is discarded (exactly like a full-pipeline squash) and
    /// the fetch cursor rewinds to the oldest of them, so functional
    /// stepping re-executes it architecturally. Load-queue generations are
    /// bumped, so completions for the discarded instances are dropped by
    /// [`Core::complete_load`] while the hierarchy drains.
    pub fn drain_to_functional(&mut self) {
        let oldest = self.rob.front().map(|e| e.trace_idx);
        while let Some(e) = self.rob.pop_back() {
            if matches!(e.kind, RobKind::Load) {
                self.discard_load(e.lq_id, e.trace_idx);
            }
        }
        if let Some(idx) = oldest {
            self.cursor = idx as usize;
        }
        self.resolve_heap.clear();
        self.dispatch_stall_until = 0;
    }

    /// Retires up to `budget` instructions architecturally (functional
    /// warming): no ROB, load queue, or cycle accounting — just predictor
    /// training and memory accesses reported through `port`. Returns the
    /// number of instructions retired, which is less than `budget` only
    /// when the feed is exhausted (replay is the caller's job, exactly as
    /// in detailed mode).
    ///
    /// Must only be called with an empty pipeline (after
    /// [`Core::drain_to_functional`] or before any detailed tick); the
    /// strictness-ordering timestamp stream stays monotone across mode
    /// switches.
    pub fn functional_step(&mut self, budget: u64, port: &mut dyn FunctionalPort) -> u64 {
        debug_assert!(self.rob.is_empty(), "functional_step with live pipeline");
        let mut stepped = 0;
        while stepped < budget && self.cursor < self.feed.len() {
            let instr = self.feed.get(self.cursor);
            let ts = self.next_ts;
            match instr.kind {
                InstrKind::Alu => {}
                InstrKind::Branch { taken } => {
                    // Keep the predictor warm. Wrong-path work is
                    // transient and unmeasured, so no squash is modeled.
                    let predicted = self.predictor.predict(instr.ip);
                    self.predictor.update(instr.ip, taken, predicted);
                    self.stats.branches += 1;
                    if predicted != taken {
                        self.stats.mispredicts += 1;
                    }
                }
                InstrKind::Load { addr, .. } => {
                    // Dependents dispatched after the mode switch read
                    // this slot; 0 means "completed long ago".
                    self.load_done_at[self.cursor & self.done_mask] = 0;
                    port.functional_load(self.id, instr.ip, addr, ts);
                }
                InstrKind::Store { addr } => {
                    port.functional_store(self.id, instr.ip, addr, ts);
                }
            }
            self.cursor += 1;
            self.next_ts += 1;
            self.stats.retired += 1;
            stepped += 1;
        }
        stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_trace::Instr;
    use secpref_types::{HitLevel, LineAddr};

    /// Test memory: completes loads after a fixed latency.
    struct FixedLatMem {
        latency: Cycle,
        inflight: Vec<(Cycle, u32, u32, Addr, Cycle)>,
        issued_log: Vec<LoadIssue>,
        reject_at: Option<Cycle>,
    }

    impl FixedLatMem {
        fn new(latency: Cycle) -> Self {
            FixedLatMem {
                latency,
                inflight: Vec::new(),
                issued_log: Vec::new(),
                reject_at: None,
            }
        }

        fn deliver(&mut self, now: Cycle, core: &mut Core) {
            let ready: Vec<_> = self
                .inflight
                .iter()
                .filter(|(c, ..)| *c <= now)
                .cloned()
                .collect();
            self.inflight.retain(|(c, ..)| *c > now);
            for (done, lq, gen, addr, issued_at) in ready {
                core.complete_load(
                    lq,
                    gen,
                    FillInfo {
                        line: addr.line(),
                        hit_level: HitLevel::L2,
                        issued_at,
                        filled_at: done,
                        merged_with_prefetch: false,
                        hit_prefetched_line: false,
                        fetch_latency: 0,
                    },
                );
            }
        }
    }

    impl LoadPort for FixedLatMem {
        fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
            if self.reject_at == Some(now) {
                return false;
            }
            self.issued_log.push(req);
            if !req.wrong_path {
                self.inflight
                    .push((now + self.latency, req.lq_id, req.gen, req.addr, now));
            }
            true
        }
    }

    fn run(
        trace: Trace,
        latency: Cycle,
        max_cycles: Cycle,
    ) -> (Core, FixedLatMem, Vec<CoreEvent>, Cycle) {
        let mut core = Core::new(0, CoreConfig::default(), Arc::new(trace));
        let mut mem = FixedLatMem::new(latency);
        let mut events = Vec::new();
        for now in 0..max_cycles {
            core.tick(now, &mut mem, &mut events);
            mem.deliver(now, &mut core);
            if core.is_done() {
                return (core, mem, events, now);
            }
        }
        panic!("core did not finish in {max_cycles} cycles");
    }

    #[test]
    fn retires_whole_trace_in_order() {
        let t = Trace::new(
            "t",
            vec![
                Instr::load(1, 0),
                Instr::alu(2),
                Instr::store(3, 64),
                Instr::load(4, 128),
                Instr::alu(5),
            ],
        );
        let (core, _, events, _) = run(t, 20, 10_000);
        assert_eq!(core.stats().retired, 5);
        // Events appear in program order: load@0, store@64, load@128.
        let addrs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                CoreEvent::RetiredLoad { addr, .. } => addr.raw(),
                CoreEvent::RetiredStore { addr, .. } => addr.raw(),
            })
            .collect();
        assert_eq!(addrs, vec![0, 64, 128]);
    }

    #[test]
    fn independent_loads_overlap() {
        // 8 independent loads with 100-cycle latency should take ~100
        // cycles total, not ~800 (memory-level parallelism).
        let t = Trace::new("t", (0..8).map(|i| Instr::load(1, i * 4096)).collect());
        let (_, _, _, cycles) = run(t, 100, 10_000);
        assert!(cycles < 250, "took {cycles} cycles");
    }

    #[test]
    fn dependent_loads_serialize() {
        // A chain of 8 dependent loads must take at least 8×latency.
        let instrs: Vec<Instr> = (0..8)
            .map(|i| Instr::load_dep(1, i * 4096, if i == 0 { 0 } else { 1 }))
            .collect();
        let t = Trace::new("t", instrs);
        let (_, _, _, cycles) = run(t, 100, 20_000);
        assert!(cycles >= 7 * 100, "took only {cycles} cycles");
    }

    #[test]
    fn misprediction_squashes_and_refetches() {
        // Alternating random-looking outcomes for one IP: predictor will
        // mispredict often; all instructions must still retire exactly once.
        let mut instrs = Vec::new();
        for i in 0..200u64 {
            instrs.push(Instr::load(1, i * 64));
            instrs.push(Instr::branch(7, (i * 7919) % 3 == 0));
        }
        let n = instrs.len() as u64;
        let (core, _, events, _) = run(Trace::new("t", instrs), 10, 100_000);
        assert_eq!(core.stats().retired, n);
        assert!(core.stats().mispredicts > 0, "pattern should mispredict");
        assert!(core.stats().squashed > 0);
        // Every load retires exactly once despite squash-replay.
        let loads = events
            .iter()
            .filter(|e| matches!(e, CoreEvent::RetiredLoad { .. }))
            .count();
        assert_eq!(loads, 200);
    }

    #[test]
    fn wrong_path_loads_injected_on_mispredict_only() {
        // Branch trained taken, then a surprise not-taken with an attached
        // wrong-path load (the Spectre scenario).
        let mut instrs = Vec::new();
        for _ in 0..50 {
            instrs.push(Instr::branch(9, true));
            instrs.push(Instr::alu(1));
        }
        instrs.push(Instr::branch(9, false)); // mispredicts
        let idx = (instrs.len() - 1) as u32;
        instrs.push(Instr::alu(1));
        let mut t = Trace::new("t", instrs);
        t.attach_wrong_path(idx, vec![Addr::new(0xDEAD_0000)]);
        let (core, mem, _, _) = run(t, 10, 100_000);
        assert_eq!(core.stats().wrong_path_loads, 1);
        let wp: Vec<_> = mem.issued_log.iter().filter(|r| r.wrong_path).collect();
        assert_eq!(wp.len(), 1);
        assert_eq!(wp[0].addr, Addr::new(0xDEAD_0000));
    }

    #[test]
    fn completion_ring_is_sized_by_the_live_span_not_the_trace() {
        let cfg = CoreConfig::default();
        let mut instrs: Vec<Instr> = (0..100_000).map(Instr::alu).collect();
        instrs[50_000] = Instr::load_dep(1, 64, 700);
        let core = Core::new(0, cfg.clone(), Arc::new(Trace::new("t", instrs)));
        let span = cfg.rob_entries + 700 + 64;
        let n = core.load_done_at.len();
        assert!(n.is_power_of_two() && n >= span && n < 2 * span, "{n}");
        assert_eq!(core.done_mask, n - 1);
    }

    #[test]
    fn stale_completion_ignored_after_squash() {
        let t = Trace::new("t", vec![Instr::load(1, 0)]);
        let mut core = Core::new(0, CoreConfig::default(), Arc::new(t));
        let mut mem = FixedLatMem::new(5);
        let mut events = Vec::new();
        core.tick(0, &mut mem, &mut events);
        let req = mem.issued_log.first().copied();
        // Deliver with a wrong generation: must be dropped.
        if let Some(r) = req {
            core.complete_load(
                r.lq_id,
                r.gen.wrapping_add(1),
                FillInfo {
                    line: LineAddr::new(0),
                    hit_level: HitLevel::L1d,
                    issued_at: 0,
                    filled_at: 1,
                    merged_with_prefetch: false,
                    hit_prefetched_line: false,
                    fetch_latency: 1,
                },
            );
        }
        assert_eq!(core.stats().retired, 0, "stale fill must not retire load");
    }

    #[test]
    fn rob_capacity_limits_window() {
        let cfg = CoreConfig {
            rob_entries: 4,
            ..CoreConfig::default()
        };
        let t = Trace::new("t", (0..64).map(|_| Instr::alu(1)).collect());
        let mut core = Core::new(0, cfg, Arc::new(t));
        let mut mem = FixedLatMem::new(5);
        let mut events = Vec::new();
        core.tick(0, &mut mem, &mut events);
        assert!(core.rob.len() <= 4);
    }

    #[test]
    fn memory_backpressure_retries() {
        let t = Trace::new("t", vec![Instr::load(1, 0)]);
        let mut core = Core::new(0, CoreConfig::default(), Arc::new(t));
        let mut mem = FixedLatMem::new(5);
        mem.reject_at = Some(4); // the cycle the load becomes ready
        let mut events = Vec::new();
        for now in 0..200 {
            core.tick(now, &mut mem, &mut events);
            mem.deliver(now, &mut core);
            if core.is_done() {
                break;
            }
        }
        assert!(core.is_done());
        assert!(core.stats().issue_rejects >= 1);
    }

    #[test]
    fn lq_full_stalls_dispatch() {
        // More loads than LQ entries with an infinite-latency memory: the
        // core must stall dispatch (not panic or drop loads).
        struct NeverMem;
        impl LoadPort for NeverMem {
            fn try_issue_load(&mut self, _now: Cycle, _req: LoadIssue) -> bool {
                true // accept, never complete
            }
        }
        let cfg = CoreConfig {
            lq_entries: 8,
            ..CoreConfig::default()
        };
        let t = Trace::new("t", (0..64u64).map(|i| Instr::load(1, i * 64)).collect());
        let mut core = Core::new(0, cfg, Arc::new(t));
        let mut mem = NeverMem;
        let mut events = Vec::new();
        for now in 0..500 {
            core.tick(now, &mut mem, &mut events);
        }
        assert_eq!(core.lq_occupancy(), 8, "LQ saturates at its capacity");
        assert_eq!(core.stats().retired, 0);
    }

    #[test]
    fn squash_replays_exactly_once_per_instruction() {
        // A mispredicting branch in the middle: downstream loads are
        // squashed and replayed; each retires exactly once, in order.
        let mut instrs = Vec::new();
        for _ in 0..60 {
            instrs.push(Instr::branch(0x9, true));
            instrs.push(Instr::alu(1));
        }
        instrs.push(Instr::branch(0x9, false)); // mispredicts
        for i in 0..10u64 {
            instrs.push(Instr::load(0x20, 0x8000 + i * 64));
        }
        let (core, _, events, _) = run(Trace::new("t", instrs), 8, 100_000);
        let addrs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                CoreEvent::RetiredLoad { addr, .. } => Some(addr.raw()),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..10u64).map(|i| 0x8000 + i * 64).collect();
        assert_eq!(addrs, expected);
        assert!(core.stats().mispredicts >= 1);
    }

    #[test]
    fn ts_is_strictly_increasing_across_retires() {
        let mut instrs = Vec::new();
        for i in 0..50u64 {
            instrs.push(Instr::load(1, i * 64));
            instrs.push(Instr::branch(2, i % 5 != 0));
        }
        let (_, _, events, _) = run(Trace::new("t", instrs), 6, 100_000);
        let ts: Vec<u64> = events
            .iter()
            .map(|e| match e {
                CoreEvent::RetiredLoad { ts, .. } => *ts,
                CoreEvent::RetiredStore { ts, .. } => *ts,
            })
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] < w[1]),
            "retire order follows ts"
        );
    }

    #[test]
    fn lq_frees_after_retire() {
        let t = Trace::new("t", (0..300u64).map(|i| Instr::load(1, i * 64)).collect());
        let (core, _, _, _) = run(t, 3, 100_000);
        assert_eq!(core.lq_occupancy(), 0);
        assert_eq!(core.stats().retired, 300);
    }

    // ---- The load queue's indexed scans against the linear scans they
    // replaced, which survive here as the reference.

    use secpref_types::rng::Xoshiro256ss;
    use std::collections::HashSet;

    /// A memory whose answers are pure functions of (seed, cycle, n-th
    /// request of the cycle), so the reference can ask them too.
    struct ScriptedMem {
        seed: u64,
        cycle: Cycle,
        asked: u64,
        /// Accepted demand loads: (lq_id, gen).
        accepted: Vec<(u32, u32)>,
        /// (told, done, lq_id, gen, issued_at): the core is told at
        /// cycle `told` that the data arrives at `done`, a few cycles on
        /// or that very cycle, as the hierarchy tells it.
        inflight: Vec<(Cycle, Cycle, u32, u32, Cycle)>,
    }

    impl ScriptedMem {
        fn script(seed: u64, now: Cycle, nth: u64) -> u64 {
            Xoshiro256ss::seed_from_u64(seed ^ now.wrapping_mul(0x9E37_79B9) ^ (nth << 48))
                .gen_u64(1 << 32)
        }

        fn accepts(seed: u64, now: Cycle, nth: u64) -> bool {
            !Self::script(seed, now, nth).is_multiple_of(4)
        }

        fn deliver(&mut self, now: Cycle, core: &mut Core) {
            let (due, later) = self.inflight.iter().partition(|f| f.0 <= now);
            self.inflight = later;
            for (_, done, lq, gen, issued_at) in due {
                let fill = FillInfo {
                    line: LineAddr::new(0),
                    hit_level: HitLevel::L2,
                    issued_at,
                    filled_at: done,
                    merged_with_prefetch: false,
                    hit_prefetched_line: false,
                    fetch_latency: 0,
                };
                core.complete_load(lq, gen, fill);
            }
        }
    }

    impl LoadPort for ScriptedMem {
        fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
            if now != self.cycle {
                (self.cycle, self.asked) = (now, 0);
            }
            let nth = self.asked;
            self.asked += 1;
            if !Self::accepts(self.seed, now, nth) {
                return false;
            }
            if !req.wrong_path {
                self.accepted.push((req.lq_id, req.gen));
                let script = Self::script(self.seed, now, nth);
                let (latency, notice) = (8 + script % 90, (script >> 8) % 7);
                let done = now + latency;
                self.inflight
                    .push((done - notice, done, req.lq_id, req.gen, now));
            }
            true
        }
    }

    /// One `in_use && !issued` slot as the linear scans saw it, put
    /// together from the ROB, the trace and the log of accepted issues —
    /// nothing the bitmaps or the arrays beside them hold.
    struct Pending {
        slot: u32,
        gen: u32,
        ready_at: Cycle,
        dep: Option<usize>,
    }

    fn pending_loads(core: &Core, trace: &Trace, issued: &HashSet<(u32, u32)>) -> Vec<Pending> {
        (0..core.lq.len() as u32)
            .filter_map(|slot| {
                let e = &core.lq[slot as usize];
                if !e.in_use || issued.contains(&(slot, e.gen)) {
                    return None;
                }
                let rob = core.rob.iter().find(|r| r.lq_id == slot);
                let InstrKind::Load { dep_dist, .. } = trace.instrs[e.trace_idx as usize].kind
                else {
                    panic!("load-queue slot {slot} holds a non-load");
                };
                let p = e.trace_idx.saturating_sub(dep_dist as u32);
                let producer = &trace.instrs[p as usize].kind;
                let has_dep =
                    dep_dist > 0 && p != e.trace_idx && matches!(producer, InstrKind::Load { .. });
                Some(Pending {
                    slot,
                    gen: e.gen,
                    ready_at: rob.expect("an in-use slot has a ROB entry").ready_at,
                    dep: has_dep.then_some(p as usize & core.done_mask),
                })
            })
            .collect()
    }

    /// The linear issue scan: accepted (slot, gen) pairs and rejections.
    fn linear_issue(
        core: &Core,
        now: Cycle,
        pending: &[Pending],
        seed: u64,
    ) -> (Vec<(u32, u32)>, u64) {
        let mut issued = Vec::new();
        for (asked, p) in pending
            .iter()
            .filter(|p| {
                p.ready_at <= now
                    && p.dep.is_none_or(|d| {
                        let done = core.load_done_at[d];
                        done != NOT_DONE && done < now
                    })
            })
            .enumerate()
        {
            if issued.len() >= core.cfg.load_issue_width {
                break;
            }
            if !ScriptedMem::accepts(seed, now, asked as u64) {
                return (issued, 1);
            }
            issued.push((p.slot, p.gen));
        }
        (issued, 0)
    }

    /// `next_wake` with the linear load-queue term.
    fn linear_next_wake(core: &Core, trace: &Trace, now: Cycle, pending: &[Pending]) -> Cycle {
        let mut wake = match core.rob.front() {
            None => Cycle::MAX,
            Some(head) => match head.kind {
                RobKind::Alu | RobKind::Store { .. } => head.ready_at.max(now + 1),
                RobKind::Load if core.lq[head.lq_id as usize].fill.is_some() => now + 1,
                RobKind::Branch { resolved: true } => now + 1,
                _ => Cycle::MAX,
            },
        };
        if let Some(&Reverse((at, ..))) = core.resolve_heap.peek() {
            wake = wake.min(at.max(now + 1));
        }
        for p in pending {
            let at = match p.dep.map(|d| core.load_done_at[d]) {
                Some(NOT_DONE) => continue,
                Some(done) => p.ready_at.max(done + 1),
                None => p.ready_at,
            };
            wake = wake.min(at.max(now + 1));
        }
        if core.cursor < trace.instrs.len() && core.rob.len() < core.cfg.rob_entries {
            let next_is_load = matches!(trace.instrs[core.cursor].kind, InstrKind::Load { .. });
            if !(core.lq_free.is_empty() && next_is_load) {
                wake = wake.min(core.dispatch_stall_until.max(now + 1));
            }
        }
        wake
    }

    fn assert_bitmaps(core: &Core, issued: &HashSet<(u32, u32)>, when: &str) {
        for slot in 0..core.lq_unissued.len() * 64 {
            let e = core.lq.get(slot);
            let expect = e.is_some_and(|e| e.in_use && !issued.contains(&(slot as u32, e.gen)));
            assert_eq!(core.is_unissued(slot), expect, "slot {slot} {when}");
            let held = core.lq_held[slot / 64] >> (slot % 64) & 1 != 0;
            assert!(!held || expect, "slot {slot} held but not un-issued {when}");
        }
    }

    fn random_trace(rng: &mut Xoshiro256ss, n: usize) -> Trace {
        let instrs = (0..n as u64)
            .map(|i| match rng.gen_index(20) {
                0..=4 => Instr::load(0x10 + rng.gen_u64(4), i * 64),
                5..=9 => Instr::load_dep(0x20, i * 64, 1 + rng.gen_u32(40) as u16),
                10..=12 => Instr::branch(0x30 + rng.gen_u64(3), rng.gen_flip()),
                13 | 14 => Instr::store(0x40, i * 64),
                _ => Instr::alu(0x50),
            })
            .collect();
        Trace::new("lq", instrs)
    }

    #[test]
    fn indexed_lq_scans_match_the_linear_scans() {
        for (seed, lq_entries) in [(1, 1), (2, 72), (3, 128), (4, 130), (5, 130)] {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let trace = Arc::new(random_trace(&mut rng, 2_500));
            let cfg = CoreConfig {
                lq_entries,
                dispatch_latency: 1 + seed % 4,
                ..CoreConfig::default()
            };
            let mut core = Core::new(0, cfg, trace.clone());
            let mut mem = ScriptedMem {
                seed,
                cycle: 0,
                asked: 0,
                accepted: Vec::new(),
                inflight: Vec::new(),
            };
            let mut issued = HashSet::new();
            let mut events = Vec::new();
            let (mut now, mut squashed_unissued, mut held) = (0, false, false);
            while !core.is_done() {
                assert!(now < 1_000_000, "lq {lq_entries}: no progress");
                mem.deliver(now, &mut core);
                assert_bitmaps(&core, &issued, "after completions");
                core.retire(now, &mut events);
                let before = core.lq_unissued.clone();
                core.resolve_branches(now);
                squashed_unissued |= before != core.lq_unissued;
                assert_bitmaps(&core, &issued, "after resolve");
                let pending = pending_loads(&core, &trace, &issued);
                let (expect, rejects) = linear_issue(&core, now, &pending, seed);
                let (log, rejected) = (mem.accepted.len(), core.stats.issue_rejects);
                core.issue_loads(now, &mut mem);
                assert_eq!(mem.accepted[log..], expect, "lq {lq_entries} cycle {now}");
                assert_eq!(core.stats.issue_rejects - rejected, rejects, "cycle {now}");
                issued.extend(expect);
                assert_bitmaps(&core, &issued, "after issue");
                core.dispatch(now, &mut mem);
                assert_bitmaps(&core, &issued, "after dispatch");
                held |= core.lq_held.iter().any(|&w| w != 0);
                let pending = pending_loads(&core, &trace, &issued);
                let wake = linear_next_wake(&core, &trace, now, &pending);
                assert_eq!(core.next_wake(now), wake, "lq {lq_entries} cycle {now}");
                if rng.gen_index(300) == 0 {
                    core.drain_to_functional();
                    assert_bitmaps(&core, &issued, "after drain");
                    assert!(core.lq_unissued.iter().all(|&w| w == 0));
                    core.functional_step(rng.gen_u64(30), &mut LogPort(Vec::new()));
                }
                now += 1;
            }
            // Anti-vacuity: rejections, squashes of un-issued loads and
            // (with room for a producer beside its dependent) loads held
            // on a producer all occurred.
            assert!(core.stats.issue_rejects > 50 && squashed_unissued);
            assert!(
                held || lq_entries == 1,
                "lq {lq_entries}: no load was ever held"
            );
            assert!(core.stats.mispredicts > 20, "lq {lq_entries}");
        }
    }

    #[test]
    fn replayed_core_behaves_like_a_fresh_one() {
        let mut rng = Xoshiro256ss::seed_from_u64(9);
        let trace = Arc::new(random_trace(&mut rng, 1_500));
        let run = |core: &mut Core| {
            let mut mem = FixedLatMem::new(40);
            let mut events = Vec::new();
            for now in 0.. {
                core.tick(now, &mut mem, &mut events);
                mem.deliver(now, core);
                if core.is_done() {
                    let log: Vec<_> = mem
                        .issued_log
                        .iter()
                        .map(|r| (r.lq_id, r.gen, r.ts))
                        .collect();
                    return (now, log, format!("{:?}", core.stats()));
                }
            }
            unreachable!()
        };
        let mut fresh = Core::new(0, CoreConfig::default(), trace.clone());
        let first = run(&mut fresh);
        let (ring, lq_cap) = (fresh.load_done_at.as_ptr(), fresh.lq.as_ptr());
        fresh.replay();
        assert!(!fresh.is_done() && fresh.stats().retired == 0);
        // Same ring, same load queue: nothing was reallocated.
        assert_eq!(
            (fresh.load_done_at.as_ptr(), fresh.lq.as_ptr()),
            (ring, lq_cap)
        );
        assert_eq!(run(&mut fresh), first, "second pass differs from the first");
    }

    /// Functional port that just logs accesses.
    struct LogPort(Vec<(u64, bool)>);
    impl FunctionalPort for LogPort {
        fn functional_load(&mut self, _core: CoreId, _ip: Ip, addr: Addr, _ts: u64) {
            self.0.push((addr.raw(), false));
        }
        fn functional_store(&mut self, _core: CoreId, _ip: Ip, addr: Addr, _ts: u64) {
            self.0.push((addr.raw(), true));
        }
    }

    #[test]
    fn functional_step_retires_architecturally() {
        let t = Trace::new(
            "t",
            vec![
                Instr::load(1, 0),
                Instr::alu(2),
                Instr::store(3, 64),
                Instr::branch(4, true),
                Instr::load(5, 128),
            ],
        );
        let mut core = Core::new(0, CoreConfig::default(), Arc::new(t));
        let mut port = LogPort(Vec::new());
        assert_eq!(core.functional_step(3, &mut port), 3);
        assert_eq!(core.functional_step(100, &mut port), 2);
        assert!(core.is_done());
        assert_eq!(core.stats().retired, 5);
        assert_eq!(core.stats().branches, 1);
        assert_eq!(port.0, vec![(0, false), (64, true), (128, false)]);
    }

    #[test]
    fn drain_then_functional_then_detailed_retires_every_instr_once() {
        // Start detailed, drain mid-flight, step functionally, then
        // finish detailed: the union retires each instruction exactly
        // once and the LQ ends empty.
        let t = Trace::new("t", (0..40u64).map(|i| Instr::load(1, i * 64)).collect());
        let mut core = Core::new(0, CoreConfig::default(), Arc::new(t));
        let mut mem = FixedLatMem::new(50);
        let mut events = Vec::new();
        for now in 0..20 {
            core.tick(now, &mut mem, &mut events);
            mem.deliver(now, &mut core);
        }
        let retired_detailed = core.stats().retired;
        core.drain_to_functional();
        assert_eq!(core.lq_occupancy(), 0, "drain frees every LQ slot");
        // Stale completions for drained slots must be ignored.
        for (done, lq, gen, addr, issued_at) in mem.inflight.drain(..) {
            core.complete_load(
                lq,
                gen,
                FillInfo {
                    line: addr.line(),
                    hit_level: HitLevel::L2,
                    issued_at,
                    filled_at: done,
                    merged_with_prefetch: false,
                    hit_prefetched_line: false,
                    fetch_latency: 0,
                },
            );
        }
        let mut port = LogPort(Vec::new());
        let stepped = core.functional_step(10, &mut port);
        assert_eq!(stepped, 10);
        // Back to detailed mode for the rest.
        for now in 100..100_000 {
            core.tick(now, &mut mem, &mut events);
            mem.deliver(now, &mut core);
            if core.is_done() {
                break;
            }
        }
        assert!(core.is_done());
        assert_eq!(core.stats().retired, 40);
        let detailed_addrs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                CoreEvent::RetiredLoad { addr, .. } => Some(addr.raw()),
                _ => None,
            })
            .collect();
        // Detailed retirements + functional retirements cover 0..40 with
        // no overlap and no gap.
        let mut all: Vec<u64> = detailed_addrs
            .iter()
            .copied()
            .chain(port.0.iter().map(|&(a, _)| a))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40u64).map(|i| i * 64).collect::<Vec<_>>());
        assert!(retired_detailed < 40, "drain happened mid-trace");
    }
}
