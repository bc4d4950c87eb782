//! The memory system's *what-happens* policy, stated once.
//!
//! [`MemState`] owns every piece of state the paper's security and
//! prefetching claims are about — cache arrays, GhostMinions, SUF commit
//! filters, prefetchers, the injection dedup ring — and the
//! functions below are the only code that decides how an access changes
//! it: who probes replacement-neutrally, what a hit or miss tells the
//! prefetcher, which event trains it, what attributes a fill carries,
//! where an evicted line goes, and what commit does. They return outcome
//! values and never see a clock, an event queue, an MSHR, a port, or a
//! metrics counter.
//!
//! *When* each step happens belongs to the two drivers in
//! [`crate::hierarchy`]: the detailed driver spreads an access over the
//! event wheel, MSHRs, ports and DRAM and hangs metrics and
//! instrumentation off the outcomes; the instant driver (functional
//! warming) runs the same steps back to back. DESIGN.md §14 tabulates
//! decision → function → what each driver does with the outcome.

use secpref_ghostminion::{CommitAction, GmCache, GmInsertOutcome, UpdateFilter, WbBits};
use secpref_mem::{FillAttrs, SetAssocCache};
use secpref_prefetch::{AccessEvent, Feedback, FillEvent, PfBuf, Prefetcher};
use secpref_types::{
    CacheConfig, CacheLevel, CoreId, Cycle, FillInfo, HitLevel, Ip, LineAddr, PrefetchMode,
    PrefetchRequest, PrefetcherKind, SystemConfig,
};

/// Prefetch requests accepted per training event.
const MAX_PF_PER_EVENT: usize = 16;
/// Recently-injected prefetch lines remembered for injection-time dedup.
const PF_RECENT: usize = 64;

/// What a request is. `Load`, `Store`, `Prefetch` and `Refetch` walk the
/// hierarchy from their origin level; `CommitWrite`, `CleanProp` and
/// `DirtyWb` install a line at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReqKind {
    Load,
    Store,
    Prefetch,
    Refetch,
    CommitWrite,
    CleanProp,
    DirtyWb,
}

impl ReqKind {
    pub(crate) fn is_demand(self) -> bool {
        matches!(self, ReqKind::Load | ReqKind::Store)
    }
}

/// Outcome of one cache-level lookup.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lookup {
    pub(crate) hit: bool,
    /// The line hit was prefetched and not yet demanded.
    pub(crate) was_prefetched: bool,
    /// Fetch latency stored with the line at fill time.
    pub(crate) pf_latency: u32,
    /// A demand hit a prefetched line at the prefetcher's level (the
    /// prefetcher has been told).
    pub(crate) useful: bool,
}

impl Lookup {
    /// A GhostMinion hit: served like an L1D hit on an ordinary line.
    pub(crate) const GM_HIT: Lookup = Lookup {
        hit: true,
        was_prefetched: false,
        pf_latency: 0,
        useful: false,
    };
}

/// Verdict on a proposed prefetch.
pub(crate) enum Admit {
    /// Proposed again while still fresh in the dedup ring.
    Duplicate,
    /// The driver's prefetch queue has no room.
    QueueFull,
    /// Accepted: the walk starts at this level.
    At(u8),
}

/// What becomes of a line a fill pushed out.
pub(crate) struct Eviction {
    pub(crate) line: LineAddr,
    /// A prefetched, never-demanded line left the prefetcher's level
    /// (the prefetcher has been told).
    pub(crate) useless: bool,
    pub(crate) then: AfterEvict,
}

pub(crate) enum AfterEvict {
    Nothing,
    /// Install the line one level down (`DirtyWb` or `CleanProp`; below
    /// the LLC that is a DRAM write) with `wb` as its bits there.
    Writeback {
        kind: ReqKind,
        wb: WbBits,
    },
    /// SUF cleared the writeback bit, so the clean line is not
    /// propagated (drivers that keep metrics score the skip).
    SufSkip,
}

/// The commit engine's decision for a retired load on a secure core.
pub(crate) enum Commit {
    /// SUF filtered the update; `gm_hit` says whether the GM held it.
    Drop { gm_hit: bool },
    /// Update the hierarchy with a `CommitWrite` (GM → L1D) or a
    /// `Refetch` walk whose L1D fill carries `wb`.
    Update { kind: ReqKind, wb: WbBits },
}

/// One `T` per cache: a private L1D and L2 per core, one shared LLC.
pub(crate) struct PerLevel<T> {
    pub(crate) l1d: Vec<T>,
    pub(crate) l2: Vec<T>,
    pub(crate) llc: T,
}

impl<T> PerLevel<T> {
    pub(crate) fn new(cfg: &SystemConfig, make: impl Fn(&CacheConfig) -> T) -> Self {
        let per_core = |c: &CacheConfig| (0..cfg.cores).map(|_| make(c)).collect();
        PerLevel {
            l1d: per_core(&cfg.l1d),
            l2: per_core(&cfg.l2),
            llc: make(&cfg.llc),
        }
    }

    /// The `T` of `core`'s cache at `lvl` (0 = L1D, 1 = L2, else the LLC).
    pub(crate) fn at(&mut self, core: CoreId, lvl: u8) -> &mut T {
        match lvl {
            0 => &mut self.l1d[core],
            1 => &mut self.l2[core],
            _ => &mut self.llc,
        }
    }
}

fn cache_of(cfg: &CacheConfig) -> SetAssocCache {
    SetAssocCache::with_policy(cfg.sets(), cfg.ways, cfg.replacement)
}

/// Fill attributes of a `kind` request installing its line at `lvl`
/// (`None`: that level is left untouched). `wb` are the writeback bits
/// the line carries where the request installs it with explicit bits —
/// the L1D for commit writes and re-fetches, the target level for
/// writebacks; `latency` is what the fetch took so far.
#[inline]
pub(crate) fn fill_attrs(
    kind: ReqKind,
    secure: bool,
    lvl: u8,
    wb: WbBits,
    latency: u32,
) -> Option<FillAttrs> {
    let plain = FillAttrs::default();
    let dirty = FillAttrs {
        dirty: true,
        ..plain
    };
    let with_wb = FillAttrs {
        wb_bit: wb.l1_to_l2,
        wb_next: wb.l2_to_llc,
        ..plain
    };
    match kind {
        // GhostMinion: a speculative load fills only the GM, and a store
        // miss allocates only in the L1D.
        ReqKind::Load => (!secure).then_some(plain),
        ReqKind::Store if lvl == 0 => Some(dirty),
        ReqKind::Store => (!secure).then_some(plain),
        ReqKind::Prefetch => Some(FillAttrs {
            prefetched: true,
            fetch_latency: latency,
            ..plain
        }),
        ReqKind::Refetch if lvl > 0 => Some(plain),
        ReqKind::Refetch | ReqKind::CommitWrite | ReqKind::CleanProp => Some(with_wb),
        ReqKind::DirtyWb => Some(dirty),
    }
}

/// The X-LQ fetch-latency datum of a completed load: the true latency
/// for misses, the stored prefetch latency for L1D hits on prefetched
/// lines, 0 for regular hits.
pub(crate) fn xlq_latency(
    hit_level: HitLevel,
    hit_prefetched: bool,
    pf_latency: u32,
    latency: u32,
) -> u32 {
    match hit_level {
        HitLevel::L1d if hit_prefetched => pf_latency,
        HitLevel::L1d => 0,
        _ => latency,
    }
}

/// One core's policy bits, resolved once from `cfg.policy(c)` so the hot
/// paths read one flat entry instead of re-deriving from the config.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoreBits {
    /// GhostMinion is on.
    pub(crate) sec: bool,
    /// The prefetcher trains on commit (else on access).
    oc: bool,
    /// The prefetcher sits at the L1D (else at L2).
    pf_l1: bool,
    /// There is no prefetcher.
    pf_none: bool,
    /// SUF filters commits and clears writeback bits.
    suf: bool,
}

/// Everything the hierarchy policy reads and writes.
pub(crate) struct MemState {
    pub(crate) pol: Vec<CoreBits>,
    pub(crate) gm: Vec<GmCache>,
    pub(crate) caches: PerLevel<SetAssocCache>,
    pub(crate) filters: Vec<Box<dyn UpdateFilter>>,
    pub(crate) prefetchers: Vec<Box<dyn Prefetcher>>,
    commit_count: Vec<u64>,
    /// Candidates of the latest [`MemState::train`] call.
    pub(crate) pf_scratch: PfBuf,
    pf_recent: Vec<[LineAddr; PF_RECENT]>,
    pf_recent_head: Vec<usize>,
}

// The per-access functions below are `#[inline]`: each is called from
// both drivers, once or more per simulated access, and returns its
// outcome by value — inlined, the outcome is built in the driver's own
// frame instead of being copied out through a call boundary (measured on
// the warming walk: ~10 ns of ~30 per L1D-hit access).
impl MemState {
    pub(crate) fn new(
        cfg: &SystemConfig,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        filters: Vec<Box<dyn UpdateFilter>>,
    ) -> Self {
        let cores = cfg.cores;
        let bits = |c| {
            let p = cfg.policy(c);
            CoreBits {
                sec: p.secure.is_secure(),
                oc: p.prefetch_mode == PrefetchMode::OnCommit,
                pf_l1: p.prefetcher.is_l1_prefetcher(),
                pf_none: p.prefetcher == PrefetcherKind::None,
                suf: p.suf,
            }
        };
        MemState {
            pol: (0..cores).map(bits).collect(),
            gm: (0..cores).map(|_| GmCache::new(cfg.gm.lines())).collect(),
            caches: PerLevel::new(cfg, cache_of),
            filters,
            prefetchers,
            commit_count: vec![0; cores],
            pf_scratch: PfBuf::new(),
            pf_recent: vec![[LineAddr::new(u64::MAX); PF_RECENT]; cores],
            pf_recent_head: vec![0; cores],
        }
    }

    /// Residency check that disturbs nothing.
    pub(crate) fn resident(&self, core: CoreId, level: CacheLevel, line: LineAddr) -> bool {
        match level {
            CacheLevel::L1d => self.caches.l1d[core].probe(line).is_some(),
            CacheLevel::L2 => self.caches.l2[core].probe(line).is_some(),
            CacheLevel::Llc => self.caches.llc.probe(line).is_some(),
            CacheLevel::Dram => true,
        }
    }

    /// The level `core`'s prefetcher sits at (0 = L1D, 1 = L2).
    pub(crate) fn pf_level(&self, core: CoreId) -> u8 {
        !self.pol[core].pf_l1 as u8
    }

    /// Whether hits, misses and evictions at `lvl` are the prefetcher's
    /// business: the L1D for L1 prefetchers, L2 *and* LLC for L2 ones.
    pub(crate) fn pf_here(&self, core: CoreId, lvl: u8) -> bool {
        (lvl == 0) == self.pol[core].pf_l1
    }

    /// GhostMinion: a load on a secure core is speculative until commit.
    pub(crate) fn speculative(&self, core: CoreId, kind: ReqKind) -> bool {
        self.pol[core].sec && kind == ReqKind::Load
    }

    /// Speculative loads probe the GM in parallel with the L1D.
    pub(crate) fn probes_gm(&self, core: CoreId, lvl: u8, kind: ReqKind) -> bool {
        lvl == 0 && self.speculative(core, kind)
    }

    /// Looks `line` up at `lvl` the way a `kind` request does, and tells
    /// the prefetcher when a demand found one of its lines.
    ///
    /// Speculative loads leave replacement state alone: at the L1D one
    /// `mark_demand_use` scan is the probe plus the first-use mark, below
    /// it a plain probe. Everything else promotes the line; a store
    /// dirties the level it hits; a prefetch finding its target resident
    /// reports an ordinary line.
    #[inline]
    pub(crate) fn lookup(
        &mut self,
        core: CoreId,
        lvl: u8,
        kind: ReqKind,
        line: LineAddr,
    ) -> Lookup {
        let found = if !self.speculative(core, kind) {
            let found = self
                .caches
                .at(core, lvl)
                .touch_demand(line, kind == ReqKind::Store);
            found.map(|f| {
                if kind == ReqKind::Prefetch {
                    (false, 0)
                } else {
                    f
                }
            })
        } else if lvl == 0 {
            self.caches.l1d[core].mark_demand_use(line)
        } else {
            let meta = self.caches.at(core, lvl).probe(line);
            meta.map(|m| (m.prefetched, m.fetch_latency))
        };
        let (was_prefetched, pf_latency) = found.unwrap_or((false, 0));
        let useful = kind.is_demand() && was_prefetched && self.pf_here(core, lvl);
        if useful {
            self.prefetchers[core].feedback(Feedback::Useful { line });
        }
        Lookup {
            hit: found.is_some(),
            was_prefetched,
            pf_latency,
            useful,
        }
    }

    /// A demand missed at `lvl`: tells the prefetcher if that is its
    /// level, and says whether it was.
    #[inline]
    pub(crate) fn demand_miss(&mut self, core: CoreId, lvl: u8, line: LineAddr) -> bool {
        let here = self.pf_here(core, lvl);
        if here {
            self.prefetchers[core].feedback(Feedback::DemandMiss { line });
        }
        here
    }

    /// The one training-event builder. `lvl` must be the prefetcher's
    /// level and `hit` is relative to it; `hit_prefetched` is an L1D
    /// notion (the X-LQ `Hitp` bit), so L2 prefetchers never see it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn event(
        &self,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        cycle: Cycle,
        access_cycle: Cycle,
        hit: bool,
        hit_prefetched: bool,
        fetch_latency: u32,
        mshr_free: impl FnOnce() -> usize,
    ) -> Option<AccessEvent> {
        (!self.pol[core].pf_none).then(|| AccessEvent {
            ip,
            line,
            cycle,
            hit,
            access_cycle,
            fetch_latency,
            hit_prefetched: hit_prefetched && self.pol[core].pf_l1,
            mshr_free: mshr_free(),
        })
    }

    /// The event a demand access at `lvl` shows the prefetcher there
    /// (`None`: no prefetcher at this level). `mshr_free` is the free
    /// MSHR count at the prefetcher's level.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn access_event(
        &self,
        core: CoreId,
        lvl: u8,
        ip: Ip,
        line: LineAddr,
        now: Cycle,
        lk: &Lookup,
        mshr_free: impl FnOnce() -> usize,
    ) -> Option<AccessEvent> {
        if lvl != self.pf_level(core) {
            return None;
        }
        let lat = if lk.was_prefetched && lvl == 0 {
            lk.pf_latency
        } else {
            0
        };
        self.event(
            core,
            ip,
            line,
            now,
            now,
            lk.hit,
            lk.was_prefetched,
            lat,
            mshr_free,
        )
    }

    /// The event a retired load shows an on-commit prefetcher (`None`:
    /// not on-commit, no prefetcher, or the L1D served a load whose
    /// prefetcher sits at L2).
    #[inline]
    pub(crate) fn commit_event(
        &self,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        now: Cycle,
        fill: &FillInfo,
        mshr_free: impl FnOnce() -> usize,
    ) -> Option<AccessEvent> {
        let here = HitLevel::decode(self.pf_level(core));
        if !self.trains(core, true) || fill.hit_level < here {
            return None;
        }
        let (hit, hitp) = (fill.hit_level == here, fill.hit_prefetched_line);
        self.event(
            core,
            ip,
            line,
            now,
            fill.issued_at,
            hit,
            hitp,
            fill.fetch_latency,
            mshr_free,
        )
    }

    /// Whether `core`'s prefetcher trains on events from the commit path
    /// (`on_commit`) or from the access path.
    pub(crate) fn trains(&self, core: CoreId, on_commit: bool) -> bool {
        on_commit == self.pol[core].oc && !self.pol[core].pf_none
    }

    /// Trains the prefetcher on `ev` if its mode matches the path the
    /// event came from (`on_commit`), leaving the accepted candidates in
    /// `pf_scratch`; returns how many there are.
    #[inline]
    pub(crate) fn train(&mut self, core: CoreId, ev: &AccessEvent, on_commit: bool) -> usize {
        self.pf_scratch.clear();
        if self.trains(core, on_commit) {
            self.prefetchers[core].observe_access(ev, &mut self.pf_scratch);
            self.pf_scratch.truncate(MAX_PF_PER_EVENT);
        }
        self.pf_scratch.len()
    }

    /// Injection-time admission: a target proposed again while still
    /// fresh (resident, in flight, or queued) is dropped without burning
    /// a cache port on discovering the duplicate; an accepted one enters
    /// the ring and starts at the L1D only if an L1 prefetcher asked for
    /// an L1D fill.
    #[inline]
    pub(crate) fn admit_prefetch(
        &mut self,
        core: CoreId,
        pf: &PrefetchRequest,
        queue_has_room: bool,
    ) -> Admit {
        if self.pf_recent[core].contains(&pf.line) {
            return Admit::Duplicate;
        }
        if !queue_has_room {
            return Admit::QueueFull;
        }
        let head = self.pf_recent_head[core];
        self.pf_recent[core][head] = pf.line;
        self.pf_recent_head[core] = (head + 1) % PF_RECENT;
        Admit::At(!(self.pol[core].pf_l1 && pf.fill_level == CacheLevel::L1d) as u8)
    }

    /// Installs `line` at `lvl` and decides what becomes of the victim:
    /// useless-prefetch feedback at the prefetcher's private level, dirty
    /// write-back, GhostMinion clean-line propagation (an L1D victim
    /// hands its `wb_next` bit on as the L2 line's writeback bit), or a
    /// SUF-skipped propagation.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        core: CoreId,
        lvl: u8,
        line: LineAddr,
        attrs: FillAttrs,
    ) -> Option<Eviction> {
        let ev = self.caches.at(core, lvl).fill(line, attrs)?;
        let useless = ev.prefetched && lvl <= 1 && self.pf_here(core, lvl);
        if useless {
            self.prefetchers[core].feedback(Feedback::Useless { line: ev.line });
        }
        let none = WbBits {
            l1_to_l2: false,
            l2_to_llc: false,
        };
        let then = if ev.dirty {
            AfterEvict::Writeback {
                kind: ReqKind::DirtyWb,
                wb: none,
            }
        } else if lvl > 1 || !self.pol[core].sec {
            AfterEvict::Nothing
        } else if ev.wb_bit {
            AfterEvict::Writeback {
                kind: ReqKind::CleanProp,
                wb: WbBits {
                    l1_to_l2: lvl == 0 && ev.wb_next,
                    ..none
                },
            }
        } else if self.pol[core].suf {
            AfterEvict::SufSkip
        } else {
            AfterEvict::Nothing
        };
        Some(Eviction {
            line: ev.line,
            useless,
            then,
        })
    }

    /// An L1D-level fill as L1 prefetchers see it (`None`: no L1
    /// prefetcher). The prefetcher itself observes it only when the path
    /// the fill came by (`commit_path`: commit write or re-fetch, else
    /// the demand access path) is the one its mode trains on.
    #[inline]
    pub(crate) fn fill_event(
        &mut self,
        core: CoreId,
        commit_path: bool,
        line: LineAddr,
        ip: Ip,
        cycle: Cycle,
        latency: u32,
    ) -> Option<FillEvent> {
        if !self.pol[core].pf_l1 || self.pol[core].pf_none {
            return None;
        }
        let ev = FillEvent {
            line,
            ip,
            cycle,
            latency,
            by_prefetch: false,
        };
        if commit_path == self.pol[core].oc {
            self.prefetchers[core].observe_fill(&ev);
        }
        Some(ev)
    }

    /// GhostMinion: data a speculative load fetched from beyond the L1D
    /// goes into the GM and nowhere else (`None`: not a secure core).
    pub(crate) fn spec_fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        ts: u64,
        latency: u32,
    ) -> Option<GmInsertOutcome> {
        self.pol[core]
            .sec
            .then(|| self.gm[core].insert(line, ts, latency))
    }

    /// The commit engine (GhostMinion §II-C, SUF §IV) for a load retiring
    /// on a secure core (`None` otherwise): GM residency → filter action
    /// → GM removal, plus expiry of squashed leftovers every 16 commits.
    ///
    /// `gm_visible` lets a driver that already knows whether the GM holds
    /// the line visibly to `ts` skip the scan — and, when it knows the
    /// answer is no, the pointless removal.
    #[inline]
    pub(crate) fn commit(
        &mut self,
        core: CoreId,
        line: LineAddr,
        ts: u64,
        hit_level: HitLevel,
        gm_visible: Option<bool>,
    ) -> Option<Commit> {
        if !self.pol[core].sec {
            return None;
        }
        let gm = &mut self.gm[core];
        let gm_hit = gm_visible.unwrap_or_else(|| gm.lookup(line, ts).is_some());
        let action = self.filters[core].commit_action(hit_level, gm_hit);
        let leaves_gm = match action {
            CommitAction::Drop => gm_visible != Some(false),
            CommitAction::CommitWrite => true,
            CommitAction::Refetch => false,
        };
        if leaves_gm {
            gm.remove(line);
        }
        self.commit_count[core] += 1;
        if self.commit_count[core].is_multiple_of(16) {
            gm.expire_older_than(ts);
        }
        let kind = match action {
            CommitAction::Drop => return Some(Commit::Drop { gm_hit }),
            CommitAction::CommitWrite => ReqKind::CommitWrite,
            CommitAction::Refetch => ReqKind::Refetch,
        };
        let wb = self.filters[core].wb_bits(hit_level);
        Some(Commit::Update { kind, wb })
    }
}
