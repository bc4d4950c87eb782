//! The detailed driver's two event queues: a bucketed time wheel for
//! events two or more cycles out, and an ordered wait list for everything
//! due next cycle — above all the requests that are *blocked*.
//!
//! # The wheel
//!
//! The memory system schedules almost every timed event a small, bounded
//! number of cycles ahead (cache latencies, TLB walks), so a ring of
//! per-cycle FIFO buckets gives O(1) push/pop where the `BinaryHeap` it
//! replaced paid an O(log n) sift on every event. Events beyond the wheel
//! horizon (rare: long TLB walks or deeply backed-up DRAM) fall back to a
//! small heap; events scheduled *behind* the drain point (the post-drain
//! core phase pushing at the cycle just drained) go to the `late` FIFO.
//!
//! Drain order is `(cycle, push sequence)`:
//!
//! - buckets preserve insertion order per cycle, and insertion order *is*
//!   sequence order;
//! - an overflow entry due at cycle `t` was pushed while the wheel's
//!   drain point was at least [`WHEEL_SLOTS`] cycles before `t`, i.e.
//!   strictly earlier than every bucket entry for `t` (which is pushed
//!   within the horizon), so draining overflow first per cycle
//!   reproduces the global sequence order exactly.
//!
//! # The wait list
//!
//! A request denied a port, parked on a full MSHR file or refused by the
//! DRAM queue must be looked at again next cycle. Putting it back on the
//! wheel every cycle made such re-polls 90–97 % of all events on the
//! GhostMinion cells (DESIGN.md §10, wave 3), and because a poll was
//! always due at `now + 1` the run loop's idle fast-forward never engaged
//! while an MSHR file was full. [`WaitList`] holds those requests instead:
//! it is walked once per *ticked* cycle, a waiter whose resource is still
//! full is passed over without the request walk, and a list that holds
//! only such parked waiters does not ask for the next cycle at all. A
//! request blocked at a cache level carries its [`Gate`] in its entry, so
//! passing it over — or denying it a port again — reads the entry and
//! what the gate last answered a waiter like it, not the request.
//!
//! The contract between the two (kept by `Hierarchy::schedule`): a push
//! for `now + 1` goes to the list, a push for `now` made while the
//! hierarchy is ticking goes to the list's same-cycle FIFO, and the wheel
//! sees only events at least two cycles out plus `late`. At cycle `t` the
//! hierarchy then processes, in this order — which is exactly the order
//! one wheel used to give:
//!
//! 1. the wheel: `late`, then overflow and bucket entries for `t` (all
//!    pushed before the drain of `t − 1` began);
//! 2. the list built for `t`: everything pushed for `t` during the drain
//!    of `t − 1`, *in the order its parent was processed* — so a request
//!    first blocked by a step-1 event precedes every older waiter,
//!    surviving waiters keep their relative order, and a `now + 1` child
//!    (a GM-hit response, a writeback) sits where its parent sat — then
//!    the `now + 1` pushes of the core phase of `t − 1` (1-cycle-TLB
//!    loads);
//! 3. the same-cycle FIFO: DRAM completions of `t`, then what steps 1–3
//!    push for `t` itself (MSHR-waiter responses, prefetch injections).

use secpref_types::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Wheel horizon in cycles (power of two). Events scheduled further out
/// than this land in the overflow heap.
pub(crate) const WHEEL_SLOTS: usize = 2048;
const MASK: usize = WHEEL_SLOTS - 1;
/// Words in the slot-occupancy bitmap (one bit per wheel slot).
const WORDS: usize = WHEEL_SLOTS / 64;

/// FIFO-per-cycle event queue with an overflow heap for the far future.
///
/// Entries are `(rid, kind)` pairs — a request id and an event tag —
/// matching what [`crate::hierarchy::Hierarchy`] schedules.
#[derive(Debug)]
pub(crate) struct EventWheel {
    buckets: Vec<Vec<(u32, u8)>>,
    /// Events scheduled for an already-drained cycle. The hierarchy
    /// drains its events at the *start* of each system cycle; the core,
    /// store, and commit paths then schedule follow-up events at that
    /// same (now past) cycle. They all share one cycle, strictly before
    /// every pending bucket/overflow cycle, so a FIFO drained first
    /// reproduces `(cycle, sequence)` order exactly.
    late: VecDeque<(u32, u8)>,
    /// One bit per slot, set while that slot's bucket is non-empty.
    /// Lets [`EventWheel::pop_due`] jump over idle spans and
    /// [`EventWheel::next_due`] answer "when is the next event?" without
    /// walking empty buckets cycle by cycle.
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Reverse<(Cycle, u64, u32, u8)>>,
    /// Sequence counter ordering overflow entries pushed for the same
    /// due cycle.
    seq: u64,
    /// First cycle not yet fully drained; the bucket at `next` may be
    /// partially consumed up to `cursor`.
    next: Cycle,
    cursor: usize,
    len: usize,
}

impl EventWheel {
    pub fn new() -> Self {
        EventWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            late: VecDeque::new(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            seq: 0,
            next: 0,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of queued (not yet popped) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Queues `(rid, kind)` to fire at cycle `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, rid: u32, kind: u8) {
        self.len += 1;
        if at < self.next {
            self.late.push_back((rid, kind));
        } else if at - self.next < WHEEL_SLOTS as Cycle {
            let slot = at as usize & MASK;
            self.buckets[slot].push((rid, kind));
            self.occupied[slot >> 6] |= 1 << (slot & 63);
        } else {
            self.seq += 1;
            self.overflow.push(Reverse((at, self.seq, rid, kind)));
        }
    }

    /// The first occupied slot's cycle at or after `from`, scanning the
    /// bitmap word-wise around the ring (`None` when all buckets are
    /// empty). Every occupied slot maps to a unique cycle in
    /// `[from, from + WHEEL_SLOTS)` because drained buckets are cleared
    /// before `next` passes them.
    fn next_occupied_cycle(&self, from: Cycle) -> Option<Cycle> {
        let start = from as usize & MASK;
        for k in 0..=WORDS {
            let wi = ((start >> 6) + k) % WORDS;
            let mut bits = self.occupied[wi];
            if k == 0 {
                bits &= !0u64 << (start & 63);
            } else if k == WORDS {
                // Wrap-around remainder of the starting word.
                bits &= !(!0u64 << (start & 63));
            }
            if bits != 0 {
                let slot = (wi << 6) | bits.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & MASK;
                return Some(from + dist as Cycle);
            }
        }
        None
    }

    /// Earliest cycle strictly after `now` that has queued work, or
    /// `None` when the wheel is empty. `late` entries (scheduled behind
    /// the drain point) fire on the next drain, i.e. at `now + 1`.
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if !self.late.is_empty() {
            return Some(now + 1);
        }
        let mut due = self
            .next_occupied_cycle(self.next.max(now + 1))
            .unwrap_or(Cycle::MAX);
        if let Some(&Reverse((at, ..))) = self.overflow.peek() {
            due = due.min(at);
        }
        Some(due.max(now + 1))
    }

    /// Pops the next event due at or before `now`, in `(cycle, push
    /// order)` order, or `None` when nothing is due. Events pushed for
    /// the cycle currently being drained are seen in the same drain.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<(u32, u8)> {
        if let Some(e) = self.late.pop_front() {
            self.len -= 1;
            return Some(e);
        }
        while self.next <= now {
            let t = self.next;
            if let Some(&Reverse((at, _, rid, kind))) = self.overflow.peek() {
                if at <= t {
                    self.overflow.pop();
                    self.len -= 1;
                    return Some((rid, kind));
                }
            }
            let slot = t as usize & MASK;
            let bucket = &mut self.buckets[slot];
            if self.cursor < bucket.len() {
                let (rid, kind) = bucket[self.cursor];
                self.cursor += 1;
                self.len -= 1;
                return Some((rid, kind));
            }
            if !bucket.is_empty() {
                // Fully consumed: clear so a future cycle aliasing this
                // slot does not replay the entries.
                bucket.clear();
                self.occupied[slot >> 6] &= !(1 << (slot & 63));
            }
            self.cursor = 0;
            if self.len == 0 {
                self.next = now + 1;
                return None;
            }
            // Jump straight to the next cycle that can hold work instead
            // of walking empty buckets one at a time. `next` must never
            // pass `now + 1`: a push at a later cycle would otherwise be
            // misfiled as `late` and fire too early.
            let mut jump = self.next_occupied_cycle(t + 1).unwrap_or(Cycle::MAX);
            if let Some(&Reverse((at, ..))) = self.overflow.peek() {
                jump = jump.min(at);
            }
            self.next = jump.min(now + 1);
        }
        None
    }
}

/// Event tags of the `(rid, kind)` pairs both queues carry.
pub(crate) const EV_ACCESS: u8 = 0;
pub(crate) const EV_RESPONSE: u8 = 1;

/// Where a blocked request waits: everything the gate of a cache-level
/// access ([`crate::hierarchy::Hierarchy`]'s `admit`) asks of the request,
/// so that a waiter that stays blocked costs no read of its record.
/// Packed as a dense index: what the gate finds out about one waiter
/// holds for every other with the same index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Gate(u32);

impl Gate {
    /// Indices per core.
    pub const KINDS: usize = 16;

    /// The gate of a request of `core` at `lvl` (0 = L1D, 1 = L2, 2 =
    /// LLC). `prefetch`: it yields the last port of a cycle to demands.
    /// `for_mshr`: it waits for space in the level's MSHR file (and then
    /// goes to the port again), not for a port.
    pub fn new(core: usize, lvl: u8, prefetch: bool, for_mshr: bool) -> Self {
        Gate(((core as u32 * 4 + lvl as u32) * 2 + prefetch as u32) * 2 + for_mshr as u32)
    }
    pub fn at(index: usize) -> Self {
        Gate(index as u32)
    }
    pub fn index(self) -> usize {
        self.0 as usize
    }
    pub fn core(self) -> usize {
        self.index() / Self::KINDS
    }
    pub fn lvl(self) -> u8 {
        (self.0 / 4 % 4) as u8
    }
    pub fn prefetch(self) -> bool {
        self.0 & 2 != 0
    }
    pub fn for_mshr(self) -> bool {
        self.0 & 1 != 0
    }
}

/// One wait-list entry, two whole words: the request and either the
/// event to dispatch for it or, for an [`EV_ACCESS`] blocked at a cache
/// level, the [`Gate`] it waits at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Waiter {
    pub rid: u32,
    /// A gate's index, or `EVENT | kind`.
    what: u32,
}

impl Waiter {
    const EVENT: u32 = 1 << 31;

    /// A plain event (no gate known: the handler reads the request).
    pub fn event(rid: u32, kind: u8) -> Self {
        let what = Self::EVENT | kind as u32;
        Waiter { rid, what }
    }
    pub fn blocked(rid: u32, gate: Gate) -> Self {
        Waiter { rid, what: gate.0 }
    }
    pub fn gate(self) -> Option<Gate> {
        (self.what & Self::EVENT == 0).then_some(Gate(self.what))
    }
    pub fn kind(self) -> u8 {
        self.gate().map_or(self.what as u8, |_| EV_ACCESS)
    }
}

/// The ordered list of entries due next cycle (see the module doc for
/// the order law it keeps).
///
/// Two vectors trade places each tick: `cur` is the list built for this
/// cycle and is walked front to back; `next` collects, in processing
/// order, what this cycle schedules for the following one. An entry is
/// *parked* when its pusher knows it cannot proceed until a resource
/// frees (a full MSHR file, a full DRAM queue): parked entries alone do
/// not make the next cycle due.
#[derive(Debug, Default)]
pub(crate) struct WaitList {
    cur: Vec<Waiter>,
    /// Walk position in `cur`.
    pos: usize,
    next: Vec<Waiter>,
    /// Same-cycle pushes made during the tick, drained after the walk.
    same: VecDeque<(u32, u8)>,
    /// Parked entries in `next`.
    parked: usize,
    /// Something a parked entry of `next` may be waiting for was freed
    /// after that entry was pushed: the next cycle must look again.
    woken: bool,
    high_water: usize,
}

impl WaitList {
    /// Starts a ticked cycle: the list built so far becomes the one to
    /// walk. Nothing is lost when cycles were skipped in between — the
    /// list then held only parked entries, which waited in place.
    pub fn begin_cycle(&mut self) {
        debug_assert!(self.pos == self.cur.len() && self.same.is_empty());
        self.cur.clear();
        self.pos = 0;
        std::mem::swap(&mut self.cur, &mut self.next);
        self.parked = 0;
        self.woken = false;
        self.high_water = self.high_water.max(self.cur.len());
    }

    /// The next entry of this cycle's list, front to back.
    #[inline]
    pub fn pop_cur(&mut self) -> Option<Waiter> {
        let e = self.cur.get(self.pos).copied();
        self.pos += e.is_some() as usize;
        e
    }

    /// Queues an entry that must be processed next cycle.
    #[inline]
    pub fn push_next(&mut self, w: Waiter) {
        self.next.push(w);
    }

    /// Queues an entry that waits for a resource to free: it keeps its
    /// place in the order but does not by itself make the next cycle due.
    #[inline]
    pub fn park(&mut self, w: Waiter) {
        self.push_blocked(w, true);
    }

    /// Queues a still-blocked entry, parked or not, without branching on
    /// which: the two kinds alternate in a contended level's list.
    #[inline]
    pub fn push_blocked(&mut self, w: Waiter, parked: bool) {
        self.next.push(w);
        self.parked += parked as usize;
    }

    /// A resource parked entries may wait for was freed. Entries not yet
    /// walked this cycle see that on their own; the ones already passed
    /// over need the next cycle.
    #[inline]
    pub fn wake_parked(&mut self) {
        self.woken |= self.parked > 0;
    }

    /// Queues an entry for the cycle being ticked.
    #[inline]
    pub fn push_same(&mut self, rid: u32, kind: u8) {
        self.same.push_back((rid, kind));
    }

    /// The next same-cycle entry, in push order.
    #[inline]
    pub fn pop_same(&mut self) -> Option<(u32, u8)> {
        self.same.pop_front()
    }

    /// Whether the list needs the very next cycle ticked: it holds an
    /// entry that is not parked, or a parked one that was woken.
    pub fn due_next_cycle(&self) -> bool {
        self.next.len() > self.parked || self.woken
    }

    /// Entries queued and not yet processed.
    pub fn len(&self) -> usize {
        self.next.len() + (self.cur.len() - self.pos) + self.same.len()
    }

    /// Longest list a cycle ever started with.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut EventWheel, now: Cycle) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_due(now) {
            out.push(e);
        }
        out
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0);
        w.push(5, 2, 1);
        w.push(5, 3, 0);
        assert_eq!(drain(&mut w, 4), vec![]);
        assert_eq!(drain(&mut w, 5), vec![(1, 0), (2, 1), (3, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cycle_major_order() {
        let mut w = EventWheel::new();
        w.push(7, 1, 0);
        w.push(3, 2, 0);
        w.push(7, 3, 0);
        w.push(3, 4, 0);
        assert_eq!(drain(&mut w, 10), vec![(2, 0), (4, 0), (1, 0), (3, 0)]);
    }

    #[test]
    fn overflow_precedes_bucket_entries_for_same_cycle() {
        let mut w = EventWheel::new();
        let far = WHEEL_SLOTS as Cycle + 100;
        w.push(far, 1, 0); // beyond horizon: overflow

        // Advance the wheel so `far` is now within the horizon.
        assert_eq!(drain(&mut w, 200), vec![]);
        w.push(far, 2, 0); // lands in a bucket
        let got = drain(&mut w, far);
        // The overflow entry was pushed first, so it drains first.
        assert_eq!(got, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn same_cycle_push_during_drain_is_seen() {
        let mut w = EventWheel::new();
        w.push(4, 1, 0);
        assert_eq!(w.pop_due(4), Some((1, 0)));
        w.push(4, 2, 0); // handler re-schedules for the current cycle
        assert_eq!(w.pop_due(4), Some((2, 0)));
        assert_eq!(w.pop_due(4), None);
    }

    #[test]
    fn slot_aliasing_does_not_replay_consumed_events() {
        let mut w = EventWheel::new();
        w.push(1, 1, 0);
        assert_eq!(drain(&mut w, 1), vec![(1, 0)]);
        // A full horizon later, the same slot is reused.
        let aliased = 1 + WHEEL_SLOTS as Cycle;
        w.push(aliased, 2, 0);
        assert_eq!(drain(&mut w, aliased), vec![(2, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w = EventWheel::new();
        for i in 0..10 {
            w.push(i, i as u32, 0);
        }
        assert_eq!(w.len(), 10);
        assert_eq!(drain(&mut w, 3).len(), 4);
        assert_eq!(w.len(), 6);
        assert_eq!(drain(&mut w, 100).len(), 6);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn late_events_drain_first_in_push_order() {
        let mut w = EventWheel::new();
        w.push(10, 1, 0);
        assert_eq!(drain(&mut w, 5), vec![]); // next advances past 5

        // Scheduled "behind" the drain point (the post-drain core phase).
        w.push(5, 2, 0);
        w.push(5, 3, 0);
        w.push(6, 4, 0); // normal bucket entry for cycle 6
        assert_eq!(drain(&mut w, 6), vec![(2, 0), (3, 0), (4, 0)]);
        assert_eq!(drain(&mut w, 10), vec![(1, 0)]);
        assert_eq!(w.len(), 0);
    }

    // ---- The wait list's order law, clause by clause. `tick` below is
    // the hierarchy's three steps in miniature: every handler is a
    // closure deciding where its entry goes next.

    /// What a handler does with the entry it is given.
    enum Do {
        /// Blocked again (`true`: parked on a resource).
        Wait(bool),
        /// Replaced by `(rid, kind)` next cycle (a `now + 1` child).
        Succeed(u32, u8),
        Done,
    }

    /// One ticked cycle: `wheel` entries, then the list (nothing here
    /// pushes for the same cycle; see the third test for that FIFO).
    /// Returns the processing order.
    fn tick(
        l: &mut WaitList,
        wheel: &[(u32, u8)],
        mut handle: impl FnMut(u32, u8) -> Do,
    ) -> Vec<u32> {
        let mut order = Vec::new();
        let mut run = |l: &mut WaitList, w: Waiter| {
            order.push(w.rid);
            match handle(w.rid, w.kind()) {
                Do::Wait(false) => l.push_next(w),
                Do::Wait(true) => l.park(w),
                Do::Succeed(r, k) => l.push_next(Waiter::event(r, k)),
                Do::Done => {}
            }
        };
        l.begin_cycle();
        for &(rid, kind) in wheel {
            run(l, Waiter::event(rid, kind));
        }
        while let Some(e) = l.pop_cur() {
            run(l, e);
        }
        order
    }

    #[test]
    fn front_entrants_precede_survivors_which_keep_their_order() {
        let mut l = WaitList::default();
        // Cycle 0: three requests arrive from the wheel and block.
        tick(&mut l, &[(1, 0), (2, 0), (3, 0)], |_, _| Do::Wait(false));
        // Cycle 1: 10 arrives from the wheel and blocks too; 2 is granted.
        let order = tick(&mut l, &[(10, 0)], |rid, _| match rid {
            2 => Do::Done,
            _ => Do::Wait(false),
        });
        assert_eq!(order, vec![10, 1, 2, 3]);
        // Cycle 2: the newcomer is ahead of the older waiters 1 and 3,
        // exactly where re-pushing on one wheel put it.
        let order = tick(&mut l, &[], |_, _| Do::Done);
        assert_eq!(order, vec![10, 1, 3]);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn in_place_successor_keeps_its_parents_position() {
        let mut l = WaitList::default();
        tick(&mut l, &[(1, 0), (2, 0), (3, 0)], |_, _| Do::Wait(false));
        // 2 proceeds and leaves a next-cycle child (a GM-hit response, a
        // victim's writeback): the child sits between 1 and 3.
        let order = tick(&mut l, &[], |rid, _| match rid {
            2 => Do::Succeed(20, 1),
            _ => Do::Wait(false),
        });
        assert_eq!(order, vec![1, 2, 3]);
        let mut kinds = Vec::new();
        let order = tick(&mut l, &[], |_, kind| {
            kinds.push(kind);
            Do::Done
        });
        assert_eq!(order, vec![1, 20, 3]);
        assert_eq!(kinds, vec![0, 1, 0]);
    }

    #[test]
    fn core_phase_pushes_follow_the_tick_and_same_cycle_pushes_go_last() {
        let mut l = WaitList::default();
        tick(&mut l, &[(1, 0), (2, 0)], |_, _| Do::Wait(false));
        // After the tick, the core phase issues a 1-cycle-TLB load.
        l.push_next(Waiter::event(7, 0));
        assert!(l.due_next_cycle());
        // Next cycle: a DRAM completion (8) is queued before anything is
        // processed, the wheel entry 9 spawns a same-cycle child 90 and
        // waiter 1 a same-cycle child 91. Same-cycle entries run after
        // the whole list, completions first, then in spawn order.
        l.begin_cycle();
        l.push_same(8, 1);
        let mut order = vec![9];
        l.push_same(90, 0);
        while let Some(w) = l.pop_cur() {
            order.push(w.rid);
            if w.rid == 1 {
                l.push_same(91, w.kind());
            }
        }
        while let Some((rid, _)) = l.pop_same() {
            order.push(rid);
        }
        assert_eq!(order, vec![9, 1, 2, 7, 8, 90, 91]);
        assert!(!l.due_next_cycle());
    }

    #[test]
    fn parked_survivors_keep_order_across_a_skipped_span_and_ask_for_no_cycle() {
        let mut l = WaitList::default();
        tick(&mut l, &[(1, 0), (2, 0), (3, 0)], |_, _| Do::Wait(true));
        assert!(!l.due_next_cycle(), "parked entries alone wake nothing");
        assert_eq!(l.len(), 3);
        // The run loop skips ahead; the next ticked cycle (whatever its
        // number) finds the same list. 5 blocks at the front, 2 proceeds.
        let order = tick(&mut l, &[(5, 0)], |rid, _| match rid {
            2 => Do::Done,
            _ => Do::Wait(true),
        });
        assert_eq!(order, vec![5, 1, 2, 3]);
        assert!(!l.due_next_cycle());
        let order = tick(&mut l, &[], |_, _| Do::Wait(true));
        assert_eq!(order, vec![5, 1, 3]);
        // One entry that is not parked makes the next cycle due.
        l.push_next(Waiter::event(6, 0));
        assert!(l.due_next_cycle());
        assert_eq!(l.high_water(), 3);
    }

    #[test]
    fn a_free_after_the_pass_over_makes_the_next_cycle_due() {
        let mut l = WaitList::default();
        tick(&mut l, &[(1, 0)], |_, _| Do::Wait(true));
        // Freed while nothing is parked in the list being built: the
        // walk has yet to reach the waiter and will see it by itself.
        l.begin_cycle();
        l.wake_parked();
        let w = l.pop_cur().expect("one waiter");
        l.park(w); // still full for this one
        assert!(!l.due_next_cycle());
        // Freed after it was passed over: it must be looked at again.
        l.wake_parked();
        assert!(l.due_next_cycle());
        // The wake lasts one cycle.
        tick(&mut l, &[], |_, _| Do::Wait(true));
        assert!(!l.due_next_cycle());
    }

    #[test]
    fn long_idle_gap_skips_cheaply() {
        let mut w = EventWheel::new();
        assert_eq!(w.pop_due(1_000_000), None);
        w.push(1_000_001, 9, 1);
        assert_eq!(w.pop_due(1_000_001), Some((9, 1)));
    }
}
