//! Demand-miss classification (Fig. 6): late / commit-late / missed
//! opportunity / uncovered.
//!
//! The commit-late and missed-opportunity categories are defined relative
//! to what an *on-access* prefetcher would have done. When the main
//! prefetcher runs on-commit, a **shadow** copy of the same prefetcher is
//! trained on the access-time stream; its would-have-issued prefetches
//! are recorded (never injected into the memory system) and compared
//! against the on-commit prefetcher's actual issues:
//!
//! * demand merged onto an in-flight prefetch → **late** (classic);
//! * shadow had issued it, actual issues it *after* the miss →
//!   **commit-late** (the paper's new class);
//! * shadow had issued it, actual never does → **missed opportunity**;
//! * otherwise → **uncovered**.

use crate::metrics::MissClassCounts;
use secpref_prefetch::{AccessEvent, FillEvent, PfBuf, Prefetcher};
use secpref_types::{Cycle, LineAddr};
use std::collections::VecDeque;

/// How long after a miss the on-commit prefetcher may still issue the
/// prefetch for it to count as commit-late rather than missed.
const RESOLVE_WINDOW: Cycle = 5_000;
/// Capacity of the issued-line trackers.
const TRACK_CAP: usize = 8192;
/// Hash-table slots backing an [`IssueTracker`]: twice the tracked lines,
/// so linear probing stays short at the ≤0.5 load factor.
const TRACK_SLOTS: usize = 2 * TRACK_CAP;

const _: () = assert!(TRACK_SLOTS.is_power_of_two());

/// One open-addressed slot: a line, its issue cycle, and a live bit.
#[derive(Clone, Copy, Debug, Default)]
struct TrackSlot {
    line: u64,
    at: Cycle,
    live: bool,
}

/// A bounded line → cycle map with FIFO aging.
///
/// Probes a multiply-shift-hashed open-addressed table (linear probing,
/// backward-shift deletion — no tombstones) instead of a `HashMap`, so
/// the classifier's per-event lookups avoid SipHash and per-node
/// indirection. Retention semantics are exactly the old map's: FIFO by
/// *first* insertion; re-inserting a tracked line refreshes its cycle
/// without refreshing its age.
#[derive(Debug)]
struct IssueTracker {
    slots: Vec<TrackSlot>,
    order: VecDeque<LineAddr>,
}

impl Default for IssueTracker {
    fn default() -> Self {
        IssueTracker {
            slots: vec![TrackSlot::default(); TRACK_SLOTS],
            order: VecDeque::with_capacity(TRACK_CAP + 1),
        }
    }
}

impl IssueTracker {
    /// Multiply-shift (Fibonacci) hash: the product's top bits. What
    /// the map holds and when it forgets does not depend on the hash.
    #[inline]
    fn home(line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TRACK_SLOTS.trailing_zeros())) as usize
    }

    /// Slot index of `line` if tracked.
    #[inline]
    fn probe(&self, line: u64) -> Option<usize> {
        let mut i = Self::home(line);
        loop {
            let s = &self.slots[i];
            if !s.live {
                return None;
            }
            if s.line == line {
                return Some(i);
            }
            i = (i + 1) & (TRACK_SLOTS - 1);
        }
    }

    fn insert(&mut self, line: LineAddr, at: Cycle) {
        let raw = line.raw();
        let mut i = Self::home(raw);
        loop {
            let s = &mut self.slots[i];
            if !s.live {
                *s = TrackSlot {
                    line: raw,
                    at,
                    live: true,
                };
                break;
            }
            if s.line == raw {
                // Already tracked: refresh the cycle, keep the FIFO age.
                s.at = at;
                return;
            }
            i = (i + 1) & (TRACK_SLOTS - 1);
        }
        self.order.push_back(line);
        if self.order.len() > TRACK_CAP {
            if let Some(old) = self.order.pop_front() {
                self.remove(old.raw());
            }
        }
    }

    /// Deletes `line` by backward-shifting the probe cluster (keeps every
    /// remaining key reachable from its home without tombstones).
    fn remove(&mut self, line: u64) {
        let Some(mut i) = self.probe(line) else {
            return;
        };
        let mask = TRACK_SLOTS - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.slots[j].live {
                break;
            }
            let k = Self::home(self.slots[j].line);
            // If the home of slot j's key lies cyclically in (i, j], that
            // key may not move back to i; keep scanning the cluster.
            let in_gap = if i <= j {
                i < k && k <= j
            } else {
                i < k || k <= j
            };
            if in_gap {
                continue;
            }
            self.slots[i] = self.slots[j];
            i = j;
        }
        self.slots[i].live = false;
    }

    fn get(&self, line: LineAddr) -> Option<Cycle> {
        self.probe(line.raw()).map(|i| self.slots[i].at)
    }

    /// Number of tracked lines.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
    }
}

/// The Fig. 6 classifier for one core.
#[derive(Debug)]
pub struct Classifier {
    shadow: Box<dyn Prefetcher>,
    shadow_issued: IssueTracker,
    actual_issued: IssueTracker,
    pending: VecDeque<(LineAddr, Cycle)>,
    counts: MissClassCounts,
    scratch: PfBuf,
}

impl Classifier {
    /// Creates a classifier whose shadow is `shadow` (a fresh instance of
    /// the same prefetcher kind as the main one).
    pub fn new(shadow: Box<dyn Prefetcher>) -> Self {
        Classifier {
            shadow,
            shadow_issued: IssueTracker::default(),
            actual_issued: IssueTracker::default(),
            pending: VecDeque::new(),
            counts: MissClassCounts::default(),
            scratch: PfBuf::new(),
        }
    }

    /// Feeds the shadow an access-time demand event (the stream an
    /// on-access prefetcher would see). Its prefetches are recorded, not
    /// issued.
    pub fn shadow_access(&mut self, ev: &AccessEvent) {
        self.scratch.clear();
        // Split borrows: shadow and scratch are separate fields.
        let Classifier {
            shadow,
            scratch,
            shadow_issued,
            ..
        } = self;
        shadow.observe_access(ev, scratch);
        for r in scratch.iter() {
            shadow_issued.insert(r.line, ev.cycle);
        }
    }

    /// Feeds the shadow an access-path fill (real latencies, so Berti-like
    /// shadows learn properly).
    pub fn shadow_fill(&mut self, ev: &FillEvent) {
        self.shadow.observe_fill(ev);
    }

    /// Notes a prefetch actually issued by the on-commit prefetcher and
    /// resolves any pending misses on that line as commit-late.
    pub fn actual_issue(&mut self, line: LineAddr, now: Cycle) {
        self.actual_issued.insert(line, now);
        let before = self.pending.len();
        self.pending.retain(|&(l, _)| l != line);
        self.counts.commit_late += (before - self.pending.len()) as u64;
    }

    /// Classifies a demand miss at the prefetcher's cache level.
    /// `merged_with_prefetch` is the MSHR-merge signal (classic late).
    pub fn demand_miss(&mut self, line: LineAddr, now: Cycle, merged_with_prefetch: bool) {
        self.resolve_stale(now);
        if merged_with_prefetch {
            self.counts.late += 1;
            return;
        }
        match (self.shadow_issued.get(line), self.actual_issued.get(line)) {
            (Some(shadow_at), None) if shadow_at <= now => {
                // The on-access prefetcher would have covered it; wait to
                // see whether on-commit eventually triggers (commit-late)
                // or never does (missed opportunity).
                self.pending.push_back((line, now));
            }
            (Some(_), Some(_)) => {
                // Both triggered but the line still missed (prefetch was
                // dropped or evicted): effectively a late prefetch.
                self.counts.late += 1;
            }
            _ => self.counts.uncovered += 1,
        }
    }

    fn resolve_stale(&mut self, now: Cycle) {
        while let Some(&(_, at)) = self.pending.front() {
            if at + RESOLVE_WINDOW < now {
                self.pending.pop_front();
                self.counts.missed_opportunity += 1;
            } else {
                break;
            }
        }
    }

    /// Final counts; drains still-pending misses as missed opportunities.
    pub fn finish(mut self) -> MissClassCounts {
        self.counts.missed_opportunity += self.pending.len() as u64;
        self.counts
    }

    /// Counts so far (without draining pending entries).
    pub fn counts(&self) -> MissClassCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_prefetch::NullPrefetcher;

    fn la(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    fn classifier() -> Classifier {
        Classifier::new(Box::new(NullPrefetcher))
    }

    #[test]
    fn merge_is_late() {
        let mut c = classifier();
        c.demand_miss(la(1), 100, true);
        assert_eq!(c.counts().late, 1);
    }

    #[test]
    fn shadow_only_then_actual_is_commit_late() {
        let mut c = classifier();
        c.shadow_issued.insert(la(5), 50);
        c.demand_miss(la(5), 100, false);
        assert_eq!(c.counts().total(), 0, "classification deferred");
        c.actual_issue(la(5), 300);
        assert_eq!(c.counts().commit_late, 1);
    }

    #[test]
    fn one_actual_issue_resolves_every_pending_miss_on_its_line() {
        let mut c = classifier();
        for line in [5, 6, 5, 7, 5] {
            c.shadow_issued.insert(la(line), 50);
            c.demand_miss(la(line), 100, false);
        }
        c.actual_issue(la(5), 300);
        assert_eq!(c.counts().commit_late, 3);
        let left: Vec<_> = c.pending.iter().map(|&(l, _)| l).collect();
        assert_eq!(left, vec![la(6), la(7)], "the others wait on, in order");
    }

    #[test]
    fn shadow_only_never_actual_is_missed_opportunity() {
        let mut c = classifier();
        c.shadow_issued.insert(la(5), 50);
        c.demand_miss(la(5), 100, false);
        // Another miss far in the future forces stale resolution.
        c.demand_miss(la(9), 100 + RESOLVE_WINDOW + 1, false);
        assert_eq!(c.counts().missed_opportunity, 1);
        assert_eq!(c.counts().uncovered, 1);
    }

    #[test]
    fn neither_is_uncovered() {
        let mut c = classifier();
        c.demand_miss(la(7), 10, false);
        assert_eq!(c.counts().uncovered, 1);
    }

    #[test]
    fn both_issued_but_missed_is_late() {
        let mut c = classifier();
        c.shadow_issued.insert(la(5), 50);
        c.actual_issue(la(5), 60);
        c.demand_miss(la(5), 100, false);
        assert_eq!(c.counts().late, 1);
    }

    #[test]
    fn finish_drains_pending_as_missed() {
        let mut c = classifier();
        c.shadow_issued.insert(la(5), 50);
        c.demand_miss(la(5), 100, false);
        let counts = c.finish();
        assert_eq!(counts.missed_opportunity, 1);
    }

    #[test]
    fn tracker_bounded() {
        let mut t = IssueTracker::default();
        for i in 0..(TRACK_CAP as u64 + 100) {
            t.insert(la(i), i);
        }
        assert!(t.len() <= TRACK_CAP);
        assert!(t.get(la(0)).is_none(), "oldest entries age out");
        assert!(t.get(la(TRACK_CAP as u64 + 99)).is_some());
    }

    #[test]
    fn tracker_reinsert_refreshes_cycle_not_age() {
        let mut t = IssueTracker::default();
        t.insert(la(1), 10);
        for i in 2..TRACK_CAP as u64 + 1 {
            t.insert(la(i), i);
        }
        // Re-inserting line 1 must update its cycle but keep its FIFO
        // position: the next new line still evicts it first.
        t.insert(la(1), 999);
        assert_eq!(t.get(la(1)), Some(999));
        t.insert(la(500_000), 1000);
        assert!(t.get(la(1)).is_none(), "refresh must not reset the age");
        assert_eq!(t.get(la(2)), Some(2), "second-oldest survives");
    }

    /// Differential check against the old `HashMap` + `VecDeque`
    /// reference over pseudorandom insert/lookup streams (including
    /// aliasing keys that collide in the open-addressed table).
    #[test]
    fn tracker_matches_hashmap_reference() {
        use secpref_types::rng::Xoshiro256ss;
        use std::collections::HashMap;

        #[derive(Default)]
        struct Reference {
            map: HashMap<LineAddr, Cycle>,
            order: std::collections::VecDeque<LineAddr>,
        }
        impl Reference {
            fn insert(&mut self, line: LineAddr, at: Cycle) {
                if self.map.insert(line, at).is_none() {
                    self.order.push_back(line);
                    if self.order.len() > TRACK_CAP {
                        if let Some(old) = self.order.pop_front() {
                            self.map.remove(&old);
                        }
                    }
                }
            }
        }

        for seed in 0..8u64 {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let mut t = IssueTracker::default();
            let mut r = Reference::default();
            for step in 0..3 * TRACK_CAP as u64 {
                // A small key space forces re-inserts; occasional huge
                // keys exercise distant hash homes.
                let key = if rng.gen_flip() {
                    rng.gen_u64(TRACK_CAP as u64 / 2)
                } else {
                    rng.gen_u64(u64::MAX / 2)
                };
                t.insert(la(key), step);
                r.insert(la(key), step);
                let probe = la(rng.gen_u64(TRACK_CAP as u64 / 2));
                assert_eq!(t.get(probe), r.map.get(&probe).copied(), "seed {seed}");
            }
            assert_eq!(t.len(), r.map.len());
            for (&line, &at) in &r.map {
                assert_eq!(t.get(line), Some(at));
            }
        }
    }
}
