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
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// How long after a miss the on-commit prefetcher may still issue the
/// prefetch for it to count as commit-late rather than missed.
const RESOLVE_WINDOW: Cycle = 5_000;
/// Capacity of the issued-line trackers.
const TRACK_CAP: usize = 8192;

/// The [`IssueTracker`]'s hash of a line address: one Fibonacci multiply,
/// rotated so that the product's well-mixed top half lands in the low
/// bits std's table picks buckets by. Without the rotate, lines a power
/// of two apart share their low bits and pile into one bucket group.
/// A trace built to collide can slow the classifier but not change what
/// it counts.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, line: u64) {
        self.0 = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("an issue tracker hashes only u64 line addresses")
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// A bounded line → cycle map with FIFO aging: FIFO by *first*
/// insertion; re-inserting a tracked line refreshes its cycle without
/// refreshing its age. Neither structure holds more than [`TRACK_CAP`]
/// lines.
#[derive(Debug, Default)]
struct IssueTracker {
    at: HashMap<u64, Cycle, BuildHasherDefault<LineHasher>>,
    order: VecDeque<LineAddr>,
}

impl IssueTracker {
    fn insert(&mut self, line: LineAddr, at: Cycle) {
        if let Some(cycle) = self.at.get_mut(&line.raw()) {
            *cycle = at;
            return;
        }
        if self.order.len() == TRACK_CAP {
            let old = self.order.pop_front().expect("a full tracker holds lines");
            self.at.remove(&old.raw());
        }
        self.at.insert(line.raw(), at);
        self.order.push_back(line);
    }

    fn get(&self, line: LineAddr) -> Option<Cycle> {
        self.at.get(&line.raw()).copied()
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

    /// A `HashMap` + `VecDeque` tracker, the differential reference.
    #[derive(Default)]
    struct Reference {
        map: std::collections::HashMap<LineAddr, Cycle>,
        order: VecDeque<LineAddr>,
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

    /// Differential check against the `HashMap` + `VecDeque` reference
    /// over pseudorandom insert/lookup streams.
    #[test]
    fn tracker_matches_hashmap_reference() {
        use secpref_types::rng::Xoshiro256ss;

        let phase = 3 * TRACK_CAP as u64;
        for seed in 0..8u64 {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let mut t = IssueTracker::default();
            let mut r = Reference::default();
            for step in 0..2 * phase {
                let (key, probe) = if step < phase {
                    // A small key space forces re-inserts; occasional
                    // huge keys exercise distant hash values.
                    let key = if rng.gen_flip() {
                        rng.gen_u64(TRACK_CAP as u64 / 2)
                    } else {
                        rng.gen_u64(u64::MAX / 2)
                    };
                    (key, rng.gen_u64(TRACK_CAP as u64 / 2))
                } else {
                    // Lines 4 096 apart, from twice the cap's worth:
                    // every key has the same low bits, and the FIFO
                    // churns.
                    let key = rng.gen_u64(2 * TRACK_CAP as u64) << 12;
                    (key, rng.gen_u64(2 * TRACK_CAP as u64) << 12)
                };
                t.insert(la(key), step);
                r.insert(la(key), step);
                let probe = la(probe);
                assert_eq!(
                    t.get(probe),
                    r.map.get(&probe).copied(),
                    "seed {seed} step {step}"
                );
            }
            assert_eq!(t.len(), r.map.len());
            for (&line, &at) in &r.map {
                assert_eq!(t.get(line), Some(at));
            }
        }
    }

    /// Lines a power of two apart must spread over the hash's low bits,
    /// which std's table picks buckets by. An unrotated multiply maps all
    /// 4 096 of these lines to one value, a random function to about
    /// 2 590 on average; the rotated multiply gives 3 760.
    #[test]
    fn line_hasher_spreads_strided_lines() {
        let low: std::collections::HashSet<u64> = (0..4096u64)
            .map(|i| {
                let mut h = LineHasher::default();
                h.write_u64(i * 4096);
                h.finish() & 4095
            })
            .collect();
        assert!(low.len() >= 3500, "{} distinct low-bit values", low.len());
    }
}
