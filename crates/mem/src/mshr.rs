//! Miss status holding registers.
//!
//! An MSHR entry tracks one in-flight miss per line. Later requests for the
//! same line *merge* into the existing entry instead of allocating a new
//! one — when a demand merges onto a prefetch entry the paper calls that a
//! **late prefetch**. The file has a fixed capacity; when full, new misses
//! must stall, which is the contention mechanism Section III-A measures
//! ("the L1D MSHR becomes full for an additional 8.7% of the time").

use secpref_types::{Cycle, LineAddr};
use std::fmt;

/// Error returned when an MSHR allocation is impossible: the file is full
/// or the line already has an in-flight entry (merge instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError;

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MSHR file full or line already in flight")
    }
}

impl std::error::Error for AllocError {}

/// Opaque handle to an allocated MSHR entry.
///
/// Tokens are unique per allocation (never reused), so a stale token held
/// across a `complete` is detected rather than aliasing a new entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MshrToken(u64);

/// One in-flight miss.
#[derive(Clone, Debug)]
pub struct MshrEntry {
    /// The missing line.
    pub line: LineAddr,
    /// Entry was allocated by a prefetch request (and no demand has merged).
    pub is_prefetch: bool,
    /// Cycle of allocation.
    pub alloc_cycle: Cycle,
    /// GhostMinion timestamp of the *oldest* instruction waiting on this
    /// entry (`u64::MAX` for prefetches). Nothing in the model reads it:
    /// GhostMinion's MSHR leapfrogging is not modelled, and admission
    /// follows wait-list order with no age priority.
    pub oldest_ts: u64,
    token: MshrToken,
}

/// A fixed-capacity MSHR file with per-line merge.
///
/// # Examples
///
/// ```
/// use secpref_mem::MshrFile;
/// use secpref_types::LineAddr;
///
/// let mut m = MshrFile::new(2);
/// let t = m.alloc(LineAddr::new(7), false, 100, 1).unwrap();
/// assert!(m.find(LineAddr::new(7)).is_some());
/// let entry = m.complete(t);
/// assert_eq!(entry.line, LineAddr::new(7));
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    /// Packed copy of `entries[i].line.raw()`, kept in lockstep with
    /// `entries` — line lookups scan this flat word array instead of
    /// walking the full entry structs (the simulator's hottest probe).
    lines: Vec<u64>,
    /// Packed copy of `entries[i].token.0`, same lockstep discipline.
    tokens: Vec<u64>,
    next_token: u64,
    high_water: usize,
}

impl MshrFile {
    /// Creates an empty file with room for `capacity` in-flight misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            lines: Vec::with_capacity(capacity),
            tokens: Vec::with_capacity(capacity),
            next_token: 0,
            high_water: 0,
        }
    }

    /// Index of the live entry for `line`, via the packed key array.
    #[inline]
    fn line_pos(&self, line: LineAddr) -> Option<usize> {
        let raw = line.raw();
        self.lines.iter().position(|&l| l == raw)
    }

    /// Capacity of the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of in-flight entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Highest occupancy ever reached (a lifetime gauge for run reports).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// True when no further allocation is possible.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Finds the in-flight entry for `line`, if any.
    pub fn find(&self, line: LineAddr) -> Option<(MshrToken, &MshrEntry)> {
        let e = &self.entries[self.line_pos(line)?];
        Some((e.token, e))
    }

    /// Allocates an entry for a new miss.
    ///
    /// `ts` is the GhostMinion timestamp of the requesting instruction
    /// (pass `u64::MAX` for prefetches and other ageless requests).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the file is full (the caller must stall
    /// and retry) or when the line already has an entry (callers must
    /// `merge` instead — allocating twice would break the
    /// one-entry-per-line invariant).
    pub fn alloc(
        &mut self,
        line: LineAddr,
        is_prefetch: bool,
        now: Cycle,
        ts: u64,
    ) -> Result<MshrToken, AllocError> {
        if self.is_full() || self.line_pos(line).is_some() {
            return Err(AllocError);
        }
        let token = MshrToken(self.next_token);
        self.next_token += 1;
        self.entries.push(MshrEntry {
            line,
            is_prefetch,
            alloc_cycle: now,
            oldest_ts: ts,
            token,
        });
        self.lines.push(line.raw());
        self.tokens.push(token.0);
        self.high_water = self.high_water.max(self.entries.len());
        Ok(token)
    }

    /// Merges a request onto the in-flight entry for `line`.
    ///
    /// Returns the entry's token and whether the merging request found a
    /// *prefetch* in flight (a late prefetch, when `demand` is true).
    /// Returns `None` if no entry for `line` exists.
    pub fn merge(&mut self, line: LineAddr, demand: bool, ts: u64) -> Option<(MshrToken, bool)> {
        let idx = self.line_pos(line)?;
        let e = &mut self.entries[idx];
        let was_prefetch = e.is_prefetch;
        if demand {
            e.is_prefetch = false; // a demand now depends on this fill
            e.oldest_ts = e.oldest_ts.min(ts);
        }
        Some((e.token, was_prefetch))
    }

    /// Completes (fills) the entry identified by `token`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if the token does not identify a live entry — every
    /// allocation must complete exactly once (an MSHR conservation bug
    /// otherwise).
    pub fn complete(&mut self, token: MshrToken) -> MshrEntry {
        let idx = self
            .tokens
            .iter()
            .position(|&t| t == token.0)
            .expect("MSHR token must identify a live entry");
        self.lines.swap_remove(idx);
        self.tokens.swap_remove(idx);
        self.entries.swap_remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn alloc_until_full() {
        let mut m = MshrFile::new(2);
        m.alloc(la(1), false, 0, 1).unwrap();
        m.alloc(la(2), false, 0, 2).unwrap();
        assert!(m.is_full());
        assert!(m.alloc(la(3), false, 0, 3).is_err());
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn double_alloc_same_line_rejected() {
        let mut m = MshrFile::new(4);
        m.alloc(la(1), false, 0, 1).unwrap();
        assert!(m.alloc(la(1), false, 0, 2).is_err());
    }

    #[test]
    fn demand_merge_onto_prefetch_is_late_prefetch() {
        let mut m = MshrFile::new(4);
        let t = m.alloc(la(9), true, 5, u64::MAX).unwrap();
        let (t2, was_prefetch) = m.merge(la(9), true, 7).unwrap();
        assert_eq!(t, t2);
        assert!(was_prefetch, "demand found a prefetch in flight");
        let e = m.complete(t);
        assert!(!e.is_prefetch, "entry was promoted to demand");
        assert_eq!(e.oldest_ts, 7);
    }

    #[test]
    fn prefetch_merge_onto_demand_not_late() {
        let mut m = MshrFile::new(4);
        let t = m.alloc(la(9), false, 5, 3).unwrap();
        let (_, was_prefetch) = m.merge(la(9), false, u64::MAX).unwrap();
        assert!(!was_prefetch);
        let e = m.complete(t);
        assert!(!e.is_prefetch);
    }

    #[test]
    fn complete_frees_capacity() {
        let mut m = MshrFile::new(1);
        let t = m.alloc(la(1), false, 0, 1).unwrap();
        assert!(m.is_full());
        m.complete(t);
        assert!(!m.is_full());
        m.alloc(la(2), false, 0, 1).unwrap();
    }

    #[test]
    #[should_panic(expected = "live entry")]
    fn stale_token_panics() {
        let mut m = MshrFile::new(2);
        let t = m.alloc(la(1), false, 0, 1).unwrap();
        m.complete(t);
        m.complete(t); // double complete must be detected
    }

    #[test]
    fn high_water_survives_drain() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.high_water(), 0);
        let t1 = m.alloc(la(1), false, 0, 1).unwrap();
        let t2 = m.alloc(la(2), false, 0, 2).unwrap();
        let t3 = m.alloc(la(3), false, 0, 3).unwrap();
        m.complete(t1);
        m.complete(t2);
        m.complete(t3);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.high_water(), 3, "high water is a lifetime maximum");
    }

    #[test]
    fn merge_succeeds_at_capacity() {
        // Merging needs no free entry, so a full file must still accept
        // merges — this is what keeps a full L1D MSHR from deadlocking
        // the demands that alias lines already in flight.
        let mut m = MshrFile::new(2);
        let t1 = m.alloc(la(1), false, 0, 10).unwrap();
        let t2 = m.alloc(la(2), true, 0, u64::MAX).unwrap();
        assert!(m.is_full());
        assert!(m.alloc(la(3), false, 0, 5).is_err());
        let (mt1, _) = m.merge(la(1), true, 4).unwrap();
        let (mt2, was_pf) = m.merge(la(2), true, 6).unwrap();
        assert_eq!((mt1, mt2), (t1, t2));
        assert!(was_pf, "demand merged onto the in-flight prefetch");
        assert_eq!(m.occupancy(), 2, "merges must not consume entries");
        assert_eq!(m.complete(t1).line, la(1));
        assert_eq!(m.complete(t2).line, la(2));
    }

    #[test]
    fn leapfrogging_order_is_merge_order_independent() {
        // Whatever order demands merge in, `oldest_ts` must come out as
        // the minimum over the allocator and every demand merge (the age
        // GhostMinion's leapfrogging would serve first; not modelled).
        let orders: [[u64; 3]; 3] = [[20, 50, 80], [80, 50, 20], [50, 80, 20]];
        for order in orders {
            let mut m = MshrFile::new(2);
            let t = m.alloc(la(1), false, 0, 60).unwrap();
            for ts in order {
                m.merge(la(1), true, ts).unwrap();
            }
            assert_eq!(m.complete(t).oldest_ts, 20, "order {order:?}");
        }
    }

    #[test]
    fn prefetch_merge_does_not_age_the_entry() {
        // A prefetch has no waiting instruction: merging one must leave
        // `oldest_ts` untouched.
        let mut m = MshrFile::new(2);
        let t = m.alloc(la(1), false, 0, 40).unwrap();
        m.merge(la(1), false, u64::MAX).unwrap();
        m.merge(la(1), false, 3).unwrap(); // non-demand: ts ignored
        assert_eq!(m.complete(t).oldest_ts, 40);
    }

    #[test]
    fn high_water_counts_allocations_not_merges() {
        let mut m = MshrFile::new(3);
        let t1 = m.alloc(la(1), false, 0, 1).unwrap();
        let t2 = m.alloc(la(2), false, 0, 2).unwrap();
        for _ in 0..10 {
            m.merge(la(1), true, 1).unwrap();
        }
        assert_eq!(m.high_water(), 2, "merges must not move the gauge");
        let t3 = m.alloc(la(3), false, 0, 3).unwrap();
        assert_eq!(m.high_water(), 3, "gauge reaches exact capacity");
        m.complete(t1);
        m.complete(t2);
        m.complete(t3);
        // Refilling below the old peak leaves the lifetime maximum.
        let t4 = m.alloc(la(4), false, 0, 4).unwrap();
        assert_eq!(m.high_water(), 3);
        m.complete(t4);
    }

    #[test]
    fn oldest_ts_tracks_minimum() {
        let mut m = MshrFile::new(2);
        let t = m.alloc(la(1), false, 0, 50).unwrap();
        m.merge(la(1), true, 20);
        m.merge(la(1), true, 80);
        assert_eq!(m.complete(t).oldest_ts, 20);
    }

    mod props {
        use super::*;
        use secpref_types::rng::Xoshiro256ss;

        /// Conservation: every successful alloc is completed exactly once,
        /// occupancy never exceeds capacity, and find() agrees with the
        /// set of live lines.
        #[test]
        fn conservation() {
            for seed in 0..64u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let ops: Vec<(u64, bool)> = (0..1 + rng.gen_index(299))
                    .map(|_| (rng.gen_u64(16), rng.gen_flip()))
                    .collect();
                let mut m = MshrFile::new(4);
                let mut live: Vec<(u64, MshrToken)> = Vec::new();
                for (line, do_alloc) in ops {
                    if do_alloc {
                        match m.alloc(la(line), false, 0, line) {
                            Ok(t) => live.push((line, t)),
                            Err(AllocError) => {
                                assert!(m.is_full() || live.iter().any(|(l, _)| *l == line));
                            }
                        }
                    } else if let Some(pos) = live.iter().position(|(l, _)| *l == line) {
                        let (_, t) = live.swap_remove(pos);
                        let e = m.complete(t);
                        assert_eq!(e.line, la(line));
                    }
                    assert_eq!(m.occupancy(), live.len());
                    assert!(m.occupancy() <= m.capacity());
                    for (l, t) in &live {
                        let (ft, _) = m.find(la(*l)).expect("live line findable");
                        assert_eq!(ft, *t);
                    }
                }
            }
        }
    }
}
