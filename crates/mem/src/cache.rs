//! Set-associative cache array with pluggable replacement (true LRU by
//! default — Table II — plus SRRIP and pseudo-random for ablations).
//!
//! The array stores only metadata (tags and status bits) — the simulator is
//! trace-driven, so no data payloads exist. Two GhostMinion/SUF-specific
//! status bits ride along with each line:
//!
//! * `prefetched` — set when a prefetch brought the line in and cleared on
//!   first demand hit; feeds prefetch accuracy statistics and Berti's
//!   latency-of-prefetched-line lookup.
//! * `wb_bit` — the GhostMinion *writeback bit* (at L2) or the SUF
//!   *L2 writeback bit* (at L1D): whether a clean line must be propagated
//!   outward when evicted (Section IV, Fig. 7 of the paper).
//!
//! A way costs 16 host bytes: its tag, the only copy of the line address,
//! and an 8-byte way record of fetch latency, LRU stamp, status flags
//! and RRPV. LRU stamps are 16-bit and drawn from a per-set clock.

use secpref_types::config::ReplacementChoice;
use secpref_types::{LineAddr, MAX_CACHE_WAYS};

/// Status attributes applied when filling a line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FillAttrs {
    /// Line contains modified data that must be written back on eviction.
    pub dirty: bool,
    /// Line was brought in by a prefetch (not yet demanded).
    pub prefetched: bool,
    /// GhostMinion/SUF writeback bit: propagate outward on (clean) eviction.
    pub wb_bit: bool,
    /// The writeback bit to hand to the *next* level when this line is
    /// propagated there (the SUF "L2 writeback bit" stored at L1D).
    pub wb_next: bool,
    /// Fetch latency the line experienced, in cycles. Berti stores this
    /// alongside prefetched L1D lines so that demand hits on them can
    /// train with the prefetch's latency (Section V-C).
    pub fetch_latency: u32,
}

/// A resident cache line's metadata, by value: what [`SetAssocCache::probe`]
/// and [`SetAssocCache::iter`] return. The cache stores it packed (a tag
/// and an 8-byte way record), not as this struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineMeta {
    /// The resident line address.
    pub line: LineAddr,
    /// Line holds modified data.
    pub dirty: bool,
    /// Line was inserted by a prefetch and has not been demanded yet.
    pub prefetched: bool,
    /// GhostMinion/SUF writeback bit.
    pub wb_bit: bool,
    /// Writeback bit handed to the next level on propagation.
    pub wb_next: bool,
    /// Fetch latency recorded at fill time (see [`FillAttrs`]).
    pub fetch_latency: u32,
}

/// One way's state beside its tag.
///
/// `lru` is a stamp from the way's set clock: only ever compared within
/// one set, and always in `1..=LRU_TOP` for a valid way.
#[derive(Clone, Copy, Debug)]
struct Way {
    fetch_latency: u32,
    lru: u16,
    flags: u8,
    /// SRRIP re-reference prediction value (0 = imminent, 3 = distant).
    rrpv: u8,
}

const _: () = assert!(std::mem::size_of::<Way>() == 8);

impl Way {
    const DIRTY: u8 = 1;
    const PREFETCHED: u8 = 1 << 1;
    const WB: u8 = 1 << 2;
    const WB_NEXT: u8 = 1 << 3;
    const VALID: u8 = 1 << 4;

    const INVALID: Way = Way {
        fetch_latency: 0,
        lru: 0,
        flags: 0,
        rrpv: 3,
    };

    #[inline]
    fn has(self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    #[inline]
    fn valid(self) -> bool {
        self.has(Way::VALID)
    }

    /// The status flags `attrs` asks for (without [`Way::VALID`]).
    #[inline]
    fn flags_of(attrs: FillAttrs) -> u8 {
        (attrs.dirty as u8 * Way::DIRTY)
            | (attrs.prefetched as u8 * Way::PREFETCHED)
            | (attrs.wb_bit as u8 * Way::WB)
            | (attrs.wb_next as u8 * Way::WB_NEXT)
    }
}

/// A line pushed out of the cache by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line address.
    pub line: LineAddr,
    /// It held modified data (must be written back).
    pub dirty: bool,
    /// Its writeback bit (GhostMinion clean-line propagation decision).
    pub wb_bit: bool,
    /// The writeback bit to attach when propagating to the next level.
    pub wb_next: bool,
    /// It was prefetched and never demanded (a useless prefetch).
    pub prefetched: bool,
}

/// A set-associative cache array with true-LRU replacement.
///
/// `probe` inspects without disturbing replacement state (GhostMinion's
/// speculative accesses must not update LRU bits); `touch_demand` performs
/// the conventional LRU update for non-speculative accesses.
///
/// Each set has its own 16-bit LRU clock. When a set's clock reaches
/// `LRU_TOP`, the set renumbers its valid ways `1..=n` in stamp order
/// before it hands out the next stamp, so every victim is the one an
/// unbounded clock would pick.
///
/// # Examples
///
/// ```
/// use secpref_mem::{FillAttrs, SetAssocCache};
/// use secpref_types::LineAddr;
///
/// let mut c = SetAssocCache::new(2, 1); // 2 sets, direct-mapped
/// c.fill(LineAddr::new(0), FillAttrs::default());
/// // Line 2 maps to set 0 as well and evicts line 0.
/// let out = c.fill(LineAddr::new(2), FillAttrs::default());
/// assert_eq!(out.unwrap().line, LineAddr::new(0));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// Per-way tags, the only copy of each resident line address:
    /// [`TAG_INVALID`] for an invalid way. Lookups scan this dense word
    /// array per set.
    tags: Vec<u64>,
    /// Per-way state, parallel to `tags`.
    state: Vec<Way>,
    /// Per-set LRU clock: the last stamp handed out in the set.
    clocks: Vec<u16>,
    policy: ReplacementChoice,
    rng: u64,
}

/// Tag of an invalid way. A valid way may hold the one line whose raw
/// address equals it; its valid flag tells the two apart, and lookups of
/// that line take a slow path (see [`SetAssocCache::find`]).
const TAG_INVALID: u64 = u64::MAX;

/// Largest LRU stamp. The fill scan starts its minimum at `u16::MAX`,
/// out of reach of every stamp.
const LRU_TOP: u16 = u16::MAX - 1;

const _: () = assert!(MAX_CACHE_WAYS < LRU_TOP as usize);

impl SetAssocCache {
    /// Creates an empty cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, either argument is zero,
    /// or `ways` exceeds [`MAX_CACHE_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        Self::with_policy(sets, ways, ReplacementChoice::Lru)
    }

    /// Creates an empty cache with the given replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, either argument is zero,
    /// or `ways` exceeds [`MAX_CACHE_WAYS`].
    pub fn with_policy(sets: usize, ways: usize, policy: ReplacementChoice) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be nonzero");
        assert!(
            ways <= MAX_CACHE_WAYS,
            "ways must be at most {MAX_CACHE_WAYS}"
        );
        SetAssocCache {
            sets,
            ways,
            tags: vec![TAG_INVALID; sets * ways],
            state: vec![Way::INVALID; sets * ways],
            clocks: vec![0; sets],
            policy,
            rng: 0x243F_6A88_85A3_08D3,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The valid way of `range` holding the sentinel-aliasing line.
    fn find_sentinel(&self, range: std::ops::Range<usize>) -> Option<usize> {
        range
            .into_iter()
            .find(|&i| self.state[i].valid() && self.tags[i] == TAG_INVALID)
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let raw = line.raw();
        let range = self.set_range(self.set_index(line));
        if raw == TAG_INVALID {
            // A line whose raw address equals the sentinel would match
            // every empty way; only the valid flag finds it.
            return self.find_sentinel(range);
        }
        let start = range.start;
        self.tags[range]
            .iter()
            .position(|&t| t == raw)
            .map(|p| start + p)
    }

    /// The by-value view of way `i`.
    fn view(&self, i: usize) -> LineMeta {
        let w = self.state[i];
        LineMeta {
            line: LineAddr::new(self.tags[i]),
            dirty: w.has(Way::DIRTY),
            prefetched: w.has(Way::PREFETCHED),
            wb_bit: w.has(Way::WB),
            wb_next: w.has(Way::WB_NEXT),
            fetch_latency: w.fetch_latency,
        }
    }

    fn evicted(&self, i: usize) -> EvictedLine {
        let v = self.view(i);
        EvictedLine {
            line: v.line,
            dirty: v.dirty,
            wb_bit: v.wb_bit,
            wb_next: v.wb_next,
            prefetched: v.prefetched,
        }
    }

    /// The next LRU stamp of `set`, renumbering the set first if its
    /// clock is at the top.
    #[inline]
    fn stamp(&mut self, set: usize) -> u16 {
        if self.clocks[set] == LRU_TOP {
            self.renumber(set);
        }
        self.clocks[set] += 1;
        self.clocks[set]
    }

    /// Gives the valid ways of `set` the stamps `1..=n` in their current
    /// stamp order (stamps within a set are distinct) and restarts the
    /// set's clock at `n`.
    #[cold]
    fn renumber(&mut self, set: usize) {
        let mut valid: Vec<usize> = self
            .set_range(set)
            .filter(|&i| self.state[i].valid())
            .collect();
        valid.sort_unstable_by_key(|&i| self.state[i].lru);
        for (n, &i) in valid.iter().enumerate() {
            self.state[i].lru = n as u16 + 1;
        }
        self.clocks[set] = valid.len() as u16;
    }

    /// Looks up a line **without** updating replacement state
    /// (a GhostMinion speculative access).
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<LineMeta> {
        self.find(line).map(|i| self.view(i))
    }

    /// Non-speculative access (the simulator's demand hit): on a hit,
    /// promotes the line per the replacement policy, clears its
    /// `prefetched` bit and, when `store` is true, sets its dirty bit.
    /// Returns `(was_prefetched, fetch_latency)` on a hit.
    #[inline]
    pub fn touch_demand(&mut self, line: LineAddr, store: bool) -> Option<(bool, u32)> {
        let i = self.find(line)?;
        let lru = self.stamp(self.set_index(line));
        let w = &mut self.state[i];
        w.lru = lru;
        w.rrpv = 0; // SRRIP: promote to imminent on reuse
        let was = w.has(Way::PREFETCHED);
        w.flags = (w.flags & !Way::PREFETCHED) | (store as u8 * Way::DIRTY);
        Some((was, w.fetch_latency))
    }

    /// Marks a resident line's first demand use: clears the `prefetched`
    /// bit and returns `(was_prefetched, fetch_latency)` if present.
    #[inline]
    pub fn mark_demand_use(&mut self, line: LineAddr) -> Option<(bool, u32)> {
        let i = self.find(line)?;
        let w = &mut self.state[i];
        let was = w.has(Way::PREFETCHED);
        w.flags &= !Way::PREFETCHED;
        Some((was, w.fetch_latency))
    }

    /// Inserts `line` at MRU with the given attributes, evicting the LRU
    /// victim of its set if the set is full. Filling a line that is already
    /// resident refreshes its attributes (ORs `dirty`, keeps it MRU) and
    /// evicts nothing.
    pub fn fill(&mut self, line: LineAddr, attrs: FillAttrs) -> Option<EvictedLine> {
        let raw = line.raw();
        let set = self.set_index(line);
        let range = self.set_range(set);
        // One pass over the set computes everything a fill can need: the
        // resident way (refresh), the first invalid way, and the LRU
        // victim — instead of three separate set scans. Tie-breaks match
        // the scan order of the former `find` / first-invalid /
        // `min_by_key` passes exactly.
        let mut hit = None;
        let mut invalid = None;
        let mut lru_idx = range.start;
        let mut lru_min = u16::MAX;
        if raw == TAG_INVALID {
            // Sentinel-aliasing line: tags cannot disambiguate, so the
            // valid flags decide (rare path).
            hit = self.find_sentinel(range.clone());
            if hit.is_none() {
                invalid = range.clone().find(|&i| !self.state[i].valid());
            }
        } else {
            for i in range.clone() {
                if self.tags[i] == raw {
                    hit = Some(i);
                    break;
                }
                let w = self.state[i];
                if !w.valid() {
                    if invalid.is_none() {
                        invalid = Some(i);
                    }
                } else if w.lru < lru_min {
                    lru_min = w.lru;
                    lru_idx = i;
                }
            }
        }
        if let Some(i) = hit {
            let lru = self.stamp(set);
            let w = &mut self.state[i];
            w.lru = lru;
            w.flags |= Way::flags_of(attrs) & !Way::PREFETCHED;
            if !attrs.prefetched {
                w.flags &= !Way::PREFETCHED;
            }
            return None;
        }
        // Prefer an invalid way; otherwise the policy picks the victim
        // (the LRU answer already fell out of the scan above).
        let victim = invalid.unwrap_or_else(|| match self.policy {
            ReplacementChoice::Lru if raw != TAG_INVALID => lru_idx,
            _ => self.pick_victim(range),
        });
        let evicted = self.state[victim].valid().then(|| self.evicted(victim));
        let lru = self.stamp(set);
        self.state[victim] = Way {
            fetch_latency: attrs.fetch_latency,
            lru,
            flags: Way::flags_of(attrs) | Way::VALID,
            rrpv: 2, // SRRIP: inserted with a "long" re-reference interval
        };
        // The sentinel-aliasing line keeps the sentinel tag; its valid
        // flag is what finds it.
        self.tags[victim] = raw;
        evicted
    }

    fn pick_victim(&mut self, range: std::ops::Range<usize>) -> usize {
        match self.policy {
            ReplacementChoice::Lru => range
                .min_by_key(|&i| self.state[i].lru)
                .expect("set has at least one way"),
            ReplacementChoice::Random => {
                // xorshift64*: deterministic, seeded at construction.
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                range.start + (self.rng as usize % self.ways)
            }
            ReplacementChoice::Srrip => {
                // Find a distant (RRPV==3) line, aging the set until one
                // appears — bounded by 3 aging rounds.
                loop {
                    if let Some(i) = range.clone().find(|&i| self.state[i].rrpv >= 3) {
                        return i;
                    }
                    for i in range.clone() {
                        self.state[i].rrpv = self.state[i].rrpv.saturating_add(1);
                    }
                }
            }
        }
    }

    /// Iterates over all valid lines (for assertions and property tests).
    pub fn iter(&self) -> impl Iterator<Item = LineMeta> + '_ {
        (0..self.tags.len())
            .filter(|&i| self.state[i].valid())
            .map(|i| self.view(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = SetAssocCache::new(16, 4);
        assert!(c.probe(la(5)).is_none());
        assert!(c.fill(la(5), FillAttrs::default()).is_none());
        assert_eq!(c.probe(la(5)).unwrap().line, la(5));
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(la(1), FillAttrs::default());
        c.fill(la(2), FillAttrs::default());
        // Touch 1 so 2 becomes LRU.
        c.touch_demand(la(1), false);
        let ev = c.fill(la(3), FillAttrs::default()).unwrap();
        assert_eq!(ev.line, la(2));
        assert!(c.probe(la(1)).is_some());
        assert!(c.probe(la(3)).is_some());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(la(1), FillAttrs::default());
        c.fill(la(2), FillAttrs::default());
        // A speculative probe of line 1 must NOT protect it.
        c.probe(la(1));
        let ev = c.fill(la(3), FillAttrs::default()).unwrap();
        assert_eq!(ev.line, la(1), "probe must not update LRU");
    }

    #[test]
    fn refill_resident_line_evicts_nothing() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(la(1), FillAttrs::default());
        c.fill(la(2), FillAttrs::default());
        assert!(c
            .fill(
                la(1),
                FillAttrs {
                    dirty: true,
                    ..Default::default()
                }
            )
            .is_none());
        assert!(c.probe(la(1)).unwrap().dirty);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(
            la(1),
            FillAttrs {
                dirty: true,
                ..Default::default()
            },
        );
        let ev = c.fill(la(2), FillAttrs::default()).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn wb_bit_round_trips_through_eviction() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(
            la(1),
            FillAttrs {
                wb_bit: true,
                ..Default::default()
            },
        );
        let ev = c.fill(la(2), FillAttrs::default()).unwrap();
        assert!(ev.wb_bit);
    }

    #[test]
    fn mark_demand_use_clears_prefetched() {
        let mut c = SetAssocCache::new(4, 2);
        c.fill(
            la(9),
            FillAttrs {
                prefetched: true,
                fetch_latency: 77,
                ..Default::default()
            },
        );
        assert_eq!(c.mark_demand_use(la(9)), Some((true, 77)));
        assert_eq!(c.mark_demand_use(la(9)), Some((false, 77)));
        assert!(!c.probe(la(9)).unwrap().prefetched);
    }

    #[test]
    fn set_isolation() {
        let mut c = SetAssocCache::new(2, 1);
        c.fill(la(0), FillAttrs::default());
        // Line 1 maps to the other set: no eviction.
        assert!(c.fill(la(1), FillAttrs::default()).is_none());
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = SetAssocCache::new(3, 2);
    }

    #[test]
    fn srrip_protects_reused_lines() {
        let mut c = SetAssocCache::with_policy(1, 2, ReplacementChoice::Srrip);
        c.fill(la(1), FillAttrs::default());
        c.fill(la(2), FillAttrs::default());
        // Reuse line 1 repeatedly: RRPV drops to 0; line 2 stays at 2.
        c.touch_demand(la(1), false);
        c.touch_demand(la(1), false);
        let ev = c.fill(la(3), FillAttrs::default()).unwrap();
        assert_eq!(ev.line, la(2), "SRRIP evicts the distant line");
        assert!(c.probe(la(1)).is_some());
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = SetAssocCache::with_policy(2, 4, ReplacementChoice::Random);
            let mut evicted = Vec::new();
            for i in 0..64u64 {
                if let Some(ev) = c.fill(la(i), FillAttrs::default()) {
                    evicted.push(ev.line);
                }
            }
            evicted
        };
        assert_eq!(run(), run(), "same seed, same victims");
        assert!(!run().is_empty());
    }

    #[test]
    fn all_policies_respect_capacity() {
        for p in [
            ReplacementChoice::Lru,
            ReplacementChoice::Srrip,
            ReplacementChoice::Random,
        ] {
            let mut c = SetAssocCache::with_policy(4, 2, p);
            for i in 0..100u64 {
                c.fill(la(i), FillAttrs::default());
            }
            assert!(c.iter().count() <= 8, "{p:?}");
        }
    }

    mod props {
        use super::*;
        use secpref_types::rng::Xoshiro256ss;
        use std::collections::HashSet;

        /// No duplicate tags within the cache, and never more lines than
        /// ways.
        #[test]
        fn no_duplicate_lines() {
            for seed in 0..48u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let ops: Vec<(u64, bool)> = (0..1 + rng.gen_index(199))
                    .map(|_| (rng.gen_u64(256), rng.gen_flip()))
                    .collect();
                let mut c = SetAssocCache::new(8, 4);
                for (addr, touch) in ops {
                    if touch {
                        c.touch_demand(la(addr), false);
                    } else {
                        c.fill(la(addr), FillAttrs::default());
                    }
                    let mut seen = HashSet::new();
                    for l in c.iter() {
                        assert!(seen.insert(l.line), "duplicate line {:?}", l.line);
                    }
                    assert!(seen.len() <= 32);
                }
            }
        }

        /// A filled line is always resident until evicted by a fill
        /// mapping to the same set.
        #[test]
        fn fills_land_in_correct_set() {
            for seed in 0..48u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let addrs: Vec<u64> = (0..1 + rng.gen_index(99))
                    .map(|_| rng.gen_u64(1024))
                    .collect();
                let mut c = SetAssocCache::new(16, 2);
                for a in addrs {
                    c.fill(la(a), FillAttrs::default());
                    let resident = c.probe(la(a)).expect("just-filled line resident");
                    assert_eq!(resident.line, la(a));
                }
                // Every resident line maps to the set it sits in.
                for (i, &tag) in c.tags.iter().enumerate() {
                    if c.state[i].valid() {
                        assert_eq!(i / c.ways, (tag as usize) & (c.sets - 1));
                    }
                }
            }
        }
    }
}
