//! Golden functional models of the cache hierarchy and the GhostMinion
//! commit protocol, plus the [`CheckedFilter`] differential hook.
//!
//! The golden models deliberately trade every ounce of performance for
//! obviousness: a cache set is a `Vec` kept in MRU→LRU order, the GM is a
//! slot array whose TimeGuarding rules are transcribed straight from the
//! GhostMinion paper's prose, and the commit protocol is a pure lookup
//! table keyed by the filter's [`describe`](secpref_ghostminion::UpdateFilter::describe)
//! identity. The real `secpref-mem`/`secpref-ghostminion` structures are
//! replayed against them op-for-op (tag-state equivalence after every
//! operation), and the real simulator's commit decisions are checked
//! against the table at every commit boundary via [`CheckedFilter`].

use secpref_ghostminion::{CommitAction, GmInsertOutcome, UpdateFilter, WbBits};
use secpref_mem::{EvictedLine, LineMeta};
use secpref_types::{HitLevel, LineAddr};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Golden set-associative LRU cache: each set is a `Vec<LineMeta>` in
/// MRU→LRU order. The victim is always the back of the vector, which is
/// exactly `SetAssocCache`'s min-LRU-clock victim because fills and
/// demand touches (the only LRU-clock writers) move lines to the front
/// here.
#[derive(Clone, Debug)]
pub struct GoldenCache {
    sets: Vec<Vec<LineMeta>>,
    ways: usize,
}

impl GoldenCache {
    /// Creates an empty golden cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && sets.is_power_of_two() && ways > 0);
        GoldenCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set_of(&mut self, line: LineAddr) -> &mut Vec<LineMeta> {
        let idx = (line.raw() as usize) & (self.sets.len() - 1);
        &mut self.sets[idx]
    }

    fn set_ref(&self, line: LineAddr) -> &Vec<LineMeta> {
        &self.sets[(line.raw() as usize) & (self.sets.len() - 1)]
    }

    /// Speculative lookup: no replacement-state change.
    pub fn probe(&self, line: LineAddr) -> Option<&LineMeta> {
        self.set_ref(line).iter().find(|l| l.line == line)
    }

    /// Demand access: moves the line to MRU, clears `prefetched`, sets
    /// `dirty` on a store, and returns `(was_prefetched, fetch_latency)`.
    pub fn touch_demand(&mut self, line: LineAddr, store: bool) -> Option<(bool, u32)> {
        let set = self.set_of(line);
        let i = set.iter().position(|l| l.line == line)?;
        let mut l = set.remove(i);
        let was = l.prefetched;
        l.prefetched = false;
        l.dirty |= store;
        set.insert(0, l);
        Some((was, l.fetch_latency))
    }

    /// Clears the `prefetched` bit, returning `(was_prefetched, latency)`.
    /// Does not disturb LRU order (mirrors the real cache).
    pub fn mark_demand_use(&mut self, line: LineAddr) -> Option<(bool, u32)> {
        let set = self.set_of(line);
        let l = set.iter_mut().find(|l| l.line == line)?;
        let was = l.prefetched;
        l.prefetched = false;
        Some((was, l.fetch_latency))
    }

    /// Inserts at MRU, evicting the LRU line of a full set. Refilling a
    /// resident line ORs the sticky bits, ANDs `prefetched`, keeps the old
    /// fetch latency, and moves it to MRU without evicting.
    pub fn fill(&mut self, new: LineMeta) -> Option<EvictedLine> {
        let ways = self.ways;
        let set = self.set_of(new.line);
        if let Some(i) = set.iter().position(|l| l.line == new.line) {
            let mut l = set.remove(i);
            l.dirty |= new.dirty;
            l.prefetched &= new.prefetched;
            l.wb_bit |= new.wb_bit;
            l.wb_next |= new.wb_next;
            set.insert(0, l);
            return None;
        }
        let evicted = if set.len() == ways {
            let v = set.pop().expect("full set is nonempty");
            Some(EvictedLine {
                line: v.line,
                dirty: v.dirty,
                wb_bit: v.wb_bit,
                wb_next: v.wb_next,
                prefetched: v.prefetched,
            })
        } else {
            None
        };
        set.insert(0, new);
        evicted
    }

    /// All resident lines, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &LineMeta> {
        self.sets.iter().flatten()
    }
}

/// Golden GhostMinion GM: a fixed slot array with the TimeGuarding rules
/// written out longhand. Slot allocation (first free slot; last max-ts
/// victim) mirrors the real `GmCache` so states stay bit-identical.
#[derive(Clone, Debug)]
pub struct GoldenGm {
    slots: Vec<Option<(LineAddr, u64, u32)>>,
}

impl GoldenGm {
    /// Creates an empty golden GM with `slots` entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0);
        GoldenGm {
            slots: vec![None; slots],
        }
    }

    /// TimeGuarded lookup: an entry is visible only to instructions no
    /// older than its inserter (`entry ts <= probe ts`).
    pub fn lookup(&self, line: LineAddr, ts: u64) -> Option<u32> {
        self.slots
            .iter()
            .flatten()
            .find(|&&(l, t, _)| l == line && t <= ts)
            .map(|&(_, _, lat)| lat)
    }

    /// Insert under TimeGuarding: duplicates keep the older timestamp;
    /// free slots fill; a full GM may only evict a strictly-younger entry
    /// (otherwise the insert is dropped — younger instructions must not
    /// destroy older state).
    pub fn insert(&mut self, line: LineAddr, ts: u64, latency: u32) -> GmInsertOutcome {
        if let Some(e) = self.slots.iter_mut().flatten().find(|(l, _, _)| *l == line) {
            e.1 = e.1.min(ts);
            return GmInsertOutcome::AlreadyPresent;
        }
        if let Some(slot) = self.slots.iter_mut().find(|s| s.is_none()) {
            *slot = Some((line, ts, latency));
            return GmInsertOutcome::Inserted;
        }
        // Full: victim is the youngest entry — the *last* slot holding the
        // maximal timestamp, matching `Iterator::max_by_key` tie-breaking.
        let (idx, youngest_ts) = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.expect("GM full").1))
            .max_by_key(|&(_, t)| t)
            .expect("GM nonempty");
        if youngest_ts > ts {
            let victim = self.slots[idx].expect("victim resident").0;
            self.slots[idx] = Some((line, ts, latency));
            GmInsertOutcome::InsertedEvicting(victim)
        } else {
            GmInsertOutcome::Dropped
        }
    }

    /// Removes the line at commit, returning its recorded latency.
    pub fn remove(&mut self, line: LineAddr) -> Option<u32> {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| matches!(s, Some((l, _, _)) if *l == line))?;
        let lat = slot.expect("matched slot is resident").2;
        *slot = None;
        Some(lat)
    }

    /// Drops squashed leftovers: every entry with `ts < horizon`.
    pub fn expire_older_than(&mut self, horizon: u64) {
        for slot in &mut self.slots {
            if matches!(slot, Some((_, t, _)) if *t < horizon) {
                *slot = None;
            }
        }
    }

    /// Number of resident entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Resident `(line, ts)` pairs, in slot order.
    pub fn entries(&self) -> Vec<(LineAddr, u64)> {
        self.slots
            .iter()
            .flatten()
            .map(|&(l, t, _)| (l, t))
            .collect()
    }
}

/// The golden commit-action table for a filter identity, or `None` for an
/// identity the golden model does not know.
pub fn golden_commit_action(
    filter: &str,
    hit_level: HitLevel,
    gm_hit: bool,
) -> Option<CommitAction> {
    let suf_table = |hit_level: HitLevel, gm_hit: bool| {
        if hit_level == HitLevel::L1d {
            CommitAction::Drop
        } else if gm_hit {
            CommitAction::CommitWrite
        } else {
            CommitAction::Refetch
        }
    };
    let baseline_table = |gm_hit: bool| {
        if gm_hit {
            CommitAction::CommitWrite
        } else {
            CommitAction::Refetch
        }
    };
    match filter {
        "always-update" | "suf-propagate-only" => Some(baseline_table(gm_hit)),
        "suf" | "suf-drop-only" => Some(suf_table(hit_level, gm_hit)),
        _ => None,
    }
}

/// The golden writeback-bit table for a filter identity: propagation stops
/// at the level *before* the one that served the data under SUF; baseline
/// GhostMinion always propagates everywhere.
pub fn golden_wb_bits(filter: &str, hit_level: HitLevel) -> Option<WbBits> {
    let suf_bits = WbBits {
        l1_to_l2: hit_level > HitLevel::L2,
        l2_to_llc: hit_level > HitLevel::Llc,
    };
    match filter {
        "always-update" | "suf-drop-only" => Some(WbBits::ALL),
        "suf" | "suf-propagate-only" => Some(suf_bits),
        _ => None,
    }
}

/// Differential wrapper around any [`UpdateFilter`]: every commit-path
/// decision the real filter makes is recomputed from the golden table and
/// the two must agree, or the run panics with the divergent inputs. The
/// simulator cannot tell the difference — `describe()` is forwarded, so
/// run artifacts keep the inner filter's identity.
#[derive(Debug)]
pub struct CheckedFilter {
    inner: Box<dyn UpdateFilter>,
    checks: Arc<AtomicU64>,
}

impl CheckedFilter {
    /// Wraps `inner`.
    ///
    /// # Panics
    ///
    /// Panics immediately if the golden table does not know the inner
    /// filter's `describe()` identity (a checked run would be vacuous).
    pub fn new(inner: Box<dyn UpdateFilter>) -> Self {
        assert!(
            golden_commit_action(inner.describe(), HitLevel::L1d, true).is_some(),
            "golden model does not know filter identity {:?}",
            inner.describe()
        );
        CheckedFilter {
            inner,
            checks: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shared counter of differential checks performed; the fuzz harness
    /// asserts it is nonzero so a secure cell can never pass vacuously.
    pub fn checks_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.checks)
    }
}

impl UpdateFilter for CheckedFilter {
    fn commit_action(&self, hit_level: HitLevel, gm_hit: bool) -> CommitAction {
        let got = self.inner.commit_action(hit_level, gm_hit);
        let want = golden_commit_action(self.inner.describe(), hit_level, gm_hit)
            .expect("identity validated at construction");
        assert_eq!(
            got,
            want,
            "commit-action divergence: filter={} hit_level={hit_level:?} gm_hit={gm_hit}",
            self.inner.describe()
        );
        self.checks.fetch_add(1, Ordering::Relaxed);
        got
    }

    fn wb_bits(&self, hit_level: HitLevel) -> WbBits {
        let got = self.inner.wb_bits(hit_level);
        let want = golden_wb_bits(self.inner.describe(), hit_level)
            .expect("identity validated at construction");
        assert_eq!(
            got,
            want,
            "writeback-bit divergence: filter={} hit_level={hit_level:?}",
            self.inner.describe()
        );
        self.checks.fetch_add(1, Ordering::Relaxed);
        got
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn describe(&self) -> &'static str {
        self.inner.describe()
    }
}

/// A deliberately broken SUF that skips exactly one L1D-served drop
/// (returning `Refetch` instead). Exists so the meta-tests can prove the
/// differential checker actually fires on a single-decision mutation.
#[derive(Debug, Default)]
pub struct SkipOneDropMutant {
    fired: Cell<bool>,
}

impl UpdateFilter for SkipOneDropMutant {
    fn commit_action(&self, hit_level: HitLevel, gm_hit: bool) -> CommitAction {
        if hit_level == HitLevel::L1d && !self.fired.replace(true) {
            return CommitAction::Refetch; // the injected bug
        }
        secpref_core::SecureUpdateFilter::new().commit_action(hit_level, gm_hit)
    }

    fn wb_bits(&self, hit_level: HitLevel) -> WbBits {
        secpref_core::SecureUpdateFilter::new().wb_bits(hit_level)
    }

    fn storage_bits(&self) -> u64 {
        secpref_core::SecureUpdateFilter::new().storage_bits()
    }

    fn describe(&self) -> &'static str {
        "suf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_core::{DropOnlySuf, PropagateOnlySuf, SecureUpdateFilter};
    use secpref_ghostminion::AlwaysUpdate;
    use secpref_types::HitLevel;

    const LEVELS: [HitLevel; 4] = [HitLevel::L1d, HitLevel::L2, HitLevel::Llc, HitLevel::Dram];

    #[test]
    fn golden_table_matches_every_real_filter() {
        let filters: Vec<Box<dyn UpdateFilter>> = vec![
            Box::new(AlwaysUpdate),
            Box::new(SecureUpdateFilter::new()),
            Box::new(DropOnlySuf),
            Box::new(PropagateOnlySuf),
        ];
        for f in &filters {
            for hl in LEVELS {
                for gm_hit in [false, true] {
                    assert_eq!(
                        Some(f.commit_action(hl, gm_hit)),
                        golden_commit_action(f.describe(), hl, gm_hit),
                        "{} / {hl:?} / gm_hit={gm_hit}",
                        f.describe()
                    );
                }
                assert_eq!(
                    Some(f.wb_bits(hl)),
                    golden_wb_bits(f.describe(), hl),
                    "{} / {hl:?}",
                    f.describe()
                );
            }
        }
    }

    #[test]
    fn checked_filter_is_transparent_and_counts() {
        let f = CheckedFilter::new(Box::new(SecureUpdateFilter::new()));
        let checks = f.checks_handle();
        assert_eq!(f.commit_action(HitLevel::L1d, false), CommitAction::Drop);
        assert_eq!(f.wb_bits(HitLevel::Dram), WbBits::ALL);
        assert_eq!(f.describe(), "suf");
        assert_eq!(checks.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "commit-action divergence")]
    fn checker_catches_a_skipped_suf_drop() {
        let f = CheckedFilter::new(Box::new(SkipOneDropMutant::default()));
        f.commit_action(HitLevel::L1d, true);
    }

    #[test]
    #[should_panic(expected = "does not know filter identity")]
    fn unknown_filter_identity_is_rejected() {
        #[derive(Debug)]
        struct Nameless;
        impl UpdateFilter for Nameless {
            fn commit_action(&self, _: HitLevel, _: bool) -> CommitAction {
                CommitAction::Drop
            }
            fn wb_bits(&self, _: HitLevel) -> WbBits {
                WbBits::ALL
            }
            fn storage_bits(&self) -> u64 {
                0
            }
            fn describe(&self) -> &'static str {
                "mystery"
            }
        }
        let _ = CheckedFilter::new(Box::new(Nameless));
    }

    #[test]
    fn golden_cache_basic_lru() {
        let mut g = GoldenCache::new(1, 2);
        let line = |x: u64| LineMeta {
            line: LineAddr::new(x),
            dirty: false,
            prefetched: false,
            wb_bit: false,
            wb_next: false,
            fetch_latency: 0,
        };
        assert!(g.fill(line(1)).is_none());
        assert!(g.fill(line(2)).is_none());
        g.touch_demand(LineAddr::new(1), false);
        let ev = g.fill(line(3)).expect("full set evicts");
        assert_eq!(ev.line, LineAddr::new(2));
        assert_eq!(g.iter().count(), 2);
    }

    #[test]
    fn golden_gm_timeguarding() {
        let mut g = GoldenGm::new(2);
        assert_eq!(g.insert(LineAddr::new(1), 5, 9), GmInsertOutcome::Inserted);
        assert_eq!(g.lookup(LineAddr::new(1), 4), None);
        assert_eq!(g.lookup(LineAddr::new(1), 5), Some(9));
        g.insert(LineAddr::new(2), 9, 0);
        // ts=6 may evict the younger ts=9 entry.
        assert_eq!(
            g.insert(LineAddr::new(3), 6, 0),
            GmInsertOutcome::InsertedEvicting(LineAddr::new(2))
        );
        // ts=100 sees all entries older: drop.
        assert_eq!(g.insert(LineAddr::new(4), 100, 0), GmInsertOutcome::Dropped);
        g.expire_older_than(6);
        assert_eq!(g.occupancy(), 1);
    }
}
