//! The workspace's one fully-associative LRU table: Berti's delta table,
//! Bingo's filter and accumulation tables, IPCP's region-stream table and
//! the suite's trace cache are each an [`LruTable`].
//!
//! Keys, stamps and values live in three parallel vectors, so a lookup
//! scans packed keys (and a matching slot's stamp) without loading any
//! value, and a victim scan reads the stamps alone.
//!
//! # Replacement rules
//!
//! - Each slot carries the stamp of its last touch; stamp 0 marks an
//!   empty slot, and a lookup never matches one (its stale key stays in
//!   place, so a key removed here and inserted elsewhere has one live
//!   slot).
//! - The victim is the first slot with the smallest stamp, so an empty
//!   slot, when there is one, wins.
//! - [`LruTable::insert`] hands back the evicted key and value only when
//!   the victim was live.
//!
//! # One clock per table
//!
//! Every stamp a table writes is one more than its previous one, so
//! stamps order the slots by last touch and nothing else about the
//! clock matters. Tables that a model drives from one shared clock
//! (Bingo's filter and accumulation tables, one tick per access) may
//! therefore keep a clock each: as long as each event stamps each table
//! at most once, the stamps one table sees rise in the same order under
//! either clock, and a victim scan compares stamps only within its own
//! table, so the victims are the same.

use std::mem;

/// A fixed-capacity, fully-associative table with least-recently-used
/// replacement (rules in the [module docs](self)).
///
/// `get_mut`, `get_or_insert_with` and `insert` touch the slot they
/// return; `peek` and `peek_mut` do not.
///
/// # Examples
///
/// ```
/// use secpref_types::lru::LruTable;
///
/// let mut t: LruTable<u32, &str> = LruTable::new(2);
/// assert_eq!(t.insert(1, "a"), None); // empty slots fill first
/// assert_eq!(t.insert(2, "b"), None);
/// t.get_mut(&1); // 2 is now least recently used
/// assert_eq!(t.insert(3, "c"), Some((2, "b")));
/// assert_eq!(t.peek(&1), Some(&"a"));
/// assert_eq!(t.remove(&1), Some("a"));
/// assert_eq!(t.live(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LruTable<K, V> {
    keys: Vec<K>,
    /// Stamp of each slot's last touch; 0 marks an empty slot.
    stamps: Vec<u64>,
    values: Vec<V>,
    /// The last stamp written.
    lru_clock: u64,
}

impl<K: PartialEq + Default, V: Default> LruTable<K, V> {
    /// Creates a table of `capacity` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU table needs a slot");
        LruTable {
            keys: (0..capacity).map(|_| K::default()).collect(),
            stamps: vec![0; capacity],
            values: (0..capacity).map(|_| V::default()).collect(),
            lru_clock: 0,
        }
    }

    /// Number of live slots.
    pub fn live(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// The live slot holding `key`.
    fn position(&self, key: &K) -> Option<usize> {
        self.keys
            .iter()
            .zip(&self.stamps)
            .position(|(k, &s)| k == key && s != 0)
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: usize) -> &mut V {
        self.lru_clock += 1;
        self.stamps[i] = self.lru_clock;
        &mut self.values[i]
    }

    /// The first slot with the smallest stamp.
    fn victim(&self) -> usize {
        (0..self.stamps.len())
            .min_by_key(|&i| self.stamps[i])
            .unwrap_or(0)
    }

    /// `key`'s value, without touching it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.position(key).map(|i| &self.values[i])
    }

    /// `key`'s value for update, without touching it.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key).map(|i| &mut self.values[i])
    }

    /// `key`'s value, touched.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.position(key)?;
        Some(self.touch(i))
    }

    /// `key`'s value, touched; when `key` is absent, `make()` is inserted
    /// over the victim first (whatever that evicts is dropped).
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Some(i) => i,
            None => {
                let i = self.victim();
                self.keys[i] = key;
                self.values[i] = make();
                i
            }
        };
        self.touch(i)
    }

    /// Inserts `key`, which must not be live, over the victim, touched.
    /// Returns the victim's key and value if it was live.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        debug_assert!(self.position(&key).is_none(), "key inserted twice");
        let i = self.victim();
        let live = self.stamps[i] != 0;
        let old_key = mem::replace(&mut self.keys[i], key);
        let old_value = mem::replace(&mut self.values[i], value);
        self.touch(i);
        live.then_some((old_key, old_value))
    }

    /// Empties `key`'s slot, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.position(key)?;
        self.stamps[i] = 0;
        Some(mem::take(&mut self.values[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256ss;

    #[test]
    fn ties_go_to_the_first_empty_slot() {
        let mut t: LruTable<u64, u64> = LruTable::new(4);
        for k in 10..14 {
            assert_eq!(t.insert(k, k), None);
        }
        // Empty slots 1 and 2 (in that order of position, not of removal).
        t.remove(&12);
        t.remove(&11);
        t.insert(20, 20);
        assert_eq!(t.keys, [10, 20, 12, 13], "first empty slot refilled");
        assert_eq!(
            t.insert(21, 21),
            None,
            "second empty slot before any live one"
        );
        assert_eq!(t.keys, [10, 20, 21, 13]);
    }

    #[test]
    fn insert_returns_only_live_victims() {
        let mut t: LruTable<u64, &str> = LruTable::new(2);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(2, "b"), None);
        assert_eq!(t.insert(3, "c"), Some((1, "a")));
        assert_eq!(t.remove(&2), Some("b"));
        // The victim is 2's emptied slot: nothing live is evicted.
        assert_eq!(t.insert(4, "d"), None);
        assert_eq!(t.insert(5, "e"), Some((3, "c")));
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn peek_does_not_reorder() {
        let mut t: LruTable<u64, u64> = LruTable::new(2);
        t.insert(1, 100);
        t.insert(2, 200);
        assert_eq!(t.peek(&1), Some(&100));
        *t.peek_mut(&1).unwrap() += 1;
        assert_eq!(t.insert(3, 300), Some((1, 101)), "1 stays least recent");
        assert_eq!(t.get_mut(&2).copied(), Some(200));
        assert_eq!(t.insert(4, 400), Some((3, 300)), "get_mut reorders");
    }

    #[test]
    fn removed_key_reinserted_elsewhere_has_one_live_slot() {
        let mut t: LruTable<u64, u64> = LruTable::new(3);
        t.insert(7, 1);
        t.insert(8, 2);
        t.remove(&7);
        t.remove(&8);
        t.insert(9, 3); // slot 0: 7's stale key is overwritten
        t.insert(7, 4); // slot 1, where 8's stale key was
        t.insert(8, 5); // slot 2
        assert_eq!(t.keys, [9, 7, 8]);
        t.remove(&7);
        // Slot 1 still holds key 7, stamped empty: no lookup finds it.
        assert_eq!(t.keys[1], 7);
        assert_eq!(t.peek(&7), None);
        assert_eq!(t.get_mut(&7), None);
        assert_eq!(t.remove(&7), None);
        // Re-inserted, 7 lands in slot 1 again and is found once.
        assert_eq!(t.insert(7, 6), None);
        assert_eq!(t.peek(&7), Some(&6));
        assert_eq!(t.remove(&7), Some(6));
        assert_eq!(t.peek(&7), None);
        assert_eq!(t.live(), 2);
    }

    /// The naive model: live `(key, value, stamp)` entries in no
    /// particular order, with the victim chosen by comparing stamps.
    struct Reference {
        cap: usize,
        live: Vec<(u64, u64, u64)>,
        clock: u64,
    }

    impl Reference {
        fn touch(&mut self, i: usize) -> u64 {
            self.clock += 1;
            self.live[i].2 = self.clock;
            self.live[i].1
        }

        fn find(&self, key: u64) -> Option<usize> {
            self.live.iter().position(|e| e.0 == key)
        }

        /// Evicts the least recently used entry when full.
        fn make_room(&mut self) -> Option<(u64, u64)> {
            if self.live.len() < self.cap {
                return None;
            }
            let (i, _) = self.live.iter().enumerate().min_by_key(|(_, e)| e.2)?;
            let (k, v, _) = self.live.swap_remove(i);
            Some((k, v))
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
            let evicted = self.make_room();
            self.live.push((key, value, 0));
            let last = self.live.len() - 1;
            self.touch(last);
            evicted
        }
    }

    #[test]
    fn matches_a_naive_reference_under_random_operations() {
        for (seed, cap) in [(1u64, 1usize), (2, 8), (3, 128)] {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let mut t: LruTable<u64, u64> = LruTable::new(cap);
            let mut r = Reference {
                cap,
                live: Vec::new(),
                clock: 0,
            };
            // Keys drawn from twice the capacity, so hits, misses,
            // evictions and removals of absent keys all occur often.
            let span = 2 * cap as u64 + 1;
            for step in 0..12_000u64 {
                let key = rng.gen_u64(span);
                let what = format!("cap {cap}, step {step}, key {key}");
                match rng.gen_index(6) {
                    0 => {
                        let want = r.find(key).map(|i| r.touch(i));
                        assert_eq!(t.get_mut(&key).copied(), want, "get_mut: {what}");
                    }
                    1 => {
                        let want = r.find(key).map(|i| r.live[i].1);
                        assert_eq!(t.peek(&key).copied(), want, "peek: {what}");
                        if let Some(v) = t.peek_mut(&key) {
                            *v += 1;
                            let i = r.find(key).expect("peeked key is live");
                            r.live[i].1 += 1;
                        }
                    }
                    2 => {
                        let want = r.find(key).map(|i| r.live.swap_remove(i).1);
                        assert_eq!(t.remove(&key), want, "remove: {what}");
                    }
                    3 => {
                        let want = match r.find(key) {
                            Some(i) => r.touch(i),
                            None => {
                                r.insert(key, step);
                                step
                            }
                        };
                        assert_eq!(
                            *t.get_or_insert_with(key, || step),
                            want,
                            "get_or_insert_with: {what}"
                        );
                    }
                    _ => {
                        if r.find(key).is_none() {
                            let want = r.insert(key, step);
                            assert_eq!(t.insert(key, step), want, "insert: {what}");
                        }
                    }
                }
                assert_eq!(t.live(), r.live.len(), "live: {what}");
            }
        }
    }
}
