//! The GM: a small fully-associative cache with TimeGuarding.

use secpref_types::LineAddr;

/// Result of attempting to insert a line into the GM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GmInsertOutcome {
    /// Inserted into a free slot.
    Inserted,
    /// Inserted after evicting a *younger* entry (strictness ordering
    /// permits younger state to be destroyed by older instructions).
    InsertedEvicting(LineAddr),
    /// Dropped: every resident entry belongs to an older instruction, and
    /// TimeGuarding forbids a younger instruction from evicting older
    /// state (its eviction would be observable backwards in time).
    Dropped,
    /// The line was already resident; the entry's timestamp was lowered to
    /// the older of the two (both instructions' data coexist).
    AlreadyPresent,
}

#[derive(Clone, Copy, Debug)]
struct GmEntry {
    line: LineAddr,
    /// Strictness-ordering timestamp of the inserting instruction.
    ts: u64,
    /// Fetch latency the fill experienced (kept for Berti-style training).
    latency: u32,
    valid: bool,
}

/// The 2 KB fully-associative GhostMinion cache with TimeGuarding.
///
/// Lookups carry the accessing instruction's timestamp: entries inserted
/// by *younger* instructions are invisible, so no transient instruction
/// can signal backwards in time through GM state.
///
/// # Examples
///
/// ```
/// use secpref_ghostminion::GmCache;
/// use secpref_types::LineAddr;
///
/// let mut gm = GmCache::new(32);
/// gm.insert(LineAddr::new(7), 100, 35);
/// assert!(gm.lookup(LineAddr::new(7), 150).is_some()); // younger sees it
/// assert!(gm.lookup(LineAddr::new(7), 50).is_none());  // older must not
/// ```
#[derive(Clone, Debug)]
pub struct GmCache {
    entries: Vec<GmEntry>,
    /// Flat packed tag array: `tags[i] == entries[i].line.raw()` when
    /// valid, else [`TAG_INVALID`] — lookups scan this dense word array
    /// (the same packed-tag path the set-associative caches use).
    tags: Vec<u64>,
    /// Number of valid entries (kept exact so `occupancy` is O(1)).
    live: usize,
}

/// Sentinel tag for an invalid slot. A line with this raw address is
/// findable only through the slow full scan (see [`GmCache::find_pos`]).
const TAG_INVALID: u64 = u64::MAX;

impl GmCache {
    /// Creates a GM with `slots` fully-associative entries
    /// (32 for the paper's 2 KB GM with 64 B lines).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "GM needs at least one slot");
        GmCache {
            entries: vec![
                GmEntry {
                    line: LineAddr::new(0),
                    ts: 0,
                    latency: 0,
                    valid: false,
                };
                slots
            ],
            tags: vec![TAG_INVALID; slots],
            live: 0,
        }
    }

    /// Slot index of the valid entry for `line`, via the packed tags.
    #[inline]
    fn find_pos(&self, line: LineAddr) -> Option<usize> {
        let raw = line.raw();
        if raw == TAG_INVALID {
            // Sentinel-aliasing line: only the full metadata scan works.
            return self.entries.iter().position(|e| e.valid && e.line == line);
        }
        self.tags.iter().position(|&t| t == raw)
    }

    /// Writes slot `i`'s packed tag for a just-validated `line`.
    #[inline]
    fn set_tag(&mut self, i: usize, line: LineAddr) {
        self.tags[i] = if line.raw() == TAG_INVALID {
            TAG_INVALID // slow-path line: findable only via the full scan
        } else {
            line.raw()
        };
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// TimeGuarded lookup: returns the fill latency recorded with the line
    /// if it is resident *and* was inserted by an instruction no younger
    /// than `ts`.
    pub fn lookup(&self, line: LineAddr, ts: u64) -> Option<u32> {
        let e = &self.entries[self.find_pos(line)?];
        (e.ts <= ts).then_some(e.latency)
    }

    /// [`lookup`](Self::lookup) under its old name: a forward kept because
    /// `benchmark/` pins it, to retire with that crate's next edit (ROADMAP
    /// item 4).
    pub fn lookup_commit(&self, line: LineAddr, ts: u64) -> Option<u32> {
        self.lookup(line, ts)
    }

    /// Inserts a speculative fill under TimeGuarding rules.
    pub fn insert(&mut self, line: LineAddr, ts: u64, latency: u32) -> GmInsertOutcome {
        // Already resident: keep the older timestamp so the earliest
        // instruction retains visibility rights.
        if let Some(i) = self.find_pos(line) {
            let e = &mut self.entries[i];
            e.ts = e.ts.min(ts);
            return GmInsertOutcome::AlreadyPresent;
        }
        if self.live < self.entries.len() {
            let i = self
                .entries
                .iter()
                .position(|e| !e.valid)
                .expect("live count below capacity implies a free slot");
            self.entries[i] = GmEntry {
                line,
                ts,
                latency,
                valid: true,
            };
            self.set_tag(i, line);
            self.live += 1;
            return GmInsertOutcome::Inserted;
        }
        // Full: the victim must be *younger* than the inserter. On ties
        // the *last* youngest entry is chosen (the `max_by_key` rule the
        // original scan pinned).
        let (mut idx, mut youngest_ts) = (0, self.entries[0].ts);
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            if e.ts >= youngest_ts {
                idx = i;
                youngest_ts = e.ts;
            }
        }
        if youngest_ts > ts {
            let victim = self.entries[idx].line;
            self.entries[idx] = GmEntry {
                line,
                ts,
                latency,
                valid: true,
            };
            self.set_tag(idx, line);
            GmInsertOutcome::InsertedEvicting(victim)
        } else {
            GmInsertOutcome::Dropped
        }
    }

    /// Removes the line at commit (it moves to L1D). Returns its recorded
    /// fill latency if it was resident.
    pub fn remove(&mut self, line: LineAddr) -> Option<u32> {
        let i = self.find_pos(line)?;
        self.entries[i].valid = false;
        self.tags[i] = TAG_INVALID;
        self.live -= 1;
        Some(self.entries[i].latency)
    }

    /// Drops entries older than `retire_horizon` that were never
    /// committed (squashed leftovers), freeing slots.
    pub fn expire_older_than(&mut self, retire_horizon: u64) {
        for (e, tag) in self.entries.iter_mut().zip(self.tags.iter_mut()) {
            if e.valid && e.ts < retire_horizon {
                e.valid = false;
                *tag = TAG_INVALID;
                self.live -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn insert_and_guarded_lookup() {
        let mut gm = GmCache::new(4);
        assert_eq!(gm.insert(la(1), 10, 99), GmInsertOutcome::Inserted);
        assert_eq!(gm.lookup(la(1), 10), Some(99));
        assert_eq!(gm.lookup(la(1), 11), Some(99));
        assert_eq!(
            gm.lookup(la(1), 9),
            None,
            "older instruction blind to younger fill"
        );
    }

    #[test]
    fn younger_cannot_evict_older() {
        let mut gm = GmCache::new(2);
        gm.insert(la(1), 5, 0);
        gm.insert(la(2), 6, 0);
        // ts=7 is the youngest: full GM, all entries older → drop.
        assert_eq!(gm.insert(la(3), 7, 0), GmInsertOutcome::Dropped);
        assert!(gm.lookup(la(1), 100).is_some());
        assert!(gm.lookup(la(2), 100).is_some());
    }

    #[test]
    fn older_evicts_youngest() {
        let mut gm = GmCache::new(2);
        gm.insert(la(1), 5, 0);
        gm.insert(la(2), 9, 0);
        // ts=6 may evict the younger (ts=9) entry but not ts=5.
        assert_eq!(
            gm.insert(la(3), 6, 0),
            GmInsertOutcome::InsertedEvicting(la(2))
        );
        assert!(gm.lookup(la(1), 100).is_some());
        assert!(gm.lookup(la(2), 100).is_none());
        assert!(gm.lookup(la(3), 100).is_some());
    }

    #[test]
    fn duplicate_insert_keeps_oldest_ts() {
        let mut gm = GmCache::new(2);
        gm.insert(la(1), 10, 0);
        assert_eq!(gm.insert(la(1), 4, 0), GmInsertOutcome::AlreadyPresent);
        // Now visible to ts=4.
        assert!(gm.lookup(la(1), 4).is_some());
    }

    #[test]
    fn remove_on_commit() {
        let mut gm = GmCache::new(2);
        gm.insert(la(1), 10, 42);
        assert_eq!(gm.remove(la(1)), Some(42));
        assert_eq!(gm.remove(la(1)), None);
        assert_eq!(gm.occupancy(), 0);
    }

    #[test]
    fn expire_clears_stale() {
        let mut gm = GmCache::new(4);
        gm.insert(la(1), 10, 0);
        gm.insert(la(2), 20, 0);
        gm.expire_older_than(15);
        assert!(gm.lookup(la(1), 100).is_none());
        assert!(gm.lookup(la(2), 100).is_some());
    }

    mod props {
        use super::*;
        use secpref_types::rng::Xoshiro256ss;

        /// Strictness invariant: after any operation sequence, a lookup
        /// with timestamp T never observes an entry inserted with a
        /// timestamp greater than T.
        #[test]
        fn timeguard_never_leaks_future() {
            for seed in 0..64u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let ops: Vec<(u64, u64)> = (0..1 + rng.gen_index(199))
                    .map(|_| (rng.gen_u64(32), rng.gen_u64(64)))
                    .collect();
                let mut gm = GmCache::new(8);
                let mut inserted: Vec<(u64, u64)> = Vec::new(); // (line, ts)
                for (line, ts) in ops {
                    gm.insert(la(line), ts, 1);
                    inserted.push((line, ts));
                    // Probe with an arbitrary timestamp.
                    let probe_ts = ts / 2;
                    if gm.lookup(la(line), probe_ts).is_some() {
                        // Some insertion of this line must have ts <= probe.
                        assert!(inserted.iter().any(|&(l, t)| l == line && t <= probe_ts));
                    }
                }
            }
        }
    }
}
