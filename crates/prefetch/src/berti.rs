//! Berti: the local-delta L1D prefetcher (Navarro-Torres et al.,
//! MICRO 2022). Table III configuration: 128-entry history table,
//! 16-entry delta table with 16 deltas each (2.55 KB).
//!
//! Berti is *self-timing*: it measures each fill's fetch latency and only
//! learns deltas large enough that a prefetch triggered by the earlier
//! access would have completed before the later access needed the data.
//! Deltas with high per-IP coverage are prefetched into L1D, lower
//! coverage into L2 (orchestration), modulated by L1D MSHR pressure.
//!
//! The [`BertiEngine`] exposes the training machinery with explicit
//! timestamps/latencies so that the paper's TSB (in `secpref-core`) can
//! feed it X-LQ access times and true fetch latencies, while the plain
//! [`OnAccessBerti`] wrapper feeds whatever it observes at its training
//! point (which, for naive on-commit operation on GhostMinion, is the
//! misleading 1-cycle GM→L1D commit-write latency — the paper's Fig. 8
//! pathology).

use crate::{AccessEvent, FillEvent, PfBuf, Prefetcher};
use secpref_types::{Cycle, Ip, LineAddr, PrefetchRequest};

const HISTORY_SIZE: usize = 128;
const DELTA_TABLE_SIZE: usize = 16;
const DELTAS_PER_ENTRY: usize = 16;
/// Coverage (×100) required to prefetch into L1D.
const L1D_COVERAGE: u32 = 60;
/// Coverage (×100) required to prefetch into L2.
const L2_COVERAGE: u32 = 30;
/// Searches before coverage estimates are trusted.
const MIN_SEARCHES: u8 = 6;
/// When the L1D MSHR has fewer free slots, demote L1D prefetches to L2.
const MSHR_SLACK: usize = 4;
const MAX_ABS_DELTA: i64 = 1024;
/// log2 of the lines per history region. A region is as long as the
/// largest delta, so a line within `MAX_ABS_DELTA` of another lies in
/// the same region or a neighbouring one.
const REGION_SHIFT: u32 = 10;
const _: () = assert!(1 << REGION_SHIFT == MAX_ABS_DELTA);
/// Hash buckets threading the history (a power of two, at least three so
/// that neighbouring regions never share one).
const HIST_BUCKETS: usize = 256;
/// Maximum prefetch requests issued per trigger (PQ bandwidth).
const MAX_PF_PER_TRIGGER: usize = 8;
/// History slots scanned for same-line dedup on insert.
const DEDUP_SCAN: u64 = 8;

#[derive(Clone, Copy, Debug, Default)]
struct HistEntry {
    tag: u32,
    line: LineAddr,
    /// The time this access could have triggered a prefetch.
    trigger_time: Cycle,
    /// Stamp of the next older entry in the same bucket.
    older: u64,
}

/// The access history: a ring threaded by hash bucket, so that
/// [`BertiEngine::train`] visits only entries that can be near its line.
///
/// Entries are numbered by *stamp*, the count of insertions up to and
/// including theirs (0 means none). Stamp `s` lives in slot `(s - 1) %
/// HISTORY_SIZE` until stamp `s + HISTORY_SIZE` overwrites it, so whether
/// a stamp still names a live entry is one comparison with `inserted`
/// and nothing is ever unlinked: a chain ends at its first dead stamp
/// (what lies behind it is older still).
#[derive(Clone, Debug)]
struct History {
    ring: [HistEntry; HISTORY_SIZE],
    /// Stamp of the newest entry of each bucket.
    newest: [u64; HIST_BUCKETS],
    inserted: u64,
}

impl History {
    fn entry(&self, stamp: u64) -> Option<&HistEntry> {
        let live = stamp > self.inserted.saturating_sub(HISTORY_SIZE as u64);
        live.then(|| &self.ring[(stamp - 1) as usize % HISTORY_SIZE])
    }

    /// Bucket of `tag`'s accesses to `region`: consecutive regions of
    /// one IP fall in consecutive buckets, IPs are spread by a
    /// multiplicative hash.
    fn bucket(tag: u32, region: u64) -> usize {
        let spread = tag.wrapping_mul(0x9E37_79B9) >> 24;
        (region as usize).wrapping_add(spread as usize) % HIST_BUCKETS
    }

    /// The newest `n` entries, newest first.
    fn recent(&self, n: u64) -> impl Iterator<Item = &HistEntry> {
        (0..n).map_while(|k| self.entry(self.inserted.checked_sub(k)?))
    }

    fn push(&mut self, tag: u32, line: LineAddr, trigger_time: Cycle) {
        let bucket = &mut self.newest[Self::bucket(tag, line.raw() >> REGION_SHIFT)];
        let older = std::mem::replace(bucket, self.inserted + 1);
        self.ring[self.inserted as usize % HISTORY_SIZE] = HistEntry {
            tag,
            line,
            trigger_time,
            older,
        };
        self.inserted += 1;
    }

    /// Newest first, a superset of `tag`'s entries within `MAX_ABS_DELTA`
    /// lines of `line`: the chains of the three buckets such an entry
    /// can be in, merged by age.
    fn near(&self, tag: u32, line: LineAddr) -> impl Iterator<Item = &HistEntry> {
        let region = line.raw() >> REGION_SHIFT;
        let mut next = [region.wrapping_sub(1), region, region.wrapping_add(1)]
            .map(|r| self.newest[Self::bucket(tag, r)]);
        std::iter::from_fn(move || {
            let chain = (0..3).max_by_key(|&c| next[c])?;
            let e = self.entry(next[chain])?;
            next[chain] = e.older;
            Some(e)
        })
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct DeltaStat {
    delta: i32,
    count: u8,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct DeltaEntry {
    valid: bool,
    deltas: [DeltaStat; DELTAS_PER_ENTRY],
    searches: u8,
    lru: u64,
}

/// The Berti training/prediction engine.
///
/// # Examples
///
/// ```
/// use secpref_prefetch::{BertiEngine, PfBuf};
/// use secpref_types::{Ip, LineAddr};
///
/// let mut e = BertiEngine::new();
/// let ip = Ip::new(0x4);
/// // Accesses to consecutive lines every 10 cycles; fetch latency 35:
/// // only deltas >= 4 are timely (4 accesses × 10 cycles >= 35).
/// for i in 0..40u64 {
///     let t = i * 10;
///     e.record_access(ip, LineAddr::new(i), t);
///     e.train(ip, LineAddr::new(i), t, 35);
/// }
/// let mut out = PfBuf::new();
/// e.prefetches(ip, LineAddr::new(40), 16, &mut out);
/// assert!(out.iter().all(|r| r.line.raw() >= 44), "learned timely delta");
/// ```
#[derive(Clone, Debug)]
pub struct BertiEngine {
    history: History,
    table: Vec<DeltaEntry>,
    /// Packed ip-tags parallel to `table` (same trick for row lookup).
    table_tags: Vec<u32>,
    lru_clock: u64,
}

impl Default for BertiEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BertiEngine {
    /// Creates the Table III configuration.
    pub fn new() -> Self {
        BertiEngine {
            history: History {
                ring: [HistEntry::default(); HISTORY_SIZE],
                newest: [0; HIST_BUCKETS],
                inserted: 0,
            },
            table: vec![DeltaEntry::default(); DELTA_TABLE_SIZE],
            table_tags: vec![0; DELTA_TABLE_SIZE],
            lru_clock: 0,
        }
    }

    fn ip_tag(ip: Ip) -> u32 {
        (ip.raw() ^ (ip.raw() >> 17)) as u32
    }

    /// Records an access as a potential future prefetch trigger.
    /// `trigger_time` is when a prefetch issued by this access would have
    /// left: the access time for on-access prefetching, the commit time
    /// for on-commit prefetching.
    pub fn record_access(&mut self, ip: Ip, line: LineAddr, trigger_time: Cycle) {
        let tag = Self::ip_tag(ip);
        // Same-line dedup: repeated accesses within a line would flood the
        // history and shrink its effective depth; keep the earliest entry
        // (the earliest prefetch-trigger opportunity).
        let same = |e: &HistEntry| e.tag == tag && e.line == line;
        if !self.history.recent(DEDUP_SCAN).any(same) {
            self.history.push(tag, line, trigger_time);
        }
    }

    /// Trains deltas for (`ip`, `line`): searches the history for same-IP
    /// accesses whose `trigger_time + latency <= need_time` (a prefetch
    /// they triggered would have arrived in time) and credits the delta.
    pub fn train(&mut self, ip: Ip, line: LineAddr, need_time: Cycle, latency: u32) {
        let tag = Self::ip_tag(ip);
        let mut timely = [0i32; DELTAS_PER_ENTRY];
        let mut n = 0;
        // With `need_time < latency` no trigger could have been timely.
        if let Some(latest) = need_time.checked_sub(latency as Cycle) {
            // Newest → oldest: the nearest timely access yields the
            // smallest (most reusable) delta, as in the Berti hardware
            // search, which keeps the first `DELTAS_PER_ENTRY` distinct
            // ones.
            for e in self.history.near(tag, line) {
                if e.tag != tag || e.trigger_time > latest {
                    continue;
                }
                let d = line.delta(e.line);
                if d == 0 || d.unsigned_abs() > MAX_ABS_DELTA as u64 {
                    continue;
                }
                if !timely[..n].contains(&(d as i32)) {
                    timely[n] = d as i32;
                    n += 1;
                    if n == DELTAS_PER_ENTRY {
                        break;
                    }
                }
            }
        }
        self.credit(tag, &timely[..n]);
    }

    /// Books one search of `tag`'s row and credits the `timely` deltas
    /// it found.
    fn credit(&mut self, tag: u32, timely: &[i32]) {
        if timely.is_empty() {
            // Still count the search so coverage reflects misses the
            // learned deltas would not have covered.
            self.bump_search(tag);
            return;
        }
        let e = self.entry_mut(tag);
        e.searches = e.searches.saturating_add(1);
        for d in timely {
            if let Some(s) = e.deltas.iter_mut().find(|s| s.delta == *d && s.count > 0) {
                s.count = s.count.saturating_add(1);
            } else if let Some(s) = e.deltas.iter_mut().min_by_key(|s| s.count) {
                *s = DeltaStat {
                    delta: *d,
                    count: 1,
                };
            }
        }
        if e.searches >= 64 {
            e.searches /= 2;
            for s in &mut e.deltas {
                s.count /= 2;
            }
        }
    }

    fn bump_search(&mut self, tag: u32) {
        if let Some(i) = self.table_idx(tag) {
            self.table[i].searches = self.table[i].searches.saturating_add(1);
        }
    }

    /// Row lookup through the packed tag array; a tag match is confirmed
    /// against the entry's valid bit (valid rows have unique tags).
    #[inline]
    fn table_idx(&self, tag: u32) -> Option<usize> {
        self.table_tags
            .iter()
            .enumerate()
            .find_map(|(i, &t)| (t == tag && self.table[i].valid).then_some(i))
    }

    fn entry_mut(&mut self, tag: u32) -> &mut DeltaEntry {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        if let Some(i) = self.table_idx(tag) {
            self.table[i].lru = clock;
            return &mut self.table[i];
        }
        let victim = self
            .table
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("delta table nonempty");
        self.table[victim] = DeltaEntry {
            valid: true,
            deltas: [DeltaStat::default(); DELTAS_PER_ENTRY],
            searches: 0,
            lru: clock,
        };
        self.table_tags[victim] = tag;
        &mut self.table[victim]
    }

    /// Issues prefetch requests for the trigger (`ip`, `line`):
    /// high-coverage deltas go to L1D (demoted to L2 under MSHR
    /// pressure), medium-coverage deltas to L2.
    pub fn prefetches(&self, ip: Ip, line: LineAddr, mshr_free: usize, out: &mut PfBuf) {
        let tag = Self::ip_tag(ip);
        let Some(ei) = self.table_idx(tag) else {
            return;
        };
        let e = &self.table[ei];
        if e.searches < MIN_SEARCHES {
            return;
        }
        // Highest-coverage deltas first, bounded by PQ bandwidth:
        // a fixed-size insertion-ranked array (no allocation). The
        // (coverage, delta) keys are unique — among live slots a delta
        // appears at most once — so descending insertion order is the
        // exact order the old sort produced.
        let mut ranked = [(0u32, 0i32); MAX_PF_PER_TRIGGER];
        let mut n = 0usize;
        for s in &e.deltas {
            if s.count == 0 || s.delta == 0 {
                continue;
            }
            let cov = s.count as u32 * 100 / e.searches.max(1) as u32;
            if cov < L2_COVERAGE {
                continue;
            }
            let cand = (cov, s.delta);
            if n == MAX_PF_PER_TRIGGER {
                if cand <= ranked[n - 1] {
                    continue;
                }
                n -= 1;
            }
            let mut i = n;
            while i > 0 && ranked[i - 1] < cand {
                ranked[i] = ranked[i - 1];
                i -= 1;
            }
            ranked[i] = cand;
            n += 1;
        }
        for &(coverage, delta) in &ranked[..n] {
            let target = line.offset(delta as i64);
            if coverage >= L1D_COVERAGE {
                if mshr_free > MSHR_SLACK {
                    out.push(PrefetchRequest::to_l1d(target, ip));
                } else {
                    out.push(PrefetchRequest::to_l2(target, ip));
                }
            } else {
                out.push(PrefetchRequest::to_l2(target, ip));
            }
        }
    }
}

/// Berti as a [`Prefetcher`]: trains from whatever the simulator feeds it
/// (speculative accesses+fills on-access; commit-path events on-commit).
///
/// # Examples
///
/// ```
/// use secpref_prefetch::{OnAccessBerti, Prefetcher};
/// assert_eq!(OnAccessBerti::new().name(), "Berti");
/// ```
#[derive(Clone, Debug, Default)]
pub struct OnAccessBerti {
    engine: BertiEngine,
}

impl OnAccessBerti {
    /// Creates the Table III configuration.
    pub fn new() -> Self {
        OnAccessBerti {
            engine: BertiEngine::new(),
        }
    }

    /// Access to the shared engine (used by tests and TSB comparisons).
    pub fn engine(&self) -> &BertiEngine {
        &self.engine
    }
}

impl Prefetcher for OnAccessBerti {
    fn name(&self) -> &'static str {
        "Berti"
    }

    fn storage_bytes(&self) -> f64 {
        // 128-entry history (~57 b) + 16 delta-table rows of 16 delta
        // stats (~50 b each) plus tag/metadata ≈ 2.55 KB per Table III.
        (HISTORY_SIZE as f64 * 57.0
            + DELTA_TABLE_SIZE as f64 * (DELTAS_PER_ENTRY as f64 * 50.0 + 50.0))
            / 8.0
    }

    fn observe_access(&mut self, ev: &AccessEvent, out: &mut PfBuf) {
        // A hit on a prefetched line trains with the latency the prefetch
        // experienced (stored alongside the L1D line).
        if ev.hit && ev.hit_prefetched && ev.fetch_latency > 0 {
            self.engine
                .train(ev.ip, ev.line, ev.cycle, ev.fetch_latency);
        }
        self.engine.record_access(ev.ip, ev.line, ev.cycle);
        self.engine.prefetches(ev.ip, ev.line, ev.mshr_free, out);
    }

    fn observe_fill(&mut self, ev: &FillEvent) {
        if ev.by_prefetch {
            return; // prefetch fills train via the Hitp path on use
        }
        let need_time = ev.cycle.saturating_sub(ev.latency as Cycle);
        self.engine.train(ev.ip, ev.line, need_time, ev.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_access;
    use secpref_types::rng::Xoshiro256ss;

    /// The linear search `train` replaced, kept as the reference: every
    /// filled ring slot, newest → oldest, one test after the other.
    fn train_linear(e: &mut BertiEngine, ip: Ip, line: LineAddr, need_time: Cycle, latency: u32) {
        let tag = BertiEngine::ip_tag(ip);
        let mut timely = Vec::new();
        for h in e.history.recent(HISTORY_SIZE as u64) {
            if h.tag != tag || h.line == line {
                continue;
            }
            if h.trigger_time + latency as Cycle > need_time {
                continue; // not timely
            }
            let d = line.delta(h.line);
            if d == 0 || d.abs() > MAX_ABS_DELTA {
                continue;
            }
            if timely.len() < DELTAS_PER_ENTRY && !timely.contains(&(d as i32)) {
                timely.push(d as i32);
            }
        }
        e.credit(tag, &timely);
    }

    fn assert_same_tables(a: &BertiEngine, b: &BertiEngine, probe: LineAddr, what: &str) {
        assert_eq!(a.table, b.table, "{what}: delta table");
        assert_eq!(a.table_tags, b.table_tags, "{what}: row tags");
        assert_eq!(a.lru_clock, b.lru_clock, "{what}: LRU clock");
        for ip in STREAM_IPS {
            let (mut x, mut y) = (PfBuf::new(), PfBuf::new());
            a.prefetches(Ip::new(ip), probe, 16, &mut x);
            b.prefetches(Ip::new(ip), probe, 16, &mut y);
            let reqs = |v: &PfBuf| v.iter().map(|r| (r.line, r.fill_level)).collect::<Vec<_>>();
            assert_eq!(reqs(&x), reqs(&y), "{what}: prefetches of ip {ip:#x}");
        }
    }

    const STREAM_IPS: [u64; 3] = [0x40_1000, 0x40_1008, 0x7f_2230];

    /// A stream that reaches every corner of the history search: few
    /// IPs, so nearly every slot has the tag; walks dense enough for
    /// far more than 16 distinct timely deltas; steps of exactly
    /// ±`MAX_ABS_DELTA` and one more; repeated lines; far jumps (other
    /// regions, other buckets); and it starts on an empty ring and wraps
    /// it many times.
    fn next_access(rng: &mut Xoshiro256ss, line: &mut u64, now: &mut Cycle) -> (Ip, LineAddr) {
        *now += rng.gen_u64(12);
        *line = match rng.gen_index(16) {
            0 => *line,
            1 => *line + MAX_ABS_DELTA as u64,
            2 => *line - MAX_ABS_DELTA as u64,
            3 => *line + MAX_ABS_DELTA as u64 + 1,
            4 => *line - MAX_ABS_DELTA as u64 - 1,
            5 => (1 << 30) + rng.gen_u64(1 << 22),
            6 | 7 => *line - rng.gen_u64(40),
            _ => *line + 1 + rng.gen_u64(3),
        };
        (Ip::new(STREAM_IPS[rng.gen_index(3)]), LineAddr::new(*line))
    }

    #[test]
    fn bucketed_search_matches_the_linear_reference_on_access() {
        for seed in 0..6u64 {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let mut real = OnAccessBerti::new();
            let mut lin = BertiEngine::new();
            let (mut line, mut now) = (1u64 << 30, 0);
            let mut out = PfBuf::new();
            for step in 0..4_000 {
                let (ip, at) = next_access(&mut rng, &mut line, &mut now);
                // Latencies from 0 to beyond the time elapsed so far, so
                // `need_time < latency` occurs.
                let latency = rng.gen_u64(if step < 50 { 400 } else { 90 }) as u32;
                let ev = AccessEvent {
                    hit: rng.gen_flip(),
                    hit_prefetched: rng.gen_flip(),
                    fetch_latency: latency,
                    ..simple_access(ip.raw(), at.raw(), now, false)
                };
                out.clear();
                real.observe_access(&ev, &mut out);
                if ev.hit && ev.hit_prefetched && latency > 0 {
                    train_linear(&mut lin, ip, at, now, latency);
                }
                lin.record_access(ip, at, now);
                assert_same_tables(real.engine(), &lin, at, "access");
                if !ev.hit {
                    let fill = FillEvent {
                        line: at,
                        ip,
                        cycle: now + latency as Cycle / 2,
                        latency,
                        by_prefetch: false,
                    };
                    real.observe_fill(&fill);
                    let need = fill.cycle.saturating_sub(latency as Cycle);
                    train_linear(&mut lin, ip, at, need, latency);
                    assert_same_tables(real.engine(), &lin, at, "fill");
                }
            }
        }
    }

    /// The same against TSB's use of the engine (`secpref-core`): the
    /// deadline is the access time, well before the commit-time trigger
    /// that is recorded, and the latency is the true fetch latency.
    #[test]
    fn bucketed_search_matches_the_linear_reference_in_tsb_order() {
        for seed in 10..16u64 {
            let mut rng = Xoshiro256ss::seed_from_u64(seed);
            let (mut real, mut lin) = (BertiEngine::new(), BertiEngine::new());
            let (mut line, mut now) = (1u64 << 30, 0);
            for _ in 0..4_000 {
                let (ip, at) = next_access(&mut rng, &mut line, &mut now);
                let latency = 1 + rng.gen_u64(300) as u32;
                let commit = now + rng.gen_u64(200);
                real.train(ip, at, now, latency);
                train_linear(&mut lin, ip, at, now, latency);
                real.record_access(ip, at, commit);
                lin.record_access(ip, at, commit);
                assert_same_tables(&real, &lin, at, "commit");
            }
        }
    }

    #[test]
    fn more_than_sixteen_timely_deltas_keep_the_sixteen_nearest() {
        let (mut real, mut lin) = (BertiEngine::new(), BertiEngine::new());
        let ip = Ip::new(STREAM_IPS[0]);
        for i in 0..200u64 {
            let at = LineAddr::new(5_000 + 3 * i);
            for e in [&mut real, &mut lin] {
                e.record_access(ip, at, i);
            }
            real.train(ip, at, 10_000, 1);
            train_linear(&mut lin, ip, at, 10_000, 1);
            assert_same_tables(&real, &lin, at, "dense walk");
        }
        let row = real.table.iter().find(|r| r.valid).expect("trained row");
        let mut deltas: Vec<i32> = row.deltas.iter().map(|s| s.delta).collect();
        deltas.sort_unstable();
        assert_eq!(deltas, (1..=16).map(|k| 3 * k).collect::<Vec<_>>());
    }

    #[test]
    fn learns_latency_covering_delta() {
        let mut e = BertiEngine::new();
        let ip = Ip::new(0x4);
        for i in 0..60u64 {
            let t = i * 10;
            e.record_access(ip, LineAddr::new(100 + i), t);
            e.train(ip, LineAddr::new(100 + i), t, 35);
        }
        let mut out = PfBuf::new();
        e.prefetches(ip, LineAddr::new(200), 16, &mut out);
        assert!(!out.is_empty());
        for r in &out {
            let d = r.line.raw() as i64 - 200;
            assert!(
                d >= 4,
                "delta {d} cannot hide a 35-cycle latency at 10 cycles/access"
            );
        }
    }

    #[test]
    fn short_latency_learns_short_delta() {
        let mut e = BertiEngine::new();
        let ip = Ip::new(0x4);
        for i in 0..60u64 {
            let t = i * 10;
            e.record_access(ip, LineAddr::new(i), t);
            e.train(ip, LineAddr::new(i), t, 5);
        }
        let mut out = PfBuf::new();
        e.prefetches(ip, LineAddr::new(100), 16, &mut out);
        assert!(
            out.iter().any(|r| r.line.raw() == 101),
            "delta +1 is timely at 5-cycle latency"
        );
    }

    #[test]
    fn fig8_pathology_commit_clock_learns_undersized_delta() {
        // The paper's Fig. 8: on-commit Berti sees the 1-cycle commit-write
        // latency and learns +1 even though the true fetch latency needs
        // +2 — reproducing the "late prefetch" pathology.
        let ip = Ip::new(0x4);
        // Commits every 2 cycles; naive observes latency 1.
        let mut naive = BertiEngine::new();
        for i in 0..40u64 {
            let commit_t = i * 2;
            naive.record_access(ip, LineAddr::new(i), commit_t);
            naive.train(ip, LineAddr::new(i), commit_t, 1);
        }
        let mut out = PfBuf::new();
        naive.prefetches(ip, LineAddr::new(50), 16, &mut out);
        assert!(out.iter().any(|r| r.line.raw() == 51), "naive learns +1");

        // TSB-style training: same commit triggers, but true latency 3 and
        // access-time targets (accesses 2 cycles before commits).
        let mut tsb = BertiEngine::new();
        for i in 0..40u64 {
            let commit_t = i * 2;
            let access_t = commit_t.saturating_sub(1);
            tsb.record_access(ip, LineAddr::new(i), commit_t);
            tsb.train(ip, LineAddr::new(i), access_t, 3);
        }
        let mut out = PfBuf::new();
        tsb.prefetches(ip, LineAddr::new(50), 16, &mut out);
        assert!(
            out.iter().all(|r| r.line.raw() >= 52),
            "TSB learns a delta that covers the true latency: {:?}",
            out.iter().map(|r| r.line.raw()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mshr_pressure_demotes_to_l2() {
        let mut e = BertiEngine::new();
        let ip = Ip::new(0x4);
        for i in 0..60u64 {
            e.record_access(ip, LineAddr::new(i), i * 20);
            e.train(ip, LineAddr::new(i), i * 20, 5);
        }
        let mut relaxed = PfBuf::new();
        e.prefetches(ip, LineAddr::new(100), 16, &mut relaxed);
        let mut pressured = PfBuf::new();
        e.prefetches(ip, LineAddr::new(100), 1, &mut pressured);
        assert!(relaxed
            .iter()
            .any(|r| r.fill_level == secpref_types::CacheLevel::L1d));
        assert!(pressured
            .iter()
            .all(|r| r.fill_level == secpref_types::CacheLevel::L2));
    }

    #[test]
    fn irregular_stream_stays_quiet() {
        let mut p = OnAccessBerti::new();
        let mut out = PfBuf::new();
        let lines = [7u64, 91234, 33, 5555, 12, 987_654, 4, 777];
        for (i, &l) in lines.iter().enumerate() {
            p.observe_access(&simple_access(0x4, l, i as u64 * 50, false), &mut out);
            p.observe_fill(&FillEvent {
                line: LineAddr::new(l),
                ip: Ip::new(0x4),
                cycle: i as u64 * 50 + 40,
                latency: 40,
                by_prefetch: false,
            });
        }
        assert!(out.is_empty(), "no coherent deltas to learn: {out:?}");
    }

    #[test]
    fn prefetcher_wrapper_trains_on_fills() {
        let mut p = OnAccessBerti::new();
        let mut out = PfBuf::new();
        let mut issued = 0;
        for i in 0..80u64 {
            let t = i * 10;
            out.clear();
            p.observe_access(&simple_access(0x4, 1000 + i, t, false), &mut out);
            issued += out.len();
            p.observe_fill(&FillEvent {
                line: LineAddr::new(1000 + i),
                ip: Ip::new(0x4),
                cycle: t + 30,
                latency: 30,
                by_prefetch: false,
            });
        }
        assert!(issued > 0, "stream with stable latency must prefetch");
    }
}
