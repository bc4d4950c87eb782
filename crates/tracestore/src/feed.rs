//! Bounded-memory streaming trace source for the simulator.
//!
//! [`StreamFeed`] keeps a sliding window of decoded chunks over a chunk
//! store. The window is bounded: chunks ahead of the cursor are decoded
//! on demand, and chunks that fall entirely behind the *lookback window*
//! are evicted. The lookback window must cover every backward peek the
//! core makes:
//!
//! * ROB-depth rewinds — a squash rewinds the fetch cursor at most
//!   `rob_entries` instructions;
//! * dependency peeks — dispatch inspects the producer of a dependent
//!   load up to `max_dep_dist` instructions back.
//!
//! [`StreamFeed::for_core`] sizes the window as
//! `rob_entries + max_dep_dist + slack`, so streamed execution observes
//! exactly the same instruction values as whole-trace indexing — the
//! equivalence argument for bit-identical streamed reports (DESIGN.md
//! §11).
//!
//! [`TraceFeed`] is the enum the core consumes: `Mem` wraps the classic
//! in-memory `Arc<Trace>` (zero-cost, identical hot path to the
//! pre-streaming simulator), `Stream` wraps a [`StreamFeed`].

use crate::format::TraceReader;
use secpref_trace::{Instr, Trace};
use secpref_types::Addr;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, Read, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-safe `Read + Seek` bound for the boxed store backing.
pub trait ReadSeek: Read + Seek + Send {}
impl<T: Read + Seek + Send> ReadSeek for T {}

/// Residency instrumentation, shared out via `Arc` so callers (tests,
/// the memory-ceiling recipe in EXPERIMENTS.md) can observe the peak
/// window size even after the feed moves into a core.
#[derive(Debug, Default)]
pub struct FeedStats {
    /// Peak number of simultaneously resident decoded instructions in
    /// the sliding window (the decoded-chunk cache is tracked
    /// separately in [`FeedStats::peak_cached`]).
    pub peak_resident: AtomicUsize,
    /// Total chunk decodes (re-decodes after rewind count again; chunks
    /// served from the decoded-chunk cache do not).
    pub chunks_decoded: AtomicU64,
    /// Chunks served from the decoded-chunk cache instead of decoding.
    pub cache_hits: AtomicU64,
    /// Peak instructions held by the decoded-chunk cache.
    pub peak_cached: AtomicUsize,
}

impl FeedStats {
    /// Peak resident decoded instructions observed so far.
    pub fn peak(&self) -> usize {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Total chunk decodes so far.
    pub fn decodes(&self) -> u64 {
        self.chunks_decoded.load(Ordering::Relaxed)
    }

    /// Chunks served from the decoded-chunk cache so far.
    pub fn hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Peak decoded-chunk-cache residency (instructions) so far.
    pub fn cached_peak(&self) -> usize {
        self.peak_cached.load(Ordering::Relaxed)
    }
}

/// Extra lookback slack beyond `rob_entries + max_dep_dist`, absorbing
/// off-by-chunk alignment (eviction is whole-chunk).
const LOOKBACK_SLACK: usize = 64;

/// Decoded-chunk cache capacity (instructions) used by
/// [`StreamFeed::open_for_core`] / [`StreamFeed::for_core`] — ~8 MB of
/// `Instr`s per feed. Replay-heavy runs (multi-pass windows over a
/// store shorter than the simulated span, the SMARTS sampled bench)
/// revisit the same chunks on every pass; the cache serves them decoded
/// instead of re-reading and re-decoding, while staying strictly
/// bounded. Stores longer than the cap stream exactly as before, with
/// the cache acting as a no-op tail buffer.
pub const DEFAULT_CHUNK_CACHE_INSTRS: usize = 512 * 1024;

/// A sliding-window streaming cursor over a chunk store.
pub struct StreamFeed {
    reader: TraceReader<Box<dyn ReadSeek>>,
    /// Decoded chunks, contiguous, starting at chunk `win_first_chunk`.
    window: VecDeque<Vec<Instr>>,
    /// Chunk index of `window.front()`.
    win_first_chunk: usize,
    /// Number of decoded instructions resident in `window`.
    resident: usize,
    /// Highest record index ever requested (eviction watermark).
    hi: usize,
    /// Record indexes `>= hi - lookback` are kept decodable.
    lookback: usize,
    /// Instructions per chunk (copied out of the store metadata).
    chunk_size: usize,
    /// The chunk the last `get` read: its position in `window`, its
    /// first record index and its length. The per-instruction fast path
    /// is a subtract and a compare against these, with no division.
    cur_pos: usize,
    cur_start: usize,
    cur_len: usize,
    /// Decoded chunks evicted from the window, kept for replays. LRU by
    /// insertion order, capped at `cache_cap` instructions; `0` disables.
    cache: HashMap<usize, Vec<Instr>>,
    /// Insertion order of `cache` keys (front = oldest).
    cache_lru: VecDeque<usize>,
    /// Instructions currently held by `cache`.
    cache_resident: usize,
    /// Capacity of `cache`, in instructions.
    cache_cap: usize,
    stats: Arc<FeedStats>,
}

impl std::fmt::Debug for StreamFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamFeed")
            .field("name", &self.name())
            .field("len", &self.len())
            .field("win_first_chunk", &self.win_first_chunk)
            .field("resident", &self.resident)
            .field("hi", &self.hi)
            .field("lookback", &self.lookback)
            .finish_non_exhaustive()
    }
}

impl StreamFeed {
    /// Wraps an open reader with the given lookback window (in
    /// instructions).
    pub fn new(reader: TraceReader<Box<dyn ReadSeek>>, lookback: usize) -> Self {
        let chunk_size = reader.meta().chunk_size as usize;
        StreamFeed {
            reader,
            window: VecDeque::new(),
            win_first_chunk: 0,
            resident: 0,
            hi: 0,
            lookback,
            chunk_size,
            cur_pos: 0,
            cur_start: 0,
            cur_len: 0,
            cache: HashMap::new(),
            cache_lru: VecDeque::new(),
            cache_resident: 0,
            cache_cap: 0,
            stats: Arc::new(FeedStats::default()),
        }
    }

    /// Enables the decoded-chunk replay cache, capped at `max_instrs`
    /// resident instructions (`0` disables). Purely an accelerator: the
    /// values served are the ones the decoder produced, so reports are
    /// bit-identical with the cache on or off.
    pub fn with_chunk_cache(mut self, max_instrs: usize) -> Self {
        self.cache_cap = max_instrs;
        self
    }

    /// Opens a chunk-store file with a lookback sized for `cfg`-shaped
    /// cores: `rob_entries + max_dep_dist + slack`.
    ///
    /// # Errors
    ///
    /// Propagates open/validation errors from [`TraceReader::open`].
    pub fn open_for_core(path: &Path, rob_entries: usize) -> io::Result<Self> {
        let file = BufReader::new(File::open(path)?);
        let reader = TraceReader::open(Box::new(file) as Box<dyn ReadSeek>)?;
        Ok(Self::for_core(reader, rob_entries))
    }

    /// Wraps `reader` with a lookback window derived from the core shape
    /// and the store's recorded maximum dependency distance.
    pub fn for_core(reader: TraceReader<Box<dyn ReadSeek>>, rob_entries: usize) -> Self {
        let lookback = rob_entries + reader.meta().max_dep_dist as usize + LOOKBACK_SLACK;
        Self::new(reader, lookback).with_chunk_cache(DEFAULT_CHUNK_CACHE_INSTRS)
    }

    /// The residency instrumentation handle.
    pub fn stats(&self) -> Arc<FeedStats> {
        Arc::clone(&self.stats)
    }

    /// The trace name from the store footer.
    pub fn name(&self) -> &str {
        &self.reader.meta().name
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.reader.meta().n_instr as usize
    }

    /// True for an empty store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's chunking-independent content digest.
    pub fn content_digest(&self) -> u64 {
        self.reader.meta().content_digest
    }

    /// The configured lookback window (instructions).
    pub fn lookback(&self) -> usize {
        self.lookback
    }

    /// The store's recorded maximum dependency distance.
    pub fn max_dep_dist(&self) -> usize {
        self.reader.meta().max_dep_dist as usize
    }

    /// Wrong-path loads attached to the branch at record `idx`.
    pub fn wrong_path(&self, idx: u64) -> Option<&Vec<Addr>> {
        self.reader.meta().wrong_path.get(&idx)
    }

    /// Returns the instruction at `idx`, decoding forward and evicting
    /// behind the lookback window as needed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (like slice indexing), if a chunk
    /// fails integrity checks mid-run, or if `idx` has already been
    /// evicted (a lookback window undersized for the consuming core —
    /// a bug, not an input condition).
    #[inline]
    pub fn get(&mut self, idx: usize) -> Instr {
        // Fast path: `idx` is in the chunk the last call read. Any other
        // chunk takes the slow path, and window maintenance (decode-ahead,
        // eviction) happens there only for a chunk not yet resident — at
        // most once per chunk of forward progress: between such calls
        // `hi` advances by less than one chunk, so the residency bound is
        // unchanged.
        let off = idx.wrapping_sub(self.cur_start);
        if off < self.cur_len {
            if idx > self.hi {
                self.hi = idx;
            }
            return self.window[self.cur_pos][off];
        }
        self.get_slow(idx)
    }

    #[cold]
    fn get_slow(&mut self, idx: usize) -> Instr {
        if idx > self.hi {
            self.hi = idx;
        }
        let chunk = idx / self.chunk_size;
        if chunk < self.win_first_chunk || chunk - self.win_first_chunk >= self.window.len() {
            self.bring_in(idx, chunk);
        }
        self.cur_pos = chunk - self.win_first_chunk;
        self.cur_start = chunk * self.chunk_size;
        self.cur_len = self.window[self.cur_pos].len();
        self.window[self.cur_pos][idx - self.cur_start]
    }

    /// Makes non-resident `chunk` (holding record `idx`) part of the
    /// window: evicts behind the lookback, then serves forward chunks
    /// from the replay cache or the decoder.
    fn bring_in(&mut self, idx: usize, chunk: usize) {
        let chunk_size = self.chunk_size;
        assert!(
            chunk >= self.win_first_chunk || self.window.is_empty(),
            "record {idx} (chunk {chunk}) evicted: lookback window too small \
             (window starts at chunk {})",
            self.win_first_chunk
        );
        if self.window.is_empty() {
            // Fresh or rewound feed: start the window at the requested chunk.
            self.win_first_chunk = chunk;
        }
        // Evict whole chunks that fall entirely behind the lookback
        // *before* decoding forward, so the peak residency matches the
        // eager-eviction bound; the evicted chunk moves into the replay
        // cache instead of dropping.
        let keep_from = self.hi.saturating_sub(self.lookback);
        while self.window.len() > 1 {
            let front_end = (self.win_first_chunk + 1) * chunk_size;
            if front_end <= keep_from && self.win_first_chunk < chunk {
                let evicted = self.window.pop_front().expect("len > 1");
                self.resident -= evicted.len();
                self.cache_put(self.win_first_chunk, evicted);
                self.win_first_chunk += 1;
            } else {
                break;
            }
        }
        // Bring the chunk into the window: replay cache first, decode
        // otherwise.
        while self.win_first_chunk + self.window.len() <= chunk {
            let next = self.win_first_chunk + self.window.len();
            let decoded = match self.cache_take(next) {
                Some(cached) => {
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    cached
                }
                None => {
                    self.stats.chunks_decoded.fetch_add(1, Ordering::Relaxed);
                    self.reader
                        .read_chunk(next)
                        .unwrap_or_else(|e| panic!("{e}"))
                }
            };
            self.resident += decoded.len();
            self.window.push_back(decoded);
        }
        self.stats
            .peak_resident
            .fetch_max(self.resident, Ordering::Relaxed);
    }

    /// Removes chunk `idx` from the replay cache, if cached.
    fn cache_take(&mut self, idx: usize) -> Option<Vec<Instr>> {
        let v = self.cache.remove(&idx)?;
        self.cache_resident -= v.len();
        if let Some(pos) = self.cache_lru.iter().position(|&c| c == idx) {
            self.cache_lru.remove(pos);
        }
        Some(v)
    }

    /// Inserts a decoded chunk into the replay cache, evicting oldest
    /// entries past the capacity. A no-op when the cache is disabled.
    fn cache_put(&mut self, idx: usize, v: Vec<Instr>) {
        if self.cache_cap == 0 || v.len() > self.cache_cap {
            return;
        }
        self.cache_resident += v.len();
        if let Some(old) = self.cache.insert(idx, v) {
            // Replaced an entry for the same chunk (re-decoded after an
            // earlier cache eviction): fix up residency and LRU order.
            self.cache_resident -= old.len();
            let pos = self
                .cache_lru
                .iter()
                .position(|&c| c == idx)
                .expect("cached chunk has an LRU entry");
            self.cache_lru.remove(pos);
        }
        self.cache_lru.push_back(idx);
        while self.cache_resident > self.cache_cap {
            let oldest = self
                .cache_lru
                .pop_front()
                .expect("resident implies entries");
            let dropped = self.cache.remove(&oldest).expect("LRU entry is cached");
            self.cache_resident -= dropped.len();
        }
        self.stats
            .peak_cached
            .fetch_max(self.cache_resident, Ordering::Relaxed);
    }

    /// Resets the cursor for a fresh pass (replay): the window drains
    /// into the replay cache and the watermark clears. With the cache
    /// enabled (and the store within its capacity) a replay re-serves
    /// every chunk without touching the decoder.
    pub fn rewind(&mut self) {
        let first = self.win_first_chunk;
        let drained: Vec<Vec<Instr>> = self.window.drain(..).collect();
        for (i, chunk) in drained.into_iter().enumerate() {
            self.cache_put(first + i, chunk);
        }
        self.win_first_chunk = 0;
        self.cur_len = 0;
        self.resident = 0;
        self.hi = 0;
    }
}

/// The instruction source a core consumes: either the classic shared
/// in-memory trace or a bounded-memory streaming feed.
#[derive(Debug)]
pub enum TraceFeed {
    /// Whole trace resident in memory (`Arc`-shared, zero decode cost).
    Mem(Arc<Trace>),
    /// Sliding-window streamed decode from a chunk store.
    Stream(Box<StreamFeed>),
}

impl Default for TraceFeed {
    fn default() -> Self {
        TraceFeed::Mem(Arc::new(Trace::default()))
    }
}

impl TraceFeed {
    /// Total instruction count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TraceFeed::Mem(t) => t.instrs.len(),
            TraceFeed::Stream(f) => f.len(),
        }
    }

    /// True when the feed holds no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        match self {
            TraceFeed::Mem(t) => &t.name,
            TraceFeed::Stream(f) => f.name(),
        }
    }

    /// The largest load dependency distance in the trace (read from the
    /// store's header for a stream, found by one pass over an in-memory
    /// trace).
    pub fn max_dep_dist(&self) -> usize {
        match self {
            TraceFeed::Mem(t) => t.max_dep_dist(),
            TraceFeed::Stream(f) => f.max_dep_dist(),
        }
    }

    /// The instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; for streams, also on integrity
    /// failures or lookback-window violations (see [`StreamFeed::get`]).
    #[inline]
    pub fn get(&mut self, idx: usize) -> Instr {
        match self {
            TraceFeed::Mem(t) => t.instrs[idx],
            TraceFeed::Stream(f) => f.get(idx),
        }
    }

    /// Wrong-path loads attached to the branch at `idx`, if any.
    #[inline]
    pub fn wrong_path(&self, idx: u32) -> Option<&Vec<Addr>> {
        match self {
            TraceFeed::Mem(t) => t.wrong_path.get(&idx),
            TraceFeed::Stream(f) => f.wrong_path(idx as u64),
        }
    }

    /// Resets stream cursors for a replay pass (no-op for `Mem`).
    pub fn rewind(&mut self) {
        if let TraceFeed::Stream(f) = self {
            f.rewind();
        }
    }

    /// Residency instrumentation, present for streams.
    pub fn stats(&self) -> Option<Arc<FeedStats>> {
        match self {
            TraceFeed::Mem(_) => None,
            TraceFeed::Stream(f) => Some(f.stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{TraceReader, TraceWriter};
    use std::io::Cursor;

    const CHUNK: u32 = 256;

    fn make_feed(n: usize, lookback: usize) -> StreamFeed {
        let mut w = TraceWriter::create(Vec::new(), "feed", CHUNK).unwrap();
        for i in 0..n {
            w.push(&Instr::alu(0x1000 + i as u64)).unwrap();
        }
        let (_, bytes) = w.finish().unwrap();
        let reader = TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
        StreamFeed::new(reader, lookback)
    }

    #[test]
    fn sequential_scan_yields_every_record() {
        let n = 10 * CHUNK as usize + 17;
        let mut f = make_feed(n, 128);
        for i in 0..n {
            assert_eq!(f.get(i).ip.raw(), 0x1000 + i as u64, "record {i}");
        }
    }

    #[test]
    fn window_stays_bounded_on_sequential_scan() {
        let n = 40 * CHUNK as usize;
        let mut f = make_feed(n, 128);
        let stats = f.stats();
        for i in 0..n {
            f.get(i);
        }
        // Lookback 128 + one decode-ahead chunk: the window never needs
        // more than 2 resident chunks (lookback < CHUNK).
        let peak = stats.peak();
        assert!(
            peak <= 2 * CHUNK as usize,
            "peak residency {peak} exceeds 2 chunks"
        );
        assert_eq!(stats.decodes(), 40);
    }

    #[test]
    fn lookback_boundary_is_exact() {
        let n = 8 * CHUNK as usize;
        let lookback = 300; // spans 2 chunk boundaries
        let mut f = make_feed(n, lookback);
        // Walk forward; at each step every index within lookback must
        // stay accessible.
        for i in (0..n).step_by(97) {
            f.get(i);
            let lo = i.saturating_sub(lookback);
            assert_eq!(f.get(lo).ip.raw(), 0x1000 + lo as u64);
            let mid = i.saturating_sub(lookback / 2);
            assert_eq!(f.get(mid).ip.raw(), 0x1000 + mid as u64);
        }
    }

    #[test]
    #[should_panic(expected = "evicted")]
    fn panics_past_lookback() {
        let n = 8 * CHUNK as usize;
        let mut f = make_feed(n, 64);
        for i in 0..n {
            f.get(i);
        }
        f.get(0); // chunk 0 evicted long ago
    }

    #[test]
    fn rewind_restarts_from_the_front() {
        let n = 4 * CHUNK as usize;
        let mut f = make_feed(n, 64);
        for i in 0..n {
            f.get(i);
        }
        f.rewind();
        for i in 0..n {
            assert_eq!(f.get(i).ip.raw(), 0x1000 + i as u64);
        }
        assert_eq!(f.stats().decodes(), 8, "both passes decode all chunks");
    }

    #[test]
    fn chunk_cache_serves_replays_without_redecoding() {
        let n = 4 * CHUNK as usize;
        let mut f = make_feed(n, 64).with_chunk_cache(DEFAULT_CHUNK_CACHE_INSTRS);
        for i in 0..n {
            f.get(i);
        }
        f.rewind();
        for i in 0..n {
            assert_eq!(f.get(i).ip.raw(), 0x1000 + i as u64, "replay record {i}");
        }
        let stats = f.stats();
        assert_eq!(stats.decodes(), 4, "second pass served from cache");
        assert_eq!(stats.hits(), 4, "all 4 chunks replayed from cache");
        assert!(stats.cached_peak() <= DEFAULT_CHUNK_CACHE_INSTRS);
    }

    #[test]
    fn chunk_cache_respects_its_capacity() {
        let n = 8 * CHUNK as usize;
        // Capacity for two chunks: older chunks must be dropped.
        let mut f = make_feed(n, 64).with_chunk_cache(2 * CHUNK as usize);
        for i in 0..n {
            f.get(i);
        }
        f.rewind();
        for i in 0..n {
            f.get(i);
        }
        let stats = f.stats();
        assert!(
            stats.cached_peak() <= 2 * CHUNK as usize,
            "cache residency {} exceeds cap",
            stats.cached_peak()
        );
        // The replay pass walks front-to-back while the cache held only
        // the tail, so most chunks re-decode; the results still match.
        assert!(stats.decodes() >= 8, "front chunks had to re-decode");
    }

    /// Every record read through a stream over `chunk`-record chunks
    /// equals the in-memory read, forward, on backward peeks anywhere
    /// inside the lookback, and across rewinds (one mid-pass), with the
    /// replay cache off and on.
    #[test]
    fn stream_equals_mem_at_any_chunk_size() {
        let n = 2 * 4097 + 300;
        let instrs: Vec<Instr> = (0..n as u64)
            .map(|i| match i % 4 {
                0 => Instr::alu(0x1000 + i),
                1 => Instr::load_dep(0x2000 + i % 13, 0x10_0000 + i * 24, (i % 50) as u16),
                2 => Instr::store(0x3000, 0x20_0000 + i * 8),
                _ => Instr::branch(0x4000 + i % 5, i % 3 == 0),
            })
            .collect();
        let lookback = 200;
        for chunk in [1, 3, 4096, 4097] {
            for cache in [0, DEFAULT_CHUNK_CACHE_INSTRS] {
                let mut w = TraceWriter::create(Vec::new(), "feed", chunk).unwrap();
                for i in &instrs {
                    w.push(i).unwrap();
                }
                let (_, bytes) = w.finish().unwrap();
                let reader =
                    TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
                let feed = StreamFeed::new(reader, lookback).with_chunk_cache(cache);
                let mut stream = TraceFeed::Stream(Box::new(feed));
                let mut mem = TraceFeed::Mem(Arc::new(Trace::new("feed", instrs.clone())));
                for end in [n / 2, n, n] {
                    let mut i = 0;
                    while i < end {
                        assert_eq!(stream.get(i), mem.get(i), "chunk {chunk}: record {i}");
                        for back in [1, 2, 3, 61, lookback - 1, lookback] {
                            if let Some(j) = i.checked_sub(back) {
                                assert_eq!(stream.get(j), mem.get(j), "chunk {chunk}: peek {j}");
                            }
                        }
                        i += if i % 5 == 0 { 3 } else { 1 };
                    }
                    stream.rewind();
                    mem.rewind();
                }
            }
        }
    }

    #[test]
    fn trace_feed_mem_and_stream_agree() {
        let n = 3 * CHUNK as usize + 5;
        let instrs: Vec<Instr> = (0..n).map(|i| Instr::alu(0x1000 + i as u64)).collect();
        let mut mem = TraceFeed::Mem(Arc::new(Trace::new("feed", instrs)));
        let mut stream = TraceFeed::Stream(Box::new(make_feed(n, 512)));
        assert_eq!(mem.len(), stream.len());
        assert_eq!(mem.name(), stream.name());
        for i in 0..n {
            assert_eq!(mem.get(i), stream.get(i));
        }
    }
}
