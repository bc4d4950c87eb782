//! Bounded-memory streaming trace source for the simulator.
//!
//! [`StreamFeed`] keeps one table of decoded chunks over a chunk store,
//! indexed by chunk number and bounded by one cap on resident decoded
//! instructions. A read of a chunk that is not resident decodes it from
//! the checksummed store, first evicting resident chunks in decode order
//! until it fits under the cap. Every read therefore returns the
//! store's record whatever is resident: streamed execution observes
//! exactly the values of whole-trace indexing at any cap, and the cap
//! only decides how often a chunk is decoded (DESIGN.md §11).
//!
//! The core's backward reads land in the most recently decoded chunks:
//! a squash rewinds the fetch cursor at most `rob_entries`
//! instructions, and dispatch peeks a dependent load's producer at most
//! `max_dep_dist` back. [`StreamFeed::for_core`] sizes the cap past
//! both plus two chunks, so a forward run decodes each chunk once.
//!
//! [`TraceFeed`] is the enum the core consumes: `Mem` wraps the classic
//! in-memory `Arc<Trace>` (zero-cost, identical hot path to the
//! pre-streaming simulator), `Stream` wraps a [`StreamFeed`].

use crate::format::TraceReader;
use secpref_trace::{Instr, Trace};
use secpref_types::Addr;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-safe `Read + Seek` bound for the boxed store backing.
pub trait ReadSeek: Read + Seek + Send {}
impl<T: Read + Seek + Send> ReadSeek for T {}

/// Residency instrumentation, shared out via `Arc` so callers (tests,
/// the memory-ceiling recipe in EXPERIMENTS.md) can observe the feed
/// even after it moves into a core.
#[derive(Debug, Default)]
pub struct FeedStats {
    peak: AtomicUsize,
    decodes: AtomicU64,
    hits: AtomicU64,
}

impl FeedStats {
    /// Peak resident decoded instructions observed so far.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Chunk decodes so far (a chunk decoded again after its eviction
    /// counts again).
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Moves to a chunk that was already resident, so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The least resident-instruction cap [`StreamFeed::for_core`] sets:
/// 6 MiB of 12-byte `Instr`s per feed. A store within it is decoded once
/// however many passes a run makes over it (the SMARTS sampled bench
/// replays a short store across a long span).
pub const RESIDENT_CAP: usize = 512 * 1024;

/// A streaming cursor over a chunk store: one table of decoded chunks
/// under one cap on resident decoded instructions.
pub struct StreamFeed {
    reader: TraceReader<Box<dyn ReadSeek>>,
    /// Decoded chunks by chunk index; `None` where not resident.
    chunks: Vec<Option<Vec<Instr>>>,
    /// Indices of the resident chunks, in decode order (front = oldest).
    fifo: VecDeque<usize>,
    /// Decoded instructions resident in `chunks`.
    resident: usize,
    /// `resident` stays at or under this, except that the chunk being
    /// read is always resident.
    cap: usize,
    /// Instructions per chunk (copied out of the store metadata).
    chunk_size: usize,
    /// The chunk the last `get` read: its index, first record index and
    /// length. The per-instruction fast path is a subtract and a compare
    /// against these, with no division.
    cur: usize,
    cur_start: usize,
    cur_len: usize,
    stats: Arc<FeedStats>,
}

impl std::fmt::Debug for StreamFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamFeed")
            .field("name", &self.name())
            .field("len", &self.len())
            .field("resident", &self.resident)
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

impl StreamFeed {
    /// Wraps an open reader, keeping at most `cap` decoded instructions
    /// resident besides the chunk being read.
    pub fn new(reader: TraceReader<Box<dyn ReadSeek>>, cap: usize) -> Self {
        let chunk_size = reader.meta().chunk_size as usize;
        let n_chunks = reader.meta().chunks.len();
        StreamFeed {
            reader,
            chunks: vec![None; n_chunks],
            fifo: VecDeque::new(),
            resident: 0,
            cap,
            chunk_size,
            cur: 0,
            cur_start: 0,
            cur_len: 0,
            stats: Arc::new(FeedStats::default()),
        }
    }

    /// Opens a chunk-store file with the cap [`StreamFeed::for_core`]
    /// sets.
    ///
    /// # Errors
    ///
    /// Propagates open/validation errors from [`TraceReader::open`].
    pub fn open_for_core(path: &Path, rob_entries: usize) -> io::Result<Self> {
        let file = BufReader::new(File::open(path)?);
        let reader = TraceReader::open(Box::new(file) as Box<dyn ReadSeek>)?;
        Ok(Self::for_core(reader, rob_entries))
    }

    /// Wraps `reader` with a cap of [`RESIDENT_CAP`] or, if larger,
    /// `rob_entries + max_dep_dist` plus two chunks, so that the core's
    /// backward reads never decode a chunk again.
    pub fn for_core(reader: TraceReader<Box<dyn ReadSeek>>, rob_entries: usize) -> Self {
        let meta = reader.meta();
        let reach = rob_entries + meta.max_dep_dist as usize + 2 * meta.chunk_size as usize;
        Self::new(reader, RESIDENT_CAP.max(reach))
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

    /// The cap on resident decoded instructions.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The store's recorded maximum dependency distance.
    pub fn max_dep_dist(&self) -> usize {
        self.reader.meta().max_dep_dist as usize
    }

    /// Wrong-path loads attached to the branch at record `idx`.
    pub fn wrong_path(&self, idx: u64) -> Option<&Vec<Addr>> {
        self.reader.meta().wrong_path.get(&idx)
    }

    /// Returns the instruction at `idx`, decoding its chunk if it is not
    /// resident.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (like slice indexing) or if a
    /// chunk fails integrity checks mid-run.
    #[inline]
    pub fn get(&mut self, idx: usize) -> Instr {
        // Fast path: `idx` is in the chunk the last call read, which is
        // resident until another chunk is decoded.
        let off = idx.wrapping_sub(self.cur_start);
        if off < self.cur_len {
            if let Some(chunk) = &self.chunks[self.cur] {
                return chunk[off];
            }
        }
        self.get_slow(idx)
    }

    #[cold]
    fn get_slow(&mut self, idx: usize) -> Instr {
        let c = idx / self.chunk_size;
        if self.chunks[c].is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.decode(c);
        }
        let chunk = self.chunks[c].as_ref().expect("decoded above");
        self.cur = c;
        self.cur_start = c * self.chunk_size;
        self.cur_len = chunk.len();
        chunk[idx - self.cur_start]
    }

    /// Decodes non-resident chunk `c`, first evicting resident chunks in
    /// decode order until it fits under the cap (sized from the footer,
    /// so `peak` counts the true peak).
    fn decode(&mut self, c: usize) {
        let n = self.reader.meta().chunks[c].n_records as usize;
        while self.resident + n > self.cap {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            let evicted = self.chunks[old].take().expect("queued chunks are resident");
            self.resident -= evicted.len();
        }
        let decoded = self.reader.read_chunk(c).unwrap_or_else(|e| panic!("{e}"));
        self.stats.decodes.fetch_add(1, Ordering::Relaxed);
        self.resident += decoded.len();
        self.chunks[c] = Some(decoded);
        self.fifo.push_back(c);
        self.stats.peak.fetch_max(self.resident, Ordering::Relaxed);
    }

    /// Clears the fast path for a fresh pass (replay). Resident chunks
    /// stay resident.
    pub fn rewind(&mut self) {
        self.cur_len = 0;
    }
}

/// The instruction source a core consumes: either the classic shared
/// in-memory trace or a bounded-memory streaming feed.
#[derive(Debug)]
pub enum TraceFeed {
    /// Whole trace resident in memory (`Arc`-shared, zero decode cost).
    Mem(Arc<Trace>),
    /// Streamed decode from a chunk store.
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
    /// failures (see [`StreamFeed::get`]).
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

    fn make_feed(n: usize, cap: usize) -> StreamFeed {
        let mut w = TraceWriter::create(Vec::new(), "feed", CHUNK).unwrap();
        for i in 0..n {
            w.push(&Instr::alu(0x1000 + i as u64)).unwrap();
        }
        let (_, bytes) = w.finish().unwrap();
        let reader = TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
        StreamFeed::new(reader, cap)
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
        // A cap under one chunk keeps only the chunk being read.
        let peak = stats.peak();
        assert_eq!(peak, CHUNK as usize, "peak residency {peak}");
        assert_eq!(stats.decodes(), 40);
    }

    /// Under the cap `for_core` sizes (the backward reach plus two
    /// chunks), reads up to `lookback` behind the furthest one land in
    /// resident chunks: each chunk is decoded once.
    #[test]
    fn lookback_boundary_is_exact() {
        let n = 8 * CHUNK as usize;
        let lookback = 300; // spans 2 chunk boundaries
        let mut f = make_feed(n, lookback + 2 * CHUNK as usize);
        for i in (0..n).step_by(97) {
            f.get(i);
            let lo = i.saturating_sub(lookback);
            assert_eq!(f.get(lo).ip.raw(), 0x1000 + lo as u64);
            let mid = i.saturating_sub(lookback / 2);
            assert_eq!(f.get(mid).ip.raw(), 0x1000 + mid as u64);
        }
        assert_eq!(f.stats().decodes(), 8);
    }

    #[test]
    fn an_evicted_chunk_is_decoded_again() {
        let n = 8 * CHUNK as usize;
        let mut f = make_feed(n, 64);
        for i in 0..n {
            f.get(i);
        }
        assert_eq!(f.stats().decodes(), 8);
        assert_eq!(f.get(0).ip.raw(), 0x1000, "chunk 0 was evicted long ago");
        assert_eq!(f.stats().decodes(), 9);
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
        let mut f = make_feed(n, RESIDENT_CAP);
        for i in 0..n {
            f.get(i);
        }
        f.rewind();
        for i in 0..n {
            assert_eq!(f.get(i).ip.raw(), 0x1000 + i as u64, "replay record {i}");
        }
        let stats = f.stats();
        assert_eq!(stats.decodes(), 4, "second pass served resident chunks");
        assert_eq!(stats.hits(), 4, "all 4 chunks replayed resident");
        assert_eq!(stats.peak(), n, "the whole store fits under the cap");
    }

    #[test]
    fn chunk_cache_respects_its_capacity() {
        let n = 8 * CHUNK as usize;
        // A cap of two chunks: older chunks must be dropped.
        let mut f = make_feed(n, 2 * CHUNK as usize);
        for i in 0..n {
            f.get(i);
        }
        f.rewind();
        for i in 0..n {
            f.get(i);
        }
        let stats = f.stats();
        assert_eq!(stats.peak(), 2 * CHUNK as usize);
        // Eviction in decode order drops each chunk before a cyclic pass
        // comes back to it, so the replay decodes every chunk again.
        assert_eq!(stats.decodes(), 16);
    }

    /// Every record read through a stream over `chunk`-record chunks
    /// equals the in-memory read, forward, on backward peeks up to
    /// `lookback`, and across rewinds (one mid-pass), at a cap of zero
    /// (every backward peek into another chunk decodes it again), at the
    /// `for_core`-shaped cap and at the default one.
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
            for cap in [0, lookback + 2 * chunk as usize, RESIDENT_CAP] {
                let mut w = TraceWriter::create(Vec::new(), "feed", chunk).unwrap();
                for i in &instrs {
                    w.push(i).unwrap();
                }
                let (_, bytes) = w.finish().unwrap();
                let reader =
                    TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
                let mut stream = TraceFeed::Stream(Box::new(StreamFeed::new(reader, cap)));
                let mut mem = TraceFeed::Mem(Arc::new(Trace::new("feed", instrs.clone())));
                for end in [n / 2, n, n] {
                    let mut i = 0;
                    while i < end {
                        assert_eq!(
                            stream.get(i),
                            mem.get(i),
                            "chunk {chunk}, cap {cap}: record {i}"
                        );
                        for back in [1, 2, 3, 61, lookback - 1, lookback] {
                            if let Some(j) = i.checked_sub(back) {
                                assert_eq!(
                                    stream.get(j),
                                    mem.get(j),
                                    "chunk {chunk}, cap {cap}: peek {j}"
                                );
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
