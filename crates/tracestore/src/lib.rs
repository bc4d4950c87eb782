//! Chunked compressed on-disk traces with bounded-memory streaming
//! decode (DESIGN.md §11).
//!
//! The simulator's workloads were historically synthesized in memory and
//! held whole as an `Arc<[Instr]>`, capping evaluations at lengths that
//! fit in RAM. This crate adds the `.sct` chunk store — fixed-size
//! instruction chunks, delta/varint-encoded and block-compressed with an
//! in-tree LZ codec, indexed by a checksummed footer — plus the
//! [`feed::TraceFeed`] abstraction the core consumes, so a 1e9+
//! instruction trace simulates with at most a capped number of decoded
//! instructions resident.
//!
//! * [`codec`] — std-only LZ77 block compressor/decompressor.
//! * [`format`](mod@format) — the container: [`format::TraceWriter`] (streaming,
//!   pure-append capture), [`format::TraceReader`] (random chunk
//!   access, integrity verification).
//! * [`feed`] — [`feed::StreamFeed`], one capped table of decoded chunks, and the
//!   [`feed::TraceFeed`] enum (in-memory or streamed).
//!
//! # Example
//!
//! ```
//! use secpref_tracestore::format::{TraceReader, TraceWriter};
//! use secpref_trace::Instr;
//! use std::io::Cursor;
//!
//! let mut w = TraceWriter::create(Vec::new(), "demo", 1024).unwrap();
//! for i in 0..5_000u64 {
//!     w.push(&Instr::load(0x400000 + i % 32, 0x10000 + i * 64)).unwrap();
//! }
//! let (meta, bytes) = w.finish().unwrap();
//! assert_eq!(meta.n_instr, 5_000);
//!
//! let mut r = TraceReader::open(Cursor::new(bytes)).unwrap();
//! r.verify().unwrap();
//! assert_eq!(r.read_chunk(0).unwrap().len(), 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod feed;
pub mod format;
pub use secpref_types::fnv;

pub use feed::{FeedStats, ReadSeek, StreamFeed, TraceFeed};
pub use format::{
    digest_instrs, CaptureSink, ChunkInfo, StoreMeta, TraceReader, TraceWriter, DEFAULT_CHUNK_SIZE,
};
