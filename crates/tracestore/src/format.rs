//! The chunked on-disk trace container (`.sct` — "secure-prefetch
//! chunked trace").
//!
//! ```text
//! header   16 B   magic "SPTRCHK\0", version u32 (1), chunk_size u32
//! chunks   …      back-to-back compressed chunks (codec block each)
//! footer   …      chunk index + metadata (layout below), FNV checksum
//! trailer  24 B   footer offset u64, footer len u64, magic "SPTRIDX\0"
//! ```
//!
//! The footer is written last and found via the fixed-size trailer, so
//! the writer is pure-append (no seeking): capture can stream through a
//! pipe-like writer and the reader opens files by reading 24 bytes from
//! the end.
//!
//! **Footer layout** (little-endian):
//!
//! ```text
//! n_chunks u64
//! per chunk: offset u64 (absolute), n_records u32, raw_len u32,
//!            comp_len u32, checksum u64 (FNV-1a of raw chunk bytes)
//! n_instr u64, max_dep_dist u64, content_digest u64
//! name u32 len + UTF-8
//! wrong-path: u64 count, then (idx u64, count u32, count × addr u64)
//! footer checksum u64 (FNV-1a of all preceding footer bytes)
//! ```
//!
//! **Chunk encoding** (before compression): per record a head byte
//! `tag | taken << 2 | has_dep << 3`, a zigzag-varint IP delta, then for
//! memory ops a zigzag-varint address delta and for dependent loads a
//! varint dependency distance. Both deltas reset to base 0 at each chunk
//! boundary, so chunks decode independently (random access).
//!
//! **Content digest.** The digest is FNV-1a over a canonical fixed-width
//! expansion of every record (head byte, 8-byte IP, 8-byte payload,
//! 2-byte dep). It is *independent of chunk size*: recapturing the same
//! stream with a different `chunk_size` yields the same digest, which is
//! what the experiment engine keys streamed jobs on.

use crate::codec;
use crate::fnv::{fnv1a64, FNV_OFFSET};
use secpref_trace::sink::TraceSink;
use secpref_trace::{Instr, InstrKind};
use secpref_types::varint;
use secpref_types::{Addr, Ip};
use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 8] = b"SPTRCHK\0";
const TRAILER_MAGIC: &[u8; 8] = b"SPTRIDX\0";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const TRAILER_LEN: u64 = 24;

/// Default records per chunk (64k instructions ≈ 1–1.5 MB decoded).
pub const DEFAULT_CHUNK_SIZE: u32 = 64 * 1024;

const TAG_ALU: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
const HEAD_TAKEN: u8 = 1 << 2;
const HEAD_HAS_DEP: u8 = 1 << 3;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn head_byte(i: &Instr) -> u8 {
    match i.kind {
        InstrKind::Alu => TAG_ALU,
        InstrKind::Load { dep_dist, .. } => TAG_LOAD | if dep_dist != 0 { HEAD_HAS_DEP } else { 0 },
        InstrKind::Store { .. } => TAG_STORE,
        InstrKind::Branch { taken } => TAG_BRANCH | if taken { HEAD_TAKEN } else { 0 },
    }
}

/// Folds one record into the chunking-independent content digest.
pub fn digest_record(hash: u64, i: &Instr) -> u64 {
    let (payload, dep): (u64, u16) = match i.kind {
        InstrKind::Alu => (0, 0),
        InstrKind::Load { addr, dep_dist } => (addr.raw(), dep_dist),
        InstrKind::Store { addr } => (addr.raw(), 0),
        InstrKind::Branch { taken } => (taken as u64, 0),
    };
    let mut buf = [0u8; 19];
    buf[0] = head_byte(i);
    buf[1..9].copy_from_slice(&i.ip.raw().to_le_bytes());
    buf[9..17].copy_from_slice(&payload.to_le_bytes());
    buf[17..19].copy_from_slice(&dep.to_le_bytes());
    fnv1a64(&buf, hash)
}

/// Computes the content digest of a full in-memory instruction slice
/// (what a capture of exactly these records would store in its footer).
pub fn digest_instrs(instrs: &[Instr]) -> u64 {
    instrs.iter().fold(FNV_OFFSET, digest_record)
}

/// Location and integrity info for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Absolute file offset of the compressed bytes.
    pub offset: u64,
    /// Records in this chunk.
    pub n_records: u32,
    /// Decoded (pre-compression) byte length.
    pub raw_len: u32,
    /// Compressed byte length.
    pub comp_len: u32,
    /// FNV-1a of the decoded bytes.
    pub checksum: u64,
}

/// Footer metadata of an open store.
#[derive(Debug, Clone)]
pub struct StoreMeta {
    /// Trace name.
    pub name: String,
    /// Total instruction count.
    pub n_instr: u64,
    /// Records per full chunk.
    pub chunk_size: u32,
    /// Largest load dependency distance in the trace (sizes the reader's
    /// lookback window).
    pub max_dep_dist: u64,
    /// Chunking-independent content digest (see module docs).
    pub content_digest: u64,
    /// Per-chunk index.
    pub chunks: Vec<ChunkInfo>,
    /// Wrong-path loads, keyed by branch record index.
    pub wrong_path: BTreeMap<u64, Vec<Addr>>,
}

/// Streaming chunk-store writer. Pure-append: works over any
/// [`Write`] (a `File`, a `Vec<u8>`, a socket).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    name: String,
    chunk_size: u32,
    raw: Vec<u8>,
    in_chunk: u32,
    prev_ip: u64,
    prev_addr: u64,
    off: u64,
    chunks: Vec<ChunkInfo>,
    n_instr: u64,
    max_dep: u64,
    digest: u64,
    wrong_path: BTreeMap<u64, Vec<Addr>>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns a writer cutting chunks of
    /// `chunk_size` records.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn create(mut w: W, name: &str, chunk_size: u32) -> io::Result<Self> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&chunk_size.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            name: name.to_string(),
            chunk_size,
            raw: Vec::with_capacity(chunk_size as usize * 8),
            in_chunk: 0,
            prev_ip: 0,
            prev_addr: 0,
            off: HEADER_LEN,
            chunks: Vec::new(),
            n_instr: 0,
            max_dep: 0,
            digest: FNV_OFFSET,
            wrong_path: BTreeMap::new(),
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (a full chunk is compressed and flushed).
    pub fn push(&mut self, i: &Instr) -> io::Result<()> {
        self.digest = digest_record(self.digest, i);
        self.raw.push(head_byte(i));
        let ip = i.ip.raw();
        varint::encode_u64(
            &mut self.raw,
            varint::zigzag(ip.wrapping_sub(self.prev_ip) as i64),
        );
        self.prev_ip = ip;
        match i.kind {
            InstrKind::Alu | InstrKind::Branch { .. } => {}
            InstrKind::Load { addr, dep_dist } => {
                let a = addr.raw();
                varint::encode_u64(
                    &mut self.raw,
                    varint::zigzag(a.wrapping_sub(self.prev_addr) as i64),
                );
                self.prev_addr = a;
                if dep_dist != 0 {
                    varint::encode_u64(&mut self.raw, dep_dist as u64);
                    self.max_dep = self.max_dep.max(dep_dist as u64);
                }
            }
            InstrKind::Store { addr } => {
                let a = addr.raw();
                varint::encode_u64(
                    &mut self.raw,
                    varint::zigzag(a.wrapping_sub(self.prev_addr) as i64),
                );
                self.prev_addr = a;
            }
        }
        self.in_chunk += 1;
        self.n_instr += 1;
        if self.in_chunk == self.chunk_size {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Records wrong-path loads for the branch at record `idx`.
    pub fn push_wrong_path(&mut self, idx: u64, addrs: Vec<Addr>) {
        self.wrong_path.insert(idx, addrs);
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.in_chunk == 0 {
            return Ok(());
        }
        let comp = codec::compress(&self.raw);
        self.chunks.push(ChunkInfo {
            offset: self.off,
            n_records: self.in_chunk,
            raw_len: self.raw.len() as u32,
            comp_len: comp.len() as u32,
            checksum: fnv1a64(&self.raw, FNV_OFFSET),
        });
        self.w.write_all(&comp)?;
        self.off += comp.len() as u64;
        self.raw.clear();
        self.in_chunk = 0;
        // Deltas restart at each chunk so chunks decode independently.
        self.prev_ip = 0;
        self.prev_addr = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes footer and trailer, and
    /// returns the store metadata plus the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(mut self) -> io::Result<(StoreMeta, W)> {
        self.flush_chunk()?;
        let mut f = Vec::new();
        f.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for c in &self.chunks {
            f.extend_from_slice(&c.offset.to_le_bytes());
            f.extend_from_slice(&c.n_records.to_le_bytes());
            f.extend_from_slice(&c.raw_len.to_le_bytes());
            f.extend_from_slice(&c.comp_len.to_le_bytes());
            f.extend_from_slice(&c.checksum.to_le_bytes());
        }
        f.extend_from_slice(&self.n_instr.to_le_bytes());
        f.extend_from_slice(&self.max_dep.to_le_bytes());
        f.extend_from_slice(&self.digest.to_le_bytes());
        f.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        f.extend_from_slice(self.name.as_bytes());
        f.extend_from_slice(&(self.wrong_path.len() as u64).to_le_bytes());
        for (&idx, addrs) in &self.wrong_path {
            f.extend_from_slice(&idx.to_le_bytes());
            f.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
            for a in addrs {
                f.extend_from_slice(&a.raw().to_le_bytes());
            }
        }
        let fck = fnv1a64(&f, FNV_OFFSET);
        f.extend_from_slice(&fck.to_le_bytes());
        self.w.write_all(&f)?;
        self.w.write_all(&self.off.to_le_bytes())?;
        self.w.write_all(&(f.len() as u64).to_le_bytes())?;
        self.w.write_all(TRAILER_MAGIC)?;
        self.w.flush()?;
        let meta = StoreMeta {
            name: self.name,
            n_instr: self.n_instr,
            chunk_size: self.chunk_size,
            max_dep_dist: self.max_dep,
            content_digest: self.digest,
            chunks: self.chunks,
            wrong_path: self.wrong_path,
        };
        Ok((meta, self.w))
    }
}

/// A [`TraceSink`] adapter that streams generator output straight into a
/// [`TraceWriter`], capped at `target` records. I/O errors are stashed
/// (the sink reports itself full) and surfaced by [`CaptureSink::finish`].
#[derive(Debug)]
pub struct CaptureSink<W: Write> {
    w: TraceWriter<W>,
    target: usize,
    accepted: usize,
    err: Option<io::Error>,
}

impl<W: Write> CaptureSink<W> {
    /// Wraps `w`, accepting exactly `target` records.
    pub fn new(w: TraceWriter<W>, target: usize) -> Self {
        CaptureSink {
            w,
            target,
            accepted: 0,
            err: None,
        }
    }

    /// Finalizes the store.
    ///
    /// # Errors
    ///
    /// Surfaces any I/O error stashed during pushes, then any error from
    /// the final footer write.
    pub fn finish(self) -> io::Result<(StoreMeta, W)> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.w.finish()
    }
}

impl<W: Write> TraceSink for CaptureSink<W> {
    fn push(&mut self, instr: Instr) {
        if self.accepted >= self.target || self.err.is_some() {
            return;
        }
        match self.w.push(&instr) {
            Ok(()) => self.accepted += 1,
            Err(e) => self.err = Some(e),
        }
    }

    fn len(&self) -> usize {
        self.accepted
    }

    fn full(&self) -> bool {
        self.accepted >= self.target || self.err.is_some()
    }
}

/// Random-access chunk-store reader over any `Read + Seek`.
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    meta: StoreMeta,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a store: reads the trailer from the end, then validates and
    /// parses footer and header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for bad magics, versions, checksums, or any
    /// structurally inconsistent index; propagates reader errors.
    pub fn open(mut r: R) -> io::Result<Self> {
        let file_len = r.seek(SeekFrom::End(0))?;
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(bad("file too short for a chunk store"));
        }
        // Trailer.
        r.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        r.read_exact(&mut trailer)?;
        if &trailer[16..24] != TRAILER_MAGIC {
            return Err(bad("bad trailer magic"));
        }
        let footer_off = u64::from_le_bytes(trailer[0..8].try_into().expect("8"));
        let footer_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8"));
        if footer_off < HEADER_LEN
            || footer_len < 8
            || footer_off
                .checked_add(footer_len)
                .is_none_or(|end| end != file_len - TRAILER_LEN)
        {
            return Err(bad("trailer does not frame the footer"));
        }
        // Header.
        r.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN as usize];
        r.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4"));
        if version != VERSION {
            return Err(bad(format!("unsupported chunk store version {version}")));
        }
        let chunk_size = u32::from_le_bytes(header[12..16].try_into().expect("4"));
        if chunk_size == 0 {
            return Err(bad("zero chunk size"));
        }
        // Footer.
        r.seek(SeekFrom::Start(footer_off))?;
        let mut f = vec![0u8; footer_len as usize];
        r.read_exact(&mut f)?;
        let body = &f[..f.len() - 8];
        let stored_ck = u64::from_le_bytes(f[f.len() - 8..].try_into().expect("8"));
        if fnv1a64(body, FNV_OFFSET) != stored_ck {
            return Err(bad("footer checksum mismatch"));
        }
        let meta = parse_footer(body, chunk_size, footer_off)?;
        Ok(TraceReader { r, meta })
    }

    /// The store's footer metadata.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Reads, checksums, and decodes chunk `idx` into instructions.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a checksum mismatch or malformed chunk
    /// body; propagates reader errors.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read_chunk(&mut self, idx: usize) -> io::Result<Vec<Instr>> {
        let info = self.meta.chunks[idx];
        self.r.seek(SeekFrom::Start(info.offset))?;
        let mut comp = vec![0u8; info.comp_len as usize];
        self.r.read_exact(&mut comp)?;
        let raw = codec::decompress(&comp, info.raw_len as usize)
            .map_err(|_| bad(format!("chunk {idx}: corrupt compressed block")))?;
        if fnv1a64(&raw, FNV_OFFSET) != info.checksum {
            return Err(bad(format!("chunk {idx}: checksum mismatch")));
        }
        decode_chunk(&raw, info.n_records as usize).map_err(|e| bad(format!("chunk {idx}: {e}")))
    }

    /// Fully verifies the store: every chunk decodes and checksums, the
    /// record count matches, and the recomputed content digest equals
    /// the footer's.
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation found.
    pub fn verify(&mut self) -> io::Result<()> {
        let mut digest = FNV_OFFSET;
        let mut count = 0u64;
        for idx in 0..self.meta.chunks.len() {
            let instrs = self.read_chunk(idx)?;
            count += instrs.len() as u64;
            for i in &instrs {
                digest = digest_record(digest, i);
            }
        }
        if count != self.meta.n_instr {
            return Err(bad(format!(
                "record count mismatch: chunks hold {count}, footer says {}",
                self.meta.n_instr
            )));
        }
        if digest != self.meta.content_digest {
            return Err(bad("content digest mismatch"));
        }
        Ok(())
    }
}

fn parse_footer(f: &[u8], chunk_size: u32, footer_off: u64) -> io::Result<StoreMeta> {
    struct Cur<'a> {
        b: &'a [u8],
        p: usize,
    }
    impl Cur<'_> {
        fn u32(&mut self) -> io::Result<u32> {
            let s = self
                .b
                .get(self.p..self.p + 4)
                .ok_or_else(|| bad("footer truncated"))?;
            self.p += 4;
            Ok(u32::from_le_bytes(s.try_into().expect("4")))
        }
        fn u64(&mut self) -> io::Result<u64> {
            let s = self
                .b
                .get(self.p..self.p + 8)
                .ok_or_else(|| bad("footer truncated"))?;
            self.p += 8;
            Ok(u64::from_le_bytes(s.try_into().expect("8")))
        }
        fn bytes(&mut self, n: usize) -> io::Result<&[u8]> {
            let s = self
                .b
                .get(self.p..self.p + n)
                .ok_or_else(|| bad("footer truncated"))?;
            self.p += n;
            Ok(s)
        }
    }
    let mut c = Cur { b: f, p: 0 };
    let n_chunks = c.u64()? as usize;
    if n_chunks > (1 << 32) {
        return Err(bad("implausible chunk count"));
    }
    let mut chunks = Vec::with_capacity(n_chunks.min(1 << 20));
    let mut expect_off = HEADER_LEN;
    for i in 0..n_chunks {
        let info = ChunkInfo {
            offset: c.u64()?,
            n_records: c.u32()?,
            raw_len: c.u32()?,
            comp_len: c.u32()?,
            checksum: c.u64()?,
        };
        if info.offset != expect_off {
            return Err(bad(format!("chunk {i}: offset out of order")));
        }
        if info.n_records == 0 || info.n_records > chunk_size {
            return Err(bad(format!("chunk {i}: bad record count")));
        }
        // All chunks but the last must be exactly chunk_size records
        // (random access relies on uniform chunking).
        if i + 1 < n_chunks && info.n_records != chunk_size {
            return Err(bad(format!("chunk {i}: non-final chunk not full")));
        }
        expect_off += info.comp_len as u64;
        chunks.push(info);
    }
    if expect_off != footer_off {
        return Err(bad("chunk index does not cover the data section"));
    }
    let n_instr = c.u64()?;
    if n_instr != chunks.iter().map(|ch| ch.n_records as u64).sum::<u64>() {
        return Err(bad("n_instr disagrees with the chunk index"));
    }
    let max_dep_dist = c.u64()?;
    let content_digest = c.u64()?;
    let name_len = c.u32()? as usize;
    if name_len > 4096 {
        return Err(bad("name too long"));
    }
    let name = String::from_utf8(c.bytes(name_len)?.to_vec()).map_err(|_| bad("name not UTF-8"))?;
    let n_wp = c.u64()? as usize;
    let mut wrong_path = BTreeMap::new();
    for _ in 0..n_wp {
        let idx = c.u64()?;
        let cnt = c.u32()? as usize;
        if cnt > 1 << 20 {
            return Err(bad("wrong-path burst too large"));
        }
        let mut addrs = Vec::with_capacity(cnt);
        for _ in 0..cnt {
            addrs.push(Addr::new(c.u64()?));
        }
        wrong_path.insert(idx, addrs);
    }
    if c.p != f.len() {
        return Err(bad("trailing bytes after footer"));
    }
    Ok(StoreMeta {
        name,
        n_instr,
        chunk_size,
        max_dep_dist,
        content_digest,
        chunks,
        wrong_path,
    })
}

fn decode_chunk(raw: &[u8], n_records: usize) -> Result<Vec<Instr>, String> {
    let mut out = Vec::with_capacity(n_records);
    let mut pos = 0usize;
    let mut prev_ip = 0u64;
    let mut prev_addr = 0u64;
    for rec in 0..n_records {
        let head = *raw
            .get(pos)
            .ok_or_else(|| format!("record {rec}: truncated"))?;
        pos += 1;
        if head & !0b1111 != 0 {
            return Err(format!("record {rec}: bad head byte {head:#x}"));
        }
        let dip = varint::decode_u64(raw, &mut pos)
            .ok_or_else(|| format!("record {rec}: bad ip delta"))?;
        let ip = prev_ip.wrapping_add(varint::unzigzag(dip) as u64);
        prev_ip = ip;
        let kind = match head & 0b11 {
            TAG_ALU => InstrKind::Alu,
            TAG_LOAD => {
                let da = varint::decode_u64(raw, &mut pos)
                    .ok_or_else(|| format!("record {rec}: bad addr delta"))?;
                let addr = prev_addr.wrapping_add(varint::unzigzag(da) as u64);
                prev_addr = addr;
                let dep_dist = if head & HEAD_HAS_DEP != 0 {
                    let d = varint::decode_u64(raw, &mut pos)
                        .ok_or_else(|| format!("record {rec}: bad dep"))?;
                    u16::try_from(d).map_err(|_| format!("record {rec}: dep exceeds u16"))?
                } else {
                    0
                };
                InstrKind::Load {
                    addr: Addr::new(addr),
                    dep_dist,
                }
            }
            TAG_STORE => {
                let da = varint::decode_u64(raw, &mut pos)
                    .ok_or_else(|| format!("record {rec}: bad addr delta"))?;
                let addr = prev_addr.wrapping_add(varint::unzigzag(da) as u64);
                prev_addr = addr;
                InstrKind::Store {
                    addr: Addr::new(addr),
                }
            }
            TAG_BRANCH => InstrKind::Branch {
                taken: head & HEAD_TAKEN != 0,
            },
            _ => unreachable!("tag is 2 bits"),
        };
        out.push(Instr {
            ip: Ip::new(ip),
            kind,
        });
    }
    if pos != raw.len() {
        return Err("trailing bytes after last record".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_instrs(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| {
                let ip = 0x40_0000 + (i as u64 % 61) * 4 + ((i as u64 / 61) << 33);
                match i % 5 {
                    0 => Instr::alu(ip),
                    1 => Instr::load(ip, 0x1000_0000 + (i as u64 * 64) % (1 << 30)),
                    2 => Instr::load_dep(ip, 0x2000_0000 + (i as u64 * 8), (i % 40 + 1) as u16),
                    3 => Instr::store(ip, 0x3000_0000 + (i as u64 * 16)),
                    _ => Instr::branch(ip, i % 3 == 0),
                }
            })
            .collect()
    }

    fn write_store(instrs: &[Instr], chunk_size: u32) -> (StoreMeta, Vec<u8>) {
        let mut w = TraceWriter::create(Vec::new(), "test", chunk_size).unwrap();
        for i in instrs {
            w.push(i).unwrap();
        }
        w.finish().unwrap()
    }

    fn read_all(bytes: Vec<u8>) -> (StoreMeta, Vec<Instr>) {
        let mut r = TraceReader::open(Cursor::new(bytes)).unwrap();
        let mut all = Vec::new();
        for c in 0..r.meta().chunks.len() {
            all.extend(r.read_chunk(c).unwrap());
        }
        (r.meta.clone(), all)
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        let instrs = sample_instrs(10_000);
        let (wmeta, bytes) = write_store(&instrs, 1024); // ~10 chunks
        let (rmeta, decoded) = read_all(bytes);
        assert_eq!(decoded, instrs);
        assert_eq!(rmeta.n_instr, 10_000);
        assert_eq!(rmeta.chunks.len(), 10_000usize.div_ceil(1024));
        assert_eq!(rmeta.content_digest, wmeta.content_digest);
        assert_eq!(rmeta.content_digest, digest_instrs(&instrs));
        assert_eq!(rmeta.max_dep_dist, 38);
    }

    #[test]
    fn digest_is_chunking_independent() {
        let instrs = sample_instrs(5_000);
        let (m1, _) = write_store(&instrs, 256);
        let (m2, _) = write_store(&instrs, 4096);
        assert_eq!(m1.content_digest, m2.content_digest);
        assert_eq!(m1.content_digest, digest_instrs(&instrs));
    }

    #[test]
    fn verify_passes_on_intact_store() {
        let (_, bytes) = write_store(&sample_instrs(3_000), 512);
        let mut r = TraceReader::open(Cursor::new(bytes)).unwrap();
        r.verify().expect("intact store verifies");
    }

    #[test]
    fn rejects_truncated_file() {
        let (_, bytes) = write_store(&sample_instrs(3_000), 512);
        // Cutting anywhere must fail cleanly at open or verify, never panic.
        for cut in [1, 16, 100, bytes.len() / 2, bytes.len() - 1] {
            let r = TraceReader::open(Cursor::new(bytes[..cut].to_vec()));
            match r {
                Err(_) => {}
                Ok(mut r) => assert!(r.verify().is_err(), "cut at {cut} must not verify"),
            }
        }
    }

    #[test]
    fn rejects_corrupted_chunk() {
        let (meta, mut bytes) = write_store(&sample_instrs(3_000), 512);
        // Flip a byte in the middle of chunk 2's compressed payload.
        let c = meta.chunks[2];
        let victim = c.offset as usize + c.comp_len as usize / 2;
        bytes[victim] ^= 0x55;
        let mut r = TraceReader::open(Cursor::new(bytes)).expect("footer intact");
        let err = r.read_chunk(2).expect_err("corrupt chunk must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(r.verify().is_err());
        // Other chunks stay readable.
        assert_eq!(r.read_chunk(0).unwrap().len(), 512);
    }

    #[test]
    fn rejects_corrupted_footer() {
        let (_, mut bytes) = write_store(&sample_instrs(1_000), 512);
        let n = bytes.len();
        bytes[n - 40] ^= 0x01; // inside the footer
        assert!(TraceReader::open(Cursor::new(bytes)).is_err());
    }

    #[test]
    fn wrong_path_round_trips() {
        let mut w = TraceWriter::create(Vec::new(), "wp", 128).unwrap();
        for i in sample_instrs(300) {
            w.push(&i).unwrap();
        }
        w.push_wrong_path(4, vec![Addr::new(0xAA), Addr::new(0xBB)]);
        w.push_wrong_path(200, vec![Addr::new(0xCC)]);
        let (_, bytes) = w.finish().unwrap();
        let r = TraceReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(
            r.meta().wrong_path[&4],
            vec![Addr::new(0xAA), Addr::new(0xBB)]
        );
        assert_eq!(r.meta().wrong_path[&200], vec![Addr::new(0xCC)]);
    }

    #[test]
    fn capture_sink_caps_at_target() {
        let w = TraceWriter::create(Vec::new(), "cap", 64).unwrap();
        let mut sink = CaptureSink::new(w, 100);
        for i in sample_instrs(500) {
            sink.push(i);
        }
        assert!(sink.full());
        assert_eq!(sink.len(), 100);
        let (meta, _) = sink.finish().unwrap();
        assert_eq!(meta.n_instr, 100);
    }
}
