//! In-tree LZ77 block codec (LZ4-block-style token stream, std-only).
//!
//! The chunk store needs a fast byte-oriented compressor with no external
//! dependencies (the build is offline). This module implements the
//! classic token scheme:
//!
//! ```text
//! sequence := token literals* (offset match_ext*)?
//! token    := lit_len:4 | match_len:4      (nibbles; 15 = "extended")
//! ext      := 255* final                   (length continues while 255)
//! offset   := u16 LE, 1..=65535, distance back into the output
//! ```
//!
//! Match lengths are stored minus `MIN_MATCH` (4). The final sequence of a
//! block is literals-only (no offset). Compression is greedy with a
//! 4-byte hash table; decompression is bounds-checked everywhere and
//! never reads or writes out of range on corrupt input.

/// Minimum useful back-reference length.
const MIN_MATCH: usize = 4;
/// Hash table size (log2) for the greedy matcher.
const HASH_BITS: u32 = 13;
/// Maximum back-reference distance representable in the 2-byte offset.
const MAX_OFFSET: usize = 65_535;

#[inline]
fn hash4(v: u32) -> usize {
    // Knuth multiplicative hashing on the 4 candidate bytes.
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"))
}

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Compresses `input` into a fresh buffer. Never fails; incompressible
/// data expands by at most ~0.5% (literal run headers).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }
    let mut table = [0usize; 1 << HASH_BITS]; // candidate positions (+1; 0 = empty)
    let mut pos = 0usize; // scan cursor
    let mut anchor = 0usize; // start of pending literal run
                             // Leave room at the tail: matches must not run into the last bytes we
                             // need for the hash read, and the final sequence is literal-only.
    let scan_limit = n.saturating_sub(MIN_MATCH + 1);
    while pos < scan_limit {
        let h = hash4(read_u32(input, pos));
        let cand = table[h];
        table[h] = pos + 1;
        let cand = match cand.checked_sub(1) {
            Some(c) if pos - c <= MAX_OFFSET && read_u32(input, c) == read_u32(input, pos) => c,
            _ => {
                pos += 1;
                continue;
            }
        };
        // Extend the match forward.
        let mut len = MIN_MATCH;
        let max_len = n - pos;
        while len < max_len && input[cand + len] == input[pos + len] {
            len += 1;
        }
        // Emit: token, literal run, offset, match extension.
        let lit = pos - anchor;
        let ml = len - MIN_MATCH;
        let tok = ((lit.min(15) as u8) << 4) | ml.min(15) as u8;
        out.push(tok);
        if lit >= 15 {
            put_len(&mut out, lit - 15);
        }
        out.extend_from_slice(&input[anchor..pos]);
        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
        if ml >= 15 {
            put_len(&mut out, ml - 15);
        }
        // Index a couple of positions inside the match so long runs
        // still find back-references.
        let step = (len / 2).max(1);
        let mut p = pos + step;
        while p < (pos + len).min(scan_limit) {
            table[hash4(read_u32(input, p))] = p + 1;
            p += step;
        }
        pos += len;
        anchor = pos;
    }
    // Final literal-only sequence.
    let lit = n - anchor;
    out.push((lit.min(15) as u8) << 4);
    if lit >= 15 {
        put_len(&mut out, lit - 15);
    }
    out.extend_from_slice(&input[anchor..]);
    out
}

/// Decompression error (corrupt or truncated block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptBlock;

impl std::fmt::Display for CorruptBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("corrupt compressed block")
    }
}

impl std::error::Error for CorruptBlock {}

fn get_len(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, CorruptBlock> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *input.get(*pos).ok_or(CorruptBlock)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
            if len > (1 << 30) {
                return Err(CorruptBlock);
            }
        }
    }
    Ok(len)
}

/// Decompresses a block produced by [`compress`]. `raw_len` is the
/// expected decompressed size (stored in the chunk index); output that
/// does not come out to exactly `raw_len` bytes is an error.
///
/// # Errors
///
/// Returns [`CorruptBlock`] on any malformed token stream: truncated
/// sequences, offsets pointing before the start of output, or a size
/// mismatch. Never panics or reads out of bounds on corrupt input.
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>, CorruptBlock> {
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    if raw_len == 0 {
        return if input.is_empty() {
            Ok(out)
        } else {
            Err(CorruptBlock)
        };
    }
    loop {
        let tok = *input.get(pos).ok_or(CorruptBlock)?;
        pos += 1;
        // Literal run.
        let lit = get_len(input, &mut pos, (tok >> 4) as usize)?;
        let lit_end = pos.checked_add(lit).ok_or(CorruptBlock)?;
        if lit_end > input.len() || out.len() + lit > raw_len {
            return Err(CorruptBlock);
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if pos == input.len() {
            // Final literal-only sequence.
            return if out.len() == raw_len && tok & 0x0f == 0 {
                Ok(out)
            } else {
                Err(CorruptBlock)
            };
        }
        // Back-reference.
        let off_bytes = input.get(pos..pos + 2).ok_or(CorruptBlock)?;
        let offset = u16::from_le_bytes(off_bytes.try_into().expect("2 bytes")) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(CorruptBlock);
        }
        let mlen = get_len(input, &mut pos, (tok & 0x0f) as usize)? + MIN_MATCH;
        if out.len() + mlen > raw_len {
            return Err(CorruptBlock);
        }
        // Byte-wise copy: source may overlap destination (run-length
        // style matches with offset < length are valid and common).
        let start = out.len() - offset;
        for i in 0..mlen {
            let b = out[start + i];
            out.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn round_trips_basic_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        round_trip(b"abcabcabcabcabcabcabcabcabcabc");
        round_trip("the quick brown fox jumps over the lazy dog".as_bytes());
    }

    #[test]
    fn round_trips_structured_and_random_data() {
        // Delta-encoded trace chunks look like this: long runs of small
        // varints with repeated motifs.
        let mut structured = Vec::new();
        for i in 0..50_000u32 {
            structured.push((i % 7) as u8);
            structured.push(0x80 | (i % 3) as u8);
            if i % 11 == 0 {
                structured.extend_from_slice(b"\x01\x02\x03\x04\x05");
            }
        }
        round_trip(&structured);
        let c = compress(&structured);
        assert!(
            c.len() < structured.len() / 2,
            "structured data must compress ({} -> {})",
            structured.len(),
            c.len()
        );
        // Pseudo-random (incompressible) data must still round-trip.
        let mut x = 0x2545F4914F6CDD1Du64;
        let random: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        round_trip(&random);
    }

    #[test]
    fn long_matches_and_long_literal_runs() {
        // >15 literals and >15+4 match bytes exercise the 255-extension
        // paths on both sides.
        let mut data = Vec::new();
        data.extend((0..100u8).collect::<Vec<_>>()); // 100 distinct literals
        for _ in 0..40 {
            data.extend_from_slice(b"0123456789abcdef"); // long match
        }
        data.extend((0..255u8).rev().collect::<Vec<_>>());
        round_trip(&data);
    }

    #[test]
    fn rejects_corrupt_blocks() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let c = compress(&data);
        // Wrong raw_len.
        assert!(decompress(&c, data.len() + 1).is_err());
        assert!(decompress(&c, data.len() - 1).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in 0..c.len().min(64) {
            let _ = decompress(&c[..cut], data.len());
        }
        assert!(decompress(&c[..c.len() - 1], data.len()).is_err());
        // Bit flips must error or produce wrong-length output, never panic.
        for i in 0..c.len().min(256) {
            let mut bad = c.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad, data.len());
        }
        // Offset beyond start of output.
        let bad = vec![0x00, 0xff, 0xff, 0x00]; // 0 literals, offset 65535
        assert!(decompress(&bad, 100).is_err());
    }
}
