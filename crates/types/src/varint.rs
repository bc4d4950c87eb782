//! LEB128 variable-length integer encoding, used by the chunked trace
//! store's record codec.
//!
//! Unsigned values are encoded 7 bits per byte, low bits first, with the
//! high bit as a continuation flag (at most 10 bytes for a `u64`). Signed
//! values go through the zigzag mapping first so small negative deltas
//! stay short.

/// Maximum encoded length of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `v` to `buf`.
pub fn encode_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 `u64` from `buf` starting at `*pos`, advancing `*pos`
/// past it. Returns `None` on truncation or a >10-byte (malformed) run.
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // malformed: more than 10 continuation bytes
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps a signed value to an unsigned one with small absolute values
/// staying small (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_interesting_values() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
            0xDEAD_BEEF_CAFE_F00D,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn rejects_malformed_runs() {
        let bad = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(decode_u64(&bad, &mut pos), None);
        // Truncated continuation
        let trunc = [0x80u8];
        let mut pos = 0;
        assert_eq!(decode_u64(&trunc, &mut pos), None);
    }
}
