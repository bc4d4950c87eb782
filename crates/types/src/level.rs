//! Cache levels and the SUF 2-bit hit-level encoding.

use std::fmt;

/// A level of the simulated memory hierarchy.
///
/// The paper's convention: L1D is the *lowest* level, LLC the highest cache
/// level, DRAM below everything.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// First-level data cache (48 KB in the baseline).
    L1d,
    /// Second-level unified cache (512 KB).
    L2,
    /// Last-level cache (2 MB per core bank).
    Llc,
    /// Main memory.
    Dram,
}

impl CacheLevel {
    /// Short display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            CacheLevel::L1d => "L1D",
            CacheLevel::L2 => "L2",
            CacheLevel::Llc => "LLC",
            CacheLevel::Dram => "DRAM",
        }
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The SUF *hit level*: which level of the hierarchy served a speculative
/// load's data (Section IV of the paper).
///
/// Encoded in 2 bits and stored in the load-queue entry. `L1d` covers both
/// the GM and the L1D, which are accessed in parallel.
///
/// # Examples
///
/// ```
/// use secpref_types::HitLevel;
/// assert_eq!(HitLevel::decode(0b10), HitLevel::Llc);
/// assert_eq!(HitLevel::Dram.encode(), 0b11);
/// assert!(HitLevel::L2 < HitLevel::Dram);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Data came from L1D or the GM (encoding `00`).
    L1d,
    /// Data came from L2 (encoding `01`).
    L2,
    /// Data came from the LLC (encoding `10`).
    Llc,
    /// Data came from DRAM (encoding `11`).
    Dram,
}

impl HitLevel {
    /// Returns the 2-bit hardware encoding.
    pub const fn encode(self) -> u8 {
        match self {
            HitLevel::L1d => 0b00,
            HitLevel::L2 => 0b01,
            HitLevel::Llc => 0b10,
            HitLevel::Dram => 0b11,
        }
    }

    /// Decodes the 2-bit hardware encoding.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 0b11` — the hardware field is two bits wide.
    pub const fn decode(bits: u8) -> HitLevel {
        match bits {
            0b00 => HitLevel::L1d,
            0b01 => HitLevel::L2,
            0b10 => HitLevel::Llc,
            0b11 => HitLevel::Dram,
            _ => panic!("hit-level encoding is 2 bits"),
        }
    }

    /// The cache level this hit level names.
    pub const fn level(self) -> CacheLevel {
        match self {
            HitLevel::L1d => CacheLevel::L1d,
            HitLevel::L2 => CacheLevel::L2,
            HitLevel::Llc => CacheLevel::Llc,
            HitLevel::Dram => CacheLevel::Dram,
        }
    }
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.level().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for bits in 0..4u8 {
            assert_eq!(HitLevel::decode(bits).encode(), bits);
        }
    }

    #[test]
    fn hit_level_orders_by_distance() {
        assert!(HitLevel::L1d < HitLevel::L2);
        assert!(HitLevel::L2 < HitLevel::Llc);
        assert!(HitLevel::Llc < HitLevel::Dram);
    }
}
