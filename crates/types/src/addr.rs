//! Byte addresses, cache-line addresses, and instruction pointers.

use std::fmt;

/// Cache line size in bytes (64 B throughout the paper's system).
pub const LINE_SIZE: u64 = 64;

/// Number of block-offset bits within a cache line (`log2(LINE_SIZE)`).
pub const OFFSET_BITS: u32 = 6;

/// Width of a byte address in bits: every producer stays below 2^39.
const ADDR_BITS: u32 = 40;

/// A byte address in the simulated virtual address space.
///
/// It holds 40 bits in five big-endian bytes, so a trace record carrying
/// one is 12 bytes and the derived ordering is numeric. The API still
/// speaks `u64`: [`Addr::new`] panics past 2^40 − 1 and [`Addr::try_new`]
/// refuses.
///
/// # Examples
///
/// ```
/// use secpref_types::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.raw(), 0x1000);
/// assert_eq!(Addr::try_new(1 << 40), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr([u8; 5]);

const _: () = assert!(std::mem::size_of::<Addr>() == 5 && std::mem::align_of::<Addr>() == 1);

impl Addr {
    /// Creates an address from a raw byte address.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 40 bits.
    // Inlined by hand: the panic path keeps it out of the compiler's
    // cross-crate inlining, and generators call it once per access.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        match Addr::try_new(raw) {
            Some(a) => a,
            None => panic!("address exceeds 40 bits"),
        }
    }

    /// Creates an address from an untrusted raw byte address, or `None`
    /// if it does not fit in 40 bits.
    #[inline]
    pub const fn try_new(raw: u64) -> Option<Self> {
        if raw >> ADDR_BITS != 0 {
            None
        } else {
            let b = raw.to_be_bytes();
            Some(Addr([b[3], b[4], b[5], b[6], b[7]]))
        }
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        let [a, b, c, d, e] = self.0;
        u64::from_be_bytes([0, 0, 0, a, b, c, d, e])
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.raw() >> OFFSET_BITS)
    }

    /// Returns the byte offset within the cache line.
    pub const fn offset(self) -> u64 {
        self.raw() & (LINE_SIZE - 1)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.raw())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.raw())
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.raw(), f)
    }
}

/// A cache-line address: a byte address shifted right by [`OFFSET_BITS`].
///
/// Using a distinct type prevents the classic bug of mixing byte addresses
/// with line numbers in prefetcher delta arithmetic.
///
/// # Examples
///
/// ```
/// use secpref_types::{Addr, LineAddr};
/// let l = Addr::new(0x1040).line();
/// assert_eq!(l, LineAddr::new(0x41));
/// assert_eq!(l.delta(Addr::new(0x1000).line()), 1);
/// assert_eq!(l.offset(-1), LineAddr::new(0x40));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number (byte address >> 6).
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the immediately following line.
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }

    /// Returns the line at signed line-delta `d` from this line.
    pub const fn offset(self, d: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add(d as u64))
    }

    /// Returns the signed line delta `self - earlier` as used by
    /// delta-based prefetchers such as Berti and SPP.
    pub const fn delta(self, earlier: LineAddr) -> i64 {
        self.0.wrapping_sub(earlier.0) as i64
    }

    /// Returns the 4 KB page number containing this line.
    pub const fn page(self) -> u64 {
        self.0 >> 6
    }

    /// Returns the line index within its 4 KB page (0..64).
    pub const fn page_offset(self) -> u32 {
        (self.0 & 63) as u32
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

/// The instruction pointer (program counter) of a load or store.
///
/// Prefetchers key their tables on the IP; it needs no arithmetic beyond
/// hashing, so it is a plain opaque newtype. It holds 32 bits: every
/// generator's IPs lie below 2^23, the modelled tables index low IP bits,
/// and a 4-byte IP keeps a trace record at 12 bytes. The API still speaks
/// `u64`: [`Ip::new`] panics past `u32::MAX` and [`Ip::try_new`] refuses.
///
/// # Examples
///
/// ```
/// use secpref_types::Ip;
/// let ip = Ip::new(0x40_1000);
/// assert_eq!(ip.raw(), 0x40_1000);
/// assert_eq!(Ip::try_new(1 << 32), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(u32);

const _: () = assert!(std::mem::size_of::<Ip>() == 4);

impl Ip {
    /// Creates an instruction pointer from its raw value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 32 bits.
    // Inlined by hand: the panic path keeps it out of the compiler's
    // cross-crate inlining, and generators call it once per instruction.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        match Ip::try_new(raw) {
            Some(ip) => ip,
            None => panic!("instruction pointer exceeds 32 bits"),
        }
    }

    /// Creates an instruction pointer from an untrusted raw value, or
    /// `None` if it does not fit in 32 bits.
    #[inline]
    pub const fn try_new(raw: u64) -> Option<Self> {
        if raw > u32::MAX as u64 {
            None
        } else {
            Some(Ip(raw as u32))
        }
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ip({:#x})", self.0)
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_round_trip() {
        let a = Addr::new(0x12345);
        assert_eq!(a.offset(), 0x12345 % LINE_SIZE);
    }

    #[test]
    fn line_delta_signed() {
        let a = LineAddr::new(100);
        let b = LineAddr::new(97);
        assert_eq!(a.delta(b), 3);
        assert_eq!(b.delta(a), -3);
        assert_eq!(b.offset(3), a);
        assert_eq!(a.offset(-3), b);
    }

    #[test]
    fn region_decomposition() {
        let l = LineAddr::new(0x1234);
        assert_eq!(l.page() * 64 + l.page_offset() as u64, l.raw());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Addr::new(255)), "0xff");
        assert_eq!(format!("{}", LineAddr::new(255)), "0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(
            format!("{:?}", Addr::new((1 << 40) - 1)),
            "Addr(0xffffffffff)"
        );
    }

    #[test]
    fn addr_holds_exactly_40_bits() {
        let max = (1u64 << 40) - 1;
        assert_eq!(Addr::new(max).raw(), max);
        assert_eq!(Addr::try_new(max).map(Addr::raw), Some(max));
        assert_eq!(Addr::try_new(1 << 40), None);
        assert_eq!(Addr::try_new(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "address exceeds 40 bits")]
    fn addr_new_panics_past_40_bits() {
        Addr::new(1 << 40);
    }

    #[test]
    fn addr_orders_numerically() {
        // Each pair straddles a byte boundary; a little-endian layout
        // would order every one of them the wrong way round.
        for shift in [8, 16, 24, 32] {
            let (lo, hi) = ((1u64 << shift) - 1, 1u64 << shift);
            assert!(Addr::new(lo) < Addr::new(hi), "{lo:#x} < {hi:#x}");
        }
    }

    #[test]
    fn ip_holds_exactly_32_bits() {
        assert_eq!(Ip::new(u32::MAX as u64).raw(), u32::MAX as u64);
        assert_eq!(
            Ip::try_new(u32::MAX as u64).map(Ip::raw),
            Some(u32::MAX as u64)
        );
        assert_eq!(Ip::try_new(u32::MAX as u64 + 1), None);
        assert_eq!(Ip::try_new(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "instruction pointer exceeds 32 bits")]
    fn ip_new_panics_past_32_bits() {
        Ip::new(1 << 32);
    }
}
