//! Fixed-size log2-bucketed histogram (DESIGN.md §8).
//!
//! Values are binned into power-of-two *octaves*, each split into
//! [`SUB_BUCKETS`] linear sub-buckets, so relative bucket width is bounded
//! by `1/SUB_BUCKETS` everywhere while the whole table stays a fixed
//! [`N_BUCKETS`]-entry array: recording is allocation-free and O(1)
//! (a `leading_zeros` plus two shifts). Values at or beyond
//! [`Hist::OVERFLOW_LO`] saturate into the final *overflow* bucket rather
//! than growing the table.
//!
//! Alongside the buckets the histogram keeps exact `count`, `sum` (128-bit,
//! so even `u64::MAX` records cannot overflow it), `min`, and `max`, which
//! makes the mean exact and gives tight bounds for any quantile: the
//! quantile's bucket brackets the true value to within one sub-bucket.
//!
//! # Examples
//!
//! ```
//! use secpref_types::Hist;
//!
//! let mut h = Hist::new();
//! for v in [1, 2, 3, 100, 200] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.min(), Some(1));
//! assert_eq!(h.max(), Some(200));
//! let (lo, hi) = h.quantile_bounds(0.5).unwrap();
//! assert!(lo <= 3 && 3 <= hi);
//! ```

/// log2 of the number of linear sub-buckets per power-of-two octave.
pub const SUB_BUCKET_BITS: u32 = 3;
/// Linear sub-buckets per octave: relative error of a bucket is ≤ 1/8.
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Octaves above the exact range (values `0..SUB_BUCKETS` are exact).
const GROUPS: usize = 32;
/// Total bucket count: the exact range, `GROUPS` octaves of `SUB_BUCKETS`,
/// and one saturating overflow bucket.
pub const N_BUCKETS: usize = SUB_BUCKETS + GROUPS * SUB_BUCKETS + 1;

/// A fixed-size log2-bucketed histogram of `u64` samples.
///
/// See the [module docs](self) for the bucket math.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; N_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// Smallest value that lands in the saturating overflow bucket.
    ///
    /// With 3 sub-bucket bits and 32 octaves this is 2³⁵ — far beyond any
    /// plausible cycle latency, so real data never saturates.
    pub const OVERFLOW_LO: u64 = (SUB_BUCKETS as u64) << GROUPS;

    /// An empty histogram. All-const so it can live in arrays and statics.
    pub const fn new() -> Self {
        Hist {
            counts: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for `v` (the hot path: `leading_zeros` + shifts).
    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        if v >= Self::OVERFLOW_LO {
            return N_BUCKETS - 1;
        }
        let msb = 63 - v.leading_zeros();
        let group = (msb - SUB_BUCKET_BITS) as usize;
        let sub = ((v >> (msb - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
        SUB_BUCKETS + group * SUB_BUCKETS + sub
    }

    /// `[lo, hi]` (inclusive) value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket index out of range");
        if i < SUB_BUCKETS {
            return (i as u64, i as u64);
        }
        if i == N_BUCKETS - 1 {
            return (Self::OVERFLOW_LO, u64::MAX);
        }
        let group = ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let base = (SUB_BUCKETS as u64) << group;
        let width = 1u64 << group;
        let lo = base + sub * width;
        (lo, lo + width - 1)
    }

    /// Records one sample. Allocation-free, O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` (bucket-wise add; min/max/count/sum stay
    /// exact).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `[lo, hi]` bounds bracketing the `q`-quantile (`0.0 ..= 1.0`),
    /// `None` when the histogram is empty. The true quantile lies within
    /// the returned bucket, tightened by the exact min/max.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        unreachable!("count > 0 but no bucket reached the rank")
    }

    /// Iterates the non-empty buckets as `(lo, hi, count)` (inclusive
    /// bounds), in ascending value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        for (i, (lo, hi, c)) in h.buckets().enumerate() {
            assert_eq!((lo, hi, c), (i as u64, i as u64, 1));
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        // Bucket bounds and the index function must be mutually inverse.
        for shift in 0..40 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).wrapping_add(off);
                let i = Hist::index(v);
                let (lo, hi) = Hist::bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn bucket_bounds_tile_the_domain() {
        // Consecutive buckets must be adjacent with no gaps or overlaps.
        let mut expect_lo = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, hi) = Hist::bucket_bounds(i);
            assert_eq!(
                lo,
                expect_lo,
                "bucket {i} does not start where {} ended",
                i.wrapping_sub(1)
            );
            assert!(hi >= lo);
            expect_lo = hi.wrapping_add(1);
        }
        assert_eq!(expect_lo, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn exact_stats_and_mean() {
        let mut h = Hist::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
        assert_eq!(h.mean(), Some(20.0));
    }

    #[test]
    fn zero_count_quantiles_are_none() {
        let h = Hist::new();
        assert_eq!(h.quantile_bounds(0.0), None);
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!(h.quantile_bounds(1.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn overflow_bucket_saturates() {
        let mut h = Hist::new();
        h.record(Hist::OVERFLOW_LO);
        h.record(Hist::OVERFLOW_LO + 12345);
        h.record(u64::MAX - 1);
        let bs: Vec<_> = h.buckets().collect();
        assert_eq!(bs.len(), 1, "all three must share the overflow bucket");
        assert_eq!(bs[0], (Hist::OVERFLOW_LO, u64::MAX, 3));
    }

    #[test]
    fn record_at_u64_max_is_exact_in_stats() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(u64::MAX));
        assert_eq!(h.max(), Some(u64::MAX));
        // The 128-bit sum holds 2 * u64::MAX exactly.
        assert_eq!(h.sum(), 2 * (u64::MAX as u128));
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert_eq!((lo, hi), (u64::MAX, u64::MAX));
    }

    #[test]
    fn merge_of_disjoint_histograms() {
        let mut a = Hist::new();
        a.record(5);
        a.record(7);
        let mut b = Hist::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_000_012);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(1_000_000));
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Hist::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        assert_eq!(a.max(), before.max());
    }

    #[test]
    fn quantile_bounds_bracket_the_true_value() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.0, 1u64), (0.5, 500), (0.9, 900), (1.0, 1000)] {
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(lo <= truth && truth <= hi, "q={q}: [{lo},{hi}] vs {truth}");
            // Log2 buckets with 8 sub-buckets: bounds within 12.5%.
            assert!((hi - lo) as f64 <= 0.125 * hi as f64 + 1.0);
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Hist::new();
        a.record_n(42, 5);
        let mut b = Hist::new();
        for _ in 0..5 {
            b.record(42);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(
            a.buckets().collect::<Vec<_>>(),
            b.buckets().collect::<Vec<_>>()
        );
        a.record_n(7, 0); // n = 0 is a no-op, min/max untouched
        assert_eq!(a.min(), Some(42));
    }
}
