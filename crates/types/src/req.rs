//! Memory request and fill metadata shared between the core, the cache
//! hierarchy, GhostMinion, and the prefetchers.

use crate::{CacheLevel, Cycle, HitLevel, Ip, LineAddr};

/// Identifies a core in a multi-core simulation.
pub type CoreId = usize;

/// Everything a consumer learns when a memory request completes (fills).
///
/// Returned by the hierarchy to the core for demand loads and recorded in
/// the load queue. The `hit_level` field is the 2-bit SUF datum; the
/// latency fields feed Berti/TSB training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillInfo {
    /// The line that filled.
    pub line: LineAddr,
    /// Which level served the data.
    pub hit_level: HitLevel,
    /// Cycle at which the request was issued to the hierarchy.
    pub issued_at: Cycle,
    /// Cycle at which the data arrived at the requesting level.
    pub filled_at: Cycle,
    /// True if the request merged with an in-flight prefetch in an MSHR
    /// (the paper's classic "late prefetch").
    pub merged_with_prefetch: bool,
    /// True if the access hit on a line that a prefetcher brought in
    /// (the `Hitp` bit of the TSB X-LQ).
    pub hit_prefetched_line: bool,
    /// The X-LQ fetch-latency datum: the true fetch latency for misses,
    /// the stored prefetch latency for hits on prefetched lines, 0 for
    /// regular hits.
    pub fetch_latency: u32,
}

impl FillInfo {
    /// Observed fetch latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.filled_at.saturating_sub(self.issued_at)
    }
}

/// A prefetch request produced by a prefetcher, before it is injected into
/// the memory hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target line to prefetch.
    pub line: LineAddr,
    /// The load IP that trained this prediction (for statistics).
    pub trigger_ip: Ip,
    /// Fill destination: `L1d` fills the L1D, `L2` fills only L2 and below.
    /// Berti orchestrates between the two based on delta confidence.
    pub fill_level: CacheLevel,
}

impl PrefetchRequest {
    /// A prefetch filling into the L1D.
    pub fn to_l1d(line: LineAddr, trigger_ip: Ip) -> Self {
        PrefetchRequest {
            line,
            trigger_ip,
            fill_level: CacheLevel::L1d,
        }
    }

    /// A prefetch filling into the L2 only.
    pub fn to_l2(line: LineAddr, trigger_ip: Ip) -> Self {
        PrefetchRequest {
            line,
            trigger_ip,
            fill_level: CacheLevel::L2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_latency() {
        let fi = FillInfo {
            line: LineAddr::new(1),
            hit_level: HitLevel::Llc,
            issued_at: 100,
            filled_at: 135,
            merged_with_prefetch: false,
            hit_prefetched_line: false,
            fetch_latency: 0,
        };
        assert_eq!(fi.latency(), 35);
    }

    #[test]
    fn prefetch_request_constructors() {
        let p = PrefetchRequest::to_l1d(LineAddr::new(7), Ip::new(3));
        assert_eq!(p.fill_level, CacheLevel::L1d);
        let p = PrefetchRequest::to_l2(LineAddr::new(7), Ip::new(3));
        assert_eq!(p.fill_level, CacheLevel::L2);
    }
}
