//! Hardware data prefetchers evaluated by the paper (Table III):
//! IP-stride, IPCP, Bingo, SPP+PPF, and Berti.
//!
//! Each prefetcher implements [`Prefetcher`]. *When* it observes demand
//! traffic — at speculative access (insecure) or at instruction commit
//! (secure) — is decided by the simulator, which feeds [`AccessEvent`]s at
//! the corresponding pipeline point. The timely-secure (TS) variants of
//! the paper live in `secpref-core` and either wrap these prefetchers
//! (lateness-driven distance/skip adjustment via
//! [`Prefetcher::set_timeliness_knob`]) or re-train them differently
//! (TSB over [`berti::BertiEngine`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod berti;
pub mod bingo;
pub mod ip_stride;
pub mod ipcp;
pub mod spp;

pub use berti::{BertiEngine, OnAccessBerti};
pub use bingo::Bingo;
pub use ip_stride::IpStride;
pub use ipcp::Ipcp;
pub use spp::SppPpf;

use secpref_types::{Cycle, Ip, LineAddr, PrefetchRequest, PrefetcherKind};

/// Capacity of a [`PfBuf`]: strictly above the worst case any prefetcher
/// can emit for a single event. The maximum is Bingo at full lookahead:
/// (1 + 4) regions × 32 offsets = 160 candidates.
pub const PF_BUF_CAP: usize = 192;

/// Fixed-capacity, caller-owned scratch buffer prefetchers write their
/// candidates into.
///
/// The buffer allocates once (at construction) and never again: the hot
/// path reuses one `PfBuf` per core for the lifetime of a run, so
/// [`Prefetcher::observe_access`] is allocation-free. Callers clear the
/// buffer before each event; prefetchers append.
///
/// Derefs to `[PrefetchRequest]` for reading.
///
/// # Examples
///
/// ```
/// use secpref_prefetch::PfBuf;
/// use secpref_types::{Ip, LineAddr, PrefetchRequest};
///
/// let mut out = PfBuf::new();
/// out.push(PrefetchRequest::to_l2(LineAddr::new(7), Ip::new(1)));
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].line.raw(), 7);
/// out.clear();
/// assert!(out.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct PfBuf {
    buf: Vec<PrefetchRequest>,
}

impl PfBuf {
    /// Creates an empty buffer with the full fixed capacity reserved.
    pub fn new() -> Self {
        PfBuf {
            buf: Vec::with_capacity(PF_BUF_CAP),
        }
    }

    /// Appends a candidate. The capacity strictly exceeds what any
    /// prefetcher can emit per event, so in correct use this never
    /// saturates; a hypothetical overflow drops the candidate (and
    /// panics in debug builds) rather than reallocating.
    #[inline]
    pub fn push(&mut self, r: PrefetchRequest) {
        debug_assert!(self.buf.len() < PF_BUF_CAP, "PfBuf overflow");
        if self.buf.len() < PF_BUF_CAP {
            self.buf.push(r);
        }
    }

    /// Empties the buffer (keeps the reserved storage).
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Keeps only the first `n` candidates.
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        self.buf.truncate(n);
    }
}

impl Default for PfBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for PfBuf {
    type Target = [PrefetchRequest];

    #[inline]
    fn deref(&self) -> &[PrefetchRequest] {
        &self.buf
    }
}

impl<'a> IntoIterator for &'a PfBuf {
    type Item = &'a PrefetchRequest;
    type IntoIter = std::slice::Iter<'a, PrefetchRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// A demand access observed by a prefetcher (at its cache level).
#[derive(Clone, Copy, Debug)]
pub struct AccessEvent {
    /// Load/store instruction pointer.
    pub ip: Ip,
    /// Accessed line.
    pub line: LineAddr,
    /// Cycle at which the prefetcher observes the access: the speculative
    /// access cycle for on-access prefetching, the commit cycle for
    /// on-commit prefetching.
    pub cycle: Cycle,
    /// Whether the access hit in the prefetcher's cache level *at
    /// observation time*.
    pub hit: bool,
    /// X-LQ datum: the true speculative access cycle (equals `cycle` for
    /// on-access prefetching). Only TSB may use this.
    pub access_cycle: Cycle,
    /// X-LQ datum: the true fetch latency the access experienced, in
    /// cycles. Only TSB may use this.
    pub fetch_latency: u32,
    /// X-LQ `Hitp` bit: the access hit on a line a prefetch brought in.
    pub hit_prefetched: bool,
    /// Free MSHR slots at the L1D (Berti's orchestration input).
    pub mshr_free: usize,
}

/// A cache fill observed by a prefetcher at its level.
#[derive(Clone, Copy, Debug)]
pub struct FillEvent {
    /// Filled line.
    pub line: LineAddr,
    /// IP of the demand access that triggered the fill (or the trigger IP
    /// recorded with a prefetch).
    pub ip: Ip,
    /// Cycle of the fill.
    pub cycle: Cycle,
    /// Observed fetch latency in cycles. For on-commit prefetching on
    /// GhostMinion this is the (misleading) GM→L1D commit-write latency —
    /// exactly the distortion TSB corrects.
    pub latency: u32,
    /// The fill was brought in by a prefetch request.
    pub by_prefetch: bool,
}

/// Outcome feedback the memory system reports to the prefetcher; the TS
/// wrappers use it to compute the prefetch-lateness ratio.
#[derive(Clone, Copy, Debug)]
pub enum Feedback {
    /// A demand merged onto an in-flight prefetch (classic late prefetch).
    Late {
        /// The line involved.
        line: LineAddr,
    },
    /// A demand hit a prefetched line (useful prefetch).
    Useful {
        /// The line involved.
        line: LineAddr,
    },
    /// A prefetched line was evicted without being demanded.
    Useless {
        /// The line involved.
        line: LineAddr,
    },
    /// A demand miss occurred at the prefetcher's level.
    DemandMiss {
        /// The line involved.
        line: LineAddr,
    },
}

/// A hardware data prefetcher.
///
/// Implementations are deterministic state machines: identical event
/// sequences produce identical prefetch streams.
pub trait Prefetcher: std::fmt::Debug + Send {
    /// Display name (matches the paper's figures).
    fn name(&self) -> &'static str;

    /// Table III storage budget in bytes.
    fn storage_bytes(&self) -> f64;

    /// Observes a demand access and appends any prefetch requests to
    /// `out` (a caller-owned reusable buffer — see [`PfBuf`]).
    fn observe_access(&mut self, ev: &AccessEvent, out: &mut PfBuf);

    /// Observes a fill at the prefetcher's cache level.
    fn observe_fill(&mut self, ev: &FillEvent);

    /// Receives outcome feedback (late/useful/useless/miss).
    fn feedback(&mut self, _fb: Feedback) {}

    /// Sets the timeliness knob the TS wrappers drive: prefetch *distance*
    /// for IP-stride/IPCP/Bingo, the *skip-k* lookahead for SPP+PPF.
    /// The default implementation ignores it.
    fn set_timeliness_knob(&mut self, _k: u32) {}

    /// Current knob value.
    fn timeliness_knob(&self) -> u32 {
        0
    }
}

/// A prefetcher that never prefetches (the "No Pref" configuration).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullPrefetcher;

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "No-Pref"
    }
    fn storage_bytes(&self) -> f64 {
        0.0
    }
    fn observe_access(&mut self, _ev: &AccessEvent, _out: &mut PfBuf) {}
    fn observe_fill(&mut self, _ev: &FillEvent) {}
}

/// Builds the paper's tuned instance of `kind` (Table III parameters).
pub fn build(kind: PrefetcherKind) -> Box<dyn Prefetcher> {
    match kind {
        PrefetcherKind::None => Box::new(NullPrefetcher),
        PrefetcherKind::IpStride => Box::new(IpStride::new()),
        PrefetcherKind::Ipcp => Box::new(Ipcp::new()),
        PrefetcherKind::Bingo => Box::new(Bingo::new()),
        PrefetcherKind::SppPpf => Box::new(SppPpf::new()),
        PrefetcherKind::Berti => Box::new(OnAccessBerti::new()),
    }
}

/// Convenience constructor for an [`AccessEvent`] where only the pattern
/// matters (tests and doc examples).
pub fn simple_access(ip: u64, line: u64, cycle: Cycle, hit: bool) -> AccessEvent {
    AccessEvent {
        ip: Ip::new(ip),
        line: LineAddr::new(line),
        cycle,
        hit,
        access_cycle: cycle,
        fetch_latency: 0,
        hit_prefetched: false,
        mshr_free: 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_all_kinds() {
        for kind in PrefetcherKind::EVALUATED {
            let p = build(kind);
            assert_eq!(p.name(), kind.name());
            assert!(p.storage_bytes() > 0.0);
        }
        assert_eq!(build(PrefetcherKind::None).name(), "No-Pref");
    }

    #[test]
    fn null_prefetcher_is_silent() {
        let mut p = NullPrefetcher;
        let mut out = PfBuf::new();
        for i in 0..100 {
            p.observe_access(&simple_access(1, i, i, false), &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn table_iii_sizes() {
        // Paper Table III: IP-stride 8 KB, IPCP 0.87 KB, SPP+PPF 39.2 KB,
        // Berti 2.55 KB, Bingo 124 KB. Allow small rounding slack.
        let close = |got: f64, want_kb: f64| {
            let want = want_kb * 1024.0;
            (got - want).abs() / want < 0.25
        };
        assert!(close(IpStride::new().storage_bytes(), 8.0));
        assert!(close(Ipcp::new().storage_bytes(), 0.87));
        assert!(close(SppPpf::new().storage_bytes(), 39.2));
        assert!(close(OnAccessBerti::new().storage_bytes(), 2.55));
        assert!(close(Bingo::new().storage_bytes(), 124.0));
    }
}
