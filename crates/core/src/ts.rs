//! Timely-secure variants of the non-self-timing prefetchers
//! (Section V-D of the paper): lateness-driven adaptation of each
//! prefetcher's timeliness knob, with a phase-change detector that resets
//! the adaptation.
//!
//! Prefetch lateness is the ratio of late prefetch requests to useful
//! prefetch requests, monitored over a fixed miss interval (512 L1D
//! misses for IP-stride/IPCP — the L1D line count — and 4096 L2 misses
//! for the L2 prefetchers). When lateness exceeds the threshold for two
//! consecutive intervals (one interval alone is too noisy), the knob is
//! incremented: prefetch *distance* for IP-stride/IPCP/Bingo, *skip-k*
//! for SPP+PPF. Thresholds: 0.14 everywhere except Bingo's 0.05 (Bingo
//! produces few late prefetches to begin with).

use secpref_prefetch::{AccessEvent, Feedback, FillEvent, PfBuf, Prefetcher};
use secpref_types::PrefetcherKind;

/// Lateness threshold used by IP-stride, IPCP, and SPP+PPF.
pub const LATENESS_THRESHOLD: f64 = 0.14;
/// Lateness threshold used by Bingo.
pub const BINGO_LATENESS_THRESHOLD: f64 = 0.05;
/// Monitoring interval (in misses) for the L1D prefetchers: the L1 size
/// in lines.
pub const L1_INTERVAL: u64 = 512;
/// Monitoring interval for the L2 prefetchers: half the L2 size in lines.
pub const L2_INTERVAL: u64 = 4096;
/// Maximum knob value the adaptation may reach.
const KNOB_MAX: u32 = 12;
/// Phase change: miss rate shifting by this factor between intervals
/// resets the knob (prior-work phase detector, [26] in the paper).
const PHASE_SHIFT_FACTOR: f64 = 2.0;

/// Wrapper that makes a non-self-timing prefetcher timely-secure.
///
/// # Examples
///
/// ```
/// use secpref_core::TimelySecure;
/// use secpref_prefetch::{Feedback, IpStride, Prefetcher};
/// use secpref_types::{LineAddr, PrefetcherKind};
///
/// let mut ts = TimelySecure::new(Box::new(IpStride::new()), PrefetcherKind::IpStride);
/// let base = ts.timeliness_knob();
/// // Saturate two monitoring intervals with 100% lateness.
/// for _ in 0..2048 {
///     ts.feedback(Feedback::Late { line: LineAddr::new(1) });
///     ts.feedback(Feedback::Useful { line: LineAddr::new(1) });
///     ts.feedback(Feedback::DemandMiss { line: LineAddr::new(1) });
/// }
/// assert!(ts.timeliness_knob() > base, "distance must grow under lateness");
/// ```
#[derive(Debug)]
pub struct TimelySecure {
    inner: Box<dyn Prefetcher>,
    name: &'static str,
    threshold: f64,
    interval: u64,
    base_knob: u32,
    // Current-interval counters.
    misses: u64,
    late: u64,
    useful: u64,
    // Previous interval state.
    prev_lateness: Option<f64>,
    prev_interval_accesses: u64,
    accesses: u64,
}

impl TimelySecure {
    /// Wraps `inner`, using the monitoring parameters the paper assigns
    /// to `kind`.
    pub fn new(inner: Box<dyn Prefetcher>, kind: PrefetcherKind) -> Self {
        let (name, threshold, interval): (&'static str, f64, u64) = match kind {
            PrefetcherKind::IpStride => ("TS-stride", LATENESS_THRESHOLD, L1_INTERVAL),
            PrefetcherKind::Ipcp => ("TS-IPCP", LATENESS_THRESHOLD, L1_INTERVAL),
            PrefetcherKind::Bingo => ("TS-Bingo", BINGO_LATENESS_THRESHOLD, L2_INTERVAL),
            PrefetcherKind::SppPpf => ("TS-SPP+PPF", LATENESS_THRESHOLD, L2_INTERVAL),
            PrefetcherKind::Berti | PrefetcherKind::None => ("TS", LATENESS_THRESHOLD, L1_INTERVAL),
        };
        let base_knob = inner.timeliness_knob();
        TimelySecure {
            inner,
            name,
            threshold,
            interval,
            base_knob,
            misses: 0,
            late: 0,
            useful: 0,
            prev_lateness: None,
            prev_interval_accesses: 0,
            accesses: 0,
        }
    }

    fn end_interval(&mut self) {
        let lateness = if self.useful + self.late == 0 {
            0.0
        } else {
            self.late as f64 / (self.useful + self.late) as f64
        };
        // Phase-change detection: a large swing in the access/miss ratio
        // means a new program phase — reset to the base distance.
        let phase_changed = self.prev_interval_accesses > 0
            && (self.accesses as f64 > self.prev_interval_accesses as f64 * PHASE_SHIFT_FACTOR
                || (self.accesses as f64) * PHASE_SHIFT_FACTOR
                    < self.prev_interval_accesses as f64);
        if phase_changed {
            self.inner.set_timeliness_knob(self.base_knob);
        } else if let Some(prev) = self.prev_lateness {
            // "Updating distance based on the lateness of only the
            // previous interval leads to noisy decision-making": require
            // two consecutive high-lateness intervals.
            if lateness > self.threshold && prev > self.threshold {
                let k = self.inner.timeliness_knob();
                self.inner.set_timeliness_knob((k + 1).min(KNOB_MAX));
            }
        }
        self.prev_lateness = Some(lateness);
        self.prev_interval_accesses = self.accesses;
        self.misses = 0;
        self.late = 0;
        self.useful = 0;
        self.accesses = 0;
    }
}

impl Prefetcher for TimelySecure {
    fn name(&self) -> &'static str {
        self.name
    }

    fn storage_bytes(&self) -> f64 {
        // The monitors are a handful of counters (~16 B).
        self.inner.storage_bytes() + 16.0
    }

    fn observe_access(&mut self, ev: &AccessEvent, out: &mut PfBuf) {
        self.accesses += 1;
        self.inner.observe_access(ev, out);
    }

    fn observe_fill(&mut self, ev: &FillEvent) {
        self.inner.observe_fill(ev);
    }

    fn feedback(&mut self, fb: Feedback) {
        match fb {
            Feedback::Late { .. } => self.late += 1,
            Feedback::Useful { .. } => self.useful += 1,
            Feedback::DemandMiss { .. } => {
                self.misses += 1;
                if self.misses >= self.interval {
                    self.end_interval();
                }
            }
            Feedback::Useless { .. } => {}
        }
        self.inner.feedback(fb);
    }

    fn set_timeliness_knob(&mut self, k: u32) {
        self.inner.set_timeliness_knob(k);
    }

    fn timeliness_knob(&self) -> u32 {
        self.inner.timeliness_knob()
    }
}

/// Builds the timely-secure version of `kind`: [`crate::Tsb`] for Berti,
/// a [`TimelySecure`]-wrapped base prefetcher otherwise.
pub fn build_timely_secure(kind: PrefetcherKind) -> Box<dyn Prefetcher> {
    match kind {
        PrefetcherKind::Berti => Box::new(crate::Tsb::new()),
        PrefetcherKind::None => secpref_prefetch::build(kind),
        _ => Box::new(TimelySecure::new(secpref_prefetch::build(kind), kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_types::LineAddr;

    fn la(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    fn ts_stride() -> TimelySecure {
        TimelySecure::new(
            Box::new(secpref_prefetch::IpStride::new()),
            PrefetcherKind::IpStride,
        )
    }

    /// Push `n` misses with given lateness mix through the monitor.
    fn interval(ts: &mut TimelySecure, n: u64, late_frac: f64) {
        for i in 0..n {
            if (i as f64 / n as f64) < late_frac {
                ts.feedback(Feedback::Late { line: la(i) });
            } else {
                ts.feedback(Feedback::Useful { line: la(i) });
            }
            ts.feedback(Feedback::DemandMiss { line: la(i) });
        }
    }

    #[test]
    fn two_late_intervals_raise_distance() {
        let mut ts = ts_stride();
        let base = ts.timeliness_knob();
        interval(&mut ts, L1_INTERVAL, 0.5);
        assert_eq!(ts.timeliness_knob(), base, "one interval is too noisy");
        interval(&mut ts, L1_INTERVAL, 0.5);
        assert_eq!(ts.timeliness_knob(), base + 1);
        interval(&mut ts, L1_INTERVAL, 0.5);
        assert_eq!(ts.timeliness_knob(), base + 2);
    }

    #[test]
    fn low_lateness_leaves_distance_alone() {
        let mut ts = ts_stride();
        let base = ts.timeliness_knob();
        for _ in 0..4 {
            interval(&mut ts, L1_INTERVAL, 0.05); // below 0.14
        }
        assert_eq!(ts.timeliness_knob(), base);
    }

    #[test]
    fn knob_saturates() {
        let mut ts = ts_stride();
        for _ in 0..40 {
            interval(&mut ts, L1_INTERVAL, 1.0);
        }
        assert!(ts.timeliness_knob() <= 12);
    }

    #[test]
    fn phase_change_resets_distance() {
        let mut ts = ts_stride();
        let base = ts.timeliness_knob();
        // Grow the distance with two late intervals of similar density.
        let mut out = PfBuf::new();
        for _ in 0..3 {
            for i in 0..L1_INTERVAL {
                out.clear();
                ts.observe_access(&secpref_prefetch::simple_access(1, i, i, false), &mut out);
            }
            interval(&mut ts, L1_INTERVAL, 0.9);
        }
        assert!(ts.timeliness_knob() > base);
        // New phase: the interval suddenly has 4× the accesses per miss.
        for i in 0..L1_INTERVAL * 8 {
            out.clear();
            ts.observe_access(&secpref_prefetch::simple_access(1, i, i, false), &mut out);
        }
        interval(&mut ts, L1_INTERVAL, 0.9);
        assert_eq!(ts.timeliness_knob(), base, "phase change resets the knob");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            build_timely_secure(PrefetcherKind::IpStride).name(),
            "TS-stride"
        );
        assert_eq!(build_timely_secure(PrefetcherKind::Ipcp).name(), "TS-IPCP");
        assert_eq!(
            build_timely_secure(PrefetcherKind::Bingo).name(),
            "TS-Bingo"
        );
        assert_eq!(
            build_timely_secure(PrefetcherKind::SppPpf).name(),
            "TS-SPP+PPF"
        );
        assert_eq!(build_timely_secure(PrefetcherKind::Berti).name(), "TSB");
    }

    #[test]
    fn bingo_uses_lower_threshold() {
        let mut ts = TimelySecure::new(
            Box::new(secpref_prefetch::Bingo::new()),
            PrefetcherKind::Bingo,
        );
        let base = ts.timeliness_knob();
        // 8% lateness: above Bingo's 0.05, below the generic 0.14.
        interval(&mut ts, L2_INTERVAL, 0.08);
        interval(&mut ts, L2_INTERVAL, 0.08);
        assert!(ts.timeliness_knob() > base);
    }
}
