//! Built-in wall-time phase profiler for the simulator hot path.
//!
//! Answers "where do the simulator's *wall-clock* seconds go?" by
//! attributing elapsed host time to coarse simulation phases (core
//! model, each cache level, GhostMinion, prefetcher, DRAM, classifier).
//! `repro --profile` drives it and prints the ranked table
//! (EXPERIMENTS.md).
//!
//! Design:
//!
//! - **Off by default, near-zero cost when off.** Every hook is an
//!   `#[inline(always)]` method that checks one `bool` and returns;
//!   no timestamp is taken unless profiling was requested.
//! - **Exclusive attribution via a phase stack.** `enter`/`exit`
//!   charge the elapsed time since the previous boundary to the phase
//!   on top of the stack, then push/pop. Nested phases therefore
//!   *steal* their time from the enclosing phase: prefetcher training
//!   invoked from an L1D access counts as `prefetcher`, not `l1d`.
//!   Time outside any phase (event-wheel bookkeeping, metrics, the
//!   run-loop skeleton) lands in `other`.
//! - **Cheap timestamps.** Hooks fire tens of millions of times per
//!   second of simulation, so the boundary clock is `rdtsc` on x86_64
//!   (a few ns; `Instant::now` costs ~100 ns on paravirtualized
//!   guests and would dominate the profile) with an `Instant`
//!   fallback elsewhere. Raw ticks are converted to wall time at
//!   report time by calibrating one `Instant` pair over the
//!   profiler's lifetime. Std only — no perf counters, no sampling.
//!
//! The profiler measures *host* time and never touches simulated
//! state, so enabling it cannot change any simulation output (the
//! pinned report digests are identical with and without `--profile`).

use std::time::{Duration, Instant};

/// Simulation phases wall time is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Core model: fetch/issue/commit, load queue, trace replay.
    Core = 0,
    /// L1D lookups, fills, and MSHR handling.
    L1d = 1,
    /// L2 lookups, fills, and MSHR handling.
    L2 = 2,
    /// LLC lookups, fills, and MSHR handling.
    Llc = 3,
    /// GhostMinion probes, fills, and commit actions.
    Gm = 4,
    /// Prefetcher training, candidate generation, and feedback.
    Prefetcher = 5,
    /// DRAM queueing, FR-FCFS scheduling, and bank timing.
    Dram = 6,
    /// Classifier shadow/actual tracking (Fig. 6 instrumentation).
    Classifier = 7,
    /// Functional warming between sampled detailed windows.
    FuncWarm = 8,
    /// Everything not covered by a scoped phase.
    Other = 9,
}

/// Number of phases (length of the totals array).
pub const PHASES: usize = 10;

impl Phase {
    /// Stable lower-case label used in the ranked table.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Core => "core",
            Phase::L1d => "l1d",
            Phase::L2 => "l2",
            Phase::Llc => "llc",
            Phase::Gm => "gm",
            Phase::Prefetcher => "prefetcher",
            Phase::Dram => "dram",
            Phase::Classifier => "classifier",
            Phase::FuncWarm => "funcwarm",
            Phase::Other => "other",
        }
    }
}

/// Canonical phase listing order (before ranking).
const PHASE_ORDER: [Phase; PHASES] = [
    Phase::Core,
    Phase::L1d,
    Phase::L2,
    Phase::Llc,
    Phase::Gm,
    Phase::Prefetcher,
    Phase::Dram,
    Phase::Classifier,
    Phase::FuncWarm,
    Phase::Other,
];

/// Scoped-timer phase profiler. Construct with [`Profiler::disabled`]
/// (the default, free) or [`Profiler::enabled`].
#[derive(Clone, Debug)]
pub struct Profiler {
    enabled: bool,
    stack: Vec<Phase>,
    /// Boundary timestamp of the last charge, in raw clock ticks.
    last: u64,
    /// Per-phase exclusive tick totals.
    totals: [u64; PHASES],
    enters: [u64; PHASES],
    /// Calibration pair: ticks and wall clock at construction. The
    /// report converts ticks → seconds with the lifetime-average rate.
    epoch_ticks: u64,
    epoch: Instant,
}

impl Profiler {
    /// Raw monotonic timestamp in ticks. `rdtsc` on x86_64 (modern
    /// x86_64 has an invariant TSC: constant rate, monotonic across
    /// cores), `Instant`-nanos elsewhere.
    #[inline(always)]
    fn ticks(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_rdtsc` reads the time-stamp counter; it has no
        // preconditions and cannot fault — it is `unsafe` only
        // because every architecture intrinsic is.
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// A profiler that ignores every hook (one branch per call).
    pub fn disabled() -> Self {
        let mut p = Profiler {
            enabled: false,
            stack: Vec::new(),
            last: 0,
            totals: [0; PHASES],
            enters: [0; PHASES],
            epoch_ticks: 0,
            epoch: Instant::now(),
        };
        p.epoch_ticks = p.ticks();
        p.last = p.epoch_ticks;
        p
    }

    /// A recording profiler; time starts accruing (to `other`) now.
    pub fn enabled() -> Self {
        let mut p = Self::disabled();
        p.enabled = true;
        p.stack.reserve(8);
        p
    }

    /// Whether hooks record anything.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Charges elapsed time to the current top-of-stack phase and
    /// resets the boundary clock.
    fn charge(&mut self) {
        let now = self.ticks();
        let top = self.stack.last().copied().unwrap_or(Phase::Other);
        self.totals[top as usize] += now.saturating_sub(self.last);
        self.last = now;
    }

    /// Enters `phase`: subsequent time is attributed to it until the
    /// matching [`Profiler::exit`] (or a nested `enter`).
    #[inline(always)]
    pub fn enter(&mut self, phase: Phase) {
        if self.enabled {
            self.enter_slow(phase);
        }
    }

    #[cold]
    fn enter_slow(&mut self, phase: Phase) {
        self.charge();
        self.enters[phase as usize] += 1;
        self.stack.push(phase);
    }

    /// Exits the innermost phase, resuming attribution to its parent.
    #[inline(always)]
    pub fn exit(&mut self) {
        if self.enabled {
            self.exit_slow();
        }
    }

    #[cold]
    fn exit_slow(&mut self) {
        self.charge();
        debug_assert!(!self.stack.is_empty(), "Profiler::exit without enter");
        self.stack.pop();
    }

    /// Closes out the clock and returns the accumulated report.
    /// Callable mid-run; the profiler keeps accruing afterwards.
    pub fn report(&mut self) -> ProfileReport {
        if self.enabled {
            self.charge();
        }
        // Lifetime-average tick rate → seconds per tick.
        let lifetime_ticks = self.ticks().saturating_sub(self.epoch_ticks);
        let secs_per_tick = if lifetime_ticks == 0 {
            0.0
        } else {
            self.epoch.elapsed().as_secs_f64() / lifetime_ticks as f64
        };
        let mut rows: Vec<ProfileRow> = PHASE_ORDER
            .iter()
            .map(|&ph| ProfileRow {
                phase: ph,
                time: Duration::from_secs_f64(self.totals[ph as usize] as f64 * secs_per_tick),
                enters: self.enters[ph as usize],
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.time));
        ProfileReport { rows }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One phase's accumulated exclusive time.
#[derive(Clone, Copy, Debug)]
pub struct ProfileRow {
    /// The phase.
    pub phase: Phase,
    /// Exclusive wall time attributed to the phase.
    pub time: Duration,
    /// Number of `enter` events (0 for `other`, which is residual).
    pub enters: u64,
}

/// Ranked per-phase wall-time attribution.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Rows sorted by descending exclusive time.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// An all-zero report (aggregation seed).
    pub fn empty() -> Self {
        ProfileReport {
            rows: PHASE_ORDER
                .iter()
                .map(|&ph| ProfileRow {
                    phase: ph,
                    time: Duration::ZERO,
                    enters: 0,
                })
                .collect(),
        }
    }

    /// Folds another report into this one (matrix-wide aggregation
    /// across cells), re-ranking the rows.
    pub fn merge(&mut self, other: &ProfileReport) {
        for o in &other.rows {
            let row = self
                .rows
                .iter_mut()
                .find(|r| r.phase == o.phase)
                .expect("all phases present");
            row.time += o.time;
            row.enters += o.enters;
        }
        self.rows.sort_by_key(|r| std::cmp::Reverse(r.time));
    }

    /// Total profiled wall time (sum over phases).
    pub fn total(&self) -> Duration {
        self.rows.iter().map(|r| r.time).sum()
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total().as_secs_f64().max(f64::MIN_POSITIVE);
        writeln!(
            f,
            "{:<12} {:>12} {:>7} {:>14}",
            "phase", "time", "share", "enters"
        )?;
        for r in &self.rows {
            let secs = r.time.as_secs_f64();
            writeln!(
                f,
                "{:<12} {:>10.3}ms {:>6.1}% {:>14}",
                r.phase.name(),
                secs * 1e3,
                100.0 * secs / total,
                r.enters,
            )?;
        }
        write!(f, "{:<12} {:>10.3}ms", "total", total * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.enter(Phase::Dram);
        std::thread::sleep(Duration::from_millis(2));
        p.exit();
        let rep = p.report();
        assert_eq!(rep.total(), Duration::ZERO);
        assert!(rep.rows.iter().all(|r| r.enters == 0));
    }

    #[test]
    fn nested_phases_attribute_exclusively() {
        let mut p = Profiler::enabled();
        p.enter(Phase::L1d);
        std::thread::sleep(Duration::from_millis(5));
        p.enter(Phase::Prefetcher); // steals from l1d
        std::thread::sleep(Duration::from_millis(5));
        p.exit();
        p.exit();
        let rep = p.report();
        let get = |ph: Phase| {
            rep.rows
                .iter()
                .find(|r| r.phase == ph)
                .map(|r| r.time)
                .unwrap()
        };
        assert!(get(Phase::L1d) >= Duration::from_millis(4), "{rep}");
        assert!(get(Phase::Prefetcher) >= Duration::from_millis(4), "{rep}");
        assert_eq!(
            rep.rows.iter().map(|r| r.enters).sum::<u64>(),
            2,
            "one enter per phase: {rep}"
        );
    }

    #[test]
    fn unscoped_time_lands_in_other() {
        let mut p = Profiler::enabled();
        std::thread::sleep(Duration::from_millis(3));
        let rep = p.report();
        let other = rep
            .rows
            .iter()
            .find(|r| r.phase == Phase::Other)
            .unwrap()
            .time;
        assert!(other >= Duration::from_millis(2), "{rep}");
        assert_eq!(rep.total(), other);
    }

    #[test]
    fn report_is_ranked_and_renders() {
        let mut p = Profiler::enabled();
        p.enter(Phase::Dram);
        std::thread::sleep(Duration::from_millis(4));
        p.exit();
        let rep = p.report();
        for w in rep.rows.windows(2) {
            assert!(w[0].time >= w[1].time);
        }
        let text = rep.to_string();
        assert!(text.contains("dram"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn merge_accumulates_across_reports() {
        let mut a = Profiler::enabled();
        a.enter(Phase::Core);
        std::thread::sleep(Duration::from_millis(2));
        a.exit();
        let ra = a.report();
        let mut agg = ProfileReport::empty();
        agg.merge(&ra);
        agg.merge(&ra);
        let core = agg.rows.iter().find(|r| r.phase == Phase::Core).unwrap();
        assert_eq!(core.enters, 2);
        assert!(core.time >= Duration::from_millis(3));
    }
}
