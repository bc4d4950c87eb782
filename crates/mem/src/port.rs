//! Cache-port (tag/data bandwidth) scheduling.
//!
//! Each cache level accepts a bounded number of accesses per cycle. Demand
//! loads, prefetches, GhostMinion commit writes, and re-fetches all compete
//! for the same slots; a request that finds the ports exhausted retries the
//! next cycle. This contention is the mechanism behind the L1D miss-latency
//! blow-up of Fig. 4/5 in the paper.

use secpref_types::Cycle;

/// Per-cycle bandwidth limiter for one cache level.
///
/// The simulator processes events in non-decreasing cycle order, so the
/// scheduler only needs to track the current cycle's usage.
///
/// # Examples
///
/// ```
/// use secpref_mem::PortScheduler;
///
/// let mut p = PortScheduler::new(2);
/// assert!(p.try_acquire(10));
/// assert!(p.try_acquire(10));
/// assert!(!p.try_acquire(10)); // both ports used this cycle
/// assert!(p.try_acquire(11));  // fresh cycle, fresh ports
/// ```
#[derive(Clone, Debug)]
pub struct PortScheduler {
    ports: usize,
    current_cycle: Cycle,
    used: usize,
}

impl PortScheduler {
    /// Creates a scheduler granting `ports` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "a cache needs at least one port");
        PortScheduler {
            ports,
            current_cycle: 0,
            used: 0,
        }
    }

    /// Attempts to consume one port slot at `cycle`.
    ///
    /// Returns `false` when all slots for that cycle are taken; the caller
    /// must retry on a later cycle. Calls must use non-decreasing cycles.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `cycle` moves backwards — the simulator
    /// processes events in cycle order.
    #[inline]
    pub fn try_acquire(&mut self, cycle: Cycle) -> bool {
        debug_assert!(
            cycle >= self.current_cycle,
            "port acquisitions must be in cycle order"
        );
        if cycle > self.current_cycle {
            self.current_cycle = cycle;
            self.used = 0;
        }
        if self.used < self.ports {
            self.used += 1;
            true
        } else {
            false
        }
    }

    /// Low-priority acquisition for prefetch/background traffic: never
    /// takes the last slot of a cycle, so demands always find bandwidth.
    /// Calls must use non-decreasing cycles.
    #[inline]
    pub fn try_acquire_low_priority(&mut self, cycle: Cycle) -> bool {
        debug_assert!(cycle >= self.current_cycle);
        if cycle > self.current_cycle {
            self.current_cycle = cycle;
            self.used = 0;
        }
        if self.used + 1 < self.ports {
            self.used += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_resets_each_cycle() {
        let mut p = PortScheduler::new(1);
        assert!(p.try_acquire(0));
        assert!(!p.try_acquire(0));
        assert!(p.try_acquire(1));
        assert!(p.try_acquire(5));
    }

    /// The hierarchy books a settled gate's later denials without asking
    /// again: after one refusal, every acquisition of the same or lower
    /// priority in that cycle is refused too.
    #[test]
    fn refusals_repeat_within_a_cycle() {
        for ports in 1..4 {
            let mut p = PortScheduler::new(ports);
            while p.try_acquire_low_priority(5) {}
            assert!(!p.try_acquire_low_priority(5));
            while p.try_acquire(5) {}
            for _ in 0..3 {
                assert!(!p.try_acquire(5) && !p.try_acquire_low_priority(5));
            }
            assert!(p.try_acquire(6));
        }
    }

    #[test]
    fn exact_slot_count() {
        let mut p = PortScheduler::new(3);
        let granted = (0..10).filter(|_| p.try_acquire(7)).count();
        assert_eq!(granted, 3);
    }

    #[test]
    fn low_priority_spares_last_slot() {
        let mut p = PortScheduler::new(2);
        assert!(p.try_acquire_low_priority(3));
        assert!(!p.try_acquire_low_priority(3), "last slot reserved");
        assert!(p.try_acquire(3), "demand takes the reserved slot");
        // Single-port scheduler: low priority never granted.
        let mut p1 = PortScheduler::new(1);
        assert!(!p1.try_acquire_low_priority(0));
        assert!(p1.try_acquire(0));
    }

    /// The per-cycle limit holds under demand/prefetch interleaving:
    /// at most `ports` grants per cycle overall, at most `ports - 1`
    /// of them low-priority.
    #[test]
    fn per_cycle_limit_holds_with_mixed_priorities() {
        const PORTS: usize = 3;
        const CALLS_PER_CYCLE: usize = 6;
        const CYCLES: u64 = 50;
        let mut p = PortScheduler::new(PORTS);
        for cycle in 0..CYCLES {
            let mut granted = 0usize;
            let mut low = 0usize;
            for k in 0..CALLS_PER_CYCLE {
                if k % 2 == 0 {
                    granted += p.try_acquire(cycle) as usize;
                } else if p.try_acquire_low_priority(cycle) {
                    granted += 1;
                    low += 1;
                }
            }
            assert!(granted <= PORTS, "cycle {cycle}: granted {granted}");
            assert!(low < PORTS, "cycle {cycle}: low-priority {low}");
        }
    }

    mod props {
        use super::*;
        use secpref_types::rng::Xoshiro256ss;

        /// Never grants more than `ports` slots in any single cycle.
        /// Cycle values are drawn from a small bounded range, so the
        /// per-cycle tally is a flat array indexed by cycle (no hashing
        /// in the checker).
        #[test]
        fn never_exceeds_bandwidth() {
            const MAX_CYCLE: usize = 32;
            for seed in 0..64u64 {
                let mut rng = Xoshiro256ss::seed_from_u64(seed);
                let ports = 1 + rng.gen_index(7);
                let mut sorted: Vec<u64> = (0..1 + rng.gen_index(299))
                    .map(|_| rng.gen_u64(MAX_CYCLE as u64))
                    .collect();
                sorted.sort_unstable();
                let mut p = PortScheduler::new(ports);
                let mut per_cycle = [0usize; MAX_CYCLE];
                for c in sorted {
                    if p.try_acquire(c) {
                        per_cycle[c as usize] += 1;
                    }
                }
                for (c, &n) in per_cycle.iter().enumerate() {
                    assert!(n <= ports, "cycle {c}: {n} grants > {ports} ports");
                }
            }
        }
    }
}
