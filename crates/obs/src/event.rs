//! The sampled moments: the within-run events whose timing the
//! recorder's histograms and the audit's flow rules need and no report
//! counter already carries.
//!
//! Each kind is recorded at exactly the program point that bumps its
//! counter in `secpref-sim`'s metrics (the prefetch-fill count excepted:
//! no counter keeps it), so per-kind totals reconcile with the final
//! `SimReport`.

use secpref_types::{Cycle, LineAddr};

/// What happened. Each variant corresponds to one instrumentation hook in
/// the simulator; the discriminant doubles as an index into the per-kind
/// totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A prefetch completed and filled its target level; starts the
    /// line's fill-to-use clock.
    PrefetchFill = 0,
    /// A demand hit a prefetched resident line (`PrefetchMetrics::useful`).
    PrefetchUseful = 1,
    /// A demand merged onto an in-flight prefetch (`PrefetchMetrics::late`).
    PrefetchLate = 2,
    /// A prefetched line was evicted unused (`PrefetchMetrics::useless`).
    PrefetchUseless = 3,
    /// A speculative load filled the GhostMinion GM.
    GmSpecFill = 4,
}

/// Number of event kinds (the length of the per-kind totals).
pub const KIND_COUNT: usize = 5;

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::PrefetchFill,
        EventKind::PrefetchUseful,
        EventKind::PrefetchLate,
        EventKind::PrefetchUseless,
        EventKind::GmSpecFill,
    ];

    /// Index into the per-kind totals.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the summary artifact.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::PrefetchFill => "prefetch_fill",
            EventKind::PrefetchUseful => "prefetch_useful",
            EventKind::PrefetchLate => "prefetch_late",
            EventKind::PrefetchUseless => "prefetch_useless",
            EventKind::GmSpecFill => "gm_spec_fill",
        }
    }
}

/// One sampled moment: `Copy`, no heap, never stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Cycle the event happened at.
    pub cycle: Cycle,
    /// Cache line involved.
    pub line: LineAddr,
    /// Originating core.
    pub core: u16,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_are_dense_indices() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(EventKind::ALL.len(), KIND_COUNT);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()));
        }
    }

    #[test]
    fn event_stays_compact() {
        assert!(std::mem::size_of::<Event>() <= 24);
    }
}
