//! One declaration per counter record.
//!
//! The report's counter records (`CoreMetrics` and the `LevelMetrics`,
//! `PrefetchMetrics`, `CommitMetrics` and `MissClassCounts` it nests, in
//! `secpref-sim`; `DramStats` in `secpref-mem`) are structs of `u64`s
//! that several layers must walk field by field: window aggregation,
//! epoch deltas and columns, and the result store's encoder and decoder.
//! [`counters!`](macro@crate::counters) declares such a struct once and
//! derives the walks from that one list, so a new counter is one line in
//! one place.

/// A `u64` counter, or a [`counters!`](macro@crate::counters) record of
/// them. The macro implements it for every record it declares, which is
/// what lets a record's field be another record; generic consumers (the
/// result store's codec, the epoch series) walk a record through it.
pub trait Counter: Clone + Default {
    /// Number of `u64` leaves.
    const LEN: usize;

    /// Leaf-wise `+=`.
    fn accumulate(&mut self, other: &Self);

    /// Leaf-wise difference from an `earlier` snapshot (saturating, so a
    /// stale snapshot cannot wrap).
    fn delta(&self, earlier: &Self) -> Self;

    /// Calls `f(path, leaf)` on every leaf in declaration order. `path`
    /// is what the caller passed in, followed by the field names from this
    /// record down to the leaf (`["l1d", "port_stalls"]`).
    fn walk<F: FnMut(&[&'static str], &mut u64)>(
        &mut self,
        path: &mut Vec<&'static str>,
        f: &mut F,
    );
}

impl Counter for u64 {
    const LEN: usize = 1;

    fn accumulate(&mut self, other: &Self) {
        *self += other;
    }

    fn delta(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn walk<F: FnMut(&[&'static str], &mut u64)>(
        &mut self,
        path: &mut Vec<&'static str>,
        f: &mut F,
    ) {
        f(path, self);
    }
}

/// Declares a counter record: a struct whose fields are `u64`s or other
/// `counters!` records.
///
/// Expands to the struct exactly as written — the same plain fields in
/// the same order, with the attributes and docs given, so
/// `m.l1d.port_stalls += 1` stays a field increment — plus its
/// [`Counter`] impl and, as inherent methods:
///
/// - `accumulate(&mut self, &Self)`: leaf-wise `+=`;
/// - `delta(&self, &Self)`: leaf-wise saturating `-`;
/// - `values(&self)` / `from_values(..)`: the leaves as an array in
///   declaration order (the order the result store encodes them in),
///   and back.
///
/// The struct must derive `Clone` and `Default`.
///
/// # Examples
///
/// ```
/// use secpref_types::counters::Counter;
///
/// secpref_types::counters! {
///     /// Two counters.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Pair {
///         /// Things seen.
///         pub seen: u64,
///         /// Things dropped.
///         pub dropped: u64,
///     }
/// }
///
/// secpref_types::counters! {
///     /// A record nesting another.
///     #[derive(Clone, Debug, Default)]
///     pub struct Outer {
///         /// Ticks.
///         pub ticks: u64,
///         /// The nested pair.
///         pub pair: Pair,
///     }
/// }
///
/// let mut p = Pair { seen: 3, dropped: 1 };
/// p.seen += 1;
/// p.accumulate(&Pair::from_values([10, 20]));
/// assert_eq!(p.values(), [14, 21]);
/// assert_eq!(p.delta(&Pair { seen: 4, dropped: 30 }).values(), [10, 0]);
///
/// let mut names = Vec::new();
/// Outer::default().walk(&mut Vec::new(), &mut |path, _| names.push(path.join("_")));
/// assert_eq!(names, ["ticks", "pair_seen", "pair_dropped"]);
/// assert_eq!(Outer::LEN, 3);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::counters::Counter for $name {
            const LEN: usize = 0 $(+ <$fty as $crate::counters::Counter>::LEN)*;

            fn accumulate(&mut self, other: &Self) {
                $( $crate::counters::Counter::accumulate(&mut self.$field, &other.$field); )*
            }

            fn delta(&self, earlier: &Self) -> Self {
                Self {
                    $( $field: $crate::counters::Counter::delta(&self.$field, &earlier.$field), )*
                }
            }

            fn walk<F: FnMut(&[&'static str], &mut u64)>(
                &mut self,
                path: &mut ::std::vec::Vec<&'static str>,
                f: &mut F,
            ) {
                $(
                    path.push(stringify!($field));
                    $crate::counters::Counter::walk(&mut self.$field, path, f);
                    path.pop();
                )*
            }
        }

        impl $name {
            /// Leaf-wise accumulation (sampled-window aggregation).
            pub fn accumulate(&mut self, other: &Self) {
                $crate::counters::Counter::accumulate(self, other);
            }

            /// Leaf-wise deltas since an `earlier` snapshot (saturating).
            pub fn delta(&self, earlier: &Self) -> Self {
                $crate::counters::Counter::delta(self, earlier)
            }

            /// The leaves in declaration order.
            pub fn values(&self) -> [u64; <Self as $crate::counters::Counter>::LEN] {
                let mut out = [0; <Self as $crate::counters::Counter>::LEN];
                let mut i = 0;
                let mut copy = ::std::clone::Clone::clone(self);
                $crate::counters::Counter::walk(&mut copy, &mut ::std::vec::Vec::new(), &mut |_, v| {
                    out[i] = *v;
                    i += 1;
                });
                out
            }

            /// Rebuilds the record from leaves in declaration order.
            pub fn from_values(values: [u64; <Self as $crate::counters::Counter>::LEN]) -> Self {
                let mut out = <Self as ::std::default::Default>::default();
                let mut i = 0;
                $crate::counters::Counter::walk(&mut out, &mut ::std::vec::Vec::new(), &mut |_, v| {
                    *v = values[i];
                    i += 1;
                });
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counter;

    counters! {
        /// Test subject.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Three {
            /// First.
            pub a: u64,
            /// Second.
            pub b: u64,
            /// Third.
            pub c: u64,
        }
    }

    counters! {
        /// A record nesting `Three` between two plain counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Nested {
            /// Before.
            pub x: u64,
            /// The nested record.
            pub three: Three,
            /// After.
            pub y: u64,
        }
    }

    fn paths<C: Counter>() -> Vec<String> {
        let mut out = Vec::new();
        C::default().walk(&mut Vec::new(), &mut |p, _| out.push(p.join(".")));
        out
    }

    #[test]
    fn names_follow_declaration_order() {
        assert_eq!(Three::LEN, 3);
        assert_eq!(paths::<Three>(), ["a", "b", "c"]);
        assert_eq!(Nested::LEN, 5);
        assert_eq!(
            paths::<Nested>(),
            ["x", "three.a", "three.b", "three.c", "y"]
        );
    }

    #[test]
    fn values_round_trip_in_order() {
        let t = Three { a: 1, b: 2, c: 3 };
        assert_eq!(t.values(), [1, 2, 3]);
        assert_eq!(Three::from_values(t.values()), t);
        let n = Nested::from_values([9, 1, 2, 3, 8]);
        assert_eq!(n.three, t);
        assert_eq!(n.values(), [9, 1, 2, 3, 8]);
    }

    #[test]
    fn accumulate_adds_field_wise() {
        let mut t = Three { a: 1, b: 2, c: 3 };
        t.accumulate(&Three {
            a: 10,
            b: 20,
            c: 30,
        });
        assert_eq!(
            t,
            Three {
                a: 11,
                b: 22,
                c: 33
            }
        );
        t.a += 1; // plain public fields, as declared
        assert_eq!(t.values(), [12, 22, 33]);
        let mut n = Nested::from_values([1, 1, 1, 1, 1]);
        n.accumulate(&Nested::from_values([1, 2, 3, 4, 5]));
        assert_eq!(n.values(), [2, 3, 4, 5, 6]);
    }

    #[test]
    fn delta_recurses_and_saturates() {
        let now = Nested::from_values([10, 20, 30, 40, 50]);
        let then = Nested::from_values([1, 2, 3, 4, 99]);
        assert_eq!(now.delta(&then).values(), [9, 18, 27, 36, 0]);
        assert_eq!(
            now.three.delta(&then.three),
            Three {
                a: 18,
                b: 27,
                c: 36
            }
        );
    }
}
