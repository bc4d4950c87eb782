//! One declaration per flat counter struct.
//!
//! The report's counter records (`LevelMetrics`, `PrefetchMetrics`,
//! `CommitMetrics`, `MissClassCounts` in `secpref-sim`, `DramStats` in
//! `secpref-mem`) are flat structs of `u64`s that several layers must
//! walk field by field: window aggregation, snapshot deltas, and the
//! result store's encoder and decoder. [`counters!`](macro@crate::counters)
//! declares such a struct once and derives the walks from that one list,
//! so a new counter is one line in one place.

/// Declares a flat all-`u64` counter struct.
///
/// Expands to the struct exactly as written — the same plain fields in
/// the same order, with the attributes and docs given, so
/// `m.l1d.port_stalls += 1` stays a field increment — plus:
///
/// - `LEN` and `NAMES`: the field count and the field names, in
///   declaration order (the order the result store encodes them in);
/// - `accumulate(&mut self, &Self)`: field-wise `+=`;
/// - `values(&self)` / `from_values(..)`: the counters as an array in
///   `NAMES` order, and back.
///
/// # Examples
///
/// ```
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
/// let mut p = Pair { seen: 3, dropped: 1 };
/// p.seen += 1;
/// p.accumulate(&Pair::from_values([10, 20]));
/// assert_eq!(Pair::NAMES, ["seen", "dropped"]);
/// assert_eq!(p.values(), [14, 21]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: u64 ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $name {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Counter names, in declaration (and encoding) order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($field)),*];

            /// Field-wise accumulation (sampled-window aggregation).
            pub fn accumulate(&mut self, o: &Self) {
                $( self.$field += o.$field; )*
            }

            /// The counters in [`Self::NAMES`] order.
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// Rebuilds the struct from counters in [`Self::NAMES`] order.
            pub fn from_values(values: [u64; Self::LEN]) -> Self {
                let [$($field),*] = values;
                Self { $($field),* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn names_follow_declaration_order() {
        assert_eq!(Three::LEN, 3);
        assert_eq!(Three::NAMES, ["a", "b", "c"]);
    }

    #[test]
    fn values_round_trip_in_order() {
        let t = Three { a: 1, b: 2, c: 3 };
        assert_eq!(t.values(), [1, 2, 3]);
        assert_eq!(Three::from_values(t.values()), t);
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
    }
}
