//! Epoch time-series: periodic deltas of the simulator's counters.
//!
//! Every `interval` committed instructions (per core, after its warm-up
//! boundary) the simulator snapshots the *delta* of its counters since the
//! previous epoch into an [`EpochRow`], and a core's finish boundary
//! closes its last, partial epoch — so a core's rows partition its
//! measured window. The series turns end-of-run aggregates into a
//! within-run timeline: IPC dips, commit-request bursts, and MSHR-pressure
//! phases become visible without a debugger.
//!
//! The counters are named by the simulator, which sets
//! [`EpochSeries::columns`] when it installs the recorder; this crate
//! knows none of them.

use secpref_types::Cycle;

/// One epoch sample: deltas since the previous sample of the same core.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index (0-based, per core).
    pub epoch: u64,
    /// Core the sample belongs to.
    pub core: u16,
    /// Cycle the epoch ended at.
    pub end_cycle: Cycle,
    /// GM lines resident at the sample point (a gauge, not a delta).
    pub gm_occupancy: u64,
    /// Counter deltas this epoch, one per [`EpochSeries::columns`] entry.
    pub values: Vec<u64>,
}

/// The collected epoch samples of one run.
#[derive(Clone, Debug, Default)]
pub struct EpochSeries {
    /// Sampling interval in committed instructions.
    pub interval: u64,
    /// Names of the counter columns, in [`EpochRow::values`] order.
    pub columns: Vec<String>,
    /// Samples in record order (per-core interleaved by completion).
    pub rows: Vec<EpochRow>,
}

impl EpochSeries {
    /// Creates an empty series with the given sampling interval and
    /// counter columns.
    pub fn new(interval: u64, columns: Vec<String>) -> Self {
        EpochSeries {
            interval,
            columns,
            rows: Vec::new(),
        }
    }

    /// Renders the series as a deterministic CSV document: a header
    /// (`epoch,core,end_cycle,gm_occupancy`, then the counter columns)
    /// and one line per sample.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + (self.rows.len() + 1) * 8 * self.columns.len());
        out.push_str("epoch,core,end_cycle,gm_occupancy");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for r in &self.rows {
            let _ = write!(
                out,
                "{},{},{},{}",
                r.epoch, r.core, r.end_cycle, r.gm_occupancy
            );
            for v in &r.values {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(rows: u64) -> EpochSeries {
        let mut s = EpochSeries::new(1000, vec!["instructions".into(), "cycles".into()]);
        for i in 0..rows {
            s.rows.push(EpochRow {
                epoch: i,
                core: 1,
                end_cycle: 123 + i,
                gm_occupancy: 4,
                values: vec![1000, 500 + i],
            });
        }
        s
    }

    #[test]
    fn csv_has_header_and_matching_column_counts() {
        let csv = series(1).to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(
            header,
            "epoch,core,end_cycle,gm_occupancy,instructions,cycles"
        );
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header and rows must have the same arity"
        );
        assert_eq!(row, "0,1,123,4,1000,500");
        assert!(lines.next().is_none());
    }

    #[test]
    fn csv_is_deterministic() {
        let s = series(3);
        assert_eq!(s.to_csv(), s.to_csv());
        assert_eq!(s.to_csv().lines().count(), 4);
    }
}
