//! Trace-artifact exporters: summary JSON, epochs CSV and histogram CSV.
//!
//! A recorded run's [`ObsCapture`] is exported as three flat files,
//! named by the job's content key (the experiment engine puts them under
//! its store's `obs/` directory):
//!
//! - `<key>.summary.json` — one JSON object: each core's update filter,
//!   the epoch interval and row count, the per-kind event totals and the
//!   MSHR high-water marks.
//! - `<key>.epochs.csv` — the epoch time-series
//!   ([`EpochSeries::to_csv`](crate::EpochSeries::to_csv): one column
//!   per counter).
//! - `<key>.hist.csv` — every histogram's non-empty buckets
//!   (`hist,lo,hi,count` rows), each histogram's exact `total`/`sum`/
//!   `min`/`max` summary rows, and the demand-conservation scalars
//!   (`meta/demand_accesses`, `meta/unfinished_demands`).
//!
//! The artifacts are **deterministic**: their bytes are a pure function
//! of the job and the recorder configuration. No timestamps, git state,
//! worker counts, or host details appear in the content, which is what
//! makes the trace-determinism test (byte-identical across `--workers`
//! values and resume-vs-cold) hold trivially.

use crate::{EventKind, Hists, ObsCapture};
use secpref_types::json::{obj, Json};
use secpref_types::Hist;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Renders the `<key>.summary.json` artifact: one line, one object.
pub fn summary_json(cap: &ObsCapture) -> String {
    let per_kind: Vec<Json> = EventKind::ALL
        .iter()
        .map(|&kind| {
            obj(vec![
                ("kind", Json::Str(kind.name().to_string())),
                ("recorded", Json::UInt(cap.recorded(kind))),
            ])
        })
        .collect();
    let high_water: Vec<Json> = cap
        .mshr_high_water
        .iter()
        .map(|(label, v)| {
            obj(vec![
                ("mshr", Json::Str(label.clone())),
                ("high_water", Json::UInt(*v)),
            ])
        })
        .collect();
    let summary = obj(vec![
        (
            "filters",
            Json::Arr(cap.filters.iter().cloned().map(Json::Str).collect()),
        ),
        ("epoch_interval", Json::UInt(cap.epochs.interval)),
        ("epochs", Json::UInt(cap.epochs.rows.len() as u64)),
        ("kinds", Json::Arr(per_kind)),
        ("mshr_high_water", Json::Arr(high_water)),
    ]);
    format!("{summary}\n")
}

/// Renders one histogram's rows: non-empty buckets, then exact summary
/// rows (`total`, `sum`, `min`, `max` — the latter two only when the
/// histogram has samples).
fn hist_rows(out: &mut String, name: &str, h: &Hist) {
    for (lo, hi, count) in h.buckets() {
        if count > 0 {
            let _ = writeln!(out, "{name},{lo},{hi},{count}");
        }
    }
    let _ = writeln!(out, "{name},total,,{}", h.count());
    let _ = writeln!(out, "{name},sum,,{}", h.sum());
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        let _ = writeln!(out, "{name},min,,{min}");
        let _ = writeln!(out, "{name},max,,{max}");
    }
}

/// Renders the full `<key>.hist.csv` artifact for a capture's histograms.
pub fn hist_csv(hists: &Hists) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("hist,lo,hi,count\n");
    for (name, h) in hists.named() {
        hist_rows(&mut out, &name, h);
    }
    let _ = writeln!(out, "meta/demand_accesses,total,,{}", hists.demand_accesses);
    let _ = writeln!(
        out,
        "meta/unfinished_demands,total,,{}",
        hists.unfinished_demands
    );
    out
}

/// Writes `<key>.summary.json`, `<key>.epochs.csv` and `<key>.hist.csv`
/// under `dir`, creating it if needed. Returns the three paths in that
/// order.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_trace_artifacts(dir: &Path, key: &str, cap: &ObsCapture) -> io::Result<[PathBuf; 3]> {
    std::fs::create_dir_all(dir)?;
    let paths = ["summary.json", "epochs.csv", "hist.csv"].map(|s| dir.join(format!("{key}.{s}")));
    std::fs::write(&paths[0], summary_json(cap))?;
    std::fs::write(&paths[1], cap.epochs.to_csv())?;
    std::fs::write(&paths[2], hist_csv(&cap.hists))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochSeries, KIND_COUNT};

    fn capture() -> ObsCapture {
        let mut recorded = [0u64; KIND_COUNT];
        recorded[EventKind::PrefetchFill.index()] = 2;
        recorded[EventKind::GmSpecFill.index()] = 1;
        let mut hists = Hists::default();
        hists.load_latency[1].record(4);
        hists.load_latency[1].record(900);
        hists.pf_useful.record(12);
        hists.demand_accesses = 3;
        hists.unfinished_demands = 1;
        ObsCapture {
            recorded,
            epochs: EpochSeries::new(1000, vec!["instructions".to_string()]),
            hists,
            mshr_high_water: vec![("l1d[0]".to_string(), 7)],
            filters: vec!["always-update".to_string(), "suf".to_string()],
        }
    }

    #[test]
    fn summary_json_is_one_parseable_object() {
        let text = summary_json(&capture());
        assert_eq!(text.lines().count(), 1);
        let last = secpref_types::json::parse(text.trim()).unwrap();
        let filters: Vec<_> = last
            .get("filters")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|f| f.as_str().unwrap())
            .collect();
        assert_eq!(filters, ["always-update", "suf"]);
        assert_eq!(last.get("epoch_interval").unwrap().as_u64(), Some(1000));
        let kinds = last.get("kinds").unwrap().as_arr().unwrap();
        assert_eq!(kinds.len(), KIND_COUNT);
        let fills = &kinds[EventKind::PrefetchFill.index()];
        assert_eq!(fills.get("kind").unwrap().as_str(), Some("prefetch_fill"));
        assert_eq!(fills.get("recorded").unwrap().as_u64(), Some(2));
        let high_water = last.get("mshr_high_water").unwrap().as_arr().unwrap();
        assert_eq!(high_water[0].get("high_water").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn hist_csv_is_deterministic_and_reconcilable() {
        let a = hist_csv(&capture().hists);
        let b = hist_csv(&capture().hists);
        assert_eq!(a, b, "export must be a pure function of the capture");
        assert!(a.starts_with("hist,lo,hi,count\n"));
        assert!(a.contains("load_latency/l1d,total,,2\n"), "{a}");
        assert!(a.contains("load_latency/l1d,min,,4\n"), "{a}");
        assert!(a.contains("load_latency/l1d,max,,900\n"), "{a}");
        assert!(a.contains("pf_timeliness/useful,total,,1\n"), "{a}");
        assert!(a.contains("meta/demand_accesses,total,,3\n"), "{a}");
        assert!(a.contains("meta/unfinished_demands,total,,1\n"), "{a}");
        // Empty histograms export a zero total and no min/max rows.
        assert!(a.contains("dram_queue_delay,total,,0\n"), "{a}");
        assert!(!a.contains("dram_queue_delay,min"), "{a}");
    }

    #[test]
    fn artifacts_land_under_the_requested_dir() {
        let dir = std::env::temp_dir().join(format!("secpref-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let [summary, epochs, hists] = write_trace_artifacts(&dir, "deadbeef", &capture()).unwrap();
        assert!(summary.ends_with("deadbeef.summary.json"));
        assert!(epochs.ends_with("deadbeef.epochs.csv"));
        assert!(hists.ends_with("deadbeef.hist.csv"));
        let csv = std::fs::read_to_string(&epochs).unwrap();
        assert!(csv.starts_with("epoch,core,"));
        // Byte-stable: re-exporting the same capture is identical.
        assert_eq!(
            std::fs::read_to_string(&summary).unwrap(),
            summary_json(&capture())
        );
        assert_eq!(
            std::fs::read_to_string(&hists).unwrap(),
            hist_csv(&capture().hists)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
