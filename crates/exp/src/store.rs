//! JSON-lines result store: the on-disk cache that makes runs resumable.
//!
//! Layout (one directory per store, default `target/exp/`):
//!
//! ```text
//! <dir>/results.jsonl      one line per completed job
//! <dir>/manifest-<id>.json one per engine run (written by the engine)
//! ```
//!
//! Each result line is a self-contained object:
//!
//! ```json
//! {"key":"<16-hex FNV>","canonical":"<full job content string>","report":{...}}
//! ```
//!
//! Appends are line-atomic in practice (single `write_all` + flush), and
//! the loader skips any malformed trailing line, so a run killed mid-write
//! loses at most the report being written — every earlier result is
//! reused on restart. The canonical string rides along so a hash
//! collision is detected (the engine compares it before trusting a hit)
//! instead of silently returning another job's report.

use crate::codec::{decode_report, encode_report};
use crate::json::{obj, parse, Json};
use secpref_sim::SimReport;
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A result loaded from disk: the canonical job string it was computed
/// for, plus the report itself.
#[derive(Clone, Debug)]
pub struct StoredResult {
    /// Full canonical content string of the producing job.
    pub canonical: String,
    /// The persisted report.
    pub report: SimReport,
}

/// Append-only JSONL store of completed simulation reports.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    write_lock: Mutex<()>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            write_lock: Mutex::new(()),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the results file.
    pub fn results_path(&self) -> PathBuf {
        self.dir.join("results.jsonl")
    }

    /// Loads every well-formed result, keyed by job key. Later lines win
    /// (a job re-run after a schema change overwrites its predecessor).
    /// Malformed lines — e.g. a partial line from a killed run — are
    /// skipped, not fatal.
    pub fn load(&self) -> HashMap<String, StoredResult> {
        let mut out = HashMap::new();
        let Ok(text) = fs::read_to_string(self.results_path()) else {
            return out;
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(json) = parse(line) else { continue };
            let (Some(key), Some(canonical), Some(report)) = (
                json.get("key").and_then(Json::as_str),
                json.get("canonical").and_then(Json::as_str),
                json.get("report"),
            ) else {
                continue;
            };
            let Ok(report) = decode_report(report) else {
                continue;
            };
            out.insert(
                key.to_string(),
                StoredResult {
                    canonical: canonical.to_string(),
                    report,
                },
            );
        }
        out
    }

    /// Appends one completed result.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the store is unchanged on failure apart
    /// from a possibly-partial final line, which `load` tolerates.
    pub fn append(&self, key: &str, canonical: &str, report: &SimReport) -> io::Result<()> {
        let line = obj(vec![
            ("key", Json::Str(key.to_string())),
            ("canonical", Json::Str(canonical.to_string())),
            ("report", encode_report(report)),
        ])
        .to_string();
        let _guard = self.write_lock.lock().expect("store write lock");
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(self.results_path())?;
        // Heal a torn final line left by a killed run: start this record
        // on a fresh line so it is not glued onto the fragment.
        let len = f.metadata()?.len();
        if len > 0 {
            let mut last = [0u8; 1];
            f.seek(SeekFrom::Start(len - 1))?;
            f.read_exact(&mut last)?;
            if last[0] != b'\n' {
                f.write_all(b"\n")?;
            }
        }
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpref_sim::{CoreMetrics, DramStats};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("secpref-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn report(label: &str, instructions: u64) -> SimReport {
        SimReport {
            label: label.to_string(),
            cores: vec![CoreMetrics {
                instructions,
                cycles: instructions * 2,
                ..Default::default()
            }],
            dram: DramStats::default(),
            energy_nj: 1.5,
            sampling: None,
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        store.append("aaaa", "canon-a", &report("A", 10)).unwrap();
        store.append("bbbb", "canon-b", &report("B", 20)).unwrap();
        let loaded = store.load();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded["aaaa"].canonical, "canon-a");
        assert_eq!(loaded["bbbb"].report.cores[0].instructions, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_lines_win() {
        let dir = tmp_dir("dup");
        let store = ResultStore::open(&dir).unwrap();
        store.append("k", "c", &report("old", 1)).unwrap();
        store.append("k", "c", &report("new", 2)).unwrap();
        let loaded = store.load();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["k"].report.label, "new");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_trailing_line_is_skipped() {
        let dir = tmp_dir("partial");
        let store = ResultStore::open(&dir).unwrap();
        store.append("good", "c", &report("ok", 5)).unwrap();
        // Simulate a run killed mid-append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(store.results_path())
            .unwrap();
        f.write_all(b"{\"key\":\"trunc\",\"canonical\":\"x\",\"repo")
            .unwrap();
        drop(f);
        let loaded = store.load();
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains_key("good"));
        // And the store keeps working after the torn write.
        store.append("more", "c", &report("more", 6)).unwrap();
        assert_eq!(store.load().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pathologically_nested_line_is_skipped_not_fatal() {
        // A 200 000-bracket line used to overflow the parser's stack and
        // abort the process; `load` promises a malformed line is skipped.
        let dir = tmp_dir("nested");
        let store = ResultStore::open(&dir).unwrap();
        store.append("before", "c", &report("a", 1)).unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(store.results_path())
            .unwrap();
        f.write_all("[".repeat(200_000).as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        store.append("after", "c", &report("b", 2)).unwrap();
        let loaded = store.load();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded["before"].report.label, "a");
        assert_eq!(loaded["after"].report.label, "b");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_loads_empty() {
        let dir = tmp_dir("empty");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
