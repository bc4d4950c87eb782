//! The `repro` and `sectrace` binaries, driven as a user drives them.
//! Each test gets its own store directory, so none sees another's (or a
//! developer's) `target/exp`. The `#[ignore]`d ones simulate enough to
//! want a release build: `cargo test --release -p secpref-bench -- --ignored`
//! (a `tools/tier1.sh` stage).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("secpref-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repro(store: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("SECPREF_EXP_DIR", store)
        .env_remove("SECPREF_EXP_WORKERS")
        .env_remove("SECPREF_EXP_QUIET")
        .args(args)
        .output()
        .expect("repro runs")
}

fn sectrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sectrace"))
        .args(args)
        .output()
        .expect("sectrace runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Files directly under `dir` named `<prefix>…<suffix>`.
fn files_named(dir: &Path, prefix: &str, suffix: &str) -> Vec<PathBuf> {
    let matches = |p: &PathBuf| {
        let name = p.file_name().unwrap_or_default().to_string_lossy();
        name.starts_with(prefix) && name.ends_with(suffix)
    };
    std::fs::read_dir(dir)
        .expect("artifact directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(matches)
        .collect()
}

#[test]
fn quiet_table_writes_no_stderr() {
    let s = Scratch::new("quiet");
    let out = repro(&s.0, &["--quiet", "table1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!out.stdout.is_empty(), "table1 prints a table");
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_target_or_subcommand_exits_2() {
    let s = Scratch::new("unknown");
    let out = repro(&s.0, &["fig99"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown target `fig99`"));
    let out = sectrace(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("usage: sectrace"));
}

/// Streamed replay from a chunk store must equal whole-trace indexing
/// bit for bit (DESIGN.md §11): any divergence between bounded-memory
/// streaming and the in-memory run fails `--compare-mem`.
#[test]
fn sectrace_capture_verify_replay_agrees_with_memory() {
    let s = Scratch::new("sectrace");
    let sct = s.0.join("t.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    let out = sectrace(&[
        "capture",
        "--trace",
        "mcf_like_a",
        "--n",
        "20000",
        "--out",
        sct,
        "--chunk",
        "1024",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("captured 20000 instrs of mcf_like_a"));
    let out = sectrace(&["verify", sct]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = sectrace(&[
        "replay",
        sct,
        "--warmup",
        "2000",
        "--measure",
        "12000",
        "--compare-mem",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("IDENTICAL"), "{}", stdout(&out));
}

#[test]
#[ignore = "release-only: profiles the 39-cell matrix"]
fn profile_prints_table_and_writes_valid_trace() {
    let s = Scratch::new("profile");
    let out = repro(&s.0, &["--quiet", "--profile"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["phase", "funcwarm", "total", "detailed driver:"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    let trace = s.0.join("telemetry/profile-trace.json");
    let out = repro(&s.0, &["--validate-trace", trace.to_str().expect("utf-8")]);
    assert!(out.status.success(), "{}", stdout(&out));
}

/// The one telemetry contract no library test states (DESIGN.md §12): a
/// telemetry-enabled sweep under `--quiet` writes zero stderr bytes, and
/// its span trace passes `repro --validate-trace`.
#[test]
#[ignore = "release-only: simulates fig1 at quick scale"]
fn quiet_telemetry_sweep_is_silent_and_its_trace_validates() {
    let s = Scratch::new("telemetry");
    let out = repro(&s.0, &["--quick", "--quiet", "--telemetry", "fig1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
    let tel = s.0.join("telemetry");
    assert!(
        !files_named(&tel, "", ".hist.csv").is_empty(),
        "no histograms"
    );
    let traces = files_named(&tel, "trace-", ".json");
    assert_eq!(traces.len(), 1, "{traces:?}");
    let out = repro(
        &s.0,
        &["--validate-trace", traces[0].to_str().expect("utf-8")],
    );
    assert!(out.status.success(), "{}", stdout(&out));
}

/// The scale-out path end to end: the 32-core mix-pressure sweep.
#[test]
#[ignore = "release-only: simulates fig16 at quick scale"]
fn quick_fig16_prints_the_32_core_row() {
    let s = Scratch::new("fig16");
    let out = repro(&s.0, &["--quick", "--quiet", "fig16"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.lines().any(|l| l.starts_with("32 ")), "{text}");
}
