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
    // One diagnostic flag: `--trace` writes the histograms too.
    let out = repro(&s.0, &["--telemetry", "fig1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown flag `--telemetry`"));
    // `--workers 1` is the one way to run serially.
    let out = repro(&s.0, &["--serial", "fig1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown flag `--serial`"));
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

/// A store with no instructions is refused with exit code 2 naming the
/// file, not simulated until the run loop's livelock watchdog panics.
#[test]
fn sectrace_refuses_an_empty_store() {
    let s = Scratch::new("empty");
    let sct = s.0.join("z.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    let out = sectrace(&["capture", "--trace", "lbm_like", "--n", "0", "--out", sct]);
    assert!(out.status.success(), "{}", stderr(&out));
    for extra in [&[][..], &["--compare-mem"]] {
        let out = sectrace(&[&["replay", sct][..], extra].concat());
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("{sct}: store holds no instructions")),
            "{}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
}

/// Chunk sizes a user can type but no store may have are refused with
/// exit code 2, not an allocation abort or a panic.
#[test]
fn sectrace_capture_refuses_chunk_sizes_outside_the_cap() {
    let s = Scratch::new("chunk");
    let sct = s.0.join("t.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    for chunk in ["0", "4294967295"] {
        let out = sectrace(&[
            "capture",
            "--trace",
            "mcf_like_a",
            "--n",
            "1000",
            "--out",
            sct,
            "--chunk",
            chunk,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--chunk {chunk}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("chunk size"), "{}", stderr(&out));
    }
}

/// A store whose footer claims a dependency distance no load can have
/// (it would size the replay's feed cap and completion ring) is refused
/// at open, by `verify` and `replay` alike, with exit code 2. One that
/// claims a plausible but too small distance fails `verify`, and
/// `replay` refuses it before simulating, with exit code 2, not a panic
/// mid-run.
#[test]
fn sectrace_refuses_a_crafted_footer_max_dep_dist() {
    use secpref_tracestore::fnv::{fnv1a64, FNV_OFFSET};
    let s = Scratch::new("maxdep");
    let sct = s.0.join("t.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    let out = sectrace(&[
        "capture",
        "--trace",
        "mcf_like_a",
        "--n",
        "1000",
        "--out",
        sct,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let intact = std::fs::read(sct).expect("store");
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let trailer = intact.len() - 24;
    let footer = u64_at(&intact, trailer) as usize;
    let footer_end = footer + u64_at(&intact, trailer + 8) as usize - 8;
    // Footer: n_chunks, 28 bytes per chunk, n_instr, then max_dep_dist.
    let at = footer + 8 + 28 * u64_at(&intact, footer) as usize + 8;
    for max_dep in [1u64 << 40, u64::MAX] {
        let mut crafted = intact.clone();
        crafted[at..at + 8].copy_from_slice(&max_dep.to_le_bytes());
        let ck = fnv1a64(&crafted[footer..footer_end], FNV_OFFSET);
        crafted[footer_end..footer_end + 8].copy_from_slice(&ck.to_le_bytes());
        std::fs::write(sct, &crafted).expect("write crafted store");
        for args in [&["verify", sct][..], &["replay", sct, "--measure", "500"]] {
            let out = sectrace(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            assert!(stderr(&out).contains("exceeds u16"), "{}", stderr(&out));
        }
    }
    let too_small = 1u64;
    let mut crafted = intact.clone();
    crafted[at..at + 8].copy_from_slice(&too_small.to_le_bytes());
    let ck = fnv1a64(&crafted[footer..footer_end], FNV_OFFSET);
    crafted[footer_end..footer_end + 8].copy_from_slice(&ck.to_le_bytes());
    std::fs::write(sct, &crafted).expect("write crafted store");
    let out = sectrace(&["verify", sct]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let out = sectrace(&["replay", sct, "--measure", "500"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("exceeds the footer's 1"), "{err}");
    assert_eq!(err.matches("chunk 0:").count(), 1, "{err}");
}

/// Writes to `path` a one-chunk store of `raw`'s `n_records` records,
/// sealed as the writer would but with a body no `Instr` can encode (and
/// a content digest of 0).
fn write_crafted_store(path: &str, raw: &[u8], n_records: u32) {
    use secpref_tracestore::codec::compress;
    use secpref_tracestore::fnv::{fnv1a64, FNV_OFFSET};
    let comp = compress(raw);
    let mut store = b"SPTRCHK\0".to_vec();
    store.extend_from_slice(&1u32.to_le_bytes()); // version
    store.extend_from_slice(&64u32.to_le_bytes()); // chunk size
    store.extend_from_slice(&comp);
    let mut footer = 1u64.to_le_bytes().to_vec(); // one chunk
    footer.extend_from_slice(&16u64.to_le_bytes()); // its offset
    footer.extend_from_slice(&n_records.to_le_bytes()); // its records
    footer.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    footer.extend_from_slice(&(comp.len() as u32).to_le_bytes());
    footer.extend_from_slice(&fnv1a64(raw, FNV_OFFSET).to_le_bytes());
    footer.extend_from_slice(&(n_records as u64).to_le_bytes()); // n_instr
    footer.extend_from_slice(&0u64.to_le_bytes()); // max_dep_dist
    footer.extend_from_slice(&0u64.to_le_bytes()); // content digest
    footer.extend_from_slice(&1u32.to_le_bytes());
    footer.push(b'x'); // name
    footer.extend_from_slice(&0u64.to_le_bytes()); // no wrong-path loads
    footer.extend_from_slice(&fnv1a64(&footer, FNV_OFFSET).to_le_bytes());
    let footer_off = store.len() as u64;
    store.extend_from_slice(&footer);
    store.extend_from_slice(&footer_off.to_le_bytes());
    store.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    store.extend_from_slice(b"SPTRIDX\0");
    std::fs::write(path, &store).expect("write crafted store");
}

/// `info` reads the crafted store at `path`; `verify` (exit code 1) and
/// `replay` (exit code 2) refuse it with `msg`, not a panic.
fn assert_refused_at_decode(path: &str, msg: &str) {
    let out = sectrace(&["info", path]);
    assert!(
        out.status.success(),
        "the footer is sound: {}",
        stderr(&out)
    );
    for (args, code) in [
        (&["verify", path][..], 1),
        (&["replay", path, "--measure", "1"], 2),
    ] {
        let out = sectrace(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(err.contains(msg), "{err}");
    }
}

/// A one-chunk store whose second record's IP delta of +1 lands on 2^32
/// is refused by `verify` and `replay` with a typed error, not a panic:
/// a trace IP is 32 bits.
#[test]
fn sectrace_refuses_an_ip_past_32_bits() {
    let s = Scratch::new("ip32");
    let sct = s.0.join("t.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    // Two ALU records (head byte 0): IP deltas zigzag(u32::MAX), zigzag(1).
    let raw = [0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0x1F, 0x00, 0x02];
    write_crafted_store(sct, &raw, 2);
    assert_refused_at_decode(sct, "record 1: ip 0x100000000 exceeds 32 bits");
}

/// A one-chunk store whose second load's address delta of +1 lands on
/// 2^40 is refused by `verify` and `replay` with a typed error, not a
/// panic: a trace address is 40 bits. Loads and stores at 2^40 − 1
/// capture, verify and replay.
#[test]
fn sectrace_refuses_an_addr_past_40_bits() {
    use secpref_trace::Instr;
    const MAX: u64 = (1 << 40) - 1;
    let s = Scratch::new("addr40");
    let sct = s.0.join("t.sct");
    let sct = sct.to_str().expect("utf-8 temp path");
    // Two loads (head byte 1), IP delta 0: address deltas
    // zigzag(2^40 − 1), zigzag(1).
    let raw = [
        0x01, 0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F, 0x01, 0x00, 0x02,
    ];
    write_crafted_store(sct, &raw, 2);
    assert_refused_at_decode(sct, "record 1: addr 0x10000000000 exceeds 40 bits");

    let mut w = secpref_tracestore::TraceWriter::create(
        std::fs::File::create(sct).expect("create store"),
        "addr40",
        64,
    )
    .expect("writer");
    for i in 0..200u64 {
        let op = match i % 3 {
            0 => Instr::load(0x40_0000, MAX - i % 7 * 64),
            1 => Instr::store(0x40_0004, MAX),
            _ => Instr::alu(0x40_0008),
        };
        w.push(&op).expect("push");
    }
    w.finish().expect("finish");
    let out = sectrace(&["verify", sct]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = sectrace(&["replay", sct, "--warmup", "50", "--measure", "100"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("streamed addr40 (200 instrs)"),
        "{}",
        stdout(&out)
    );
}

#[test]
#[ignore = "release-only: profiles the 54-cell matrix"]
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

/// The contracts of a traced sweep no library test states (DESIGN.md §8,
/// §12): under `--quiet` it writes zero stderr bytes, it leaves one
/// summary/epochs/histogram triple per job under `obs/`, and its span
/// trace passes `repro --validate-trace`.
#[test]
#[ignore = "release-only: simulates fig1 at quick scale"]
fn quiet_trace_sweep_is_silent_and_its_trace_validates() {
    let s = Scratch::new("trace");
    let out = repro(&s.0, &["--quick", "--quiet", "--trace", "fig1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
    let manifests = files_named(&s.0, "manifest-", ".json");
    assert_eq!(manifests.len(), 1, "{manifests:?}");
    let manifest = std::fs::read_to_string(&manifests[0]).expect("manifest");
    let jobs = secpref_exp::json::parse(manifest.trim())
        .expect("manifest is JSON")
        .get("jobs_executed")
        .and_then(secpref_exp::json::Json::as_u64)
        .expect("jobs_executed");
    assert!(jobs > 0);
    let obs = s.0.join("obs");
    for suffix in [".summary.json", ".epochs.csv", ".hist.csv"] {
        let n = files_named(&obs, "", suffix).len() as u64;
        assert_eq!(n, jobs, "{suffix}: one per job");
    }
    for path in files_named(&obs, "", ".summary.json") {
        let text = std::fs::read_to_string(&path).expect("summary");
        let summary = secpref_exp::json::parse(text.trim()).expect("summary is JSON");
        for field in ["filters", "mshr_high_water"] {
            assert!(summary.get(field).is_some(), "{path:?}: no {field}");
        }
    }
    // `telemetry/` holds host-side files only: here, the span trace.
    let tel = std::fs::read_dir(s.0.join("telemetry")).expect("telemetry dir");
    let traces: Vec<PathBuf> = tel.filter_map(|e| e.ok().map(|e| e.path())).collect();
    assert_eq!(traces.len(), 1, "{traces:?}");
    let out = repro(
        &s.0,
        &["--validate-trace", traces[0].to_str().expect("utf-8")],
    );
    assert!(out.status.success(), "{}", stdout(&out));
}

/// The ablations plan, sweep and render like any figure: all five
/// tables, and the same bytes when the second run resumes every swept
/// job from the store.
#[test]
#[ignore = "release-only: simulates the ablations at quick scale"]
fn quick_ablations_render_all_five_tables_and_resume_identically() {
    let s = Scratch::new("ablations");
    let run = || {
        let out = repro(&s.0, &["--quick", "--quiet", "ablations"]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let cold = run();
    assert_eq!(cold.matches("## Ablation").count(), 5, "{cold}");
    assert_eq!(run(), cold);
}

/// Without `--quiet`, a sweep whose stderr is a pipe still shows its one
/// progress line, one render per line, and the last render counts every
/// cell.
#[test]
#[ignore = "release-only: simulates fig5 at quick scale"]
fn a_sweep_into_a_pipe_prints_its_progress_lines() {
    let s = Scratch::new("progress");
    let out = repro(&s.0, &["--quick", "fig5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(!err.contains('\r'), "{err}");
    let last = err
        .lines()
        .filter_map(|l| l.strip_prefix("[sweep] "))
        .next_back()
        .unwrap_or_else(|| panic!("no progress line in:\n{err}"));
    let cells = last.split(' ').next().expect("done/total");
    let (done, total) = cells.split_once('/').expect("done/total");
    assert_eq!(done, total, "{last}");
    assert!(last.starts_with(&format!("{cells} cells")), "{last}");
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
