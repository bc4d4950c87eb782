//! `sectrace`: capture, inspect, verify, and replay on-disk chunk-store
//! traces (`.sct`, DESIGN.md §11).
//!
//! Usage:
//!
//! ```text
//! sectrace capture --trace NAME --n N --out PATH [--chunk RECORDS]
//! sectrace info PATH [--json]
//! sectrace verify PATH
//! sectrace replay PATH [--warmup N] [--measure N] [--compare-mem]
//! ```
//!
//! - `capture`: stream a suite generator to disk chunk-by-chunk — the
//!   whole trace is never materialized, so `--n` far beyond RAM works.
//! - `info`: print the store footer (name, length, chunking, digest).
//!   With `--json`, print the pinned machine-readable schema instead
//!   (`secpref_bench::traceinfo::info_json`), including a per-chunk
//!   compression-ratio histogram summary.
//! - `verify`: full integrity pass — every chunk checksum plus the
//!   whole-file content digest. Exits non-zero on corruption.
//! - `replay`: simulate the store streamed under the baseline config and
//!   print the canonical report digest. With `--compare-mem` the same
//!   workload is regenerated in memory and both reports are diffed;
//!   exits non-zero if they are not bit-identical (`tests/cli.rs`).

use secpref_sim::{run_single_with_window, run_stream_with_window};
use secpref_trace::suite;
use secpref_tracestore::fnv::{fnv1a64, FNV_OFFSET};
use secpref_tracestore::{CaptureSink, TraceReader, TraceWriter, DEFAULT_CHUNK_SIZE};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;

fn die(msg: &str) -> ! {
    eprintln!("sectrace: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    die("usage: sectrace <capture|info|verify|replay> ... (see --help in the source header)");
}

/// FNV-1a 64 over the canonical report text — the same digest scheme the
/// pinned report-digest tripwire uses.
fn report_digest(text: &str) -> u64 {
    fnv1a64(text.as_bytes(), FNV_OFFSET)
}

fn open_reader(path: &str) -> TraceReader<BufReader<File>> {
    let file = File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    TraceReader::open(BufReader::new(file)).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn cmd_capture(args: &[String]) -> ExitCode {
    let mut trace = None;
    let mut n = None;
    let mut out = None;
    let mut chunk = DEFAULT_CHUNK_SIZE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = it.next().cloned(),
            "--n" => n = it.next().and_then(|v| v.parse::<usize>().ok()),
            "--out" => out = it.next().cloned(),
            "--chunk" => {
                chunk = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--chunk needs a record count"))
            }
            other => die(&format!("capture: unknown flag `{other}`")),
        }
    }
    let trace = trace.unwrap_or_else(|| die("capture: --trace NAME is required"));
    let n = n.unwrap_or_else(|| die("capture: --n COUNT is required"));
    let out = out.unwrap_or_else(|| die("capture: --out PATH is required"));
    let generator = suite::trace_by_name(&trace)
        .unwrap_or_else(|| die(&format!("unknown suite trace `{trace}`")));
    let file = File::create(&out).unwrap_or_else(|e| die(&format!("{out}: {e}")));
    let w = TraceWriter::create(BufWriter::new(file), &trace, chunk)
        .unwrap_or_else(|e| die(&format!("{out}: {e}")));
    let mut sink = CaptureSink::new(w, n);
    generator.generate_into(&mut sink);
    let (meta, _) = sink
        .finish()
        .unwrap_or_else(|e| die(&format!("{out}: {e}")));
    println!(
        "captured {} instrs of {} into {} ({} chunks of {}, digest {:016x})",
        meta.n_instr,
        meta.name,
        out,
        meta.chunks.len(),
        meta.chunk_size,
        meta.content_digest,
    );
    ExitCode::SUCCESS
}

fn cmd_info(path: &str, args: &[String]) -> ExitCode {
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            other => die(&format!("info: unknown flag `{other}`")),
        }
    }
    let r = open_reader(path);
    let m = r.meta();
    if json {
        println!("{}", secpref_bench::traceinfo::info_json(m));
        return ExitCode::SUCCESS;
    }
    let comp: u64 = m.chunks.iter().map(|c| c.comp_len as u64).sum();
    let raw: u64 = m.chunks.iter().map(|c| c.raw_len as u64).sum();
    println!("name:        {}", m.name);
    println!("instrs:      {}", m.n_instr);
    println!("chunk size:  {} records", m.chunk_size);
    println!("chunks:      {}", m.chunks.len());
    println!("max dep:     {}", m.max_dep_dist);
    println!("digest:      {:016x}", m.content_digest);
    println!("wrong-path:  {} branches", m.wrong_path.len());
    println!(
        "encoded:     {comp} bytes compressed / {raw} raw ({:.1}%)",
        if raw == 0 {
            0.0
        } else {
            100.0 * comp as f64 / raw as f64
        },
    );
    ExitCode::SUCCESS
}

fn cmd_verify(path: &str) -> ExitCode {
    let mut r = open_reader(path);
    match r.verify() {
        Ok(()) => {
            println!(
                "{path}: OK ({} instrs, digest {:016x})",
                r.meta().n_instr,
                r.meta().content_digest
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_replay(path: &str, args: &[String]) -> ExitCode {
    let mut warmup = secpref_sim::DEFAULT_WARMUP;
    let mut measure = secpref_sim::DEFAULT_MEASURE;
    let mut compare_mem = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--warmup" => {
                warmup = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--warmup needs a count"))
            }
            "--measure" => {
                measure = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--measure needs a count"))
            }
            "--compare-mem" => compare_mem = true,
            other => die(&format!("replay: unknown flag `{other}`")),
        }
    }
    let (name, n_instr) = {
        let r = open_reader(path);
        (r.meta().name.clone(), r.meta().n_instr as usize)
    };
    let cfg = secpref_types::SystemConfig::baseline(1);
    let report = run_stream_with_window(&cfg, Path::new(path), warmup, measure)
        .unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let text = secpref_exp::codec::report_to_string(&report);
    let digest = report_digest(&text);
    println!(
        "streamed {name} ({n_instr} instrs): ipc {:.4}, report digest {digest:016x}",
        report.ipc()
    );
    if compare_mem {
        let generator = suite::trace_by_name(&name).unwrap_or_else(|| {
            die(&format!(
                "`{name}` is not a suite trace; cannot --compare-mem"
            ))
        });
        let trace = std::sync::Arc::new(generator.generate(n_instr));
        let mem = run_single_with_window(&cfg, &trace, warmup, measure);
        let mem_text = secpref_exp::codec::report_to_string(&mem);
        let mem_digest = report_digest(&mem_text);
        if mem_text == text {
            println!("in-memory report digest {mem_digest:016x}: IDENTICAL");
        } else {
            eprintln!(
                "MISMATCH: streamed {digest:016x} vs in-memory {mem_digest:016x} — \
                 streamed execution diverged from whole-trace indexing"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("capture", rest) => cmd_capture(rest),
            ("info", [path, rest @ ..]) => cmd_info(path, rest),
            ("verify", [path]) => cmd_verify(path),
            ("replay", [path, rest @ ..]) => cmd_replay(path, rest),
            _ => usage(),
        },
        None => usage(),
    }
}
