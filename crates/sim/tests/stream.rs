//! Streamed-simulation integration tests: a chunk-store feed driven
//! through the full system must be bit-identical to the in-memory path
//! while keeping only a bounded decode window resident (DESIGN.md §11).

use secpref_sim::{run_single_with_window, StreamFeed, System, TraceFeed};
use secpref_trace::suite;
use secpref_tracestore::{CaptureSink, ReadSeek, TraceReader, TraceWriter};
use secpref_types::{PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};
use std::io::Cursor;
use std::sync::Arc;

/// Captures the first `n` instructions of a suite generator into an
/// in-memory chunk store, exactly as `sectrace capture` does on disk.
fn capture(name: &str, n: usize, chunk: u32) -> Vec<u8> {
    let generator = suite::trace_by_name(name).expect("known suite trace");
    let w = TraceWriter::create(Vec::new(), name, chunk).unwrap();
    let mut sink = CaptureSink::new(w, n);
    generator.generate_into(&mut sink);
    let (meta, bytes) = sink.finish().unwrap();
    assert_eq!(meta.n_instr, n as u64);
    bytes
}

fn stream_feed(bytes: Vec<u8>, rob_entries: usize) -> StreamFeed {
    let reader = TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
    StreamFeed::for_core(reader, rob_entries)
}

fn test_cfg() -> SystemConfig {
    SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_prefetcher(PrefetcherKind::IpStride)
        .with_mode(PrefetchMode::OnCommit)
}

/// Runs the streamed system and returns (report debug string, peak
/// resident instructions, configured lookback).
fn run_streamed(
    cfg: &SystemConfig,
    bytes: Vec<u8>,
    warmup: u64,
    measure: u64,
) -> (String, usize, usize) {
    let feed = stream_feed(bytes, cfg.core.rob_entries);
    let lookback = feed.lookback();
    let mut sys = System::from_feeds(cfg.clone(), vec![TraceFeed::Stream(Box::new(feed))])
        .with_window(warmup, measure);
    let stats = sys.feed_stats(0).expect("stream feed has stats");
    sys.run();
    (format!("{:?}", sys.report()), stats.peak(), lookback)
}

fn run_in_memory(cfg: &SystemConfig, name: &str, n: usize, warmup: u64, measure: u64) -> String {
    let trace = Arc::new(suite::trace_by_name(name).unwrap().generate(n));
    format!("{:?}", run_single_with_window(cfg, &trace, warmup, measure))
}

#[test]
fn streamed_report_matches_in_memory() {
    let cfg = test_cfg();
    for name in ["mcf_like_a", "bfs_small"] {
        let n = 6_000;
        let streamed = run_streamed(&cfg, capture(name, n, 1024), 1_000, 4_000).0;
        let mem = run_in_memory(&cfg, name, n, 1_000, 4_000);
        assert_eq!(streamed, mem, "streamed vs in-memory diverged on {name}");
    }
}

#[test]
fn streamed_replay_matches_in_memory() {
    // Window larger than the trace: the run must rewind and replay the
    // stream (multiple times) and still match the in-memory path.
    let cfg = test_cfg();
    let (name, n) = ("mcf_like_a", 3_000);
    let streamed = run_streamed(&cfg, capture(name, n, 512), 1_000, 8_000).0;
    let mem = run_in_memory(&cfg, name, n, 1_000, 8_000);
    assert_eq!(streamed, mem, "replaying streamed run diverged");
}

#[test]
fn peak_residency_is_bounded_by_window_not_trace_length() {
    let cfg = test_cfg();
    let chunk = 1_024usize;
    let n = 60_000;
    let (_, peak, lookback) =
        run_streamed(&cfg, capture("mcf_like_a", n, chunk as u32), 5_000, 50_000);
    // The window holds the chunks covering the lookback span plus one
    // decode-ahead chunk (eviction is whole-chunk, hence the +2).
    let bound = (lookback / chunk + 2) * chunk;
    assert!(peak > 0, "stats must have observed the run");
    assert!(
        peak <= bound,
        "peak resident {peak} instrs exceeds window bound {bound}"
    );
    assert!(bound < n / 4, "bound {bound} too lax to be meaningful");
}

/// Full-scale acceptance run: capture a 1e9-instruction trace to disk
/// and simulate it end-to-end streamed, asserting the same O(chunk +
/// lookback) residency bound. Opt in with
/// `cargo test -p secpref-sim --release --test stream -- --ignored huge`.
#[test]
#[ignore = "hours of CPU"]
fn huge_1e9_capture_simulates_with_bounded_memory() {
    let n: usize = 1_000_000_000;
    let chunk = 64 * 1024usize;
    let path = std::env::temp_dir().join(format!("secpref_huge_{}.sct", std::process::id()));
    {
        let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let w = TraceWriter::create(file, "mcf_like_a", chunk as u32).unwrap();
        let mut sink = CaptureSink::new(w, n);
        suite::trace_by_name("mcf_like_a")
            .unwrap()
            .generate_into(&mut sink);
        let (meta, _) = sink.finish().unwrap();
        assert_eq!(meta.n_instr, n as u64);
    }
    let cfg = test_cfg();
    let feed = StreamFeed::open_for_core(&path, cfg.core.rob_entries).unwrap();
    let lookback = feed.lookback();
    let mut sys =
        System::from_feeds(cfg, vec![TraceFeed::Stream(Box::new(feed))]).with_window(0, n as u64);
    let stats = sys.feed_stats(0).unwrap();
    sys.run();
    let report = sys.report();
    assert!(report.ipc() > 0.0);
    let bound = (lookback / chunk + 2) * chunk;
    assert!(
        stats.peak() <= bound,
        "peak resident {} exceeds bound {bound}",
        stats.peak()
    );
    let _ = std::fs::remove_file(&path);
}
