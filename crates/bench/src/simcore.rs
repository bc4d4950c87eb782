//! `simbench`: the committed simulator-throughput baseline.
//!
//! Runs a pinned configuration × trace matrix through the [`MicroBench`]
//! harness and reports **sim-instructions per second** for each cell plus
//! the geometric mean over the matrix. The `simbench` binary writes the
//! result as `BENCH_simcore.json` at the repo root, recording both the
//! current measurement and the pre-optimization baseline so the perf
//! trajectory stays visible in version control (DESIGN.md §10).
//!
//! The matrix is deliberately small and fixed: five configurations that
//! exercise every distinct hot path (non-secure demand flow, on-access
//! prefetch injection, the GhostMinion GM + commit engine, SUF filtering
//! on the commit path, and the TSB timely-secure variant) crossed with
//! three trace classes (pointer-chasing, streaming, graph-irregular).

use crate::configs;
use crate::microbench::MicroBench;
use secpref_exp::json::{self, Json};
use secpref_sim::System;
use secpref_trace::suite;
use secpref_tracestore::{ReadSeek, StreamFeed, TraceReader, TraceWriter};
use secpref_types::{PrefetcherKind, SystemConfig};

/// Warm-up window per cell, in instructions.
pub const WARMUP: u64 = 10_000;
/// Measurement window per cell, in instructions.
pub const MEASURE: u64 = 40_000;

/// Geomean sim-instructions/sec of this matrix measured at the last
/// committed perf baseline (the tree state *before* the prefetch-path
/// overhaul and idle-cycle fast-forward — best-of-3 interleaved runs at
/// `SECPREF_BENCH_MS=200`), on the reference runner. Regenerate per
/// EXPERIMENTS.md ("Regenerating the simulator baseline") when the
/// hardware or the matrix changes; the committed `BENCH_simcore.json`
/// records both this number and the current measurement.
pub const BASELINE_GEOMEAN: f64 = 763_516.0;

/// One cell of the benchmark matrix.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Configuration label (stable, used in the JSON artifact).
    pub config: String,
    /// Trace name.
    pub trace: String,
    /// Measured simulated instructions per wall-clock second.
    pub instr_per_sec: f64,
}

/// The pinned configuration axis: label × config.
///
/// The matrix covers every distinct hot path: the two no-prefetch
/// anchors, **all five** prefetchers on-access (non-secure), all five
/// on-commit behind GhostMinion+SUF (the paper's secure configuration —
/// and the slowest simulator cells, which is exactly why they are
/// measured), and the TSB timely-secure variant.
pub fn config_matrix() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("nonsecure/nopf", configs::nonsecure_nopref()),
        (
            "nonsecure/ip-stride-on-access",
            configs::on_access_nonsecure(PrefetcherKind::IpStride),
        ),
        (
            "nonsecure/ipcp-on-access",
            configs::on_access_nonsecure(PrefetcherKind::Ipcp),
        ),
        (
            "nonsecure/bingo-on-access",
            configs::on_access_nonsecure(PrefetcherKind::Bingo),
        ),
        (
            "nonsecure/spp-ppf-on-access",
            configs::on_access_nonsecure(PrefetcherKind::SppPpf),
        ),
        (
            "nonsecure/berti-on-access",
            configs::on_access_nonsecure(PrefetcherKind::Berti),
        ),
        ("ghostminion/nopf", configs::secure_nopref()),
        (
            "ghostminion+suf/ip-stride-on-commit",
            configs::on_commit_suf(PrefetcherKind::IpStride),
        ),
        (
            "ghostminion+suf/ipcp-on-commit",
            configs::on_commit_suf(PrefetcherKind::Ipcp),
        ),
        (
            "ghostminion+suf/bingo-on-commit",
            configs::on_commit_suf(PrefetcherKind::Bingo),
        ),
        (
            "ghostminion+suf/spp-ppf-on-commit",
            configs::on_commit_suf(PrefetcherKind::SppPpf),
        ),
        (
            "ghostminion+suf/berti-on-commit",
            configs::on_commit_suf(PrefetcherKind::Berti),
        ),
        (
            "tsb+suf/berti",
            configs::timely_secure_suf(PrefetcherKind::Berti),
        ),
    ]
}

/// Whether a matrix cell runs with a prefetcher enabled (the cells the
/// prefetch-path optimisation targets; the speedup criterion is their
/// geomean).
pub fn is_prefetch_on(config_label: &str) -> bool {
    !config_label.ends_with("/nopf")
}

/// The pinned trace axis: one representative per access-pattern class.
pub fn trace_matrix() -> Vec<&'static str> {
    vec!["mcf_like_a", "bwaves_like", "bfs_small"]
}

/// Runs the full matrix, printing the MicroBench table, and returns the
/// per-cell results plus the geometric-mean sim-instructions/sec.
pub fn run_matrix() -> (Vec<CellResult>, f64) {
    let window = WARMUP + MEASURE;
    let mut mb = MicroBench::new("simcore");
    let mut cells = Vec::new();
    for (label, cfg) in config_matrix() {
        for trace_name in trace_matrix() {
            let trace = suite::cached_trace(trace_name, window as usize);
            let name = format!("{label} x {trace_name}");
            let ns = mb.bench_ns(&name, || {
                let mut sys =
                    System::new(cfg.clone(), vec![trace.clone()]).with_window(WARMUP, MEASURE);
                sys.run();
                sys.cycles()
            });
            cells.push(CellResult {
                config: label.to_string(),
                trace: trace_name.to_string(),
                instr_per_sec: window as f64 * 1e9 / ns,
            });
        }
    }
    mb.finish();
    let geomean = geomean(cells.iter().map(|c| c.instr_per_sec));
    (cells, geomean)
}

/// Chunk size used by the streamed-decode throughput benchmark.
const DECODE_CHUNK: u32 = 4_096;

/// Nominal instruction span of the sampled-mode bench in full runs
/// (`simbench --sampled` without a reduced `SECPREF_BENCH_MS` budget):
/// the ≥1e8-instruction streamed run the sampling acceptance criterion
/// is stated over.
pub const SAMPLED_SPAN: u64 = 100_000_000;

/// Committed effective sim-instructions/sec of [`run_sampled_bench`] at
/// the last baseline regeneration (reference runner, full span).
/// Regenerate alongside `BENCH_simcore.json` per EXPERIMENTS.md.
pub const SAMPLED_BASELINE_EFFECTIVE: f64 = 10_600_000.0;

/// Result of the sampled-mode (SMARTS) throughput benchmark.
#[derive(Clone, Debug)]
pub struct SampledBenchResult {
    /// Configuration label (a [`config_matrix`] label).
    pub config: String,
    /// Trace description (streamed `.sct`).
    pub trace: String,
    /// The sampling plan's canonical string.
    pub plan: String,
    /// Nominal instruction span of the sampled run (warm-up excluded).
    pub span_instructions: u64,
    /// Detailed measurement windows taken inside the span.
    pub windows: u64,
    /// Full-detail throughput on the same streamed cell (instr/sec).
    pub full_detail_instr_per_sec: f64,
    /// Effective sampled-mode throughput: nominal instructions covered
    /// (functional + detailed) per wall-clock second.
    pub effective_sim_instr_per_sec: f64,
    /// `effective / full_detail` — the sampling speedup.
    pub speedup_vs_full_detail: f64,
}

/// Runs the sampled-mode throughput benchmark (`simbench --sampled`):
/// one GhostMinion+SUF cell streamed from an on-disk `.sct` chunk store,
/// once in full detail (short window, to price the detailed path) and
/// once in SMARTS sampled mode over the long span. The effective rate is
/// nominal span instructions per wall-clock second; the quotient against
/// the full-detail rate is the speedup the sampling subsystem buys.
///
/// Honors `SECPREF_BENCH_MS`: a reduced budget (smoke mode) shrinks both
/// spans so the tier-1 stage only checks plumbing, not timing quality.
pub fn run_sampled_bench() -> SampledBenchResult {
    let budget_ms = std::env::var("SECPREF_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let (full_measure, span) = match budget_ms {
        Some(ms) if ms < 200 => (100_000, 1_000_000),
        _ => (2_000_000, SAMPLED_SPAN),
    };
    let (label, cfg) = ("ghostminion+suf/ip-stride-on-commit", {
        configs::on_commit_suf(PrefetcherKind::IpStride)
    });
    let trace_name = "mcf_like_a";
    // Capture the trace into a chunked .sct store (what `sectrace` would
    // produce) and stream both runs from disk: the sampled path must pay
    // the same decode cost it pays in production.
    let base = suite::cached_trace(trace_name, 200_000);
    let path = std::env::temp_dir().join(format!(
        "secpref-simbench-sampled-{}.sct",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("writing sampled-bench trace store");
    let mut w = TraceWriter::create(file, trace_name, DECODE_CHUNK).expect("trace store write");
    for i in base.instrs.iter() {
        w.push(i).expect("trace store write");
    }
    w.finish().expect("trace store write");

    // Full detail first (best of 2: the first run also warms the page
    // cache for the stream reads).
    let mut full_rate = 0.0f64;
    for _ in 0..2 {
        let t = std::time::Instant::now();
        let _ = secpref_sim::run_stream_with_window(&cfg, &path, WARMUP, full_measure)
            .expect("streamed full-detail run");
        let rate = (WARMUP + full_measure) as f64 / t.elapsed().as_secs_f64();
        full_rate = full_rate.max(rate);
    }

    // Sparser than the validation plan (check::sampling) on purpose: the
    // throughput bench measures the asymptotic rate over a long span, so
    // it spends its detailed budget on 500 windows rather than 1000 —
    // accuracy validation lives in `repro --sampled`, not here.
    let s = secpref_types::SamplingConfig::new(2_000, 500, 197_500).with_jitter(300, 11);
    let t = std::time::Instant::now();
    let report = secpref_sim::run_stream_sampled_with_window(&cfg, &path, WARMUP, span, &s)
        .expect("streamed sampled run");
    let effective = (WARMUP + span) as f64 / t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let summary = report
        .sampling
        .as_ref()
        .expect("sampled run carries a sampling summary");
    SampledBenchResult {
        config: label.to_string(),
        trace: format!("{trace_name} (streamed .sct)"),
        plan: s.canonical(),
        span_instructions: span,
        windows: summary.windows,
        full_detail_instr_per_sec: full_rate,
        effective_sim_instr_per_sec: effective,
        speedup_vs_full_detail: effective / full_rate,
    }
}

/// Measures sequential chunk-store decode throughput (instructions per
/// second through a sliding-window [`StreamFeed`] scan) over the pinned
/// trace axis and returns the geomean. This is the streamed path's
/// decode-side cost in isolation — no simulator attached — recorded in
/// `BENCH_simcore.json` so decode-speed regressions are visible in the
/// committed artifact even though they do not gate the guard band.
pub fn run_decode_bench() -> f64 {
    let n = (WARMUP + MEASURE) as usize;
    let mut mb = MicroBench::new("stream-decode");
    let mut rates = Vec::new();
    for trace_name in trace_matrix() {
        let trace = suite::cached_trace(trace_name, n);
        let mut w = TraceWriter::create(Vec::new(), trace_name, DECODE_CHUNK).expect("vec write");
        for i in trace.instrs.iter() {
            w.push(i).expect("vec write");
        }
        let (_, bytes) = w.finish().expect("vec write");
        let ns = mb.bench_ns(&format!("decode x {trace_name}"), || {
            let reader = TraceReader::open(
                Box::new(std::io::Cursor::new(bytes.clone())) as Box<dyn ReadSeek>
            )
            .expect("store just written");
            let mut feed = StreamFeed::new(reader, 256);
            let mut acc = 0u64;
            for i in 0..n {
                acc ^= feed.get(i).ip.raw();
            }
            acc
        });
        rates.push(n as f64 * 1e9 / ns);
    }
    mb.finish();
    geomean(rates.into_iter())
}

/// What `simbench --profile` prints: the matrix-wide phase attribution
/// and, beside it, how much event handling the full-detail cells did.
#[derive(Clone, Debug)]
pub struct MatrixProfile {
    /// Wall time per phase, merged over every cell.
    pub phases: secpref_sim::ProfileReport,
    /// Request walks, ticked cycles, request records read for blocked
    /// requests and load-queue slots examined, summed over the
    /// full-detail cells (the sampled cell is left out: its cycle count
    /// covers only the detailed windows), and the longest wait list any
    /// of them saw.
    pub driver: secpref_sim::DriverCounts,
    /// Instructions (warm-up + measured) of the same cells: the base of
    /// walks per instruction.
    pub instructions: u64,
    /// Simulated cycles of the same cells: the base of the ticked share.
    pub cycles: u64,
}

impl std::fmt::Display for MatrixProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.phases)?;
        let d = &self.driver;
        write!(
            f,
            "detailed driver: {:.2} request walks/instr ({} over {} instrs), \
             {:.1}% of cycles ticked ({} of {}), wait-list high water {}, \
             {:.2} blocked-request record reads/instr ({}), \
             {:.2} load-queue slots examined/instr ({})",
            d.walks as f64 / self.instructions.max(1) as f64,
            d.walks,
            self.instructions,
            100.0 * d.ticked_cycles as f64 / self.cycles.max(1) as f64,
            d.ticked_cycles,
            self.cycles,
            d.wait_high_water,
            d.blocked_req_reads as f64 / self.instructions.max(1) as f64,
            d.blocked_req_reads,
            d.lq_slots_examined as f64 / self.instructions.max(1) as f64,
            d.lq_slots_examined,
        )
    }
}

/// Runs one pass of the matrix with the phase profiler enabled and
/// returns the aggregated wall-time attribution (`simbench --profile`).
///
/// Each cell simulates the full warm-up + measurement window exactly
/// once (no repetition — profiling wants attribution, not variance
/// control) and the per-cell profiles are merged into one ranked table.
pub fn run_profile() -> MatrixProfile {
    let window = WARMUP + MEASURE;
    let mut agg = MatrixProfile {
        phases: secpref_sim::ProfileReport::empty(),
        driver: secpref_sim::DriverCounts::default(),
        instructions: 0,
        cycles: 0,
    };
    for (label, cfg) in config_matrix() {
        for trace_name in trace_matrix() {
            let trace = suite::cached_trace(trace_name, window as usize);
            let mut sys = System::new(cfg.clone(), vec![trace])
                .with_window(WARMUP, MEASURE)
                .with_profiling();
            sys.run();
            let cell = sys.profile_report();
            eprintln!(
                "[profile] {label} x {trace_name}: {:.1} ms",
                cell.total().as_secs_f64() * 1e3
            );
            agg.phases.merge(&cell);
            let d = sys.driver_counts();
            agg.driver.walks += d.walks;
            agg.driver.ticked_cycles += d.ticked_cycles;
            agg.driver.wait_high_water = agg.driver.wait_high_water.max(d.wait_high_water);
            agg.driver.blocked_req_reads += d.blocked_req_reads;
            agg.driver.lq_slots_examined += d.lq_slots_examined;
            agg.instructions += window;
            agg.cycles += sys.cycles();
        }
    }
    // One sampled cell on top, so the functional-warming phase
    // (`funcwarm`) gets real attribution in the ranked table instead of
    // a zero row: the full-detail matrix never enters that phase.
    let cfg = configs::on_commit_suf(PrefetcherKind::IpStride);
    let trace = suite::cached_trace("mcf_like_a", window as usize);
    let s = secpref_types::SamplingConfig::new(2_000, 500, 47_500).with_jitter(300, 11);
    let mut sys = System::new(cfg, vec![trace])
        .with_window(WARMUP, 500_000)
        .with_profiling();
    sys.run_sampled(&s);
    let cell = sys.profile_report();
    eprintln!(
        "[profile] ghostminion+suf/ip-stride-on-commit x mcf_like_a (sampled): {:.1} ms",
        cell.total().as_secs_f64() * 1e3
    );
    agg.phases.merge(&cell);
    agg
}

/// Renders an aggregated phase profile as Chrome trace-event JSON — the
/// same exporter the experiment engine uses for sweep span traces, so
/// `simbench --profile` output loads in Perfetto alongside them. Phases
/// are laid end to end on one track as complete (`ph: "X"`) spans, in
/// report order, each annotated with its enter count.
pub fn profile_trace_json(report: &secpref_sim::ProfileReport) -> String {
    let mut tb = secpref_telemetry::TraceBuilder::new();
    tb.thread_name(0, "phases");
    let mut at_us = 0u64;
    for row in &report.rows {
        let dur = row.time.as_micros() as u64;
        let enters = row.enters.to_string();
        tb.complete(0, row.phase.name(), at_us, dur, &[("enters", &enters)]);
        at_us += dur;
    }
    tb.finish()
}

/// Geometric mean of a positive sequence (0.0 when empty).
pub fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in vals {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Renders the `BENCH_simcore.json` document. `stream_decode` is the
/// [`run_decode_bench`] geomean (instructions/sec); `sampled` is the
/// [`run_sampled_bench`] result when the run included `--sampled`
/// (absent otherwise — older artifacts without the block stay valid).
pub fn render_json(
    cells: &[CellResult],
    geomean: f64,
    baseline: f64,
    stream_decode: f64,
    sampled: Option<&SampledBenchResult>,
) -> String {
    let cell_rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            json::obj(vec![
                ("config", Json::Str(c.config.clone())),
                ("trace", Json::Str(c.trace.clone())),
                ("sim_instr_per_sec", Json::Float(c.instr_per_sec)),
            ])
        })
        .collect();
    let speedup = if baseline > 0.0 {
        geomean / baseline
    } else {
        0.0
    };
    let mut fields = vec![
        ("schema", Json::Str("secpref-simbench-v1".to_string())),
        (
            "window",
            json::obj(vec![
                ("warmup", Json::UInt(WARMUP)),
                ("measure", Json::UInt(MEASURE)),
            ]),
        ),
        ("cells", Json::Arr(cell_rows)),
        ("geomean_sim_instr_per_sec", Json::Float(geomean)),
        ("baseline_geomean_sim_instr_per_sec", Json::Float(baseline)),
        ("speedup_vs_baseline", Json::Float(speedup)),
        ("stream_decode_instr_per_sec", Json::Float(stream_decode)),
    ];
    if let Some(s) = sampled {
        fields.push((
            "sampled",
            json::obj(vec![
                ("config", Json::Str(s.config.clone())),
                ("trace", Json::Str(s.trace.clone())),
                ("plan", Json::Str(s.plan.clone())),
                ("span_instructions", Json::UInt(s.span_instructions)),
                ("windows", Json::UInt(s.windows)),
                (
                    "full_detail_instr_per_sec",
                    Json::Float(s.full_detail_instr_per_sec),
                ),
                (
                    "effective_sim_instr_per_sec",
                    Json::Float(s.effective_sim_instr_per_sec),
                ),
                (
                    "speedup_vs_full_detail",
                    Json::Float(s.speedup_vs_full_detail),
                ),
            ]),
        ));
    }
    let doc = json::obj(fields);
    format!("{doc}\n")
}

/// The numbers [`parse_json`] recovers from a `BENCH_simcore.json`
/// document.
#[derive(Clone, Copy, Debug)]
pub struct ParsedBench {
    /// Full-detail matrix geomean (sim-instr/sec).
    pub geomean: f64,
    /// Committed pre-optimization baseline geomean.
    pub baseline: f64,
    /// `geomean / baseline`.
    pub speedup: f64,
    /// `(effective_sim_instr_per_sec, speedup_vs_full_detail)` from the
    /// sampled block, when the artifact carries one.
    pub sampled: Option<(f64, f64)>,
}

/// Parses a `BENCH_simcore.json` document back — the smoke stage's
/// validation hook and the guard's committed-artifact reader.
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn parse_json(text: &str) -> Result<ParsedBench, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some("secpref-simbench-v1") {
        return Err("missing or unknown schema".to_string());
    }
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field `{k}`"))
    };
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing `cells` array".to_string())?;
    if cells.is_empty() {
        return Err("empty `cells` array".to_string());
    }
    let sampled = match doc.get("sampled") {
        None => None,
        Some(s) => {
            let sf = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("missing numeric field `sampled.{k}`"))
            };
            Some((
                sf("effective_sim_instr_per_sec")?,
                sf("speedup_vs_full_detail")?,
            ))
        }
    };
    Ok(ParsedBench {
        geomean: field("geomean_sim_instr_per_sec")?,
        baseline: field("baseline_geomean_sim_instr_per_sec")?,
        speedup: field("speedup_vs_baseline")?,
        sampled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_trace_export_is_valid_and_ordered() {
        use secpref_sim::{Phase, ProfileReport, ProfileRow};
        use std::time::Duration;
        let report = ProfileReport {
            rows: vec![
                ProfileRow {
                    phase: Phase::Core,
                    time: Duration::from_micros(120),
                    enters: 7,
                },
                ProfileRow {
                    phase: Phase::Dram,
                    time: Duration::from_micros(30),
                    enters: 2,
                },
            ],
        };
        let json = profile_trace_json(&report);
        let stats = secpref_exp::validate_trace_json(&json).expect("profile trace must validate");
        // thread_name metadata + one X span per row.
        assert_eq!(stats.events, 3);
        assert_eq!(stats.tracks, 1);
        // Spans are laid end to end: second starts where the first ends.
        assert!(json.contains("\"ts\":0,\"dur\":120"), "{json}");
        assert!(json.contains("\"ts\":120,\"dur\":30"), "{json}");
        assert!(json.contains("\"enters\":\"7\""), "{json}");
    }

    #[test]
    fn empty_profile_trace_is_a_valid_shell() {
        use secpref_sim::ProfileReport;
        // An all-zero aggregation seed still carries one zero-length span
        // per phase (plus the track-name metadata record).
        let json = profile_trace_json(&ProfileReport::empty());
        let stats = secpref_exp::validate_trace_json(&json).expect("empty profile trace validates");
        assert_eq!(stats.tracks, 1);
        assert_eq!(stats.events, 1 + secpref_sim::PHASES);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
        let g = geomean([2.0, 8.0].into_iter());
        assert!((g - 4.0).abs() < 1e-12, "{g}");
    }

    #[test]
    fn json_round_trips() {
        let cells = vec![
            CellResult {
                config: "a".into(),
                trace: "t1".into(),
                instr_per_sec: 1.5e6,
            },
            CellResult {
                config: "b".into(),
                trace: "t2".into(),
                instr_per_sec: 2.5e6,
            },
        ];
        let g = geomean(cells.iter().map(|c| c.instr_per_sec));
        let text = render_json(&cells, g, 1.0e6, 5.0e7, None);
        assert!(text.contains("stream_decode_instr_per_sec"));
        assert!(!text.contains("\"sampled\""));
        let p = parse_json(&text).unwrap();
        assert_eq!(p.geomean, g);
        assert_eq!(p.baseline, 1.0e6);
        assert!((p.speedup - g / 1.0e6).abs() < 1e-12);
        assert!(p.sampled.is_none());
    }

    #[test]
    fn sampled_block_round_trips() {
        let cells = vec![CellResult {
            config: "a".into(),
            trace: "t1".into(),
            instr_per_sec: 1.5e6,
        }];
        let s = SampledBenchResult {
            config: "ghostminion+suf/ip-stride-on-commit".into(),
            trace: "mcf_like_a (streamed .sct)".into(),
            plan: "w2000+u500/g97500~j300s11".into(),
            span_instructions: 100_000_000,
            windows: 997,
            full_detail_instr_per_sec: 9.5e5,
            effective_sim_instr_per_sec: 1.0e7,
            speedup_vs_full_detail: 10.5,
        };
        let text = render_json(&cells, 1.5e6, 1.0e6, 5.0e7, Some(&s));
        assert!(text.contains("effective_sim_instr_per_sec"));
        assert!(text.contains("w2000+u500/g97500~j300s11"));
        let p = parse_json(&text).unwrap();
        let (eff, speedup) = p.sampled.expect("sampled block survives the round trip");
        assert_eq!(eff, 1.0e7);
        assert_eq!(speedup, 10.5);
        // A corrupted sampled block is an error, not silently dropped.
        let broken = text.replace("effective_sim_instr_per_sec", "effective_oops");
        assert!(parse_json(&broken).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{}").is_err());
        assert!(parse_json("not json").is_err());
    }

    #[test]
    fn matrix_axes_are_known() {
        for t in trace_matrix() {
            assert!(suite::trace_by_name(t).is_some(), "{t}");
        }
        for (_, cfg) in config_matrix() {
            assert!(cfg.validate().is_ok());
        }
    }
}
