//! JSON encoding/decoding of [`SimReport`] for the result store.
//!
//! The five flat counter records (`LevelMetrics`, `PrefetchMetrics`,
//! `CommitMetrics`, `MissClassCounts`, `DramStats`) are declared through
//! `secpref_types::counters!` and go through one generic loop each way
//! over their `NAMES` table — this file names none of their fields, so a
//! new counter needs no edit here. The four mixed records (`SimReport`,
//! `CoreMetrics`, `SamplingSummary`, `MetricStats`) are written out:
//! encoders destructure them exhaustively and decoders build them with
//! full literals, so a new field there is a compile error rather than a
//! silent data loss. Counters stay `u64` end to end; every `f64`
//! round-trips bit-exactly through the shortest-representation formatter
//! in [`crate::json`].

use crate::json::{obj, parse, Json};
use secpref_sim::{
    CommitMetrics, CoreMetrics, DramStats, LevelMetrics, MetricStats, MissClassCounts,
    PrefetchMetrics, SamplingSummary, SimReport,
};

/// Encodes a report as a compact JSON object. The `sampling` block is
/// emitted only for sampled runs, so full-detail reports keep their
/// exact historical byte encoding (and pinned digests).
pub fn encode_report(report: &SimReport) -> Json {
    let SimReport {
        label,
        cores,
        dram,
        energy_nj,
        sampling,
    } = report;
    let mut fields = vec![
        ("label", Json::Str(label.clone())),
        ("energy_nj", Json::Float(*energy_nj)),
        ("dram", encode_counters(&DramStats::NAMES, dram.values())),
        ("cores", Json::Arr(cores.iter().map(encode_core).collect())),
    ];
    if let Some(s) = sampling {
        fields.push(("sampling", encode_sampling(s)));
    }
    obj(fields)
}

/// Decodes a report produced by [`encode_report`].
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn decode_report(json: &Json) -> Result<SimReport, String> {
    Ok(SimReport {
        label: str_field(json, "label")?,
        energy_nj: f64_field(json, "energy_nj")?,
        dram: DramStats::from_values(decode_counters(json, "dram", &DramStats::NAMES)?),
        cores: field(json, "cores")?
            .as_arr()
            .ok_or("cores: not an array")?
            .iter()
            .map(decode_core)
            .collect::<Result<_, _>>()?,
        sampling: match json.get("sampling") {
            Some(s) => Some(decode_sampling(s)?),
            None => None,
        },
    })
}

/// Serializes a report to a JSON string.
pub fn report_to_string(report: &SimReport) -> String {
    encode_report(report).to_string()
}

/// Parses a report from a JSON string.
///
/// # Errors
///
/// Propagates JSON syntax errors and [`decode_report`] field errors.
pub fn report_from_str(s: &str) -> Result<SimReport, String> {
    decode_report(&parse(s)?)
}

/// Encodes one `counters!` record: its names against its values.
fn encode_counters<const N: usize>(names: &[&str; N], values: [u64; N]) -> Json {
    Json::Obj(
        names
            .iter()
            .zip(values)
            .map(|(name, v)| (name.to_string(), Json::UInt(v)))
            .collect(),
    )
}

/// Decodes the `counters!` record stored under `key`, in `names` order.
fn decode_counters<const N: usize>(
    json: &Json,
    key: &str,
    names: &[&str; N],
) -> Result<[u64; N], String> {
    let record = field(json, key)?;
    let mut values = [0; N];
    for (v, name) in values.iter_mut().zip(names) {
        *v = u64_field(record, name)?;
    }
    Ok(values)
}

fn encode_core(c: &CoreMetrics) -> Json {
    let CoreMetrics {
        instructions,
        cycles,
        l1d,
        l2,
        llc,
        dram_accesses,
        gm_accesses,
        prefetch,
        commit,
        class,
        wrong_path_loads,
    } = c;
    let level = |l: &LevelMetrics| encode_counters(&LevelMetrics::NAMES, l.values());
    obj(vec![
        ("instructions", Json::UInt(*instructions)),
        ("cycles", Json::UInt(*cycles)),
        ("l1d", level(l1d)),
        ("l2", level(l2)),
        ("llc", level(llc)),
        ("dram_accesses", Json::UInt(*dram_accesses)),
        ("gm_accesses", Json::UInt(*gm_accesses)),
        (
            "prefetch",
            encode_counters(&PrefetchMetrics::NAMES, prefetch.values()),
        ),
        (
            "commit",
            encode_counters(&CommitMetrics::NAMES, commit.values()),
        ),
        (
            "class",
            encode_counters(&MissClassCounts::NAMES, class.values()),
        ),
        ("wrong_path_loads", Json::UInt(*wrong_path_loads)),
    ])
}

fn decode_core(json: &Json) -> Result<CoreMetrics, String> {
    let level =
        |key| decode_counters(json, key, &LevelMetrics::NAMES).map(LevelMetrics::from_values);
    Ok(CoreMetrics {
        instructions: u64_field(json, "instructions")?,
        cycles: u64_field(json, "cycles")?,
        l1d: level("l1d")?,
        l2: level("l2")?,
        llc: level("llc")?,
        dram_accesses: u64_field(json, "dram_accesses")?,
        gm_accesses: u64_field(json, "gm_accesses")?,
        prefetch: PrefetchMetrics::from_values(decode_counters(
            json,
            "prefetch",
            &PrefetchMetrics::NAMES,
        )?),
        commit: CommitMetrics::from_values(decode_counters(json, "commit", &CommitMetrics::NAMES)?),
        class: MissClassCounts::from_values(decode_counters(
            json,
            "class",
            &MissClassCounts::NAMES,
        )?),
        wrong_path_loads: u64_field(json, "wrong_path_loads")?,
    })
}

fn encode_sampling(s: &SamplingSummary) -> Json {
    let SamplingSummary {
        windows,
        window_len,
        measured_instructions,
        functional_instructions,
        ipc,
        mpki_l1d,
        pf_accuracy,
    } = s;
    obj(vec![
        ("windows", Json::UInt(*windows)),
        ("window_len", Json::UInt(*window_len)),
        ("measured_instructions", Json::UInt(*measured_instructions)),
        (
            "functional_instructions",
            Json::UInt(*functional_instructions),
        ),
        ("ipc", encode_stats(ipc)),
        ("mpki_l1d", encode_stats(mpki_l1d)),
        ("pf_accuracy", encode_stats(pf_accuracy)),
    ])
}

fn decode_sampling(json: &Json) -> Result<SamplingSummary, String> {
    Ok(SamplingSummary {
        windows: u64_field(json, "windows")?,
        window_len: u64_field(json, "window_len")?,
        measured_instructions: u64_field(json, "measured_instructions")?,
        functional_instructions: u64_field(json, "functional_instructions")?,
        ipc: decode_stats(field(json, "ipc")?)?,
        mpki_l1d: decode_stats(field(json, "mpki_l1d")?)?,
        pf_accuracy: decode_stats(field(json, "pf_accuracy")?)?,
    })
}

fn encode_stats(s: &MetricStats) -> Json {
    let MetricStats {
        mean,
        stderr,
        ci_half,
        n,
    } = s;
    obj(vec![
        ("mean", Json::Float(*mean)),
        ("stderr", Json::Float(*stderr)),
        ("ci_half", Json::Float(*ci_half)),
        ("n", Json::UInt(*n)),
    ])
}

fn decode_stats(json: &Json) -> Result<MetricStats, String> {
    Ok(MetricStats {
        mean: f64_field(json, "mean")?,
        stderr: f64_field(json, "stderr")?,
        ci_half: f64_field(json, "ci_half")?,
        n: u64_field(json, "n")?,
    })
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a u64"))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    Ok(field(json, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        let mut core = CoreMetrics {
            instructions: 40_000,
            cycles: 55_321,
            dram_accesses: 1_234,
            gm_accesses: 9_876,
            wrong_path_loads: 321,
            ..Default::default()
        };
        core.l1d.demand_accesses = 17_001;
        core.l1d.demand_misses = 801;
        core.l1d.miss_latency_sum = 64_123;
        core.l1d.miss_latency_count = 801;
        core.l2.prefetch_accesses = 555;
        core.llc.writeback_accesses = 77;
        core.prefetch.proposed = 900;
        core.prefetch.issued = 850;
        core.prefetch.useful = 600;
        core.prefetch.late = 42;
        core.commit.commit_writes = 3_000;
        core.commit.suf_drop_correct = 120;
        core.class.uncovered = 33;
        SimReport {
            label: "Berti/on-commit/GhostMinion+SUF".to_string(),
            cores: vec![core.clone(), core],
            dram: DramStats {
                reads: 1_000,
                writes: 200,
                row_hits: 700,
                row_misses: 500,
                wq_forwards: 12,
            },
            energy_nj: 12_345.678_9,
            sampling: None,
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = sample_report();
        let s = report_to_string(&r);
        let back = report_from_str(&s).unwrap();
        // Serialized forms must match byte for byte (resume determinism).
        assert_eq!(report_to_string(&back), s);
        assert_eq!(back.label, r.label);
        assert_eq!(back.cores.len(), 2);
        assert_eq!(back.cores[0].l1d.demand_misses, 801);
        assert_eq!(back.cores[0].prefetch.late, 42);
        assert_eq!(back.dram.wq_forwards, 12);
        assert_eq!(back.energy_nj.to_bits(), r.energy_nj.to_bits());
    }

    #[test]
    fn full_detail_encoding_is_byte_stable_without_sampling() {
        // The sampling block must be absent (not `null`) for full-detail
        // reports: pinned report digests hash these exact bytes.
        let s = report_to_string(&sample_report());
        assert!(!s.contains("sampling"));
    }

    #[test]
    fn sampled_report_round_trips_exactly() {
        let mut r = sample_report();
        r.sampling = Some(SamplingSummary {
            windows: 5,
            window_len: 2_000,
            measured_instructions: 10_007,
            functional_instructions: 123_456,
            ipc: MetricStats {
                mean: 1.25,
                stderr: 0.125,
                ci_half: 0.347,
                n: 5,
            },
            mpki_l1d: MetricStats::from_samples(&[20.0, 22.0, 19.5, 21.0, 20.5]),
            pf_accuracy: MetricStats::from_samples(&[0.8, 0.82]),
        });
        let s = report_to_string(&r);
        assert!(s.contains("sampling"));
        let back = report_from_str(&s).unwrap();
        assert_eq!(report_to_string(&back), s);
        let sm = back.sampling.unwrap();
        assert_eq!(sm.windows, 5);
        assert_eq!(sm.ipc.mean.to_bits(), 1.25f64.to_bits());
        assert_eq!(sm.pf_accuracy.n, 2);
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = report_from_str(r#"{"label":"x"}"#).unwrap_err();
        assert!(err.contains("energy_nj"), "{err}");
    }

    #[test]
    fn decode_reports_type_errors() {
        let mut s = report_to_string(&sample_report());
        s = s.replace("\"reads\":1000", "\"reads\":\"1000\"");
        let err = report_from_str(&s).unwrap_err();
        assert!(err.contains("reads"), "{err}");
    }
}
