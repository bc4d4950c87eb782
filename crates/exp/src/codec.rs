//! JSON encoding/decoding of [`SimReport`] for the result store.
//!
//! The counter records (`CoreMetrics` and the records it nests,
//! `DramStats`) are declared through `secpref_types::counters!` and go
//! through one generic `encode` and one `decode` over that
//! declaration's walk: a nested record is a nested object, and
//! declaration order is byte order. This file names none of their
//! fields, so a new counter needs no edit here. The other records
//! (`SimReport`, `SamplingSummary`, `MetricStats`) are written out:
//! encoders destructure them exhaustively and decoders build them with
//! full literals, so a new field there is a compile error rather than a
//! silent data loss. Counters stay `u64` end to end; every `f64`
//! round-trips bit-exactly through the shortest-representation formatter
//! in [`crate::json`].

use crate::json::{obj, parse, Json};
use secpref_sim::{MetricStats, SamplingSummary, SimReport};
use secpref_types::counters::Counter;

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
        ("dram", encode(dram)),
        ("cores", Json::Arr(cores.iter().map(encode).collect())),
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
        dram: decode(field(json, "dram")?)?,
        cores: field(json, "cores")?
            .as_arr()
            .ok_or("cores: not an array")?
            .iter()
            .map(decode)
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

/// Encodes a `counters!` record as an object of its fields in
/// declaration order, a nested record as a nested object.
fn encode<C: Counter>(record: &C) -> Json {
    let mut fields = Vec::new();
    record.clone().walk(&mut Vec::new(), &mut |path, v| {
        let (leaf, parents) = path.split_last().expect("a leaf has a name");
        let mut obj = &mut fields;
        for &p in parents {
            // Leaves of one nested record are contiguous: a field name
            // differing from the last one opens that record's object.
            if obj.last().is_none_or(|(k, _)| k != p) {
                obj.push((p.to_string(), Json::Obj(Vec::new())));
            }
            let Some((_, Json::Obj(inner))) = obj.last_mut() else {
                unreachable!("just pushed an object")
            };
            obj = inner;
        }
        obj.push((leaf.to_string(), Json::UInt(*v)));
    });
    Json::Obj(fields)
}

/// Decodes a `counters!` record produced by [`encode`]. An error names
/// the first missing or mistyped leaf by its path (`l1d.port_stalls`).
fn decode<C: Counter>(json: &Json) -> Result<C, String> {
    let mut record = C::default();
    let mut err = None;
    record.walk(&mut Vec::new(), &mut |path, v| {
        if err.is_some() {
            return;
        }
        let leaf = path.iter().try_fold(json, |j, k| j.get(k));
        match leaf.map(Json::as_u64) {
            Some(Some(x)) => *v = x,
            Some(None) => err = Some(format!("field `{}` is not a u64", path.join("."))),
            None => err = Some(format!("missing field `{}`", path.join("."))),
        }
    });
    err.map_or(Ok(record), Err)
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
        let mut core = secpref_sim::CoreMetrics {
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
            dram: secpref_sim::DramStats {
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
    fn decode_names_a_missing_counter_by_its_path() {
        let s = report_to_string(&sample_report());
        let s = s.replacen("\"port_stalls\":0,", "", 1);
        let err = report_from_str(&s).unwrap_err();
        assert_eq!(err, "missing field `l1d.port_stalls`");
    }

    #[test]
    fn decode_reports_type_errors() {
        let mut s = report_to_string(&sample_report());
        s = s.replace("\"reads\":1000", "\"reads\":\"1000\"");
        let err = report_from_str(&s).unwrap_err();
        assert!(err.contains("reads"), "{err}");
    }
}
