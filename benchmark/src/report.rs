//! What `secbench` prints and writes: the per-workload tables, the
//! results document, and the one-line result object of the PR driver.

use crate::metrics::{self, END_TO_END};
use crate::stats::{floats_from, Quartiles};
use secpref_exp::json::{obj, Json};

pub const RESULTS_SCHEMA: &str = "secbench-results-v1";

fn text<'a>(o: &'a Json, key: &str) -> &'a str {
    o.get(key).and_then(Json::as_str).unwrap_or("?")
}

pub fn is(o: &Json, key: &str) -> bool {
    o.get(key) == Some(&Json::Bool(true))
}

/// Marks an outcome as the second attempt after an unsettled first one.
pub fn mark_rerun(outcome: Json) -> Json {
    match outcome {
        Json::Obj(mut fields) => {
            fields.push(("rerun".to_string(), Json::Bool(true)));
            Json::Obj(fields)
        }
        other => other,
    }
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// Prints one run: every metric by name with its unit, the per-round
/// values (so a reader can see a bad round), and what failed.
pub fn print_outcome(o: &Json) {
    let traced = is(o, "trace");
    println!(
        "== {} · seed {} · {} · {:.1} s{}{}",
        text(o, "workload"),
        o.get("seed").and_then(Json::as_u64).unwrap_or(0),
        if traced { "traced" } else { "untraced" },
        o.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        if is(o, "unsettled") {
            " · UNSETTLED"
        } else {
            ""
        },
        if is(o, "rerun") {
            " · second attempt"
        } else {
            ""
        },
    );
    let calib = floats_from(o.get("calib_ns"));
    if let [before, after] = calib[..] {
        println!(
            "   host.calib_ns before {:.0}, after {:.0} ({:+.1}%)",
            before,
            after,
            100.0 * (after - before) / before
        );
    }
    if !traced {
        println!(
            "   {:<22} {:>12} {:>12} {:>12} {:>3} {:>12}  {:<12} per-round values",
            "end-to-end metric", "median", "q1", "q3", "n", "best", "unit"
        );
        for m in &END_TO_END {
            let Some(s) = o.get("end_to_end").and_then(|e| e.get(m.name)) else {
                continue;
            };
            let Some(q) = Quartiles::from_json(s) else {
                continue;
            };
            let values: Vec<String> = floats_from(s.get("values"))
                .iter()
                .map(|v| fmt(*v))
                .collect();
            println!(
                "   {:<22} {:>12} {:>12} {:>12} {:>3} {:>12}  {:<12} {}",
                m.name,
                fmt(q.median),
                fmt(q.q1),
                fmt(q.q3),
                q.n,
                s.get("best")
                    .and_then(Json::as_f64)
                    .map_or(String::new(), fmt),
                m.unit,
                if q.n > 1 && q.n <= 8 {
                    values.join(" ")
                } else {
                    String::new()
                }
            );
        }
    } else {
        println!("   {:<36} {:>14}  unit", "per-layer metric", "value");
        for m in metrics::per_layer() {
            if let Some(v) = o
                .get("per_layer")
                .and_then(|l| l.get(&m.name))
                .and_then(Json::as_f64)
            {
                println!("   {:<36} {:>14}  {}", m.name, fmt(v), m.unit);
            }
        }
        if let Some(Json::Obj(spans)) = o.get("span_summary") {
            println!(
                "   {:<36} {:>6} {:>12} {:>12}",
                "span", "calls", "total s", "self s"
            );
            for (name, s) in spans {
                println!(
                    "   {:<36} {:>6} {:>12} {:>12}",
                    name,
                    s.get("calls").and_then(Json::as_u64).unwrap_or(0),
                    fmt(s.get("total_s").and_then(Json::as_f64).unwrap_or(0.0)),
                    fmt(s.get("self_s").and_then(Json::as_f64).unwrap_or(0.0)),
                );
            }
        }
    }
    if let Some(Json::Obj(cells)) = o.get("cells") {
        println!(
            "   {:<58} {:>10} {:>9}  largest phases of host time",
            "cell", "Minstr/s", "sim IPC"
        );
        for (id, c) in cells {
            let num = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let mut phases: Vec<(&str, f64)> = match c.get("phase_share") {
                Some(Json::Obj(p)) => p
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(0.0)))
                    .collect(),
                _ => Vec::new(),
            };
            phases.sort_by(|a, b| b.1.total_cmp(&a.1));
            let top: Vec<String> = phases
                .iter()
                .take(4)
                .map(|(k, v)| format!("{k} {:.0}%", v * 100.0))
                .collect();
            println!(
                "   {:<58} {:>10} {:>9}  {}",
                id,
                fmt(num("minstr_per_s")),
                fmt(num("ipc")),
                top.join(", ")
            );
        }
    }
    let failed = o.get("failed").and_then(Json::as_u64).unwrap_or(0);
    println!(
        "   checks: {} attempted, {failed} failed",
        o.get("attempted").and_then(Json::as_u64).unwrap_or(0)
    );
    for f in o.get("failures").and_then(Json::as_arr).unwrap_or_default() {
        println!("   FAILED: {}", f.as_str().unwrap_or("?"));
    }
}

/// The results document (`--out`): every outcome, minus the raw spans
/// (those go to the trace-event file).
pub fn results_document(seed: u64, seconds: u64, smoke: bool, outcomes: &[Json]) -> String {
    let runs: Vec<Json> = outcomes
        .iter()
        .map(|o| match o {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "spans" && k != "digests")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        })
        .collect();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{RESULTS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n  \"seconds\": {seconds},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"host_threads\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!("    {r}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The last line of a single-workload run: exactly `correct`,
/// `attempted`, `failed` and `metrics` — every listed end-to-end metric
/// for an untraced run, every per-layer metric for a traced one.
pub fn driver_line(o: &Json, attempted: u64, failed: u64) -> Json {
    let entry = |value: f64, unit: &str| {
        obj(vec![
            ("value", Json::Float(value)),
            ("unit", Json::Str(unit.to_string())),
        ])
    };
    let metrics: Vec<(String, Json)> = if is(o, "trace") {
        metrics::per_layer()
            .iter()
            .filter_map(|m| {
                let v = o.get("per_layer")?.get(&m.name)?.as_f64()?;
                Some((m.name.clone(), entry(v, m.unit)))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.universal)
            .filter_map(|m| {
                let v = m.headline(o.get("end_to_end")?.get(m.name)?)?;
                Some((m.name.to_string(), entry(v, m.unit)))
            })
            .collect()
    };
    obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted.max(1))),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}
