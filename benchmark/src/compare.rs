//! `secbench compare A.json B.json`: one row per workload and end-to-end
//! metric, B judged against A with the benchmark's own bounds.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::RESULTS_SCHEMA;
use crate::stats::{floats_from, Quartiles};
use secpref_exp::json::{self, Json};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of either side is wider than the bound and the two
    /// sides' values overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

/// Judges side B against side A: `ha`/`hb` are the judged values
/// (`EndToEnd::headline`), `a`/`b` the samples behind them.
pub fn judge(m: &EndToEnd, (ha, a): (f64, &[f64]), (hb, b): (f64, &[f64])) -> Verdict {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    // How much better B's judged value is, as a share of A's.
    let gain = match m.better {
        Better::Higher => hb - ha,
        Better::Lower => ha - hb,
    };
    if m.exact {
        // Simulated values repeat exactly: any difference is a change.
        return match gain.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Better,
            Some(std::cmp::Ordering::Less) => Verdict::Worse,
            _ => Verdict::Same,
        };
    }
    let gain = if ha == 0.0 { 0.0 } else { gain / ha.abs() };
    let (alo, ahi) = range(a);
    let (blo, bhi) = range(b);
    let overlap = alo <= bhi && blo <= ahi;
    if qa.spread().max(qb.spread()) > m.bound && overlap {
        Verdict::Unresolved
    } else if gain < -m.bound {
        Verdict::Worse
    } else if gain > m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
        return Err(format!(
            "{}: not a {RESULTS_SCHEMA} document",
            path.display()
        ));
    }
    Ok(doc)
}

/// The untraced run of `workload` in a results document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace") == Some(&Json::Bool(false))
    })
}

/// Prints the table; `Ok(false)` when any row reads `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            eprintln!("secbench compare: warning: the two documents differ in `{key}`");
        }
    }
    println!("judged value: fastest sample for host_minstr_per_s and resume_jobs_per_s, median otherwise");
    println!(
        "{:<17} {:<20} {:>10} {:>10} {:>21} {:>10} {:>10} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A judged",
        "A median",
        "A [q1, q3]",
        "B judged",
        "B median",
        "B [q1, q3]",
        "change",
        "bound"
    );
    let (mut rows, mut worse, mut unresolved) = (0, 0, 0);
    for w in crate::workloads::WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced(&a, w.name), untraced(&b, w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let sample = |r: &'_ Json| -> Option<(f64, Vec<f64>)> {
                let s = r.get("end_to_end")?.get(m.name)?;
                Some((m.headline(s)?, floats_from(s.get("values"))))
            };
            let (Some((ha, va)), Some((hb, vb))) = (sample(ra), sample(rb)) else {
                continue;
            };
            let (qa, qb) = (Quartiles::of(&va), Quartiles::of(&vb));
            let verdict = judge(m, (ha, &va), (hb, &vb));
            rows += 1;
            worse += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let change = if ha == 0.0 {
                0.0
            } else {
                100.0 * (hb - ha) / ha
            };
            println!(
                "{:<17} {:<20} {:>10.5} {:>10.5} {:>21} {:>10.5} {:>10.5} {:>21} {:>+7.2}% {:>6}  {}",
                w.name,
                m.name,
                ha,
                qa.median,
                format!("[{:.4}, {:.4}]", qa.q1, qa.q3),
                hb,
                qb.median,
                format!("[{:.4}, {:.4}]", qb.q1, qb.q3),
                change,
                if m.exact { "==".to_string() } else { format!("{:.0}%", m.bound * 100.0) },
                verdict.name()
            );
        }
    }
    println!("{rows} rows: {worse} worse, {unresolved} unresolved (B judged against A)");
    if rows == 0 {
        return Err("the two documents share no untraced run".to_string());
    }
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts() {
        // Judged on the fastest sample, as the run reports it.
        let best = |v: &'static [f64]| (v.iter().copied().fold(0.0, f64::max), v);
        let speed = end_to_end("host_minstr_per_s").unwrap();
        let a = best(&[1.0, 1.01, 0.99]);
        assert_eq!(judge(speed, a, best(&[1.02, 1.0, 1.01])), Verdict::Same);
        assert_eq!(judge(speed, a, best(&[0.6, 0.61, 0.59])), Verdict::Worse);
        assert_eq!(judge(speed, a, best(&[1.5, 1.51, 1.49])), Verdict::Better);
        // Wide spread and overlapping values: the runs cannot tell.
        assert_eq!(
            judge(speed, best(&[1.0, 1.6, 0.7]), best(&[0.9, 1.5, 0.6])),
            Verdict::Unresolved
        );
        let ipc = end_to_end("sim_ipc").unwrap();
        assert_eq!(
            judge(ipc, (0.354, &[0.354]), (0.354, &[0.354])),
            Verdict::Same
        );
        assert_eq!(
            judge(ipc, (0.354, &[0.354]), (0.3541, &[0.3541])),
            Verdict::Better
        );
        let fails = end_to_end("fail_share").unwrap();
        assert_eq!(judge(fails, (0.0, &[0.0]), (0.01, &[0.01])), Verdict::Worse);
    }
}
