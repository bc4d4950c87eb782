//! The metric catalogue: every name `secbench` prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which its median
//! may get worse before that counts as a regression. `BENCHMARK.json` is
//! generated from these tables (`secbench manifest`), and `compare` reads
//! its bounds from them, so the three cannot drift apart.

use crate::workloads::{kind_slug, DEFAULT_SECONDS, WORKLOADS};
use secpref_exp::json::{obj, Json};
use secpref_types::PrefetcherKind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the other side's median the metric may be worse by.
    pub bound: f64,
    /// Simulated, not host time: at one seed it repeats exactly, and
    /// `compare` holds it to `==`. The bound then only has to cover the
    /// spread across the seeds the PR driver varies.
    pub exact: bool,
    /// Listed in `BENCHMARK.json`: reported by every workload, never 0,
    /// and steady enough on the shared box to reject a PR by.
    pub universal: bool,
    /// The value judged is the fastest sample, not the median. The noise
    /// of the shared box only ever slows a sample down, and measured over
    /// ten runs the fastest sample spread a half to a fifth as wide as the
    /// median (README, "Noise"). Median and quartiles are printed beside it.
    pub best_of: bool,
}

/// Host-time metrics get the widest bound the contract allows: on the
/// shared 2-core box whole runs come out 20–45% slower for tens of
/// seconds at a time (README, "Noise"), which no repetition inside one
/// run removes.
const HOST_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: HOST_BOUND,
        exact: false,
        universal: true,
        best_of: false,
    },
    EndToEnd {
        name: "host_minstr_per_s",
        unit: "Minstr/s",
        better: Better::Higher,
        bound: HOST_BOUND,
        exact: false,
        universal: true,
        best_of: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        // The allocator keeps or returns one freed 8 MB array (a core's
        // per-instruction completion table) from run to run: 40.8 or 47.8
        // MiB on `nonsecure_stream`. The bound clears that step.
        bound: 0.2,
        exact: false,
        universal: true,
        best_of: false,
    },
    EndToEnd {
        name: "sim_ipc",
        unit: "instr/cycle",
        better: Better::Higher,
        bound: 0.1,
        exact: true,
        universal: true,
        best_of: false,
    },
    EndToEnd {
        name: "resume_jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: HOST_BOUND,
        exact: false,
        // Every workload reports it, but two runs of one commit have read
        // 32% apart on the small stores (README, "Noise"): not a number to
        // reject a PR by, so it stays out of `BENCHMARK.json`.
        universal: false,
        best_of: true,
    },
    EndToEnd {
        name: "fail_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
        universal: false,
        best_of: false,
    },
    EndToEnd {
        name: "secure_pf_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.0,
        exact: true,
        universal: false,
        best_of: false,
    },
    EndToEnd {
        name: "sampled_ipc_err_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
        universal: false,
        best_of: false,
    },
];

impl EndToEnd {
    /// The value of a sample document (`run::sample_json`) that is judged:
    /// its fastest sample for a `best_of` metric, else its median.
    pub fn headline(&self, sample: &Json) -> Option<f64> {
        let key = if self.best_of { "best" } else { "median" };
        sample.get(key)?.as_f64()
    }
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Clone, Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

const PHASES: [&str; 10] = [
    "core",
    "l1d",
    "l2",
    "llc",
    "gm",
    "prefetcher",
    "dram",
    "classifier",
    "funcwarm",
    "other",
];

/// Every per-layer metric, in the order the tables print them.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push((name.to_string(), unit, better));
    };
    add("trace.gen_ns_per_instr", "ns/instr", Lower);
    add("tracestore.encode_ns_per_instr", "ns/instr", Lower);
    add("tracestore.decode_ns_per_instr", "ns/instr", Lower);
    add("tracestore.bytes_per_instr", "B/instr", Lower);
    add("tracestore.replay_hit_share", "share", Higher);
    add("mem.cache_lookup_ns", "ns", Lower);
    add("mem.cache_fill_ns", "ns", Lower);
    add("mem.cache_hit_share", "share", Higher);
    add("mem.mshr_alloc_ns", "ns", Lower);
    add("mem.mshr_merge_share", "share", Higher);
    add("mem.dram_req_ns", "ns", Lower);
    add("mem.dram_rowhit_share", "share", Higher);
    add("cpu.core_tick_ns_per_instr", "ns/instr", Lower);
    add("cpu.bp_predict_update_ns", "ns", Lower);
    add("cpu.functional_step_ns_per_instr", "ns/instr", Lower);
    add("ghostminion.gm_op_ns", "ns", Lower);
    add("ghostminion.gm_hit_share", "share", Higher);
    for k in PrefetcherKind::EVALUATED.map(kind_slug) {
        add(&format!("prefetch.{k}.train_ns"), "ns", Lower);
        add(&format!("prefetch.{k}.cand_per_train"), "count", Higher);
    }
    add("core.suf_decide_ns", "ns", Lower);
    add("core.tsb_train_ns", "ns", Lower);
    add("core.ts_train_ns", "ns", Lower);
    add("sim.build_s", "s", Lower);
    add("sim.run_s", "s", Lower);
    add("sim.report_s", "s", Lower);
    add("sim.host_ns_per_instr", "ns/instr", Lower);
    add("sim.host_ns_per_cycle", "ns/cycle", Lower);
    add("sim.func_walk_ns_per_load", "ns/load", Lower);
    for p in PHASES {
        add(&format!("sim.phase.{p}"), "share", Lower);
    }
    add("sim.l1d_mpki", "1/kinstr", Lower);
    add("sim.l2_mpki", "1/kinstr", Lower);
    add("sim.llc_mpki", "1/kinstr", Lower);
    add("sim.mshr_full_stalls_pki", "1/kinstr", Lower);
    add("sim.port_stalls_pki", "1/kinstr", Lower);
    add("sim.pf_accuracy", "share", Higher);
    add("sim.pf_late_share", "share", Lower);
    add("sim.commit_refetch_pki", "1/kinstr", Lower);
    add("sim.suf_accuracy", "share", Higher);
    add("sim.secure_pf_speedup", "x", Higher);
    add("sim.sampled_ipc_err_pct", "%", Lower);
    add("obs.on_slowdown", "x", Lower);
    add("obs.events_per_kinstr", "1/kinstr", Lower);
    add("telemetry.on_slowdown", "x", Lower);
    add("exp.dedup_s", "s", Lower);
    add("exp.resolve_s", "s", Lower);
    add("exp.trace_acquire_s", "s", Lower);
    add("exp.simulate_s", "s", Lower);
    add("exp.store_append_s", "s", Lower);
    add("exp.manifest_s", "s", Lower);
    add("exp.utilization", "share", Higher);
    add("exp.dedup_hit_share", "share", Higher);
    add("exp.store_load_ns_per_row", "ns/row", Lower);
    add("exp.store_append_ns_per_row", "ns/row", Lower);
    add("exp.codec_encode_ns", "ns", Lower);
    add("exp.codec_decode_ns", "ns", Lower);
    add("exp.json_parse_mb_per_s", "MB/s", Higher);
    add("exp.store_bytes_per_row", "B/row", Lower);
    add("exp.overhead_vs_raw", "x", Lower);
    add("host.calib_ns", "ns", Lower);
    add("trace_overhead", "x", Lower);
    v.into_iter()
        .map(|(name, unit, better)| PerLayer { name, unit, better })
        .collect()
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--bin",
                    "secbench",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::UInt(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.universal)
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                            ("bound", Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `manifest()` laid out one entry per line, for a readable diff.
pub fn manifest_text() -> String {
    let m = manifest();
    let Json::Obj(fields) = &m else {
        unreachable!("the manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let sep = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let isep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{isep}\n"));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            _ => out.push_str(&format!("  \"{key}\": {value}{sep}\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_fits_the_contract() {
        let layers = per_layer();
        assert_eq!(layers.len(), 77);
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(layers.iter().all(|m| ok_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(manifest_text().len() < 64 * 1024);
    }
}
