//! The report encoding, pinned byte for byte.
//!
//! `report_to_string`'s bytes are what every pinned digest hashes and what
//! every `results.jsonl` line stores. The digest pins run real cells, in
//! which several counters are always zero — two of those could trade
//! places unnoticed. Here every field of every record holds a distinct
//! non-zero value, and the expected string is the literal the encoder
//! printed before the counter structs were declared through
//! `secpref_types::counters!` (ISSUE 18). The struct literals below name
//! every field with no `..Default::default()`, so a new counter fails to
//! compile here until its place in the encoding is decided.

use secpref_exp::codec::{report_from_str, report_to_string};
use secpref_exp::ResultStore;
use secpref_sim::{
    CommitMetrics, CoreMetrics, DramStats, LevelMetrics, MetricStats, MissClassCounts,
    PrefetchMetrics, SamplingSummary, SimReport,
};

/// Hands out 1001, 1002, … — every counter in the report gets its own
/// value, so a swapped, dropped or repeated field changes the string.
struct Seq(u64);

impl Seq {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    fn level(&mut self) -> LevelMetrics {
        LevelMetrics {
            demand_accesses: self.next(),
            demand_misses: self.next(),
            prefetch_accesses: self.next(),
            commit_accesses: self.next(),
            writeback_accesses: self.next(),
            mshr_occupancy_integral: self.next(),
            mshr_full_cycles: self.next(),
            mshr_full_stalls: self.next(),
            port_stalls: self.next(),
            miss_latency_sum: self.next(),
            miss_latency_count: self.next(),
        }
    }

    fn core(&mut self) -> CoreMetrics {
        CoreMetrics {
            instructions: self.next(),
            cycles: self.next(),
            l1d: self.level(),
            l2: self.level(),
            llc: self.level(),
            dram_accesses: self.next(),
            gm_accesses: self.next(),
            prefetch: PrefetchMetrics {
                proposed: self.next(),
                issued: self.next(),
                dropped_duplicate: self.next(),
                dropped_resources: self.next(),
                useful: self.next(),
                late: self.next(),
                useless: self.next(),
            },
            commit: CommitMetrics {
                commit_writes: self.next(),
                refetches: self.next(),
                suf_dropped: self.next(),
                suf_drop_correct: self.next(),
                suf_drop_wrong: self.next(),
                propagation_skipped: self.next(),
                propagation_skip_correct: self.next(),
                propagation_skip_wrong: self.next(),
                propagations: self.next(),
            },
            class: MissClassCounts {
                late: self.next(),
                commit_late: self.next(),
                missed_opportunity: self.next(),
                uncovered: self.next(),
            },
            wrong_path_loads: self.next(),
        }
    }

    fn stats(&mut self) -> MetricStats {
        MetricStats {
            mean: self.next() as f64 + 0.5,
            stderr: self.next() as f64 / 8.0,
            ci_half: self.next() as f64 / 1024.0,
            n: self.next(),
        }
    }
}

fn golden_report() -> SimReport {
    let mut s = Seq(1000);
    SimReport {
        label: "Berti/on-commit/GhostMinion+SUF \"q\"\\".to_string(),
        cores: vec![s.core(), s.core()],
        dram: DramStats {
            reads: s.next(),
            writes: s.next(),
            row_hits: s.next(),
            row_misses: s.next(),
            wq_forwards: s.next(),
        },
        energy_nj: 12_345.678_9,
        sampling: Some(SamplingSummary {
            windows: s.next(),
            window_len: s.next(),
            measured_instructions: s.next(),
            functional_instructions: s.next(),
            ipc: s.stats(),
            mpki_l1d: s.stats(),
            pf_accuracy: s.stats(),
        }),
    }
}

/// What the parent commit's encoder (f3520b9) prints for
/// [`golden_report`].
const GOLDEN: &str = concat!(
    r#"{"label":"Berti/on-commit/GhostMinion+SUF \"q\"\\","energy_nj":12345.6789,"#,
    r#""dram":{"reads":1117,"writes":1118,"row_hits":1119,"row_misses":1120,"#,
    r#""wq_forwards":1121},"cores":[{"instructions":1001,"cycles":1002,"#,
    r#""l1d":{"demand_accesses":1003,"demand_misses":1004,"prefetch_accesses":1005,"#,
    r#""commit_accesses":1006,"writeback_accesses":1007,"mshr_occupancy_integral":1008,"#,
    r#""mshr_full_cycles":1009,"mshr_full_stalls":1010,"port_stalls":1011,"#,
    r#""miss_latency_sum":1012,"miss_latency_count":1013},"l2":{"demand_accesses":1014,"#,
    r#""demand_misses":1015,"prefetch_accesses":1016,"commit_accesses":1017,"#,
    r#""writeback_accesses":1018,"mshr_occupancy_integral":1019,"mshr_full_cycles":1020,"#,
    r#""mshr_full_stalls":1021,"port_stalls":1022,"miss_latency_sum":1023,"#,
    r#""miss_latency_count":1024},"llc":{"demand_accesses":1025,"demand_misses":1026,"#,
    r#""prefetch_accesses":1027,"commit_accesses":1028,"writeback_accesses":1029,"#,
    r#""mshr_occupancy_integral":1030,"mshr_full_cycles":1031,"mshr_full_stalls":1032,"#,
    r#""port_stalls":1033,"miss_latency_sum":1034,"miss_latency_count":1035},"#,
    r#""dram_accesses":1036,"gm_accesses":1037,"prefetch":{"proposed":1038,"issued":1039,"#,
    r#""dropped_duplicate":1040,"dropped_resources":1041,"useful":1042,"late":1043,"#,
    r#""useless":1044},"commit":{"commit_writes":1045,"refetches":1046,"suf_dropped":1047,"#,
    r#""suf_drop_correct":1048,"suf_drop_wrong":1049,"propagation_skipped":1050,"#,
    r#""propagation_skip_correct":1051,"propagation_skip_wrong":1052,"propagations":1053},"#,
    r#""class":{"late":1054,"commit_late":1055,"missed_opportunity":1056,"uncovered":1057},"#,
    r#""wrong_path_loads":1058},{"instructions":1059,"cycles":1060,"#,
    r#""l1d":{"demand_accesses":1061,"demand_misses":1062,"prefetch_accesses":1063,"#,
    r#""commit_accesses":1064,"writeback_accesses":1065,"mshr_occupancy_integral":1066,"#,
    r#""mshr_full_cycles":1067,"mshr_full_stalls":1068,"port_stalls":1069,"#,
    r#""miss_latency_sum":1070,"miss_latency_count":1071},"l2":{"demand_accesses":1072,"#,
    r#""demand_misses":1073,"prefetch_accesses":1074,"commit_accesses":1075,"#,
    r#""writeback_accesses":1076,"mshr_occupancy_integral":1077,"mshr_full_cycles":1078,"#,
    r#""mshr_full_stalls":1079,"port_stalls":1080,"miss_latency_sum":1081,"#,
    r#""miss_latency_count":1082},"llc":{"demand_accesses":1083,"demand_misses":1084,"#,
    r#""prefetch_accesses":1085,"commit_accesses":1086,"writeback_accesses":1087,"#,
    r#""mshr_occupancy_integral":1088,"mshr_full_cycles":1089,"mshr_full_stalls":1090,"#,
    r#""port_stalls":1091,"miss_latency_sum":1092,"miss_latency_count":1093},"#,
    r#""dram_accesses":1094,"gm_accesses":1095,"prefetch":{"proposed":1096,"issued":1097,"#,
    r#""dropped_duplicate":1098,"dropped_resources":1099,"useful":1100,"late":1101,"#,
    r#""useless":1102},"commit":{"commit_writes":1103,"refetches":1104,"suf_dropped":1105,"#,
    r#""suf_drop_correct":1106,"suf_drop_wrong":1107,"propagation_skipped":1108,"#,
    r#""propagation_skip_correct":1109,"propagation_skip_wrong":1110,"propagations":1111},"#,
    r#""class":{"late":1112,"commit_late":1113,"missed_opportunity":1114,"uncovered":1115},"#,
    r#""wrong_path_loads":1116}],"sampling":{"windows":1122,"window_len":1123,"#,
    r#""measured_instructions":1124,"functional_instructions":1125,"ipc":{"mean":1126.5,"#,
    r#""stderr":140.875,"ci_half":1.1015625,"n":1129},"mpki_l1d":{"mean":1130.5,"#,
    r#""stderr":141.375,"ci_half":1.10546875,"n":1133},"pf_accuracy":{"mean":1134.5,"#,
    r#""stderr":141.875,"ci_half":1.109375,"n":1137}}}"#,
);

#[test]
fn encoding_matches_the_recorded_literal() {
    assert_eq!(report_to_string(&golden_report()), GOLDEN);
}

#[test]
fn golden_literal_decodes_and_re_encodes_to_itself() {
    let back = report_from_str(GOLDEN).expect("golden literal decodes");
    assert_eq!(report_to_string(&back), GOLDEN);
    assert_eq!(back.cores.len(), 2);
    assert_eq!(back.cores[1].class.uncovered, 1115);
    assert_eq!(back.dram.wq_forwards, 1121);
}

#[test]
fn store_line_written_by_the_parent_encoder_loads() {
    let dir = std::env::temp_dir().join(format!("secpref-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let line = format!(
        "{{\"key\":\"00c0ffee00c0ffee\",\"canonical\":\"v1|golden\",\"report\":{GOLDEN}}}\n"
    );
    std::fs::write(store.results_path(), line).unwrap();
    let loaded = store.load();
    let hit = loaded
        .get("00c0ffee00c0ffee")
        .expect("parent-format line loads");
    assert_eq!(hit.canonical, "v1|golden");
    assert_eq!(report_to_string(&hit.report), GOLDEN);
    let _ = std::fs::remove_dir_all(&dir);
}
