//! Component micro-benchmarks: throughput of the substrate structures
//! (cache array, MSHR file, DRAM model, GM, branch predictor) and of each
//! prefetcher's training path. These track simulator performance, which
//! bounds how large an experiment the harness can afford.

use secpref_bench::microbench::MicroBench;
use secpref_cpu::PerceptronPredictor;
use secpref_ghostminion::GmCache;
use secpref_mem::{DramModel, DramRequest, FillAttrs, MshrFile, SetAssocCache};
use secpref_prefetch::{build, simple_access};
use secpref_types::config::DramConfig;
use secpref_types::{Ip, LineAddr, PrefetcherKind};

fn main() {
    let mut mb = MicroBench::new("components");

    {
        let mut cache = SetAssocCache::new(64, 12);
        let mut i = 0u64;
        mb.bench("cache_fill_probe_touch", move || {
            i = i.wrapping_add(97);
            cache.fill(LineAddr::new(i % 4096), FillAttrs::default());
            let hit = cache.probe(LineAddr::new((i / 2) % 4096)).is_some();
            cache.touch(LineAddr::new(i % 4096));
            hit
        });
    }
    {
        let mut mshr = MshrFile::new(16);
        let mut i = 0u64;
        mb.bench("mshr_alloc_complete", move || {
            i += 1;
            if let Ok(t) = mshr.alloc(LineAddr::new(i), false, i, i) {
                std::hint::black_box(mshr.find(LineAddr::new(i)));
                mshr.complete(t);
            }
        });
    }
    {
        let mut dram = DramModel::new(DramConfig::default());
        let mut done = Vec::new();
        let mut now = 0u64;
        let mut i = 0u64;
        mb.bench("dram_enqueue_tick", move || {
            i += 1;
            now += 3;
            let _ = dram.enqueue(DramRequest {
                line: LineAddr::new(i * 13 % 100_000),
                is_write: false,
                token: i,
                arrival: now,
            });
            dram.tick(now, &mut done);
            done.clear();
        });
    }
    {
        let mut gm = GmCache::new(32);
        let mut i = 0u64;
        mb.bench("gm_insert_lookup_remove", move || {
            i += 1;
            gm.insert(LineAddr::new(i % 64), i, 30);
            std::hint::black_box(gm.lookup(LineAddr::new(i % 64), i));
            if i.is_multiple_of(4) {
                gm.remove(LineAddr::new(i % 64));
            }
        });
    }
    {
        let mut p = PerceptronPredictor::new();
        let mut i = 0u64;
        mb.bench("perceptron_predict_update", move || {
            i += 1;
            let ip = Ip::new(0x400 + (i % 13) * 4);
            let pred = p.predict(ip);
            p.update(ip, !i.is_multiple_of(3), pred);
        });
    }
    for kind in PrefetcherKind::EVALUATED {
        let mut p = build(kind);
        let mut out = secpref_prefetch::PfBuf::new();
        let mut i = 0u64;
        mb.bench(&format!("train_{}", kind.name()), move || {
            i += 1;
            // A mix of streaming and region-local traffic.
            let line = if i.is_multiple_of(3) {
                i / 3
            } else {
                50_000 + (i % 512)
            };
            out.clear();
            p.observe_access(
                &simple_access(0x400 + (i % 7) * 8, line, i, i.is_multiple_of(5)),
                &mut out,
            );
            out.len()
        });
    }
    {
        let gen = secpref_trace::suite::trace_by_name("gcc_like").unwrap();
        mb.bench("trace_gen/spec_kernel_10k", move || {
            gen.generate(10_000).instrs.len()
        });
    }
    {
        let gen = secpref_trace::suite::trace_by_name("bfs_small").unwrap();
        mb.bench("trace_gen/gap_bfs_10k", move || {
            gen.generate(10_000).instrs.len()
        });
    }
    mb.finish();
}
