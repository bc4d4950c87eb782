//! Layer kernels: each structure driven in isolation through its public
//! API by the workload's own load/IP stream. The misses of one level feed
//! the next level's kernel, so every kernel sees the access mix the
//! workload would hand it, minus the timing.
//!
//! A kernel first replays the stream functionally to learn each access's
//! outcome, then times plain loops of one operation each: a clock read
//! costs more than most of these operations, so nothing is timed per call.

use crate::inputs::SCT_CHUNK;
use secpref_core::{build_timely_secure, SecureUpdateFilter, Tsb};
use secpref_cpu::{Core, FunctionalPort, LoadIssue, LoadPort, PerceptronPredictor};
use secpref_ghostminion::{AlwaysUpdate, GmCache, UpdateFilter};
use secpref_mem::{DramModel, DramRequest, FillAttrs, MshrFile, SetAssocCache};
use secpref_prefetch::{AccessEvent, Feedback, FillEvent, PfBuf, Prefetcher};
use secpref_sim::hierarchy::Hierarchy;
use secpref_trace::{InstrKind, Trace};
use secpref_tracestore::{ReadSeek, StreamFeed, TraceReader, TraceWriter};
use secpref_types::config::{CacheConfig, CoreConfig, DramConfig};
use secpref_types::{
    Addr, CoreId, Cycle, FillInfo, HitLevel, Ip, LineAddr, PrefetcherKind, SystemConfig,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Memory operations a kernel stream holds at most.
const STREAM_CAP: usize = 400_000;
/// Instructions the core and trace-store kernels run over.
const INSTR_CAP: usize = 400_000;

#[derive(Clone, Copy, Debug)]
struct Access {
    ip: Ip,
    addr: Addr,
    store: bool,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

fn per(total_ns: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total_ns / ops as f64
    }
}

/// The workload's memory operations, traces taken in turn.
fn accesses(traces: &[Arc<Trace>]) -> Vec<Access> {
    let per_trace = STREAM_CAP / traces.len().max(1);
    let mut out = Vec::new();
    for t in traces {
        out.extend(
            t.instrs
                .iter()
                .filter_map(|i| match i.kind {
                    InstrKind::Load { addr, .. } => Some(Access {
                        ip: i.ip,
                        addr,
                        store: false,
                    }),
                    InstrKind::Store { addr } => Some(Access {
                        ip: i.ip,
                        addr,
                        store: true,
                    }),
                    _ => None,
                })
                .take(per_trace),
        );
    }
    out
}

struct LevelWalk {
    /// Per access of the level's input stream: did it hit?
    hit: Vec<bool>,
    lookups: u64,
    hits: u64,
    fills: u64,
    lookup_ns: f64,
    fill_ns: f64,
}

/// One cache level: functional replay (lookup, fill on miss), then a
/// timed lookup-only loop over the warmed array and a timed fill-only
/// loop of the missed lines into a fresh array.
fn cache_level(cfg: &CacheConfig, stream: &[(LineAddr, bool)]) -> LevelWalk {
    let mut cache = SetAssocCache::new(cfg.sets(), cfg.ways);
    let mut hit = Vec::with_capacity(stream.len());
    let mut missed = Vec::new();
    for &(line, store) in stream {
        let h = cache.touch_demand(line, store).is_some();
        if !h {
            cache.fill(
                line,
                FillAttrs {
                    dirty: store,
                    ..FillAttrs::default()
                },
            );
            missed.push(line);
        }
        hit.push(h);
    }
    let (found, lookup_ns) = timed(|| {
        let mut found = 0u64;
        for &(line, store) in stream {
            found += u64::from(cache.touch_demand(line, store).is_some());
        }
        found
    });
    black_box(found);
    let mut fresh = SetAssocCache::new(cfg.sets(), cfg.ways);
    let (evicted, fill_ns) = timed(|| {
        let mut evicted = 0u64;
        for &line in &missed {
            evicted += u64::from(fresh.fill(line, FillAttrs::default()).is_some());
        }
        evicted
    });
    black_box(evicted);
    LevelWalk {
        hits: hit.iter().filter(|h| **h).count() as u64,
        lookups: stream.len() as u64,
        fills: missed.len() as u64,
        hit,
        lookup_ns,
        fill_ns,
    }
}

/// Fetch latency the kernels attach to a serving level (cycles; the
/// baseline's hit latencies plus a nominal DRAM access).
fn level_latency(l: HitLevel) -> u32 {
    match l {
        HitLevel::L1d => 0,
        HitLevel::L2 => 15,
        HitLevel::Llc => 45,
        HitLevel::Dram => 200,
    }
}

/// L1D MSHR file under the access stream: an access to a line in flight
/// merges, a miss on any other line allocates, and an entry completes
/// `FLIGHT` accesses after it was allocated (or when the file is full).
fn mshr_kernel(l1_in: &[(LineAddr, bool)], l1_hit: &[bool]) -> (f64, f64) {
    const FLIGHT: usize = 32;
    let cap = CacheConfig::baseline_l1d().mshrs;
    let mut file = MshrFile::new(cap);
    let mut live: VecDeque<(usize, _)> = VecDeque::with_capacity(cap);
    let ((allocs, merges), ns) = timed(|| {
        let (mut allocs, mut merges) = (0u64, 0u64);
        for (i, (&(line, _), &hit)) in l1_in.iter().zip(l1_hit).enumerate() {
            while live.front().is_some_and(|&(born, _)| i - born >= FLIGHT) {
                let (_, token) = live.pop_front().expect("front was checked");
                black_box(file.complete(token));
            }
            if file.merge(line, true, i as u64).is_some() {
                merges += 1;
            } else if !hit {
                if file.is_full() {
                    let (_, oldest) = live.pop_front().expect("a full file has live entries");
                    black_box(file.complete(oldest));
                }
                let token = file
                    .alloc(line, false, i as Cycle, i as u64)
                    .expect("room was made and the line is not in flight");
                live.push_back((i, token));
                allocs += 1;
            }
        }
        (allocs, merges)
    });
    (
        per(ns, l1_in.len() as u64),
        crate::stats::share(merges as f64, (allocs + merges) as f64),
    )
}

/// The LLC's misses as DRAM reads, one every four cycles; a store's miss
/// is a read too (write-allocate), so the write queue stays out of it.
fn dram_kernel(llc_misses: &[(LineAddr, bool)]) -> (f64, f64) {
    let mut dram = DramModel::new(DramConfig::default());
    let mut done = Vec::new();
    let reads = llc_misses.len();
    let (_, ns) = timed(|| {
        let mut now: Cycle = 0;
        for (i, &(line, _)) in llc_misses.iter().enumerate() {
            now += 4;
            let mut req = DramRequest {
                line,
                is_write: false,
                token: i as u64,
                arrival: now,
            };
            // A full queue stalls the requester until the next event.
            while let Err(back) = dram.enqueue(req) {
                req = back;
                now = dram.next_event(now).min(now + 10_000);
                dram.tick(now, &mut done);
            }
            dram.tick(now, &mut done);
        }
        while done.len() < reads {
            let next = dram.next_event(now);
            if next == Cycle::MAX {
                break;
            }
            now = next;
            dram.tick(now, &mut done);
        }
    });
    let s = dram.stats();
    (
        per(ns, llc_misses.len() as u64),
        crate::stats::share(s.row_hits as f64, (s.row_hits + s.row_misses) as f64),
    )
}

/// GM in front of the L1D: lookup, insert on miss, and the commit of the
/// load 64 places back (its line moves to the L1D).
fn gm_kernel(stream: &[Access], gm_slots: usize) -> (f64, f64, Vec<bool>) {
    const COMMIT_LAG: usize = 64;
    let mut gm = GmCache::new(gm_slots);
    let mut gm_hit = Vec::with_capacity(stream.len());
    let ((ops, hits), ns) = timed(|| {
        let (mut ops, mut hits) = (0u64, 0u64);
        for (i, a) in stream.iter().enumerate() {
            let ts = i as u64 + 1;
            let line = a.addr.line();
            let h = gm.lookup(line, ts).is_some();
            ops += 1;
            if h {
                hits += 1;
            } else {
                black_box(gm.insert(line, ts, 45));
                ops += 1;
            }
            gm_hit.push(h);
            if i >= COMMIT_LAG {
                let old = stream[i - COMMIT_LAG].addr.line();
                if gm.lookup_commit(old, ts).is_some() {
                    black_box(gm.remove(old));
                    ops += 1;
                }
                ops += 1;
            }
        }
        (ops, hits)
    });
    (
        per(ns, ops),
        crate::stats::share(hits as f64, stream.len() as f64),
        gm_hit,
    )
}

/// One prefetcher over the accesses of its own level.
fn prefetcher_kernel(
    pf: &mut dyn Prefetcher,
    events: &[(Ip, LineAddr, bool, HitLevel)],
) -> (f64, f64) {
    let mut out = PfBuf::new();
    let (cands, ns) = timed(|| {
        let mut cands = 0u64;
        for (i, &(ip, line, hit, from)) in events.iter().enumerate() {
            let cycle = i as Cycle * 4;
            let latency = level_latency(from);
            out.clear();
            pf.observe_access(
                &AccessEvent {
                    ip,
                    line,
                    cycle,
                    hit,
                    access_cycle: cycle,
                    fetch_latency: if hit { 0 } else { latency },
                    hit_prefetched: false,
                    mshr_free: 16,
                },
                &mut out,
            );
            cands += out.len() as u64;
            if !hit {
                pf.observe_fill(&FillEvent {
                    line,
                    ip,
                    cycle: cycle + Cycle::from(latency),
                    latency,
                    by_prefetch: false,
                });
                pf.feedback(Feedback::DemandMiss { line });
            }
        }
        cands
    });
    (
        per(ns, events.len() as u64),
        crate::stats::share(cands as f64, events.len() as f64),
    )
}

/// `LoadPort` stub that returns every load after a fixed latency.
struct FixedLatency {
    latency: Cycle,
    inflight: VecDeque<(Cycle, u32, u32, Addr, Cycle)>,
}

impl LoadPort for FixedLatency {
    fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
        if !req.wrong_path {
            self.inflight
                .push_back((now + self.latency, req.lq_id, req.gen, req.addr, now));
        }
        true
    }
}

struct NoMemory;

impl FunctionalPort for NoMemory {
    fn functional_load(&mut self, _: CoreId, _: Ip, _: Addr, _: u64) {}
    fn functional_store(&mut self, _: CoreId, _: Ip, _: Addr, _: u64) {}
}

fn head(trace: &Arc<Trace>) -> Arc<Trace> {
    if trace.instrs.len() <= INSTR_CAP {
        return trace.clone();
    }
    Arc::new(Trace::new(
        trace.name.clone(),
        trace.instrs[..INSTR_CAP].to_vec(),
    ))
}

fn cpu_kernels(trace: &Arc<Trace>, out: &mut Vec<(String, f64)>) {
    let trace = head(trace);
    let n = trace.instrs.len() as u64;

    let mut core = Core::new(0, CoreConfig::default(), trace.clone());
    let mut mem = FixedLatency {
        latency: 20,
        inflight: VecDeque::new(),
    };
    let mut events = Vec::new();
    let (_, ns) = timed(|| {
        let mut now: Cycle = 0;
        // 64 cycles per instruction is far beyond any fixed-latency run.
        while !core.is_done() && now < n * 64 {
            events.clear();
            core.tick(now, &mut mem, &mut events);
            while mem.inflight.front().is_some_and(|f| f.0 <= now) {
                let (filled_at, lq, gen, addr, issued_at) =
                    mem.inflight.pop_front().expect("front was checked");
                core.complete_load(
                    lq,
                    gen,
                    FillInfo {
                        line: addr.line(),
                        hit_level: HitLevel::L2,
                        issued_at,
                        filled_at,
                        merged_with_prefetch: false,
                        hit_prefetched_line: false,
                        fetch_latency: 0,
                    },
                );
            }
            now += 1;
        }
    });
    out.push(("cpu.core_tick_ns_per_instr".into(), per(ns, core.retired())));

    let branches: Vec<(Ip, bool)> = trace
        .instrs
        .iter()
        .filter_map(|i| match i.kind {
            InstrKind::Branch { taken } => Some((i.ip, taken)),
            _ => None,
        })
        .collect();
    let mut bp = PerceptronPredictor::new();
    let (wrong, ns) = timed(|| {
        let mut wrong = 0u64;
        for &(ip, taken) in &branches {
            let predicted = bp.predict(ip);
            bp.update(ip, taken, predicted);
            wrong += u64::from(predicted != taken);
        }
        wrong
    });
    black_box(wrong);
    out.push((
        "cpu.bp_predict_update_ns".into(),
        per(ns, branches.len() as u64),
    ));

    let mut core = Core::new(0, CoreConfig::default(), trace);
    let (stepped, ns) = timed(|| core.functional_step(n, &mut NoMemory));
    out.push(("cpu.functional_step_ns_per_instr".into(), per(ns, stepped)));
}

fn tracestore_kernels(trace: &Arc<Trace>, out: &mut Vec<(String, f64)>) {
    let trace = head(trace);
    let n = trace.instrs.len() as u64;
    let (bytes, ns) = timed(|| {
        let mut w = TraceWriter::create(Vec::new(), &trace.name, SCT_CHUNK)
            .expect("writing to a Vec cannot fail");
        for i in trace.instrs.iter() {
            w.push(i).expect("writing to a Vec cannot fail");
        }
        w.finish().expect("writing to a Vec cannot fail").1
    });
    out.push(("tracestore.encode_ns_per_instr".into(), per(ns, n)));
    out.push((
        "tracestore.bytes_per_instr".into(),
        crate::stats::share(bytes.len() as f64, n as f64),
    ));
    let (acc, ns) = timed(|| {
        let reader = TraceReader::open(Box::new(std::io::Cursor::new(bytes)) as Box<dyn ReadSeek>)
            .expect("the store was just written");
        let mut feed = StreamFeed::new(reader, 256);
        let mut acc = 0u64;
        for i in 0..n as usize {
            acc ^= feed.get(i).ip.raw();
        }
        acc
    });
    black_box(acc);
    out.push(("tracestore.decode_ns_per_instr".into(), per(ns, n)));
}

/// `Hierarchy::functional_load`/`functional_store` alone, under `cfg`
/// (one core).
fn func_walk_kernel(cfg: &SystemConfig, stream: &[Access]) -> f64 {
    let filter: Box<dyn UpdateFilter> = if cfg.suf {
        Box::new(SecureUpdateFilter::with_sizes(
            cfg.core.lq_entries as u64,
            cfg.l1d.lines() as u64,
        ))
    } else {
        Box::new(AlwaysUpdate)
    };
    let mut h = Hierarchy::new(
        cfg.clone(),
        vec![secpref_sim::build_prefetcher(cfg)],
        vec![filter],
        vec![None],
    );
    let (_, ns) = timed(|| {
        for (i, a) in stream.iter().enumerate() {
            let now = i as Cycle * 2;
            if a.store {
                h.functional_store(now, 0, a.ip, a.addr, i as u64 + 1);
            } else {
                h.functional_load(now, 0, a.ip, a.addr, i as u64 + 1);
            }
        }
    });
    black_box(h.live_requests());
    per(ns, stream.len() as u64)
}

/// Runs every layer kernel over the loads and stores of `traces`;
/// `walk_cfg` is the single-core configuration the functional-walk
/// kernel builds its hierarchy from. Returns `(metric name, value)`.
pub fn run(traces: &[Arc<Trace>], walk_cfg: &SystemConfig) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let stream = accesses(traces);
    let base = SystemConfig::baseline(1);

    // mem: L1D → L2 → LLC, each level fed the level above's misses.
    let l1_in: Vec<(LineAddr, bool)> = stream.iter().map(|a| (a.addr.line(), a.store)).collect();
    let l1 = cache_level(&base.l1d, &l1_in);
    let misses_of = |input: &[(LineAddr, bool)], walk: &LevelWalk| -> Vec<(LineAddr, bool)> {
        input
            .iter()
            .zip(&walk.hit)
            .filter(|(_, h)| !**h)
            .map(|(a, _)| *a)
            .collect()
    };
    let l2_in = misses_of(&l1_in, &l1);
    let l2 = cache_level(&base.l2, &l2_in);
    let llc_in = misses_of(&l2_in, &l2);
    let llc = cache_level(&base.llc, &llc_in);
    let dram_in = misses_of(&llc_in, &llc);
    let levels = [&l1, &l2, &llc];
    let lookups: u64 = levels.iter().map(|l| l.lookups).sum();
    let fills: u64 = levels.iter().map(|l| l.fills).sum();
    out.push((
        "mem.cache_lookup_ns".into(),
        per(levels.iter().map(|l| l.lookup_ns).sum(), lookups),
    ));
    out.push((
        "mem.cache_fill_ns".into(),
        per(levels.iter().map(|l| l.fill_ns).sum(), fills),
    ));
    out.push((
        "mem.cache_hit_share".into(),
        crate::stats::share(
            levels.iter().map(|l| l.hits).sum::<u64>() as f64,
            lookups as f64,
        ),
    ));
    let (alloc_ns, merge_share) = mshr_kernel(&l1_in, &l1.hit);
    out.push(("mem.mshr_alloc_ns".into(), alloc_ns));
    out.push(("mem.mshr_merge_share".into(), merge_share));
    let (req_ns, rowhit) = dram_kernel(&dram_in);
    out.push(("mem.dram_req_ns".into(), req_ns));
    out.push(("mem.dram_rowhit_share".into(), rowhit));

    // Which level served each access, for the structures that are told.
    let mut served = Vec::with_capacity(stream.len());
    let (mut i2, mut i3) = (0, 0);
    for &h1 in &l1.hit {
        served.push(if h1 {
            HitLevel::L1d
        } else {
            let h2 = l2.hit[i2];
            i2 += 1;
            if h2 {
                HitLevel::L2
            } else {
                let h3 = llc.hit[i3];
                i3 += 1;
                if h3 {
                    HitLevel::Llc
                } else {
                    HitLevel::Dram
                }
            }
        });
    }

    let (gm_ns, gm_share, gm_hit) = gm_kernel(&stream, base.gm.lines());
    out.push(("ghostminion.gm_op_ns".into(), gm_ns));
    out.push(("ghostminion.gm_hit_share".into(), gm_share));

    // prefetch: L1 prefetchers see every access, L2 prefetchers the L1
    // misses; `hit` is the outcome at the prefetcher's own level.
    let l1_events: Vec<(Ip, LineAddr, bool, HitLevel)> = stream
        .iter()
        .zip(&served)
        .map(|(a, &lvl)| (a.ip, a.addr.line(), lvl == HitLevel::L1d, lvl))
        .collect();
    let l2_events: Vec<(Ip, LineAddr, bool, HitLevel)> = l1_events
        .iter()
        .filter(|e| !e.2)
        .map(|&(ip, line, _, lvl)| (ip, line, lvl == HitLevel::L2, lvl))
        .collect();
    for kind in PrefetcherKind::EVALUATED {
        let slug = crate::workloads::kind_slug(kind);
        let events = if kind.is_l1_prefetcher() {
            &l1_events
        } else {
            &l2_events
        };
        let mut pf = secpref_prefetch::build(kind);
        let (train_ns, cands) = prefetcher_kernel(pf.as_mut(), events);
        out.push((format!("prefetch.{slug}.train_ns"), train_ns));
        out.push((format!("prefetch.{slug}.cand_per_train"), cands));
    }

    // core: SUF decisions, TSB and the timely-secure wrapper at commit.
    let suf = SecureUpdateFilter::new();
    let (_, ns) = timed(|| {
        for (&lvl, &gm) in served.iter().zip(&gm_hit) {
            black_box(suf.commit_action(black_box(lvl), black_box(gm)));
            black_box(suf.wb_bits(lvl));
        }
    });
    out.push(("core.suf_decide_ns".into(), per(ns, served.len() as u64)));
    // Commit-time view of the same accesses: commit trails access by the
    // fetch latency plus a pipeline's worth of cycles.
    let mut tsb = Tsb::new();
    let mut ts = build_timely_secure(PrefetcherKind::IpStride);
    for (name, pf) in [
        ("core.tsb_train_ns", &mut tsb as &mut dyn Prefetcher),
        ("core.ts_train_ns", ts.as_mut()),
    ] {
        let mut buf = PfBuf::new();
        let (cands, ns) = timed(|| {
            let mut cands = 0u64;
            for (i, &(ip, line, hit, lvl)) in l1_events.iter().enumerate() {
                let access_cycle = i as Cycle * 4;
                let latency = level_latency(lvl);
                buf.clear();
                pf.observe_access(
                    &AccessEvent {
                        ip,
                        line,
                        cycle: access_cycle + Cycle::from(latency) + 40,
                        hit,
                        access_cycle,
                        fetch_latency: latency,
                        hit_prefetched: false,
                        mshr_free: 16,
                    },
                    &mut buf,
                );
                cands += buf.len() as u64;
                if !hit {
                    pf.feedback(Feedback::DemandMiss { line });
                }
            }
            cands
        });
        black_box(cands);
        out.push((name.into(), per(ns, l1_events.len() as u64)));
    }

    out.push((
        "sim.func_walk_ns_per_load".into(),
        func_walk_kernel(walk_cfg, &stream),
    ));

    cpu_kernels(&traces[0], &mut out);
    tracestore_kernels(&traces[0], &mut out);
    out
}
