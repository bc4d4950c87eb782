//! The workload suite registry: every SPEC-like and GAP-like trace the
//! experiments run, addressable by name, with a process-wide cache so a
//! trace is generated once per (name, length) pair no matter how many
//! experiment configurations consume it. The cache is an [`LruTable`] of
//! per-key cells behind one lock; a trace is generated in its cell,
//! outside the lock.

use crate::gen::gap::{self, GapKernel};
use crate::gen::graph::CsrGraph;
use crate::gen::spec::{self, SpecKernel};
use crate::instr::Trace;
use crate::sink::TraceSink;
use secpref_types::lru::LruTable;
use std::sync::{Arc, Mutex, OnceLock};

/// A named, deterministic trace generator.
pub trait TraceGenerator: Send + Sync {
    /// The trace name (e.g. `mcf_like_a`, `bfs_large`).
    fn name(&self) -> &str;
    /// Generates exactly `n` instructions.
    fn generate(&self, n: usize) -> Trace;
    /// Streams instructions into `sink` until it is full, without
    /// materializing the trace — the same sequence [`Self::generate`]
    /// produces (see crate::sink docs on prefix stability).
    fn generate_into(&self, sink: &mut dyn TraceSink);
}

impl TraceGenerator for SpecKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn generate(&self, n: usize) -> Trace {
        SpecKernel::generate(self, n)
    }
    fn generate_into(&self, sink: &mut dyn TraceSink) {
        SpecKernel::generate_into(self, sink);
    }
}

/// Generator wrapper for a GAP kernel over a synthetic power-law graph.
/// Each generation builds the graph afresh, only as far as the kernel
/// reads it (see [`CsrGraph`]).
#[derive(Clone, Debug)]
pub struct GapGenerator {
    name: String,
    kernel: GapKernel,
    graph: CsrGraph,
    seed: u64,
}

impl GapGenerator {
    /// Creates a generator for `kernel` over a `vertices`-vertex graph.
    pub fn new(
        name: &str,
        kernel: GapKernel,
        vertices: usize,
        avg_degree: usize,
        seed: u64,
    ) -> Self {
        GapGenerator {
            name: name.to_string(),
            kernel,
            graph: CsrGraph::power_law(vertices, avg_degree, seed),
            seed,
        }
    }
}

impl TraceGenerator for GapGenerator {
    fn name(&self) -> &str {
        &self.name
    }
    fn generate(&self, n: usize) -> Trace {
        Trace::build(self.name.clone(), n, |sink| {
            gap::generate_into(self.kernel, &self.graph, self.seed, sink)
        })
    }
    fn generate_into(&self, sink: &mut dyn TraceSink) {
        gap::generate_into(self.kernel, &self.graph, self.seed, sink);
    }
}

/// Vertex count of the "large" GAP graphs: property arrays (8 B/vertex)
/// exceed the 2 MB LLC, putting the kernels in the paper's memory-bound
/// regime.
const GAP_LARGE: usize = 360_000;
/// Vertex count of the "small" GAP graphs (LLC-resident properties).
const GAP_SMALL: usize = 40_000;

/// All GAP generators in the suite.
pub fn gap_suite() -> Vec<GapGenerator> {
    vec![
        GapGenerator::new("bfs_small", GapKernel::Bfs, GAP_SMALL, 12, 101),
        GapGenerator::new("bfs_large", GapKernel::Bfs, GAP_LARGE, 12, 102),
        GapGenerator::new("pr_large", GapKernel::Pr, GAP_LARGE, 12, 102),
        GapGenerator::new("cc_large", GapKernel::Cc, GAP_LARGE, 12, 102),
        GapGenerator::new("sssp_large", GapKernel::Sssp, GAP_LARGE, 12, 102),
        GapGenerator::new("bc_large", GapKernel::Bc, GAP_LARGE, 12, 102),
        GapGenerator::new("tc_small", GapKernel::Tc, GAP_SMALL, 12, 101),
    ]
}

/// Names of every SPEC-like trace.
pub fn spec_names() -> Vec<String> {
    spec::roster().into_iter().map(|k| k.name).collect()
}

/// Names of every GAP-like trace.
pub fn gap_names() -> Vec<String> {
    gap_suite().into_iter().map(|g| g.name).collect()
}

/// Every generator in the suite (SPEC-like first, then GAP).
pub fn all_traces() -> Vec<Box<dyn TraceGenerator>> {
    let mut v: Vec<Box<dyn TraceGenerator>> = Vec::new();
    for k in spec::roster() {
        v.push(Box::new(k));
    }
    for g in gap_suite() {
        v.push(Box::new(g));
    }
    v
}

/// Looks up a generator by trace name.
pub fn trace_by_name(name: &str) -> Option<Box<dyn TraceGenerator>> {
    all_traces().into_iter().find(|g| g.name() == name)
}

/// Maximum number of (name, length) trace entries kept resident. Long
/// sweep processes request many distinct cells; without a cap the cache
/// would accumulate every trace ever generated.
const TRACE_CACHE_CAP: usize = 32;

/// Cache for traces, keyed by (name, length), LRU-capped. Each key's
/// cell is filled once, by whichever request gets to it first.
type TraceCache = Mutex<LruTable<(String, usize), Arc<OnceLock<Arc<Trace>>>>>;

static TRACES: OnceLock<TraceCache> = OnceLock::new();

#[cfg(test)]
fn trace_cache_len() -> usize {
    TRACES
        .get()
        .map(|l| l.lock().expect("trace cache poisoned").live())
        .unwrap_or(0)
}

/// Generates (or fetches from the process-wide cache) the trace `name`
/// truncated/extended to exactly `n` instructions.
///
/// Generation happens *outside* the cache lock (map lock → per-key
/// cell), so the parallel experiment engine can generate distinct
/// traces concurrently without serializing on this map, and concurrent
/// requests for the same trace still build it exactly once.
///
/// The cache holds at most 32 entries (`TRACE_CACHE_CAP`); when it is
/// full the least recently used entry is dropped (outstanding `Arc`s
/// held by running simulations keep evicted traces alive until released).
///
/// # Panics
///
/// Panics if `name` is not registered in the suite.
pub fn cached_trace(name: &str, n: usize) -> Arc<Trace> {
    let lock = TRACES.get_or_init(|| Mutex::new(LruTable::new(TRACE_CACHE_CAP)));
    // An O(cap) scan under the lock: the cap is small and requests are
    // rare relative to runs.
    let cell = lock
        .lock()
        .expect("trace cache poisoned")
        .get_or_insert_with((name.to_string(), n), Default::default)
        .clone();
    cell.get_or_init(|| {
        let g = trace_by_name(name).unwrap_or_else(|| panic!("trace `{name}` is not in the suite"));
        Arc::new(g.generate(n))
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;

    #[test]
    fn registry_has_both_families() {
        let names: Vec<String> = all_traces().iter().map(|g| g.name().to_string()).collect();
        assert!(names.len() >= 20);
        assert!(names.iter().any(|n| n.starts_with("mcf")));
        assert!(names.iter().any(|n| n.starts_with("bfs")));
        // No duplicate names.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(trace_by_name("bwaves_like").is_some());
        assert!(trace_by_name("pr_large").is_some());
        assert!(trace_by_name("nonexistent").is_none());
    }

    /// Serialises the tests that assert on the process-global trace LRU:
    /// run concurrently, the cap test's 64+ inserts evict the other
    /// test's entry between its two lookups.
    static CACHE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn cache_returns_same_arc() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let a = cached_trace("bfs_small", 2000);
        let b = cached_trace("bfs_small", 2000);
        assert!(Arc::ptr_eq(&a, &b), "same (name, len) must share one Arc");
        assert_eq!(a.instrs.len(), 2000);
        // The key is (name, len): a different length is a different entry,
        // not a truncation of the cached one.
        let c = cached_trace("bfs_small", 1000);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.instrs.len(), 1000);
    }

    #[test]
    fn generator_name_matches_trace_name() {
        for g in all_traces() {
            if g.name().contains("large") {
                continue; // skip slow big-graph builds in unit tests
            }
            let t = g.generate(500);
            assert_eq!(t.name, g.name());
        }
    }

    #[test]
    fn cache_is_lru_capped() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Request far more distinct (name, len) cells than the cap; the
        // map must never exceed TRACE_CACHE_CAP. Use tiny lengths so the
        // test is cheap (distinct lengths are distinct keys).
        for i in 0..(TRACE_CACHE_CAP * 2) {
            let _ = cached_trace("bwaves_like", 16 + i);
            assert!(trace_cache_len() <= TRACE_CACHE_CAP);
        }
        assert!(trace_cache_len() <= TRACE_CACHE_CAP);
        // A hot entry survives a pass of inserts (true recency, not FIFO):
        // touch one key between every insert of the second wave.
        let hot = cached_trace("bwaves_like", 7777);
        for i in 0..TRACE_CACHE_CAP {
            let _ = cached_trace("bwaves_like", 9000 + i);
            let again = cached_trace("bwaves_like", 7777);
            assert!(Arc::ptr_eq(&hot, &again), "hot entry must not be evicted");
        }
    }

    #[test]
    fn cc_large_builds_only_the_lists_its_trace_reads() {
        // Laziness tripwire: CC walks vertices in order, so a full-scale
        // trace reads about 1.4 % of the 360 000 lists. A graph built
        // eagerly again would fail here instead of silently losing the
        // set-up time.
        let cc = gap_suite()
            .into_iter()
            .find(|g| g.name == "cc_large")
            .expect("cc_large is in the suite");
        let mut prefix = cc.graph.prefix();
        gap::emit(cc.kernel, &mut prefix, cc.seed, &mut VecSink::new(200_000));
        let (built, all) = (prefix.built(), prefix.vertex_count());
        assert!(
            built > 0 && built * 50 <= all,
            "built {built} of {all} lists"
        );
    }

    #[test]
    fn bfs_small_sorts_only_the_lists_its_trace_reads() {
        // BFS starts at a random vertex, so it builds nearly every list,
        // but a full-scale trace reads about 7.7 % of them. A list
        // sorted as it is built again would fail here instead of
        // silently losing the set-up time.
        let bfs = gap_suite()
            .into_iter()
            .find(|g| g.name == "bfs_small")
            .expect("bfs_small is in the suite");
        let mut prefix = bfs.graph.prefix();
        gap::emit(
            bfs.kernel,
            &mut prefix,
            bfs.seed,
            &mut VecSink::new(200_000),
        );
        let (built, sorted, all) = (prefix.built(), prefix.sorted(), prefix.vertex_count());
        assert!(built * 100 >= all * 99, "built {built} of {all} lists");
        assert!(
            sorted > 0 && sorted * 10 <= all,
            "sorted {sorted} of {all} lists"
        );
    }

    #[test]
    fn generate_into_matches_generate_for_all_generators() {
        // Prefix-stability: streaming emission into a sink must produce
        // the exact instruction sequence the in-place path writes.
        for g in all_traces() {
            if g.name().contains("large") {
                continue; // skip slow big-graph builds in unit tests
            }
            for n in [0, 1, 700, 4097] {
                let t = g.generate(n);
                let mut sink = VecSink::new(n);
                g.generate_into(&mut sink);
                assert_eq!(t.name, g.name());
                assert_eq!(
                    t.instrs[..],
                    sink.instrs[..],
                    "streamed != in place for {} at n = {n}",
                    g.name()
                );
            }
        }
    }
}
