//! The workload suite registry: every SPEC-like and GAP-like trace the
//! experiments run, addressable by name, with a process-wide cache so a
//! trace is generated once per (name, length) pair no matter how many
//! experiment configurations consume it.

use crate::gen::gap::{self, GapKernel};
use crate::gen::graph::CsrGraph;
use crate::gen::spec::{self, SpecKernel};
use crate::instr::Trace;
use crate::sink::TraceSink;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A named, deterministic trace generator.
pub trait TraceGenerator: Send + Sync {
    /// The trace name (e.g. `mcf_like_a`, `bfs_large`).
    fn name(&self) -> &str;
    /// Generates exactly `n` instructions.
    fn generate(&self, n: usize) -> Trace;
    /// Streams instructions into `sink` until it is full, without
    /// materializing the trace. The default materializes and replays
    /// (correct for any generator); the suite generators override it
    /// with truly streaming emission.
    fn generate_into(&self, sink: &mut dyn TraceSink) {
        // Fallback: generate in chunks until the sink stops accepting.
        // Only correct for prefix-stable generators, which all suite
        // generators are (see crate::sink docs).
        let mut want = 1 << 16;
        while !sink.full() {
            let t = self.generate(want);
            let produced = t.instrs.len();
            for &i in t.instrs.iter().skip(sink.len()) {
                if sink.full() {
                    return;
                }
                sink.push(i);
            }
            if produced < want {
                return; // generator can't produce more than this
            }
            want *= 2;
        }
    }
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
#[derive(Clone, Debug)]
pub struct GapGenerator {
    name: String,
    kernel: GapKernel,
    vertices: usize,
    avg_degree: usize,
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
            vertices,
            avg_degree,
            seed,
        }
    }
}

impl TraceGenerator for GapGenerator {
    fn name(&self) -> &str {
        &self.name
    }
    fn generate(&self, n: usize) -> Trace {
        // Graphs are cached: several kernels share the same topology.
        let graph = cached_graph(self.vertices, self.avg_degree, self.seed);
        let mut t = gap::generate(self.kernel, &graph, self.seed, n);
        t.name = self.name.clone();
        t
    }
    fn generate_into(&self, sink: &mut dyn TraceSink) {
        let graph = cached_graph(self.vertices, self.avg_degree, self.seed);
        gap::generate_into(self.kernel, &graph, self.seed, sink);
    }
}

/// Cache key for graphs: (vertices, avg_degree, seed).
type GraphCache = Mutex<HashMap<(usize, usize, u64), Arc<OnceLock<Arc<CsrGraph>>>>>;

fn cached_graph(vertices: usize, avg_degree: usize, seed: u64) -> Arc<CsrGraph> {
    static GRAPHS: OnceLock<GraphCache> = OnceLock::new();
    let lock = GRAPHS.get_or_init(|| Mutex::new(HashMap::new()));
    // Two-level scheme (map lock → per-key cell): the map lock is held
    // only for the lookup, so parallel experiment workers can build
    // *different* graphs concurrently, while requesters of the *same*
    // graph block on its cell instead of duplicating the build.
    let cell = {
        let mut map = lock.lock().expect("graph cache poisoned");
        map.entry((vertices, avg_degree, seed))
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    };
    cell.get_or_init(|| Arc::new(CsrGraph::power_law(vertices, avg_degree, seed)))
        .clone()
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

struct TraceEntry {
    cell: Arc<OnceLock<Arc<Trace>>>,
    last_used: u64,
}

struct TraceCacheState {
    map: HashMap<(String, usize), TraceEntry>,
    stamp: u64,
}

/// Cache for traces, keyed by (name, length), LRU-capped.
type TraceCache = Mutex<TraceCacheState>;

static TRACES: OnceLock<TraceCache> = OnceLock::new();

#[cfg(test)]
fn trace_cache_len() -> usize {
    TRACES
        .get()
        .map(|l| l.lock().expect("trace cache poisoned").map.len())
        .unwrap_or(0)
}

/// Generates (or fetches from the process-wide cache) the trace `name`
/// truncated/extended to exactly `n` instructions.
///
/// Generation happens *outside* the cache lock (same two-level scheme as
/// the graph cache), so the parallel experiment engine can generate
/// distinct traces concurrently without serializing on this map, and
/// concurrent requests for the same trace still build it exactly once.
///
/// The cache holds at most [`TRACE_CACHE_CAP`] entries; the least
/// recently used entry is dropped on overflow (outstanding `Arc`s held
/// by running simulations keep evicted traces alive until released).
///
/// # Panics
///
/// Panics if `name` is not registered in the suite.
pub fn cached_trace(name: &str, n: usize) -> Arc<Trace> {
    let lock = TRACES.get_or_init(|| {
        Mutex::new(TraceCacheState {
            map: HashMap::new(),
            stamp: 0,
        })
    });
    let cell = {
        let mut state = lock.lock().expect("trace cache poisoned");
        state.stamp += 1;
        let stamp = state.stamp;
        let key = (name.to_string(), n);
        if let Some(e) = state.map.get_mut(&key) {
            e.last_used = stamp;
            e.cell.clone()
        } else {
            if state.map.len() >= TRACE_CACHE_CAP {
                // Evict the least recently used entry. O(cap) scan — the
                // cap is small and requests are rare relative to runs.
                if let Some(victim) = state
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    state.map.remove(&victim);
                }
            }
            let cell = Arc::new(OnceLock::new());
            state.map.insert(
                key,
                TraceEntry {
                    cell: cell.clone(),
                    last_used: stamp,
                },
            );
            cell
        }
    };
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
    fn generate_into_matches_generate_for_all_generators() {
        // Prefix-stability: streaming emission into a sink must produce
        // the exact instruction sequence the materializing path produces.
        for g in all_traces() {
            if g.name().contains("large") {
                continue; // skip slow big-graph builds in unit tests
            }
            let n = 700;
            let t = g.generate(n);
            let mut sink = VecSink::new(n);
            g.generate_into(&mut sink);
            assert_eq!(
                t.instrs[..],
                sink.instrs[..],
                "streamed != materialized for {}",
                g.name()
            );
        }
    }
}
