//! GAP benchmark kernels emitting real traversal address streams over
//! synthetic power-law graphs.
//!
//! Layout of the simulated address space (arrays far apart, 4-byte vertex
//! ids, 8-byte properties — matching the GAP reference implementation):
//!
//! | array        | base            | element |
//! |--------------|-----------------|---------|
//! | `offsets`    | `0x10_0000_0000`| 4 B     |
//! | `neighbors`  | `0x20_0000_0000`| 4 B     |
//! | `prop` (parent/rank/dist/comp) | `0x30_0000_0000` | 8 B |
//! | `prop2` (next rank / delta)    | `0x40_0000_0000` | 8 B |
//! | frontier queue                 | `0x50_0000_0000` | 4 B |

use crate::gen::graph::{CsrGraph, CsrPrefix};
use crate::instr::{Instr, Trace};
use crate::sink::TraceSink;
use secpref_types::rng::Xoshiro256ss;
use std::ops::Range;

const OFFSETS_BASE: u64 = 0x10_0000_0000;
const NEIGHBORS_BASE: u64 = 0x20_0000_0000;
const PROP_BASE: u64 = 0x30_0000_0000;
const PROP2_BASE: u64 = 0x40_0000_0000;
const QUEUE_BASE: u64 = 0x50_0000_0000;

/// Which GAP kernel to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapKernel {
    /// Breadth-first search (top-down).
    Bfs,
    /// PageRank (pull).
    Pr,
    /// Connected components (label propagation).
    Cc,
    /// Single-source shortest paths (Bellman-Ford over a frontier).
    Sssp,
    /// Betweenness centrality (BFS + backward accumulation).
    Bc,
    /// Triangle counting (sorted adjacency intersection).
    Tc,
}

impl GapKernel {
    /// Kernel name as used in trace names.
    pub const fn name(self) -> &'static str {
        match self {
            GapKernel::Bfs => "bfs",
            GapKernel::Pr => "pr",
            GapKernel::Cc => "cc",
            GapKernel::Sssp => "sssp",
            GapKernel::Bc => "bc",
            GapKernel::Tc => "tc",
        }
    }
}

/// Trace emitter that walks a graph kernel and records its memory stream
/// into a [`TraceSink`] (a trace being built, a chunked on-disk writer, …).
struct Emitter<'a, S: TraceSink + ?Sized> {
    sink: &'a mut S,
    ip_base: u64,
    queue_pos: u64,
}

impl<'a, S: TraceSink + ?Sized> Emitter<'a, S> {
    fn new(sink: &'a mut S, ip_base: u64) -> Self {
        Emitter {
            sink,
            ip_base,
            queue_pos: 0,
        }
    }

    fn full(&self) -> bool {
        self.sink.full()
    }

    fn idx(&self) -> usize {
        self.sink.len()
    }

    fn alu(&mut self, n: usize) {
        for _ in 0..n {
            self.sink.push(Instr::alu(self.ip_base));
        }
    }

    fn branch(&mut self, site: u64, taken: bool) {
        self.sink
            .push(Instr::branch(self.ip_base + 0x100 + site * 4, taken));
    }

    /// Sequential frontier-queue load; returns nothing (vertex comes from
    /// the driving algorithm).
    fn load_queue(&mut self) {
        let addr = QUEUE_BASE + self.queue_pos * 4;
        self.queue_pos += 1;
        self.sink.push(Instr::load(self.ip_base, addr));
    }

    fn store_queue(&mut self) {
        let addr = QUEUE_BASE + 0x1000_0000 + self.queue_pos * 4;
        self.sink.push(Instr::store(self.ip_base + 0x08, addr));
    }

    fn load_offsets(&mut self, v: u32) {
        let addr = OFFSETS_BASE + v as u64 * 4;
        self.sink.push(Instr::load(self.ip_base + 0x10, addr));
    }

    /// Streaming edge-array load; returns the instruction index (for
    /// dependent property loads).
    fn load_edge(&mut self, edge_index: u64, site: u64) -> usize {
        let addr = NEIGHBORS_BASE + edge_index * 4;
        let i = self.idx();
        self.sink
            .push(Instr::load(self.ip_base + 0x18 + site * 8, addr));
        i
    }

    /// Property load whose address came from the edge load at `dep_idx`
    /// (the irregular, dependent access that dominates GAP behaviour).
    fn load_prop(&mut self, u: u32, dep_idx: usize, site: u64) {
        let addr = PROP_BASE + u as u64 * 8;
        let dep = (self.idx() - dep_idx).min(u16::MAX as usize) as u16;
        self.sink
            .push(Instr::load_dep(self.ip_base + 0x40 + site * 8, addr, dep));
    }

    fn load_prop2(&mut self, u: u32, site: u64) {
        let addr = PROP2_BASE + u as u64 * 8;
        self.sink
            .push(Instr::load(self.ip_base + 0x60 + site * 8, addr));
    }

    fn store_prop(&mut self, u: u32) {
        let addr = PROP_BASE + u as u64 * 8;
        self.sink.push(Instr::store(self.ip_base + 0x70, addr));
    }

    fn store_prop2(&mut self, u: u32) {
        let addr = PROP2_BASE + u as u64 * 8;
        self.sink.push(Instr::store(self.ip_base + 0x78, addr));
    }
}

/// Generates a GAP kernel trace of exactly `n` instructions.
pub fn generate(kernel: GapKernel, graph: &CsrGraph, seed: u64, n: usize) -> Trace {
    let name = format!("{}_{}", kernel.name(), graph.vertex_count());
    Trace::build(name, n, |sink| generate_into(kernel, graph, seed, sink))
}

/// Streams a GAP kernel trace into `sink` until it is full, without
/// materializing the instruction vector. Emission is prefix-stable: the
/// first `k` instructions are identical whatever the sink capacity.
/// The graph is built only as far as the kernel reads it, in a prefix
/// of this call's own.
pub fn generate_into<S: TraceSink + ?Sized>(
    kernel: GapKernel,
    graph: &CsrGraph,
    seed: u64,
    sink: &mut S,
) {
    emit(kernel, &mut graph.prefix(), seed, sink);
}

/// [`generate_into`] over a given prefix, which it grows as it reads.
pub(crate) fn emit<S: TraceSink + ?Sized>(
    kernel: GapKernel,
    graph: &mut CsrPrefix,
    seed: u64,
    sink: &mut S,
) {
    let mut e = Emitter::new(sink, 0x70_0000 + (kernel as u64) * 0x10_000);
    let mut rng = Xoshiro256ss::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    while !e.full() {
        match kernel {
            GapKernel::Bfs => run_bfs(&mut e, graph, &mut rng),
            GapKernel::Pr => run_pr(&mut e, graph),
            GapKernel::Cc => run_cc(&mut e, graph),
            GapKernel::Sssp => run_sssp(&mut e, graph, &mut rng),
            GapKernel::Bc => run_bc(&mut e, graph, &mut rng),
            GapKernel::Tc => run_tc(&mut e, graph),
        }
    }
}

fn run_bfs<S: TraceSink + ?Sized>(
    e: &mut Emitter<'_, S>,
    g: &mut CsrPrefix,
    rng: &mut Xoshiro256ss,
) {
    let v_count = g.vertex_count();
    let mut visited = vec![false; v_count];
    let source = rng.gen_u32(v_count as u32);
    visited[source as usize] = true;
    let mut frontier = vec![source];
    while !frontier.is_empty() && !e.full() {
        let mut next = Vec::new();
        for &v in &frontier {
            if e.full() {
                return;
            }
            e.load_queue();
            e.load_offsets(v);
            for i in g.edges(v) {
                let dep = e.load_edge(i as u64, 0);
                let u = g.neighbor(i);
                e.load_prop(u, dep, 0); // parent[u] check
                let fresh = !visited[u as usize];
                e.branch(0, fresh);
                if fresh {
                    visited[u as usize] = true;
                    e.store_prop(u);
                    e.store_queue();
                    next.push(u);
                }
                e.alu(1);
                if e.full() {
                    return;
                }
            }
        }
        frontier = next;
    }
}

fn run_pr<S: TraceSink + ?Sized>(e: &mut Emitter<'_, S>, g: &mut CsrPrefix) {
    for v in 0..g.vertex_count() as u32 {
        if e.full() {
            return;
        }
        e.load_offsets(v);
        let Range { start: s, end: t } = g.edges(v);
        for i in s..t {
            let dep = e.load_edge(i as u64, 1);
            let u = g.neighbor(i);
            e.load_prop(u, dep, 1); // rank[u]
            e.alu(1);
            e.branch(1, i + 1 != t);
            if e.full() {
                return;
            }
        }
        e.store_prop2(v); // next_rank[v]
        e.alu(2);
    }
}

fn run_cc<S: TraceSink + ?Sized>(e: &mut Emitter<'_, S>, g: &mut CsrPrefix) {
    for v in 0..g.vertex_count() as u32 {
        if e.full() {
            return;
        }
        e.load_offsets(v);
        e.load_prop2(v, 2); // comp[v] (streaming index)
        for i in g.edges(v) {
            let dep = e.load_edge(i as u64, 2);
            let u = g.neighbor(i);
            e.load_prop(u, dep, 2); // comp[u]
            let update = u < v; // deterministic label-propagation direction
            e.branch(2, update);
            if update {
                e.store_prop(v);
            }
            if e.full() {
                return;
            }
        }
    }
}

fn run_sssp<S: TraceSink + ?Sized>(
    e: &mut Emitter<'_, S>,
    g: &mut CsrPrefix,
    rng: &mut Xoshiro256ss,
) {
    // Bellman-Ford over a frontier with re-relaxations: like BFS but
    // vertices can re-enter the frontier, matching sssp's larger traffic.
    let v_count = g.vertex_count();
    let mut dist = vec![u32::MAX; v_count];
    let source = rng.gen_u32(v_count as u32);
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut rounds = 0;
    while !frontier.is_empty() && !e.full() && rounds < 12 {
        rounds += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            if e.full() {
                return;
            }
            e.load_queue();
            e.load_offsets(v);
            e.load_prop2(v, 3); // dist[v]
            for i in g.edges(v) {
                let dep = e.load_edge(i as u64, 3);
                let u = g.neighbor(i);
                e.load_prop(u, dep, 3); // dist[u]
                let w = 1 + (u % 7); // synthetic edge weight
                let nd = dist[v as usize].saturating_add(w);
                let relax = nd < dist[u as usize];
                e.branch(3, relax);
                if relax {
                    dist[u as usize] = nd;
                    e.store_prop(u);
                    e.store_queue();
                    next.push(u);
                }
                if e.full() {
                    return;
                }
            }
        }
        frontier = next;
    }
}

fn run_bc<S: TraceSink + ?Sized>(
    e: &mut Emitter<'_, S>,
    g: &mut CsrPrefix,
    rng: &mut Xoshiro256ss,
) {
    // Forward BFS accumulating path counts, then a backward sweep over the
    // visit order accumulating dependencies.
    let v_count = g.vertex_count();
    let mut depth = vec![u32::MAX; v_count];
    let source = rng.gen_u32(v_count as u32);
    depth[source as usize] = 0;
    let mut order = vec![source];
    let mut frontier = vec![source];
    while !frontier.is_empty() && !e.full() {
        let mut next = Vec::new();
        for &v in &frontier {
            e.load_queue();
            e.load_offsets(v);
            for i in g.edges(v) {
                let dep = e.load_edge(i as u64, 4);
                let u = g.neighbor(i);
                e.load_prop(u, dep, 4); // sigma[u]
                let fresh = depth[u as usize] == u32::MAX;
                e.branch(4, fresh);
                if fresh {
                    depth[u as usize] = depth[v as usize] + 1;
                    e.store_prop(u);
                    order.push(u);
                    next.push(u);
                }
                if e.full() {
                    return;
                }
            }
        }
        frontier = next;
    }
    // Backward pass.
    for &v in order.iter().rev() {
        if e.full() {
            return;
        }
        e.load_offsets(v);
        e.load_prop2(v, 5); // delta[v]
        for i in g.edges(v) {
            let dep = e.load_edge(i as u64, 5);
            let u = g.neighbor(i);
            e.load_prop(u, dep, 5); // delta[u]
            e.alu(1);
            if e.full() {
                return;
            }
        }
        e.store_prop2(v);
    }
}

fn run_tc<S: TraceSink + ?Sized>(e: &mut Emitter<'_, S>, g: &mut CsrPrefix) {
    for v in 0..g.vertex_count() as u32 {
        if e.full() {
            return;
        }
        e.load_offsets(v);
        let Range { start: vs, end: vt } = g.edges(v);
        for i in vs..vt {
            let dep = e.load_edge(i as u64, 6);
            let u = g.neighbor(i);
            if u >= v {
                e.branch(6, false);
                break;
            }
            e.branch(6, true);
            let _ = dep;
            e.load_offsets(u);
            // Sorted intersection of adj(v) and adj(u): two stream pointers.
            let Range { start: us, end: ut } = g.edges(u);
            let (mut a, mut b) = (vs, us);
            while a < vt && b < ut && !e.full() {
                e.load_edge(a as u64, 7);
                e.load_edge(b as u64, 8);
                let (x, y) = (g.neighbor(a), g.neighbor(b));
                e.branch(7, x < y);
                if x < y {
                    a += 1;
                } else if y < x {
                    b += 1;
                } else {
                    e.alu(1);
                    a += 1;
                    b += 1;
                }
            }
            if e.full() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::graph::power_law_by_lists;
    use crate::instr::InstrKind;
    use crate::sink::VecSink;

    fn graph() -> CsrGraph {
        CsrGraph::power_law(2000, 8, 42)
    }

    #[test]
    fn all_kernels_generate_exact_length() {
        let g = graph();
        for k in [
            GapKernel::Bfs,
            GapKernel::Pr,
            GapKernel::Cc,
            GapKernel::Sssp,
            GapKernel::Bc,
            GapKernel::Tc,
        ] {
            let t = generate(k, &g, 1, 5000);
            assert_eq!(t.instrs.len(), 5000, "{}", k.name());
            assert!(t.load_count() > 1000, "{} is memory-bound", k.name());
        }
    }

    #[test]
    fn in_place_generation_equals_a_vec_sink() {
        // Both grow the graph lazily as the kernel reads it; the oracle
        // run reads the same graph built whole before the kernel starts.
        let g = graph();
        let oracle = power_law_by_lists(2000, 8, 42);
        for k in [
            GapKernel::Bfs,
            GapKernel::Pr,
            GapKernel::Cc,
            GapKernel::Sssp,
            GapKernel::Bc,
            GapKernel::Tc,
        ] {
            for n in [0, 1, 700, 4097] {
                let t = generate(k, &g, 1, n);
                let mut sink = VecSink::new(n);
                generate_into(k, &g, 1, &mut sink);
                let mut whole = VecSink::new(n);
                emit(k, &mut oracle.clone(), 1, &mut whole);
                assert_eq!(t.name, format!("{}_2000", k.name()));
                assert_eq!(t.instrs[..], sink.instrs[..], "{} at n = {n}", k.name());
                assert_eq!(sink.instrs, whole.instrs, "{} at n = {n}", k.name());
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let a = generate(GapKernel::Bfs, &g, 1, 4000);
        let b = generate(GapKernel::Bfs, &g, 1, 4000);
        assert_eq!(a.instrs, b.instrs);
    }

    #[test]
    fn property_loads_are_dependent() {
        let g = graph();
        let t = generate(GapKernel::Pr, &g, 1, 4000);
        let dep_loads = t
            .instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Load { dep_dist, .. } if dep_dist > 0))
            .count();
        assert!(dep_loads > 100, "rank loads depend on edge loads");
    }

    #[test]
    fn prop_addresses_span_graph() {
        let g = graph();
        let t = generate(GapKernel::Cc, &g, 1, 20_000);
        let max_prop = t
            .instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { addr, .. }
                    if addr.raw() >= PROP_BASE && addr.raw() < PROP2_BASE =>
                {
                    Some(addr.raw() - PROP_BASE)
                }
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_prop > 1000 * 8, "property accesses cover many vertices");
    }

    #[test]
    fn bfs_has_branches_with_both_outcomes() {
        let g = graph();
        let t = generate(GapKernel::Bfs, &g, 3, 10_000);
        let taken = t
            .instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Branch { taken: true }))
            .count();
        let not_taken = t
            .instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Branch { taken: false }))
            .count();
        assert!(taken > 0 && not_taken > 0);
    }
}
