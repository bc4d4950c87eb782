//! Synthetic power-law graphs in CSR form for the GAP kernels.

use secpref_types::rng::Xoshiro256ss;

/// A directed graph in compressed-sparse-row form, like the GAP benchmark
/// suite uses internally.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    pub offsets: Vec<u32>,
    /// Flattened adjacency lists.
    pub neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The adjacency list of `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Generates a power-law graph with `vertices` vertices and average
    /// out-degree `avg_degree`, via preferential attachment over a sliding
    /// candidate pool (cheap, deterministic, heavy-tailed like the GAP
    /// Kronecker inputs).
    ///
    /// # Panics
    ///
    /// Panics if `vertices < 2` or `avg_degree == 0`, or if the graph has
    /// more than `u32::MAX` edges.
    pub fn power_law(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        assert!(vertices >= 2, "need at least two vertices");
        assert!(avg_degree > 0, "need a positive degree");
        let mut rng = Xoshiro256ss::seed_from_u64(seed);
        // Out-degrees average just under `avg_degree + 1/2`: past a few
        // hundred vertices these capacities are never outgrown, so the
        // two big vectors are allocated once and never doubled.
        let edges = vertices * (avg_degree + 1);
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::with_capacity(edges);
        // Endpoint pool: vertices appear once plus once per received edge,
        // giving preferential attachment.
        let mut pool: Vec<u32> = Vec::with_capacity(vertices + edges);
        pool.extend(0..vertices as u32);
        // Every edge of `v` is drawn in iteration `v`: its list is the
        // tail of `neighbors`, sorted in place.
        for v in 0..vertices as u32 {
            let start = neighbors.len();
            let deg = 1 + rng.gen_index(avg_degree * 2); // mean ≈ avg_degree
            for _ in 0..deg {
                let u = pool[rng.gen_index(pool.len())];
                if u != v {
                    neighbors.push(u);
                    pool.push(u);
                }
            }
            neighbors[start..].sort_unstable();
            let end = u32::try_from(neighbors.len()).expect("more edges than u32 CSR offsets hold");
            offsets.push(end);
        }
        CsrGraph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `power_law` as it was before it built CSR directly — one list per
    /// vertex, each sorted, then concatenated — kept as the reference
    /// `power_law` is checked against.
    fn power_law_by_lists(vertices: usize, avg_degree: usize, seed: u64) -> CsrGraph {
        let mut rng = Xoshiro256ss::seed_from_u64(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); vertices];
        let mut pool: Vec<u32> = (0..vertices as u32).collect();
        for v in 0..vertices as u32 {
            let deg = 1 + rng.gen_index(avg_degree * 2);
            for _ in 0..deg {
                let u = pool[rng.gen_index(pool.len())];
                if u != v {
                    adj[v as usize].push(u);
                    pool.push(u);
                }
            }
        }
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        CsrGraph { offsets, neighbors }
    }

    #[test]
    fn csr_graph_equals_the_per_vertex_lists() {
        // The suite's two graphs, secbench's at `--seed 1` (its seeds are
        // the suite's XORed with `--seed`), and small and skewed shapes.
        let shapes = [
            (40_000, 12, 101),
            (360_000, 12, 102),
            (40_000, 12, 101 ^ 1),
            (360_000, 12, 102 ^ 1),
            (2, 1, 5),
            (500, 8, 7),
            (1000, 3, 99),
        ];
        for (vertices, avg_degree, seed) in shapes {
            let fast = CsrGraph::power_law(vertices, avg_degree, seed);
            let slow = power_law_by_lists(vertices, avg_degree, seed);
            let shape = (vertices, avg_degree, seed);
            assert_eq!(fast.offsets, slow.offsets, "{shape:?}");
            assert_eq!(fast.neighbors, slow.neighbors, "{shape:?}");
        }
    }

    #[test]
    fn deterministic() {
        let a = CsrGraph::power_law(500, 8, 7);
        let b = CsrGraph::power_law(500, 8, 7);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn csr_well_formed() {
        let g = CsrGraph::power_law(1000, 8, 3);
        assert_eq!(g.vertex_count(), 1000);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edge_count());
        for v in 0..g.vertex_count() as u32 {
            for &u in g.neighbors_of(v) {
                assert!((u as usize) < g.vertex_count());
                assert_ne!(u, v, "no self loops");
            }
        }
    }

    #[test]
    fn heavy_tail_exists() {
        // Preferential attachment skews *in*-degree: popular vertices are
        // the targets the kernels' dependent property loads keep hitting.
        let g = CsrGraph::power_law(2000, 8, 5);
        let mut in_deg = vec![0usize; g.vertex_count()];
        for &u in &g.neighbors {
            in_deg[u as usize] += 1;
        }
        let max_deg = *in_deg.iter().max().unwrap();
        let avg = g.edge_count() / g.vertex_count();
        assert!(
            max_deg > avg * 4,
            "power-law graph should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn adjacency_sorted() {
        let g = CsrGraph::power_law(300, 6, 9);
        for v in 0..g.vertex_count() as u32 {
            let n = g.neighbors_of(v);
            assert!(n.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
