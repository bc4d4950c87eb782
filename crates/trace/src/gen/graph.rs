//! Synthetic power-law graphs in CSR form for the GAP kernels.
//!
//! A [`CsrGraph`] is a recipe: [`CsrGraph::power_law`] checks its
//! arguments and does no per-vertex work. A [`CsrPrefix`] is one build
//! of it. Vertex `v`'s list depends only on the builder's iterations
//! `0..=v`, so a prefix runs them the first time a list at or past its
//! end is asked for ([`CsrPrefix::edges`]) and no further. A kernel that
//! walks vertices in order (CC, PR, TC) builds only the lists its trace
//! reads; one that starts anywhere (BFS, SSSP, BC) soon asks for a
//! high-numbered vertex and builds nearly all of them.

use secpref_types::rng::Xoshiro256ss;
use std::ops::Range;

/// A directed power-law graph, like the GAP benchmark suite's synthetic
/// inputs, described by its recipe. Every [`CsrGraph::prefix`] of it
/// builds the same lists, bit for bit.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    vertices: usize,
    avg_degree: usize,
    seed: u64,
}

impl CsrGraph {
    /// A power-law graph with `vertices` vertices and average out-degree
    /// `avg_degree`, via preferential attachment over a growing candidate
    /// pool (cheap, deterministic, heavy-tailed like the GAP Kronecker
    /// inputs). Nothing is built until a [`CsrPrefix`] asks for a list.
    ///
    /// # Panics
    ///
    /// Panics if `vertices < 2` or `avg_degree == 0`, or if `vertices`
    /// does not fit a `u32` vertex id.
    pub fn power_law(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        assert!(vertices >= 2, "need at least two vertices");
        assert!(avg_degree > 0, "need a positive degree");
        assert!(
            u32::try_from(vertices).is_ok(),
            "more vertices than u32 ids hold"
        );
        CsrGraph {
            vertices,
            avg_degree,
            seed,
        }
    }

    /// Number of vertices of the whole graph, built or not.
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// A fresh build of this graph with no list built yet.
    pub fn prefix(&self) -> CsrPrefix {
        // Out-degrees average just under `avg_degree + 1/2`: past a few
        // hundred vertices these capacities are never outgrown, so the
        // two big vectors are allocated once and never doubled. Pages a
        // short prefix never writes are never touched.
        let edges = self.vertices * (self.avg_degree + 1);
        let mut offsets = Vec::with_capacity(self.vertices + 1);
        offsets.push(0u32);
        // Endpoint pool: vertices appear once plus once per received
        // edge, giving preferential attachment.
        let mut pool: Vec<u32> = Vec::with_capacity(self.vertices + edges);
        pool.extend(0..self.vertices as u32);
        CsrPrefix {
            vertices: self.vertices,
            avg_degree: self.avg_degree,
            rng: Xoshiro256ss::seed_from_u64(self.seed),
            pool,
            offsets,
            neighbors: Vec::with_capacity(edges),
        }
    }
}

/// A [`CsrGraph`] built as far as it has been read: the lists of
/// vertices `0..built()` in compressed-sparse-row form, and the builder
/// state that extends them.
#[derive(Clone, Debug)]
pub struct CsrPrefix {
    vertices: usize,
    avg_degree: usize,
    rng: Xoshiro256ss,
    pool: Vec<u32>,
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl CsrPrefix {
    /// Number of vertices of the whole graph, built or not.
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// Number of vertices whose lists are built: `0..built()`.
    pub fn built(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The edge indices of `v`'s list, sorted by target, building the
    /// lists up to `v` first if they are not built yet. Read each target
    /// with [`Self::neighbor`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    #[inline]
    pub fn edges(&mut self, v: u32) -> Range<u32> {
        let v = v as usize;
        if v >= self.built() {
            self.grow_to(v);
        }
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The target of edge `i`, an index from [`Self::edges`].
    #[inline]
    pub fn neighbor(&self, i: u32) -> u32 {
        self.neighbors[i as usize]
    }

    /// Builds every list not built yet.
    pub fn grow_to_end(&mut self) {
        if self.built() < self.vertices {
            self.grow_to(self.vertices - 1);
        }
    }

    /// Runs the builder's iterations up to and including `last`. Every
    /// edge of `v` is drawn in iteration `v`: its list is the tail of
    /// `neighbors`, sorted in place.
    ///
    /// # Panics
    ///
    /// Panics if `last` is not a vertex, or past `u32::MAX` edges.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, last: usize) {
        assert!(last < self.vertices, "vertex {last} of {}", self.vertices);
        let first = self.built() as u32;
        let CsrPrefix {
            avg_degree,
            rng,
            pool,
            offsets,
            neighbors,
            ..
        } = self;
        for v in first..=last as u32 {
            let start = neighbors.len();
            let deg = 1 + rng.gen_index(*avg_degree * 2); // mean ≈ avg_degree
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
    }
}

/// `power_law` as it was before it built CSR directly — one list per
/// vertex, each sorted, then concatenated — kept as the reference the
/// lazy build is checked against, returned as a fully built prefix.
#[cfg(test)]
pub(crate) fn power_law_by_lists(vertices: usize, avg_degree: usize, seed: u64) -> CsrPrefix {
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
    CsrPrefix {
        vertices,
        avg_degree,
        rng,
        pool,
        offsets,
        neighbors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole graph, built to the end.
    fn full(vertices: usize, avg_degree: usize, seed: u64) -> CsrPrefix {
        let mut g = CsrGraph::power_law(vertices, avg_degree, seed).prefix();
        g.grow_to_end();
        g
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
            let lazy = full(vertices, avg_degree, seed);
            let slow = power_law_by_lists(vertices, avg_degree, seed);
            let shape = (vertices, avg_degree, seed);
            assert_eq!(lazy.built(), vertices, "{shape:?}");
            assert_eq!(lazy.offsets, slow.offsets, "{shape:?}");
            assert_eq!(lazy.neighbors, slow.neighbors, "{shape:?}");
        }
    }

    #[test]
    fn a_prefix_grows_only_as_far_as_it_is_read_and_equals_the_full_build() {
        let whole = power_law_by_lists(2000, 8, 11);
        let graph = CsrGraph::power_law(2000, 8, 11);
        let mut g = graph.prefix();
        assert_eq!((g.built(), g.vertex_count()), (0, 2000));
        // Out of order: asking for 17 builds 0..=17; a lower vertex then
        // builds nothing more.
        for (v, built) in [
            (17, 18),
            (3, 18),
            (17, 18),
            (18, 19),
            (1500, 1501),
            (0, 1501),
        ] {
            let edges = g.edges(v);
            assert_eq!(g.built(), built, "after asking for {v}");
            let (s, t) = (whole.offsets[v as usize], whole.offsets[v as usize + 1]);
            assert_eq!(edges, s..t, "{v}");
            let got: Vec<u32> = edges.map(|i| g.neighbor(i)).collect();
            assert_eq!(got, whole.neighbors[s as usize..t as usize], "{v}");
        }
        assert_eq!(g.offsets, whole.offsets[..1502]);
        g.grow_to_end();
        assert_eq!(g.offsets, whole.offsets);
        assert_eq!(g.neighbors, whole.neighbors);
    }

    #[test]
    fn deterministic() {
        let a = full(500, 8, 7);
        let b = full(500, 8, 7);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn csr_well_formed() {
        let mut g = full(1000, 8, 3);
        assert_eq!(g.vertex_count(), 1000);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.neighbors.len());
        for v in 0..g.vertex_count() as u32 {
            for i in g.edges(v) {
                let u = g.neighbor(i);
                assert!((u as usize) < g.vertex_count());
                assert_ne!(u, v, "no self loops");
            }
        }
    }

    #[test]
    fn heavy_tail_exists() {
        // Preferential attachment skews *in*-degree: popular vertices are
        // the targets the kernels' dependent property loads keep hitting.
        let g = full(2000, 8, 5);
        let mut in_deg = vec![0usize; g.vertex_count()];
        for &u in &g.neighbors {
            in_deg[u as usize] += 1;
        }
        let max_deg = *in_deg.iter().max().unwrap();
        let avg = g.neighbors.len() / g.vertex_count();
        assert!(
            max_deg > avg * 4,
            "power-law graph should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn adjacency_sorted() {
        let mut g = full(300, 6, 9);
        for v in 0..g.vertex_count() as u32 {
            let n: Vec<u32> = g.edges(v).map(|i| g.neighbor(i)).collect();
            assert!(n.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
