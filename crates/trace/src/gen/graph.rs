//! Synthetic power-law graphs in CSR form for the GAP kernels.
//!
//! A [`CsrGraph`] is a recipe: [`CsrGraph::power_law`] checks its
//! arguments and does no per-vertex work. A [`CsrPrefix`] is one build
//! of it. Vertex `v`'s list depends only on the builder's iterations
//! `0..=v`, so a prefix runs them the first time a list at or past its
//! end is asked for ([`CsrPrefix::edges`]) and no further. A kernel that
//! walks vertices in order (CC, PR, TC) builds only the lists its trace
//! reads; one that starts anywhere (BFS, SSSP, BC) soon asks for a
//! high-numbered vertex and builds nearly all of them. Either way a
//! list is sorted only when it is first read: BFS builds every list of
//! `bfs_small` but reads about 8 % of them.

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
        // two edge arrays are allocated once and never doubled. Pages a
        // short prefix never writes are never touched.
        let edges = self.vertices * (self.avg_degree + 1);
        let mut offsets = Vec::with_capacity(self.vertices + 1);
        offsets.push(0u32);
        CsrPrefix {
            vertices: self.vertices,
            avg_degree: self.avg_degree,
            rng: Xoshiro256ss::seed_from_u64(self.seed),
            pool: Vec::with_capacity(edges),
            offsets,
            neighbors: Vec::with_capacity(edges),
            sorted: vec![0; self.vertices.div_ceil(64)],
        }
    }
}

/// A [`CsrGraph`] built as far as it has been read: the lists of
/// vertices `0..built()` in compressed-sparse-row form, and the builder
/// state that extends them.
///
/// Every accepted target is kept once, in `pool`, in the order it was
/// drawn; that is the unsorted edge array. The builder draws from the
/// endpoint pool of preferential attachment: every vertex once, then
/// each target once per edge it received. The first part is implicit
/// (a draw `i < vertices` is vertex `i`), so `pool` holds only the
/// second. A list's first read copies its segment into `neighbors`, at
/// the same CSR positions, and sorts it there.
#[derive(Clone, Debug)]
pub struct CsrPrefix {
    vertices: usize,
    avg_degree: usize,
    rng: Xoshiro256ss,
    /// Every target drawn so far, in draw order: `v`'s unsorted list is
    /// `pool[offsets[v]..offsets[v+1]]`.
    pool: Vec<u32>,
    /// `offsets[v]..offsets[v+1]` indexes `pool` and `neighbors` for
    /// vertex `v`.
    offsets: Vec<u32>,
    /// As long as `pool`: `v`'s list, sorted, once its bit in `sorted` is
    /// set; zero before.
    neighbors: Vec<u32>,
    /// One bit per vertex: its list has been copied to `neighbors` and
    /// sorted.
    sorted: Vec<u64>,
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

    /// Number of lists sorted so far: those [`Self::edges`] was asked for.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> usize {
        self.sorted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The edge indices of `v`'s list, sorted by target, building the
    /// lists up to `v` first if they are not built yet, and sorting `v`'s
    /// if it is not sorted yet. Read each target with [`Self::neighbor`].
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
        if self.sorted[v / 64] & (1 << (v % 64)) == 0 {
            self.sort(v);
        }
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The target of edge `i`, an index from [`Self::edges`].
    #[inline]
    pub fn neighbor(&self, i: u32) -> u32 {
        self.neighbors[i as usize]
    }

    /// Copies built vertex `v`'s list from `pool` to `neighbors` and sorts
    /// it there.
    #[inline(never)]
    fn sort(&mut self, v: usize) {
        let list = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        let sorted = &mut self.neighbors[list.clone()];
        sorted.copy_from_slice(&self.pool[list]);
        sorted.sort_unstable();
        self.sorted[v / 64] |= 1 << (v % 64);
    }

    /// Runs the builder's iterations up to and including `last`. Every
    /// edge of `v` is drawn in iteration `v`: its list is the tail of
    /// `pool`.
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
            vertices,
            avg_degree,
            rng,
            pool,
            offsets,
            ..
        } = self;
        let vertices = *vertices;
        for v in first..=last as u32 {
            let deg = 1 + rng.gen_index(*avg_degree * 2); // mean ≈ avg_degree
            for _ in 0..deg {
                let i = rng.gen_index(vertices + pool.len());
                let u = if i < vertices {
                    i as u32
                } else {
                    pool[i - vertices]
                };
                if u != v {
                    pool.push(u);
                }
            }
            let end = u32::try_from(pool.len()).expect("more edges than u32 CSR offsets hold");
            offsets.push(end);
        }
        // Zeroed as far as built, not allocated zeroed: a reused heap
        // block would be cleared whole, a cost CC's short prefix of a
        // large graph should not pay.
        self.neighbors.resize(self.pool.len(), 0);
    }
}

/// `power_law` as it was before it built CSR directly — one list per
/// vertex, drawn from a pool that starts as `0..vertices` — kept as the
/// reference the lazy build is checked against. Returns the lists
/// unsorted, the whole pool and the builder's RNG after the last vertex.
#[cfg(test)]
fn lists_and_pool(
    vertices: usize,
    avg_degree: usize,
    seed: u64,
) -> (Vec<Vec<u32>>, Vec<u32>, Xoshiro256ss) {
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
    (adj, pool, rng)
}

/// The reference build ([`lists_and_pool`]) as a fully built prefix:
/// each list sorted, then concatenated.
#[cfg(test)]
pub(crate) fn power_law_by_lists(vertices: usize, avg_degree: usize, seed: u64) -> CsrPrefix {
    let (mut adj, mut pool, rng) = lists_and_pool(vertices, avg_degree, seed);
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for list in &mut adj {
        list.sort_unstable();
        neighbors.extend_from_slice(list);
        offsets.push(neighbors.len() as u32);
    }
    let mut sorted = vec![0u64; vertices.div_ceil(64)];
    for v in 0..vertices {
        sorted[v / 64] |= 1 << (v % 64);
    }
    CsrPrefix {
        vertices,
        avg_degree,
        rng,
        pool: pool.split_off(vertices),
        offsets,
        neighbors,
        sorted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CsrPrefix {
        /// Builds every list not built yet; sorts none of them.
        fn grow_to_end(&mut self) {
            if self.built() < self.vertices {
                self.grow_to(self.vertices - 1);
            }
        }
    }

    /// The whole graph, built to the end, no list sorted yet.
    fn full(vertices: usize, avg_degree: usize, seed: u64) -> CsrPrefix {
        let mut g = CsrGraph::power_law(vertices, avg_degree, seed).prefix();
        g.grow_to_end();
        g
    }

    /// `v`'s list as a kernel reads it.
    fn list(g: &mut CsrPrefix, v: u32) -> Vec<u32> {
        g.edges(v).map(|i| g.neighbor(i)).collect()
    }

    /// Every list, read in vertex order.
    fn lists(g: &mut CsrPrefix) -> Vec<Vec<u32>> {
        (0..g.vertex_count() as u32).map(|v| list(g, v)).collect()
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
            let mut lazy = full(vertices, avg_degree, seed);
            let mut slow = power_law_by_lists(vertices, avg_degree, seed);
            let shape = (vertices, avg_degree, seed);
            assert_eq!((lazy.built(), lazy.sorted()), (vertices, 0), "{shape:?}");
            assert_eq!(lazy.offsets, slow.offsets, "{shape:?}");
            assert!(lists(&mut lazy) == lists(&mut slow), "{shape:?}");
            assert_eq!(lazy.sorted(), vertices, "{shape:?}");
        }
    }

    #[test]
    fn the_pool_is_the_reference_pool_without_its_identity_prefix() {
        for (vertices, avg_degree, seed) in [(2, 1, 5), (500, 8, 7), (40_000, 12, 101)] {
            let (_, pool, _) = lists_and_pool(vertices, avg_degree, seed);
            assert!(pool[..vertices].iter().copied().eq(0..vertices as u32));
            assert!(full(vertices, avg_degree, seed).pool == pool[vertices..]);
        }
    }

    #[test]
    fn a_prefix_grows_only_as_far_as_it_is_read_and_equals_the_full_build() {
        let mut whole = power_law_by_lists(2000, 8, 11);
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
            assert_eq!(edges, whole.edges(v), "{v}");
            assert_eq!(list(&mut g, v), list(&mut whole, v), "{v}");
        }
        assert_eq!(g.sorted(), 5, "only the lists read are sorted");
        assert_eq!(g.offsets, whole.offsets[..1502]);
        g.grow_to_end();
        assert_eq!(g.offsets, whole.offsets);
        assert_eq!(lists(&mut g), lists(&mut whole));
    }

    #[test]
    fn lists_read_in_a_shuffled_order_between_growth_equal_the_reference() {
        // Reads of lists already built interleaved with reads that grow
        // the prefix, in a seeded random order: each list is the
        // reference's whatever was built or sorted before it.
        let (vertices, avg_degree, seed) = (3000, 8, 23);
        let mut whole = power_law_by_lists(vertices, avg_degree, seed);
        let mut g = CsrGraph::power_law(vertices, avg_degree, seed).prefix();
        let mut order: Vec<u32> = (0..vertices as u32).collect();
        let mut rng = Xoshiro256ss::seed_from_u64(7);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        let mut grew = 0;
        for &v in &order {
            let before = g.built();
            assert_eq!(list(&mut g, v), list(&mut whole, v), "{v}");
            grew += usize::from(g.built() > before);
        }
        assert!(grew > 3, "the reads grew the prefix {grew} times");
        assert_eq!((g.built(), g.sorted()), (vertices, vertices));
    }

    #[test]
    fn a_list_read_twice_is_sorted_once() {
        let mut g = CsrGraph::power_law(500, 8, 7).prefix();
        g.grow_to_end();
        let v = (0..500)
            .find(|&v| g.offsets[v + 1] - g.offsets[v] > 2)
            .expect("a list of three or more") as u32;
        let first = list(&mut g, v);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        // A second copy and sort would undo this.
        let edges = g.edges(v);
        g.neighbors[edges.start as usize..edges.end as usize].reverse();
        let reversed: Vec<u32> = first.iter().rev().copied().collect();
        assert_eq!(list(&mut g, v), reversed);
        assert_eq!(g.sorted(), 1);
    }

    #[test]
    fn deterministic() {
        let mut a = full(500, 8, 7);
        let mut b = full(500, 8, 7);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(lists(&mut a), lists(&mut b));
    }

    #[test]
    fn csr_well_formed() {
        let mut g = full(1000, 8, 3);
        assert_eq!(g.vertex_count(), 1000);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.pool.len());
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
        let mut g = full(2000, 8, 5);
        let mut in_deg = vec![0usize; g.vertex_count()];
        let mut edges = 0;
        for list in lists(&mut g) {
            edges += list.len();
            for u in list {
                in_deg[u as usize] += 1;
            }
        }
        let max_deg = *in_deg.iter().max().unwrap();
        let avg = edges / g.vertex_count();
        assert!(
            max_deg > avg * 4,
            "power-law graph should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn adjacency_sorted() {
        let mut g = full(300, 6, 9);
        for v in 0..g.vertex_count() as u32 {
            let n = list(&mut g, v);
            assert!(n.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
