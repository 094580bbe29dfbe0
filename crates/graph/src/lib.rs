#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! The paper's core graph substrate (§IV-A).
//!
//! A weighted undirected graph is stored as an array of `(i, j, w)` triples
//! with each edge stored **once**, plus a `|V|`-long array of self-loop
//! weights. The stored endpoint order follows the paper's *parity hash*: if
//! `i` and `j` have the same parity the smaller index is stored first,
//! otherwise the larger — scattering a high-degree vertex's edges across
//! many source buckets instead of concentrating them in its own.
//!
//! Edges are grouped into per-vertex *buckets* by their stored first index.
//! Buckets are addressed by `(begin, end)` index pairs into the edge arrays
//! and **need not be contiguous or ordered**, which is what lets the
//! contraction phase write buckets with nothing stronger than a
//! fetch-and-add (§IV-C).
//!
//! Space matches the paper: `3|V| + 3|E|` words plus scalars.

pub mod builder;
pub mod components;
pub mod csr;
pub mod edge;
pub mod io;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use edge::{canonical_order, Edge};
pub use pcd_util::{VertexId, Weight, NO_VERTEX};

use pcd_util::par;
use pcd_util::sync::RELAXED;

/// Weighted undirected graph in the paper's bucketed triple representation.
///
/// Invariants (checked by [`Graph::validate`]):
/// * every stored edge obeys the parity-hash canonical order and is not a
///   self-loop;
/// * the buckets partition the edge array, and every edge in vertex `v`'s
///   bucket has stored first endpoint `v`;
/// * all edge weights are positive;
/// * `total_weight == Σ w + Σ self_loop`.
#[derive(Debug, Clone)]
pub struct Graph {
    nv: usize,
    src: Vec<VertexId>,
    dst: Vec<VertexId>,
    weight: Vec<Weight>,
    bucket_begin: Vec<usize>,
    bucket_end: Vec<usize>,
    self_loop: Vec<Weight>,
    total_weight: Weight,
}

/// The raw storage of a [`Graph`], detached from its invariants.
///
/// This is the double-buffering handle of the level loop: contraction
/// scatters the next community graph into a recycled `GraphParts` (reusing
/// its capacity), and the previous level's graph is broken back into parts
/// once folded into the hierarchy. Graphs only shrink across levels, so
/// after the first level the ping-pong allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct GraphParts {
    /// Stored-first endpoints.
    pub src: Vec<VertexId>,
    /// Stored-second endpoints.
    pub dst: Vec<VertexId>,
    /// Edge weights.
    pub weight: Vec<Weight>,
    /// Per-vertex bucket start indices.
    pub bucket_begin: Vec<usize>,
    /// Per-vertex bucket end indices.
    pub bucket_end: Vec<usize>,
    /// Per-vertex self-loop weights.
    pub self_loop: Vec<Weight>,
}

impl Graph {
    /// Assembles a graph from raw parts. Used by the builder and by the
    /// contraction kernel (whose buckets are not contiguous).
    ///
    /// Debug builds validate all structural invariants.
    pub fn from_parts(
        nv: usize,
        src: Vec<VertexId>,
        dst: Vec<VertexId>,
        weight: Vec<Weight>,
        bucket_begin: Vec<usize>,
        bucket_end: Vec<usize>,
        self_loop: Vec<Weight>,
    ) -> Self {
        let inter: Weight = par::sum(weight.len(), |e| weight[e]);
        let selfw: Weight = par::sum(self_loop.len(), |v| self_loop[v]);
        let g = Graph {
            nv,
            src,
            dst,
            weight,
            bucket_begin,
            bucket_end,
            self_loop,
            total_weight: inter + selfw,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Assembles a graph from recycled [`GraphParts`] and a total weight
    /// the caller already knows (contraction conserves `Σ w + Σ self`, so
    /// the parent's total carries over without a reduction pass).
    ///
    /// Debug builds validate all structural invariants, including that the
    /// supplied total matches the actual sums.
    pub fn from_recycled_parts(nv: usize, parts: GraphParts, total_weight: Weight) -> Self {
        let GraphParts {
            src,
            dst,
            weight,
            bucket_begin,
            bucket_end,
            self_loop,
        } = parts;
        let g = Graph {
            nv,
            src,
            dst,
            weight,
            bucket_begin,
            bucket_end,
            self_loop,
            total_weight,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Breaks the graph back into raw storage for recycling.
    pub fn into_parts(self) -> GraphParts {
        GraphParts {
            src: self.src,
            dst: self.dst,
            weight: self.weight,
            bucket_begin: self.bucket_begin,
            bucket_end: self.bucket_end,
            self_loop: self.self_loop,
        }
    }

    /// An empty graph over `nv` isolated vertices.
    pub fn empty(nv: usize) -> Self {
        Graph {
            nv,
            src: Vec::new(),
            dst: Vec::new(),
            weight: Vec::new(),
            bucket_begin: vec![0; nv],
            bucket_end: vec![0; nv],
            self_loop: vec![0; nv],
            total_weight: 0,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.nv
    }

    /// Number of stored (unique, non-self) edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Total weight `m = Σ w + Σ self_loop` — the number of input-graph
    /// edges this (possibly contracted) graph represents.
    #[inline]
    pub fn total_weight(&self) -> Weight {
        self.total_weight
    }

    /// Self-loop weight of `v`: input edges fully inside community `v`.
    #[inline]
    pub fn self_loop(&self, v: VertexId) -> Weight {
        self.self_loop[v as usize]
    }

    /// The full self-loop array.
    #[inline]
    pub fn self_loops(&self) -> &[Weight] {
        &self.self_loop
    }

    /// Stored edge `e` as `(i, j, w)` with `(i, j)` in canonical order.
    #[inline]
    pub fn edge(&self, e: usize) -> (VertexId, VertexId, Weight) {
        (self.src[e], self.dst[e], self.weight[e])
    }

    /// Stored-first endpoints of all edges as a raw slice.
    #[inline]
    pub fn srcs(&self) -> &[VertexId] {
        &self.src
    }

    /// Stored-second endpoints of all edges as a raw slice.
    #[inline]
    pub fn dsts(&self) -> &[VertexId] {
        &self.dst
    }

    /// Edge weights as a raw slice.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weight
    }

    /// Edge-index range of vertex `v`'s bucket: the edges whose *stored
    /// first* endpoint is `v`. Note this is not `v`'s full adjacency — each
    /// edge lives in exactly one endpoint's bucket.
    #[inline]
    pub fn bucket(&self, v: VertexId) -> std::ops::Range<usize> {
        self.bucket_begin[v as usize]..self.bucket_end[v as usize]
    }

    /// Iterator over all stored edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_edges()).map(move |e| self.edge(e))
    }

    /// Per-vertex *volume*: `vol(v) = 2·self_loop(v) + Σ_{e ∋ v} w(e)`.
    /// `Σ vol = 2m`. Needed by both modularity and conductance scoring.
    pub fn volumes(&self) -> Vec<Weight> {
        let mut vol = Vec::new();
        self.volumes_into(&mut vol);
        vol
    }

    /// As [`Graph::volumes`], writing into a reused buffer (cleared first;
    /// capacity is retained, so steady-state calls allocate nothing).
    pub fn volumes_into(&self, vol: &mut Vec<Weight>) {
        vol.clear();
        vol.resize(self.nv, 0);
        par::for_each_mut(vol, |v, x| *x = 2 * self.self_loop[v]);
        {
            let cells = pcd_util::sync::as_atomic_u64(vol);
            par::for_each(self.num_edges(), |e| {
                let (i, j, w) = self.edge(e);
                // ORDERING: RELAXED — volume accumulation, atomicity only;
                // the join barrier publishes the folded totals.
                cells[i as usize].fetch_add(w, RELAXED);
                cells[j as usize].fetch_add(w, RELAXED);
            });
        }
    }

    /// Fraction of the total weight contained inside vertices (communities):
    /// `coverage = Σ self_loop / m`. The DIMACS-style termination rule stops
    /// agglomeration once coverage reaches 0.5.
    pub fn coverage(&self) -> f64 {
        if self.total_weight == 0 {
            return 1.0;
        }
        selfw_of(&self.self_loop) as f64 / self.total_weight as f64
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation. O(|V| + |E| log) — test/debug path.
    pub fn validate(&self) -> Result<(), String> {
        let ne = self.src.len();
        if self.dst.len() != ne || self.weight.len() != ne {
            return Err("edge array length mismatch".into());
        }
        if self.bucket_begin.len() != self.nv
            || self.bucket_end.len() != self.nv
            || self.self_loop.len() != self.nv
        {
            return Err("vertex array length mismatch".into());
        }
        let mut covered = vec![false; ne];
        for v in 0..self.nv {
            let (b, e) = (self.bucket_begin[v], self.bucket_end[v]);
            if b > e || e > ne {
                return Err(format!("bucket range of v{v} out of bounds: {b}..{e}"));
            }
            for (idx, seen) in (b..e).zip(&mut covered[b..e]) {
                if *seen {
                    return Err(format!("edge {idx} covered by two buckets"));
                }
                *seen = true;
                if self.src[idx] as usize != v {
                    return Err(format!(
                        "edge {idx} in bucket of v{v} but src is {}",
                        self.src[idx]
                    ));
                }
            }
        }
        if let Some(miss) = covered.iter().position(|&c| !c) {
            return Err(format!("edge {miss} not covered by any bucket"));
        }
        for e in 0..ne {
            let (i, j, w) = self.edge(e);
            if i == j {
                return Err(format!("self-loop stored as edge {e}"));
            }
            if i as usize >= self.nv || j as usize >= self.nv {
                return Err(format!("edge {e} endpoint out of range"));
            }
            if canonical_order(i, j) != (i, j) {
                return Err(format!("edge {e} = ({i},{j}) violates parity-hash order"));
            }
            if w == 0 {
                return Err(format!("edge {e} has zero weight"));
            }
        }
        let inter: Weight = self.weight.iter().sum();
        let selfw: Weight = self.self_loop.iter().sum();
        if inter + selfw != self.total_weight {
            return Err(format!(
                "total weight {} != {} + {}",
                self.total_weight, inter, selfw
            ));
        }
        // No duplicate edges: duplicates share the stored first endpoint,
        // hence would sit in the same bucket.
        for v in 0..self.nv {
            let mut dsts: Vec<VertexId> = (self.bucket_begin[v]..self.bucket_end[v])
                .map(|e| self.dst[e])
                .collect();
            dsts.sort_unstable();
            if dsts.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("duplicate edge in bucket of v{v}"));
            }
        }
        Ok(())
    }

    /// Sum of all self-loop weights (weight inside communities).
    pub fn internal_weight(&self) -> Weight {
        selfw_of(&self.self_loop)
    }
}

fn selfw_of(self_loop: &[Weight]) -> Weight {
    par::sum(self_loop.len(), |v| self_loop[v])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        // 0-1, 1-2, 0-2 with weights 1,2,3
        GraphBuilder::new(3)
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(0, 2, 3)
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0);
        assert_eq!(g.coverage(), 1.0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn triangle_volumes() {
        let g = triangle();
        let vol = g.volumes();
        assert_eq!(vol, vec![1 + 3, 1 + 2, 2 + 3]);
        assert_eq!(vol.iter().sum::<u64>(), 2 * g.total_weight());
    }

    #[test]
    fn coverage_counts_self_loops() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1)
            .add_self_loop(0, 3)
            .build();
        assert_eq!(g.total_weight(), 4);
        assert!((g.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(g.internal_weight(), 3);
    }

    #[test]
    fn buckets_partition_edges() {
        let g = triangle();
        let total: usize = (0..3).map(|v| g.bucket(v).len()).sum();
        assert_eq!(total, g.num_edges());
        for v in 0..3u32 {
            for e in g.bucket(v) {
                assert_eq!(g.edge(e).0, v);
            }
        }
    }

    #[test]
    fn validate_catches_bad_canonical_order() {
        // 0 and 1 differ in parity, so canonical order is (1, 0); storing
        // (0, 1) must fail validation.
        let g = Graph {
            nv: 2,
            src: vec![0],
            dst: vec![1],
            weight: vec![1],
            bucket_begin: vec![0, 1],
            bucket_end: vec![1, 1],
            self_loop: vec![0, 0],
            total_weight: 1,
        };
        assert!(g.validate().unwrap_err().contains("parity-hash"));
    }

    #[test]
    fn validate_catches_uncovered_edge() {
        let g = Graph {
            nv: 2,
            src: vec![1],
            dst: vec![0],
            weight: vec![1],
            bucket_begin: vec![0, 0],
            bucket_end: vec![0, 0],
            self_loop: vec![0, 0],
            total_weight: 1,
        };
        assert!(g.validate().unwrap_err().contains("not covered"));
    }

    #[test]
    fn validate_catches_zero_weight() {
        let g = Graph {
            nv: 2,
            src: vec![1],
            dst: vec![0],
            weight: vec![0],
            bucket_begin: vec![0, 0],
            bucket_end: vec![0, 1],
            self_loop: vec![0, 0],
            total_weight: 0,
        };
        assert!(g.validate().unwrap_err().contains("zero weight"));
    }

    #[test]
    fn parts_round_trip_preserves_graph() {
        let g = triangle();
        let total = g.total_weight();
        let (src, dst, w) = (g.srcs().to_vec(), g.dsts().to_vec(), g.weights().to_vec());
        let parts = g.into_parts();
        assert_eq!(parts.src, src);
        let g2 = Graph::from_recycled_parts(3, parts, total);
        assert_eq!(g2.srcs(), &src[..]);
        assert_eq!(g2.dsts(), &dst[..]);
        assert_eq!(g2.weights(), &w[..]);
        assert_eq!(g2.total_weight(), total);
        assert_eq!(g2.validate(), Ok(()));
    }

    #[test]
    fn volumes_into_reuses_buffer() {
        let g = triangle();
        let mut vol = vec![123u64; 10];
        g.volumes_into(&mut vol);
        assert_eq!(vol, vec![1 + 3, 1 + 2, 2 + 3]);
        assert_eq!(vol, g.volumes());
    }
}
