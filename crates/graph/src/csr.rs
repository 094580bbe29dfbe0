//! Compressed-sparse-row adjacency: the tree's one neighbour list in both
//! directions.
//!
//! The bucketed representation stores each edge once; the Louvain move
//! phase, refinement, the baselines and per-vertex neighbourhood scans
//! want every vertex's full adjacency. [`Csr::refresh`] builds it into the
//! capacity its buffers already have, on the stripe-private count → cursor
//! → scatter that contraction uses ([`Stripes`]):
//!
//! 1. **Count.** Each stripe of edges bumps both endpoints in its own row
//!    of counters. The column sums are the degrees, and their prefix sum
//!    is `xadj`.
//! 2. **Scatter.** Each edge takes one slot in each endpoint's row
//!    through its stripe's cursors, so every slot has one writer and no
//!    edge takes an atomic read-modify-write.
//!
//! The stripes cut the edges in order and each stripe's cursors start
//! where the stripes before it end, so the scatter is a stable counting
//! sort: every row lists its edges in the graph's edge order, at any
//! width. Rows are not sorted by neighbour id; no reader needs that.

use crate::Graph;
use pcd_util::par::Stripes;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, RELAXED};
use pcd_util::{VertexId, Weight};

/// Symmetric CSR adjacency: for every vertex, all incident edges.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `xadj[v]..xadj[v+1]` indexes `adj`/`wgt` for vertex `v`.
    pub xadj: Vec<usize>,
    /// Neighbour ids, each row in the graph's edge order.
    pub adj: Vec<VertexId>,
    /// Weight of the edge to the corresponding neighbour.
    pub wgt: Vec<Weight>,
    /// Self-loop weights copied from the source graph.
    pub self_loop: Vec<Weight>,
    /// Total weight `m`, as in [`Graph::total_weight`].
    pub total_weight: Weight,
    /// The build's per-stripe counters, kept for their capacity.
    stripes: Stripes,
}

impl Csr {
    /// Builds the symmetric adjacency from a bucketed graph.
    pub fn from_graph(g: &Graph) -> Self {
        let mut csr = Csr::default();
        csr.refresh(g);
        csr
    }

    /// Rebuilds the adjacency for `g` in place (module docs, steps 1–2),
    /// reusing the capacity of every buffer, as
    /// `ScoreContext::refresh` does for the scorer's context.
    pub fn refresh(&mut self, g: &Graph) {
        let (nv, ne) = (g.num_vertices(), g.num_edges());
        let Csr {
            xadj,
            adj,
            wgt,
            self_loop,
            total_weight,
            stripes,
        } = self;

        stripes.reset(ne, nv);
        stripes.for_each(|mut row, range| {
            for e in range {
                let (i, j, _) = g.edge(e);
                row.bump(i as usize);
                row.bump(j as usize);
            }
        });
        xadj.clear();
        xadj.resize(nv + 1, 0);
        stripes.column_sums(&mut xadj[..nv]);
        let total = exclusive_prefix_sum(&mut xadj[..nv]);
        xadj[nv] = total;
        let xadj: &[usize] = xadj;
        stripes.cursors_from(&xadj[..nv]);

        adj.clear();
        adj.resize(total, 0);
        wgt.clear();
        wgt.resize(total, 0);
        let (adj_c, wgt_c) = (as_atomic_u32(adj), as_atomic_u64(wgt));
        stripes.for_each(|mut row, range| {
            // ORDERING: RELAXED — each take hands out a distinct slot of
            // the stripe's own run of the row, so every slot has one
            // writer; the join barrier publishes the rows.
            for e in range {
                let (i, j, w) = g.edge(e);
                let s = row.take(i as usize);
                adj_c[s].store(j, RELAXED);
                wgt_c[s].store(w, RELAXED);
                let s = row.take(j as usize);
                adj_c[s].store(i, RELAXED);
                wgt_c[s].store(w, RELAXED);
            }
        });
        self_loop.resize(nv, 0);
        self_loop.copy_from_slice(g.self_loops());
        *total_weight = g.total_weight();
    }

    #[inline]
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.xadj.len().saturating_sub(1)
    }

    /// Degree (number of distinct neighbours) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbours of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (lo, hi) = (self.xadj[v as usize], self.xadj[v as usize + 1]);
        self.adj[lo..hi]
            .iter()
            .copied()
            .zip(self.wgt[lo..hi].iter().copied())
    }

    /// Weighted degree including self-loop volume:
    /// `vol(v) = 2·self_loop(v) + Σ w`.
    pub fn volume(&self, v: VertexId) -> Weight {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        2 * self.self_loop[v as usize] + self.wgt[r].iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        GraphBuilder::new(4)
            .add_pairs([(0, 1), (1, 2), (2, 3)])
            .build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let csr = Csr::from_graph(&path4());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.degree(3), 1);
        let mut n1: Vec<_> = csr.neighbors(1).collect();
        n1.sort_unstable();
        assert_eq!(n1, vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn volume_matches_graph() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 2)
            .add_edge(1, 2, 3)
            .add_self_loop(1, 5)
            .build();
        let csr = Csr::from_graph(&g);
        let vols = g.volumes();
        for v in 0..3u32 {
            assert_eq!(csr.volume(v), vols[v as usize]);
        }
    }

    #[test]
    fn total_adjacency_is_twice_edges() {
        let g = path4();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.adj.len(), 2 * g.num_edges());
        assert_eq!(csr.total_weight, g.total_weight());
    }

    #[test]
    fn refresh_over_a_larger_graphs_buffers_equals_a_fresh_build() {
        let mut b = GraphBuilder::new(40);
        for i in 0..40u32 {
            for j in (i + 1..40).filter(|j| (i * j) % 3 != 1) {
                b = b.add_edge(i, j, u64::from(i + j) % 5 + 1);
            }
            b = b.add_self_loop(i, u64::from(i % 4));
        }
        let big = b.build();
        let small = GraphBuilder::new(5)
            .add_pairs([(3, 0), (0, 4), (2, 1)])
            .add_self_loop(2, 9)
            .build();
        let mut csr = Csr::from_graph(&big);
        csr.refresh(&small);
        let fresh = Csr::from_graph(&small);
        assert_eq!(csr.xadj, fresh.xadj);
        assert_eq!(csr.adj, fresh.adj);
        assert_eq!(csr.wgt, fresh.wgt);
        assert_eq!(csr.self_loop, fresh.self_loop);
        assert_eq!(csr.total_weight, fresh.total_weight);
        let mut row: Vec<_> = csr.neighbors(0).collect();
        row.sort_unstable();
        assert_eq!(row, [(3, 1), (4, 1)]);
        // The refresh reused the larger graph's buffers.
        assert!(csr.adj.capacity() > fresh.adj.capacity());
    }

    #[test]
    fn isolated_vertices_have_empty_ranges() {
        let g = GraphBuilder::new(5).add_pairs([(0, 4)]).build();
        let csr = Csr::from_graph(&g);
        for v in [1u32, 2, 3] {
            assert_eq!(csr.degree(v), 0);
            assert_eq!(csr.neighbors(v).count(), 0);
        }
    }
}
