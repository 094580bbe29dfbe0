#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Community-graph contraction (§IV-C) — the phase the paper says takes
//! "from 40% to 80% of the execution time".
//!
//! Given a matching, every matched pair becomes one new vertex. Edges are
//! relabelled to new ids, re-canonicalised under the parity hash, bucketed
//! by their new stored-first endpoint, sorted and accumulated within each
//! bucket, and emitted as the next community graph. Matched edges (and any
//! edge whose endpoints land in the same new vertex) fold into self-loops.
//!
//! Implementations:
//!
//! * [`bucket`] — the paper's bucket-sort contraction as one pipeline
//!   with two ablation choices: the per-row sort ([`RowSort`]: LSD radix,
//!   the default, or the tandem heapsort) and the bucket placement
//!   ([`Placement`]: prefix sum, or the racy global fetch-and-add the
//!   paper "ha\[s\] not timed"). Every choice emits the same graph bit for
//!   bit (DESIGN.md §15). Its map entry point [`contract_map_into`]
//!   contracts along any many-to-one vertex map: multilevel and refined
//!   community graphs.
//! * [`linked`] — the 2011 baseline: hash-chain merging in the style of
//!   John T. Feo's full/empty-bit linked lists, rendered honestly on Intel
//!   hardware as mutex-guarded chains ("infeasible" under OpenMP — the
//!   benches quantify how much slower it is).
//! * [`seq`] — a sequential hash-map oracle for differential testing.

pub mod bucket;
pub mod linked;
pub mod seq;

pub use bucket::{contract, contract_into, contract_map_into, ContractScratch, Placement, RowSort};

use pcd_graph::Graph;
use pcd_matching::Matching;
use pcd_util::par;
use pcd_util::sync::{as_atomic_u64, RELAXED};
use pcd_util::{VertexId, Weight};

/// Result of contracting a community graph along a matching.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The contracted community graph over `num_new` vertices.
    pub graph: Graph,
    /// `new_of_old[old] = new` community id; every old vertex maps
    /// somewhere (unmatched vertices survive as singletons).
    pub new_of_old: Vec<VertexId>,
    /// Number of vertices in the contracted graph.
    pub num_new: usize,
}

/// Computes the old→new vertex relabelling induced by a matching: each
/// matched pair collapses onto one id, unmatched vertices keep their own.
/// New ids are assigned in ascending order of the pair's smaller old id
/// (deterministic). Returns `(new_of_old, num_new)`.
pub fn relabel_from_matching(g: &Graph, m: &Matching) -> (Vec<VertexId>, usize) {
    let mut is_leader = Vec::new();
    let mut new_of_old = Vec::new();
    let num_new = relabel_into(g, m, &mut is_leader, &mut new_of_old);
    (new_of_old, num_new)
}

/// As [`relabel_from_matching`], writing into reused buffers (`is_leader`
/// is working storage for the prefix sum; `new_of_old` the result). Both
/// are cleared first and retain capacity. Returns `num_new`.
pub fn relabel_into(
    g: &Graph,
    m: &Matching,
    is_leader: &mut Vec<usize>,
    new_of_old: &mut Vec<VertexId>,
) -> usize {
    let nv = g.num_vertices();
    assert_eq!(m.mates().len(), nv);
    // Leaders: unmatched vertices and the smaller endpoint of each pair.
    is_leader.clear();
    is_leader.resize(nv, 0);
    par::for_each_mut(is_leader, |v, l| {
        *l = match m.mate(v as u32) {
            Some(p) => (v < p as usize) as usize,
            None => 1,
        };
    });
    let num_new = pcd_util::scan::exclusive_prefix_sum(is_leader);
    new_of_old.clear();
    new_of_old.resize(nv, 0);
    {
        let is_leader: &[usize] = is_leader;
        par::for_each_mut(new_of_old, |v, n| {
            let leader = match m.mate(v as u32) {
                Some(p) => v.min(p as usize),
                None => v,
            };
            *n = is_leader[leader] as VertexId;
        });
    }
    num_new
}

/// Accumulates the self-loop weights of the contracted graph: each new
/// vertex inherits its members' self-loops plus the weight of the matched
/// edge joining them.
pub fn contracted_self_loops(
    g: &Graph,
    m: &Matching,
    new_of_old: &[VertexId],
    num_new: usize,
) -> Vec<Weight> {
    let mut self_loop = vec![0; num_new];
    {
        let cells = as_atomic_u64(&mut self_loop);
        // ORDERING: RELAXED — both loops are pure weight accumulations
        // (atomicity only, no cross-thread publication through the cells);
        // the regions' joins publish the totals to the caller.
        par::for_each(g.num_vertices(), |v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                cells[new_of_old[v] as usize].fetch_add(s, RELAXED);
            }
        });
        let matched = m.matched_edges();
        par::for_each(matched.len(), |k| {
            let (i, _, w) = g.edge(matched[k]);
            cells[new_of_old[i as usize] as usize].fetch_add(w, RELAXED);
        });
    }
    self_loop
}

/// Canonical multiset of a graph's edges as `(min, max, w)` sorted — a
/// layout-independent fingerprint used to compare contraction
/// implementations.
pub fn edge_fingerprint(g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
    let mut edges: Vec<_> = par::map(g.num_edges(), |e| {
        let (i, j, w) = g.edge(e);
        (i.min(j), i.max(j), w)
    });
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_matching::seq::match_sequential_greedy;

    #[test]
    fn relabel_pairs_and_singletons() {
        // Path 0-1-2-3, match (0,1) and (2,3) by uniform scores.
        let g = pcd_gen::classic::path(4);
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(&g, &s);
        let (map, n) = relabel_from_matching(&g, &m);
        assert_eq!(n, 4 - m.len());
        // Pair members share an id; ids are dense.
        for v in 0..4u32 {
            if let Some(p) = m.mate(v) {
                assert_eq!(map[v as usize], map[p as usize]);
            }
            assert!((map[v as usize] as usize) < n);
        }
    }

    #[test]
    fn relabel_empty_matching_is_identity() {
        let g = pcd_gen::classic::ring(5);
        let m = pcd_matching::Matching::empty(5);
        let (map, n) = relabel_from_matching(&g, &m);
        assert_eq!(n, 5);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn self_loops_absorb_matched_edge() {
        let g = pcd_graph::GraphBuilder::new(2)
            .add_edge(0, 1, 3)
            .add_self_loop(0, 2)
            .build();
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.len(), 1);
        let (map, n) = relabel_from_matching(&g, &m);
        let sl = contracted_self_loops(&g, &m, &map, n);
        assert_eq!(n, 1);
        assert_eq!(sl, vec![5]); // 2 (old self) + 3 (matched edge)
    }

    #[test]
    fn fingerprint_is_layout_independent() {
        let a = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(0, 1), (2, 3)])
            .build();
        let b = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(2, 3), (0, 1)])
            .build();
        assert_eq!(edge_fingerprint(&a), edge_fingerprint(&b));
    }
}
