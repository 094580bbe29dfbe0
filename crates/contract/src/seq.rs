//! Sequential hash-map contraction — the differential-test oracle.

use crate::{relabel_from_matching, Contraction};
use pcd_graph::{builder, Graph};
use pcd_matching::Matching;
use pcd_util::{VertexId, Weight};
use std::collections::HashMap;

/// Contracts `g` along `m` with a single-threaded hash map. Simple enough
/// to be obviously correct; used to validate the parallel kernels.
pub fn contract_seq(g: &Graph, m: &Matching) -> Contraction {
    let (new_of_old, num_new) = relabel_from_matching(g, m);

    let mut self_loop: Vec<Weight> = vec![0; num_new];
    for v in 0..g.num_vertices() {
        self_loop[new_of_old[v] as usize] += g.self_loop(v as u32);
    }

    let mut acc: HashMap<(VertexId, VertexId), Weight> = HashMap::new();
    for (i, j, w) in g.edges() {
        let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
        if ni == nj {
            self_loop[ni as usize] += w;
        } else {
            let key = (ni.min(nj), ni.max(nj));
            *acc.entry(key).or_insert(0) += w;
        }
    }

    let mut edges: Vec<(VertexId, VertexId, Weight)> =
        acc.into_iter().map(|((a, b), w)| (a, b, w)).collect();
    edges.extend(
        self_loop
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(v, &w)| (v as u32, v as u32, w)),
    );

    Contraction {
        graph: builder::from_edges(num_new, edges),
        new_of_old,
        num_new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract, edge_fingerprint, Placement, RowSort};
    use pcd_matching::seq::match_sequential_greedy;

    #[test]
    fn oracle_matches_bucket_contraction() {
        for seed in 0..4u64 {
            let p = pcd_gen::RmatParams::paper(8, seed);
            let g = pcd_gen::rmat_graph(&p);
            let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
            let m = match_sequential_greedy(&g, &s);
            let a = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
            let b = contract_seq(&g, &m);
            assert_eq!(a.num_new, b.num_new);
            assert_eq!(edge_fingerprint(&a.graph), edge_fingerprint(&b.graph));
            assert_eq!(a.graph.self_loops(), b.graph.self_loops());
            assert_eq!(a.new_of_old, b.new_of_old);
        }
    }

    #[test]
    fn two_cliques_contract_toward_two_vertices() {
        let mut g = pcd_gen::classic::two_cliques(4);
        // Repeated uniform-score contraction must conserve weight at every
        // level and strictly shrink while merges remain.
        let w0 = g.total_weight();
        for _ in 0..5 {
            let s = vec![1.0; g.num_edges()];
            let m = match_sequential_greedy(&g, &s);
            if m.is_empty() {
                break;
            }
            let c = contract_seq(&g, &m);
            assert_eq!(c.graph.total_weight(), w0);
            assert!(c.num_new < g.num_vertices());
            g = c.graph;
        }
        assert!(g.num_vertices() <= 2);
    }
}
