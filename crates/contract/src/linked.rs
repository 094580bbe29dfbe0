//! The 2011 baseline contraction: hash-chain merging.
//!
//! "Our prior implementation used a technique due to John T. Feo where
//! edges are associated to linked lists by a hash of the vertices. …
//! The amount of locking and overhead in iterating over massive,
//! dynamically changing linked lists rendered a similar implementation on
//! Intel-based platforms using OpenMP infeasible."
//!
//! This module reproduces that design honestly for Intel-class hardware:
//! a fixed table of mutex-guarded chains, one lock acquisition and a linear
//! chain walk per relabelled edge. The ablation benchmark compares it
//! against the bucket-sort contraction; expect it to lose badly as
//! contention grows — that gap *is* the paper's point.

use crate::{contracted_self_loops, relabel_from_matching, Contraction};
use pcd_graph::{canonical_order, Graph};
use pcd_matching::Matching;
use pcd_util::par;
use pcd_util::rng::mix64;
use pcd_util::sync::{as_atomic_u64, RELAXED};
use pcd_util::{VertexId, Weight};
use std::sync::{Mutex, PoisonError};

/// Contracts `g` along `m` using mutex-guarded hash chains.
pub fn contract_linked(g: &Graph, m: &Matching) -> Contraction {
    let (new_of_old, num_new) = relabel_from_matching(g, m);
    let mut self_loop = contracted_self_loops(g, m, &new_of_old, num_new);

    let ne = g.num_edges();
    let matched: Vec<bool> = {
        let mut v = vec![false; ne];
        for &e in m.matched_edges() {
            v[e] = true;
        }
        v
    };

    // Chain table sized ~|E| as the paper's |E| + |V| extra storage.
    let nbuckets = ne.next_power_of_two().max(64);
    let table: Vec<Mutex<Vec<(VertexId, VertexId, Weight)>>> =
        (0..nbuckets).map(|_| Mutex::new(Vec::new())).collect();

    {
        let self_c = as_atomic_u64(&mut self_loop);
        par::for_each(ne, |e| {
            let (i, j, w) = g.edge(e);
            let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
            if ni == nj {
                if !matched[e] {
                    // ORDERING: RELAXED — self-loop weight accumulation
                    // needs atomicity only; the join barrier publishes it.
                    self_c[ni as usize].fetch_add(w, RELAXED);
                }
                return;
            }
            let (a, b) = canonical_order(ni, nj);
            let h = mix64(((a as u64) << 32) | b as u64) as usize & (nbuckets - 1);
            // A poisoned chain only means another edge's walk panicked;
            // that panic reaches the caller through the region anyway.
            let mut chain = table[h].lock().unwrap_or_else(PoisonError::into_inner);
            // Walk the chain; accumulate or append.
            for entry in chain.iter_mut() {
                if entry.0 == a && entry.1 == b {
                    entry.2 += w;
                    return;
                }
            }
            chain.push((a, b, w));
        });
    }

    // Drain chains into a flat edge list (chain order is
    // schedule-dependent, so sort for a deterministic final graph).
    let mut edges: Vec<(VertexId, VertexId, Weight)> = table
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    edges.sort_unstable();

    // Assemble buckets: edges are unique already; group by src.
    let srcs: Vec<VertexId> = edges.iter().map(|e| e.0).collect();
    let counts = {
        use pcd_util::sync::AtomicUsize;
        let c: Vec<AtomicUsize> = (0..num_new).map(|_| AtomicUsize::new(0)).collect();
        par::for_each(srcs.len(), |k| {
            // ORDERING: RELAXED — counter increment, atomicity only; the
            // join barrier orders the into_inner() reads after it.
            c[srcs[k] as usize].fetch_add(1, RELAXED);
        });
        c.into_iter().map(|x| x.into_inner()).collect::<Vec<_>>()
    };
    let off = pcd_util::scan::offsets_from_counts(&counts);
    // Sorted by (src, dst) already, so runs are contiguous and in offset
    // order; a direct unzip is enough.
    let dst: Vec<u32> = par::map(edges.len(), |k| edges[k].1);
    let weight: Vec<u64> = par::map(edges.len(), |k| edges[k].2);

    let graph = Graph::from_parts(
        num_new,
        srcs,
        dst,
        weight,
        off[..num_new].to_vec(),
        off[1..=num_new].to_vec(),
        self_loop,
    );
    Contraction {
        graph,
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
    fn agrees_with_bucket_contraction() {
        for seed in [2u64, 9, 31] {
            let p = pcd_gen::RmatParams::paper(9, seed);
            let g = pcd_gen::rmat_graph(&p);
            let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
            let m = match_sequential_greedy(&g, &s);
            let a = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
            let b = contract_linked(&g, &m);
            assert_eq!(a.num_new, b.num_new, "seed {seed}");
            assert_eq!(edge_fingerprint(&a.graph), edge_fingerprint(&b.graph));
            assert_eq!(a.graph.self_loops(), b.graph.self_loops());
            assert_eq!(b.graph.validate(), Ok(()));
        }
    }

    #[test]
    fn conserves_weight() {
        let g = pcd_gen::classic::clique_ring(5, 6);
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(&g, &s);
        let c = contract_linked(&g, &m);
        assert_eq!(c.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        let m = pcd_matching::Matching::empty(3);
        let c = contract_linked(&g, &m);
        assert_eq!(c.num_new, 3);
        assert_eq!(c.graph.num_edges(), 0);
    }
}
