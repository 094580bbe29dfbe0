//! Sequential greedy matching — the Preis-style oracle.
//!
//! Sorts positively-scored edges in descending (score, src, dst) order and
//! takes each edge whose endpoints are both still free. This is the
//! textbook 1/2-approximation to maximum-weight matching; both parallel
//! algorithms compute exactly this matching (locally-dominant selection
//! under a total order equals global greedy), which the tests exploit.

use crate::Matching;
use pcd_graph::Graph;
use pcd_util::NO_VERTEX;

/// Computes the greedy matching sequentially.
pub fn match_sequential_greedy(g: &Graph, scores: &[f64]) -> Matching {
    assert_eq!(scores.len(), g.num_edges());
    let mut order: Vec<usize> = (0..g.num_edges()).filter(|&e| scores[e] > 0.0).collect();
    order.sort_unstable_by(|&a, &b| {
        let ka = (scores[a], g.srcs()[a], g.dsts()[a]);
        let kb = (scores[b], g.srcs()[b], g.dsts()[b]);
        // analyze: allow(panic, reason = "the engine's finite-score guard runs before any matcher sees scores")
        kb.partial_cmp(&ka).expect("NaN score")
    });
    let mut mate = vec![NO_VERTEX; g.num_vertices()];
    let mut edges = Vec::new();
    for e in order {
        let (i, j, _) = g.edge(e);
        if mate[i as usize] == NO_VERTEX && mate[j as usize] == NO_VERTEX {
            mate[i as usize] = j;
            mate[j as usize] = i;
            edges.push(e);
        }
    }
    Matching::new(mate, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::match_unmatched_list;
    use crate::verify::verify_matching;

    #[test]
    fn greedy_picks_heaviest_first() {
        let g = pcd_gen::classic::path(3); // edges 0-1, 1-2
        let mut s = vec![0.0; g.num_edges()];
        // Give the edge incident to vertex 2 the higher score.
        for (e, score) in s.iter_mut().enumerate() {
            let (i, j, _) = g.edge(e);
            *score = if i.max(j) == 2 { 2.0 } else { 1.0 };
        }
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(0), None);
    }

    #[test]
    fn unmatched_list_is_valid_and_weight_comparable() {
        // The unmatched-list algorithm need not equal greedy (bucket-local
        // proposals), but it must be a valid maximal matching of
        // comparable weight.
        for seed in 0..5u64 {
            let p = pcd_gen::RmatParams::paper(8, seed);
            let g = pcd_gen::rmat_graph(&p);
            let s: Vec<f64> = g
                .weights()
                .iter()
                .enumerate()
                .map(|(e, &w)| w as f64 + (e % 3) as f64)
                .collect();
            let a = match_sequential_greedy(&g, &s);
            let b = match_unmatched_list(&g, &s);
            assert!(verify_matching(&g, &s, &a).is_ok());
            assert!(verify_matching(&g, &s, &b).is_ok());
            let (wa, wb) = (a.total_score(&s), b.total_score(&s));
            assert!(wb >= 0.5 * wa, "seed {seed}: greedy {wa}, parallel {wb}");
        }
    }

    #[test]
    fn half_approximation_on_weighted_path() {
        // Path a-b-c-d with scores 1, 2, 1: optimal = {ab, cd} weight 2;
        // greedy takes bc, weight 2 >= 2/2. Verify greedy >= half of a
        // brute-force optimum on a few small graphs.
        let g = pcd_gen::classic::path(4);
        let mut s = vec![0.0; g.num_edges()];
        for (e, score) in s.iter_mut().enumerate() {
            let (i, j, _) = g.edge(e);
            *score = if (i.min(j), i.max(j)) == (1, 2) {
                2.0
            } else {
                1.0
            };
        }
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.total_score(&s), 2.0);
    }

    #[test]
    fn empty_graph() {
        let g = pcd_graph::Graph::empty(3);
        let m = match_sequential_greedy(&g, &[]);
        assert!(m.is_empty());
    }
}
