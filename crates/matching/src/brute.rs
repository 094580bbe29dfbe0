//! Exact maximum-weight matching by bitmask dynamic programming — the
//! oracle that lets tests *verify* the paper's claim that the greedy
//! matching's weight is "within a factor of two of the maximum possible
//! value" (Preis), instead of taking it on faith.
//!
//! Exponential in `|V|`; restricted to tiny graphs (≤ ~20 vertices), and
//! compiled only for this crate's unit tests.

use pcd_graph::Graph;

/// Computes the maximum total score over all matchings of the
/// positive-score subgraph. Panics if the graph has more than 24 vertices.
pub(crate) fn max_weight_matching_score(g: &Graph, scores: &[f64]) -> f64 {
    assert!(g.num_vertices() <= 24, "brute force limited to tiny graphs");
    assert_eq!(scores.len(), g.num_edges());
    let edges: Vec<(u32, u32, f64)> = (0..g.num_edges())
        .filter(|&e| scores[e] > 0.0)
        .map(|e| {
            let (i, j, _) = g.edge(e);
            (i, j, scores[e])
        })
        .collect();
    // dp over used-vertex bitmask, memoised on the set of used vertices is
    // too large; instead recurse over edges with branch and bound-free
    // plain DFS (positive edge counts are tiny in the proptest sizes).
    fn dfs(edges: &[(u32, u32, f64)], used: u32) -> f64 {
        match edges.split_first() {
            None => 0.0,
            Some((&(i, j, w), rest)) => {
                // Skip this edge.
                let skip = dfs(rest, used);
                // Take it if both endpoints are free.
                if used & (1 << i) == 0 && used & (1 << j) == 0 {
                    let take = w + dfs(rest, used | (1 << i) | (1 << j));
                    skip.max(take)
                } else {
                    skip
                }
            }
        }
    }
    dfs(&edges, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::match_unmatched_list;
    use crate::seq::match_sequential_greedy;

    #[test]
    fn path_optimum_beats_greedy_trap() {
        // Path a-b-c-d with scores 1, 1.5, 1: greedy takes the middle
        // (1.5); optimum takes the outer pair (2.0).
        let g = pcd_gen::classic::path(4);
        let mut s = vec![1.0; g.num_edges()];
        for (e, score) in s.iter_mut().enumerate() {
            let (i, j, _) = g.edge(e);
            if (i.min(j), i.max(j)) == (1, 2) {
                *score = 1.5;
            }
        }
        assert_eq!(max_weight_matching_score(&g, &s), 2.0);
        let greedy = match_sequential_greedy(&g, &s);
        assert_eq!(greedy.total_score(&s), 1.5);
        // Factor-2 bound holds (1.5 >= 2.0 / 2).
        assert!(greedy.total_score(&s) >= 0.5 * 2.0);
    }

    #[test]
    fn all_negative_scores_empty_optimum() {
        let g = pcd_gen::classic::ring(5);
        let s = vec![-1.0; g.num_edges()];
        assert_eq!(max_weight_matching_score(&g, &s), 0.0);
    }

    #[test]
    fn greedy_half_approximation_spot_checks() {
        pcd_util::prop::check(30, |rng| {
            let nv = rng.gen_range(4..12usize);
            let ne = rng.gen_range(3..20usize);
            let edges: Vec<_> = (0..ne)
                .map(|_| {
                    (
                        rng.gen_range(0..nv as u32),
                        rng.gen_range(0..nv as u32),
                        1u64,
                    )
                })
                .collect();
            let g = pcd_graph::builder::from_edges(nv, edges);
            let s: Vec<f64> = (0..g.num_edges())
                .map(|_| rng.gen_range(0.1..10.0f64))
                .collect();
            let opt = max_weight_matching_score(&g, &s);
            for (name, m) in [
                ("greedy", match_sequential_greedy(&g, &s)),
                ("parallel", match_unmatched_list(&g, &s)),
            ] {
                let w = m.total_score(&s);
                assert!(
                    w >= 0.5 * opt - 1e-9 && w <= opt + 1e-9,
                    "{name}: {w} vs opt {opt}"
                );
            }
        });
    }
}
