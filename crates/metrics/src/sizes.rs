//! Coverage: the fraction of the total weight inside communities.

use pcd_graph::Graph;
use pcd_util::par;
use pcd_util::VertexId;

/// Coverage of `assignment` over `g`: fraction of total weight falling
/// inside communities (self-loops always count as internal).
pub fn coverage(g: &Graph, assignment: &[VertexId]) -> f64 {
    assert_eq!(assignment.len(), g.num_vertices());
    let m = g.total_weight();
    if m == 0 {
        return 1.0;
    }
    let internal_edges: u64 = par::sum(g.num_edges(), |e| {
        let (i, j, w) = g.edge(e);
        if assignment[i as usize] == assignment[j as usize] {
            w
        } else {
            0
        }
    });
    (internal_edges + g.internal_weight()) as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_of_perfect_split() {
        let g = pcd_gen::classic::two_cliques(5);
        let mut a = vec![0u32; 10];
        a[5..].iter_mut().for_each(|x| *x = 1);
        // 20 internal edges of 21 total.
        assert!((coverage(&g, &a) - 20.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_singletons_is_zero_without_self_loops() {
        let g = pcd_gen::classic::ring(6);
        let a: Vec<u32> = (0..6).collect();
        assert_eq!(coverage(&g, &a), 0.0);
    }

    #[test]
    fn coverage_all_in_one_is_one() {
        let g = pcd_gen::classic::ring(6);
        assert_eq!(coverage(&g, &[0; 6]), 1.0);
    }
}
