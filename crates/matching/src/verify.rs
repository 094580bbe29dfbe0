//! Independent matching verifier used by tests and debug assertions.

use crate::Matching;
use pcd_graph::Graph;
use pcd_util::NO_VERTEX;

/// Checks that `m` is a valid maximal matching of `g` over the
/// positive-score subgraph:
///
/// 1. mate array is symmetric and self-free;
/// 2. every matched edge index refers to a real edge whose endpoints are
///    mutually mated, with positive score;
/// 3. each vertex appears in at most one matched edge, and every mated
///    vertex appears in exactly one;
/// 4. maximality: no positive-score edge has both endpoints unmatched.
pub fn verify_matching(g: &Graph, scores: &[f64], m: &Matching) -> Result<(), String> {
    let nv = g.num_vertices();
    if m.mates().len() != nv {
        return Err("mate array length mismatch".into());
    }
    // 1. symmetry.
    for v in 0..nv {
        let p = m.mates()[v];
        if p != NO_VERTEX {
            if p as usize >= nv {
                return Err(format!("mate of v{v} out of range"));
            }
            if p as usize == v {
                return Err(format!("v{v} mated to itself"));
            }
            if m.mates()[p as usize] != v as u32 {
                return Err(format!("mate array asymmetric at v{v}"));
            }
        }
    }
    // 2 & 3. matched edges consistent, vertices used once.
    let mut used = vec![false; nv];
    for &e in m.matched_edges() {
        if e >= g.num_edges() {
            return Err(format!("matched edge {e} out of range"));
        }
        let (i, j, _) = g.edge(e);
        if scores[e] <= 0.0 {
            return Err(format!("matched edge {e} has non-positive score"));
        }
        if m.mates()[i as usize] != j || m.mates()[j as usize] != i {
            return Err(format!("matched edge {e} not reflected in mate array"));
        }
        for v in [i, j] {
            if used[v as usize] {
                return Err(format!("v{v} used by two matched edges"));
            }
            used[v as usize] = true;
        }
    }
    let mated = m.mates().iter().filter(|&&p| p != NO_VERTEX).count();
    if mated != 2 * m.len() {
        return Err(format!(
            "{mated} mated vertices but {} matched edges",
            m.len()
        ));
    }
    // 4. maximality.
    for e in (0..g.num_edges()).filter(|&e| scores[e] > 0.0) {
        let (i, j, _) = g.edge(e);
        if m.mates()[i as usize] == NO_VERTEX && m.mates()[j as usize] == NO_VERTEX {
            return Err(format!("matching not maximal: edge {e} = ({i},{j}) free"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matching;

    #[test]
    fn accepts_valid() {
        let g = pcd_gen::classic::path(4);
        let s = vec![1.0; g.num_edges()];
        let m = crate::seq::match_sequential_greedy(&g, &s);
        assert_eq!(verify_matching(&g, &s, &m), Ok(()));
    }

    #[test]
    fn rejects_asymmetric() {
        let g = pcd_gen::classic::path(2);
        let m = Matching::new(vec![1, pcd_util::NO_VERTEX], vec![]);
        assert!(verify_matching(&g, &[1.0], &m)
            .unwrap_err()
            .contains("asymmetric"));
    }

    #[test]
    fn rejects_non_maximal() {
        let g = pcd_gen::classic::path(2);
        let m = Matching::empty(2);
        assert!(verify_matching(&g, &[1.0], &m)
            .unwrap_err()
            .contains("maximal"));
    }

    #[test]
    fn accepts_empty_when_scores_negative() {
        let g = pcd_gen::classic::path(2);
        let m = Matching::empty(2);
        assert_eq!(verify_matching(&g, &[-1.0], &m), Ok(()));
    }

    #[test]
    fn rejects_self_mate() {
        let g = pcd_gen::classic::path(2);
        let m = Matching::new(vec![0, pcd_util::NO_VERTEX], vec![]);
        assert!(verify_matching(&g, &[1.0], &m)
            .unwrap_err()
            .contains("itself"));
    }
}
