//! Community conductance (normalised cut).
//!
//! For a community `c` with cut weight `cut_c` (edges leaving `c`) and
//! volume `vol_c`:
//!
//! ```text
//! φ(c) = cut_c / min(vol_c, 2m − vol_c)
//! ```
//!
//! Lower is better. The paper's conductance scorer negates the change so
//! that the maximisation machinery applies unchanged.

use pcd_graph::Graph;
use pcd_util::par;
use pcd_util::sync::{as_atomic_u64, RELAXED};
use pcd_util::VertexId;

/// Per-community conductance under `assignment`. Communities with zero
/// volume (empty/isolated) report 0.
pub fn community_conductances(g: &Graph, assignment: &[VertexId]) -> Vec<f64> {
    assert_eq!(assignment.len(), g.num_vertices());
    let k = assignment
        .iter()
        .copied()
        .max()
        .map_or(0, |x| x as usize + 1);
    let two_m = 2 * g.total_weight();
    let mut cut = vec![0u64; k];
    let mut vol = vec![0u64; k];
    {
        let cut_c = as_atomic_u64(&mut cut);
        let vol_c = as_atomic_u64(&mut vol);
        // ORDERING: RELAXED for every fetch_add in both loops — cut/vol
        // are pure accumulation histograms (atomicity only); the join
        // barriers publish the totals to the sequential reads below.
        par::for_each(g.num_vertices(), |v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                vol_c[assignment[v] as usize].fetch_add(2 * s, RELAXED);
            }
        });
        par::for_each(g.num_edges(), |e| {
            let (i, j, w) = g.edge(e);
            let (ci, cj) = (
                assignment[i as usize] as usize,
                assignment[j as usize] as usize,
            );
            vol_c[ci].fetch_add(w, RELAXED);
            vol_c[cj].fetch_add(w, RELAXED);
            if ci != cj {
                cut_c[ci].fetch_add(w, RELAXED);
                cut_c[cj].fetch_add(w, RELAXED);
            }
        });
    }
    par::map(k, |c| {
        let denom = vol[c].min(two_m - vol[c]);
        if denom == 0 {
            0.0
        } else {
            cut[c] as f64 / denom as f64
        }
    })
}

/// Conductance delta used by the conductance scorer (see `pcd-core`):
/// the merged community's conductance minus the mean of the two parts',
/// negated so that positive = improvement.
#[inline]
pub fn neg_delta_conductance(
    two_m: u64,
    w_ij: u64,
    cut_i: u64,
    cut_j: u64,
    vol_i: u64,
    vol_j: u64,
) -> f64 {
    let phi = |cut: u64, vol: u64| -> f64 {
        let denom = vol.min(two_m - vol);
        if denom == 0 {
            0.0
        } else {
            cut as f64 / denom as f64
        }
    };
    let phi_i = phi(cut_i, vol_i);
    let phi_j = phi(cut_j, vol_j);
    let merged_cut = cut_i + cut_j - 2 * w_ij;
    let phi_merged = phi(merged_cut, vol_i + vol_j);
    0.5 * (phi_i + phi_j) - phi_merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_clique_has_zero_conductance() {
        let g = pcd_gen::classic::clique(4);
        let phis = community_conductances(&g, &[0; 4]);
        assert_eq!(phis, vec![0.0]);
    }

    #[test]
    fn two_cliques_split_has_small_conductance() {
        let g = pcd_gen::classic::two_cliques(5);
        let mut a = vec![0u32; 10];
        a[5..].iter_mut().for_each(|x| *x = 1);
        let phis = community_conductances(&g, &a);
        // One bridge edge over volume 21 per side.
        assert_eq!(phis.len(), 2);
        for phi in phis {
            assert!((phi - 1.0 / 21.0).abs() < 1e-12, "phi = {phi}");
        }
    }

    #[test]
    fn split_clique_has_high_conductance() {
        let g = pcd_gen::classic::clique(6);
        let a = vec![0, 0, 0, 1, 1, 1];
        let phis = community_conductances(&g, &a);
        // 9 cut edges, volume 15 per side: φ = 9/15.
        for phi in phis {
            assert!((phi - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn neg_delta_favours_merging_dense_pairs() {
        // Two halves of a clique want to merge (conductance drops to 0).
        let g = pcd_gen::classic::clique(6);
        let two_m = 2 * g.total_weight();
        // Each half: cut 9, vol 15; joining edge weight 9.
        let d = neg_delta_conductance(two_m, 9, 9, 9, 15, 15);
        assert!(d > 0.0, "d = {d}");
    }

    #[test]
    fn neg_delta_disfavours_bad_merges() {
        // Two communities that already hold nearly half the volume each:
        // merging pushes the union past half the graph, where the
        // normalising `min(vol, 2m − vol)` term collapses and conductance
        // explodes.
        let d = neg_delta_conductance(4000, 1, 100, 100, 1900, 1900);
        assert!(d < 0.0, "d = {d}");
    }

    #[test]
    fn neg_delta_rewards_cut_absorbing_merges() {
        // Thin cuts dominated by the joining edge: merging absorbs the cut.
        let d = neg_delta_conductance(4000, 1, 2, 2, 1000, 1000);
        assert!(d > 0.0, "d = {d}");
    }
}
