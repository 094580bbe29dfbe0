//! Local-move refinement — the paper's declared "area of active work"
//! (§II: "Incorporating refinement into our parallel algorithm").
//!
//! After agglomeration, single vertices can often improve the metric by
//! switching to a neighbouring community (matching merges whole pairs and
//! cannot fix individual misplacements). Refinement is the Louvain move
//! phase ([`synchronous_move_phase`]) started from the detected partition
//! instead of singletons:
//!
//! 1. **Propose (parallel):** against the sweep-start partition, every
//!    vertex tallies its edge weight into each adjacent community and
//!    picks its best label.
//! 2. **Commit (sequential, deterministic):** proposing vertices are
//!    visited in vertex order and re-pick their best label against the
//!    *current* partition ([`CommitRule::Repick`]), so the refined
//!    modularity is monotonically non-decreasing — something fully
//!    concurrent moves cannot guarantee.
//!
//! The expensive tally work happens in phase 1; phase 2 touches only the
//! few vertices whose sweep-start gain was positive.

use crate::louvain::{synchronous_move_phase, CommitRule, MoveStats};
use pcd_contract::{contract_map_into, ContractScratch};
use pcd_graph::{Graph, GraphParts};
use pcd_matching::LabelScratch;
use pcd_util::VertexId;

/// Outcome of a refinement pass.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// Refined assignment (same labels as the input, possibly emptied
    /// communities are *not* re-compacted — use
    /// [`pcd_metrics::compact_labels`] if dense ids are needed).
    pub assignment: Vec<VertexId>,
    /// Sweeps run, vertices moved, and whether the last sweep proposed
    /// no move.
    pub stats: MoveStats,
    /// Modularity before and after.
    pub q_before: f64,
    /// Modularity after refinement.
    pub q_after: f64,
}

/// Refines `assignment` over the original graph `g` with up to
/// `max_sweeps` propose/commit rounds. Stops early when a sweep proposes
/// no move.
pub fn refine(g: &Graph, assignment: &[VertexId], max_sweeps: usize) -> Refinement {
    let q_before = pcd_metrics::modularity(g, assignment);
    let mut scratch = LabelScratch::new();
    let stats = synchronous_move_phase(
        g,
        Some(assignment),
        max_sweeps,
        CommitRule::Repick,
        &mut scratch,
    );
    let assignment = scratch.labels;
    let q_after = pcd_metrics::modularity(g, &assignment);
    Refinement {
        assignment,
        stats,
        q_before,
        q_after,
    }
}

/// Refines an already-computed detection of `original` (e.g. one produced
/// by an observed [`crate::Detector`] run), folding the refined partition
/// back into the result: assignment (re-compacted), counts, quality and
/// the community graph, rebuilt from the refined assignment. `levels` and
/// `level_maps` still describe the agglomeration that was refined.
pub fn refine_detected(
    original: &Graph,
    mut result: crate::DetectionResult,
    refine_sweeps: usize,
) -> (crate::DetectionResult, Refinement) {
    let refinement = refine(original, &result.assignment, refine_sweeps);
    let (dense, k) = pcd_metrics::compact_labels(&refinement.assignment);
    result.community_graph = contract_map_into(
        original,
        &dense,
        k,
        &mut ContractScratch::new(),
        GraphParts::default(),
    );
    result.assignment = dense;
    result.num_communities = k;
    result.modularity = refinement.q_after;
    result.coverage = pcd_metrics::coverage(original, &result.assignment);
    // Recompute vertex counts for the refined assignment.
    let mut counts = vec![0u64; k];
    for &a in &result.assignment {
        counts[a as usize] += 1;
    }
    result.community_vertex_counts = counts;
    (result, refinement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    #[test]
    fn refinement_never_decreases_modularity() {
        for seed in [1u64, 7, 19] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, seed));
            let r = crate::detect(g.clone(), &Config::default());
            let ref_out = refine(&g, &r.assignment, 5);
            assert!(
                ref_out.q_after >= ref_out.q_before - 1e-12,
                "seed {seed}: {} -> {}",
                ref_out.q_before,
                ref_out.q_after
            );
        }
    }

    #[test]
    fn refinement_fixes_misplaced_vertex() {
        // Two cliques; deliberately misassign one vertex across the bridge.
        let g = pcd_gen::classic::two_cliques(6);
        let mut a: Vec<u32> = (0..12).map(|v| (v / 6) as u32).collect();
        a[3] = 1; // vertex 3 belongs with clique 0
        let out = refine(&g, &a, 3);
        assert_eq!(out.assignment[3], 0);
        assert!(out.q_after > out.q_before);
    }

    #[test]
    fn labels_need_not_be_dense() {
        // The same misplacement under labels 100 and 7: the move phase
        // sizes its per-label arrays by the largest label, not by |V|.
        let g = pcd_gen::classic::two_cliques(6);
        let mut a: Vec<u32> = (0..12).map(|v| if v < 6 { 100 } else { 7 }).collect();
        a[3] = 7;
        let out = refine(&g, &a, 3);
        assert_eq!(out.assignment[3], 100);
        assert!(out.q_after > out.q_before);
    }

    #[test]
    fn refinement_is_idempotent_at_fixpoint() {
        let g = pcd_gen::classic::clique_ring(6, 6);
        let truth = pcd_gen::classic::clique_ring_truth(6, 6);
        let out = refine(&g, &truth, 3);
        // The planted partition is locally optimal: nothing moves.
        assert_eq!(out.assignment, truth);
        assert_eq!(
            out.stats,
            MoveStats {
                sweeps: 1,
                moves: 0,
                converged: true
            }
        );
    }

    #[test]
    fn refine_detected_improves_or_matches() {
        for seed in [1u64, 31] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, seed));
            let plain = crate::detect(g.clone(), &Config::default());
            let (refined, refinement) = refine_detected(&g, plain.clone(), 5);
            assert!(refined.modularity >= plain.modularity - 1e-12);
            assert_eq!(refinement.q_after, refined.modularity);
            assert_eq!(
                refined.community_vertex_counts.iter().sum::<u64>() as usize,
                refined.assignment.len()
            );
            // The community graph describes the refined partition.
            let cg = &refined.community_graph;
            assert_eq!(cg.num_vertices(), refined.num_communities);
            let q_graph = pcd_metrics::community_graph_modularity(cg);
            assert!(
                (q_graph - refined.modularity).abs() < 1e-9,
                "seed {seed}: graph Q {q_graph} vs reported {}",
                refined.modularity
            );
        }
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = Graph::empty(4);
        let out = refine(&g, &[0, 1, 2, 3], 2);
        assert_eq!(out.assignment, vec![0, 1, 2, 3]);
        assert_eq!(out.q_before, out.q_after);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 5));
        let r = crate::detect(g.clone(), &Config::default());
        let run = |threads| {
            pcd_util::pool::with_threads(threads, || {
                let out = refine(&g, &r.assignment, 4);
                (out.assignment, out.stats, out.q_after.to_bits())
            })
        };
        assert_eq!(run(1), run(4));
    }
}
