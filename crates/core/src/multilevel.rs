//! Multilevel (V-cycle) refinement.
//!
//! The paper relates its approach to multilevel graph partitioners that
//! use matchings for contraction (Karypis–Kumar; Holtgrewe–Sanders–Schulz)
//! "but differ\[s\] in … not enforcing that the partitions must be of
//! balanced size", and names refinement an area of active work. The
//! natural multilevel completion is the partitioner's V-cycle: walk the
//! recorded dendrogram from the coarsest graph back down, *projecting*
//! the partition to each finer level and running local-move refinement
//! there, so coarse-grained moves (whole sub-communities) happen cheaply
//! on small graphs and fine-grained fixes on the original.

use crate::louvain::{synchronous_move_phase, CommitRule};
use crate::DetectionResult;
use pcd_contract::{contract_map_into, ContractScratch};
use pcd_graph::{Graph, GraphParts};
use pcd_matching::LabelScratch;
use pcd_util::par;
use pcd_util::VertexId;

/// Outcome of a multilevel refinement pass.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// Refined assignment on the original vertices (dense labels).
    pub assignment: Vec<VertexId>,
    /// Number of communities after refinement.
    pub num_communities: usize,
    /// Modularity trajectory: value after refining at each level,
    /// coarsest first; the last entry is the final modularity.
    pub q_trajectory: Vec<f64>,
}

/// Refines a recorded-level result (run detection with
/// [`crate::Config::with_recorded_levels`]) over its dendrogram, from the
/// coarsest level down to `original`.
///
/// `sweeps_per_level` bounds the local-move sweeps at each level. Every
/// level refines through one [`LabelScratch`], whose labels carry the
/// refined partition down to the next finer level.
pub fn refine_multilevel(
    original: &Graph,
    result: &DetectionResult,
    sweeps_per_level: usize,
) -> MultilevelOutcome {
    let depth = result.level_maps.len();
    // Partition expressed over the *level-k* vertices: start at the
    // coarsest with the identity (every coarse vertex its own community).
    let coarse_n = result.num_communities;
    let mut part_at_level: Vec<VertexId> = (0..coarse_n as u32).collect();
    let mut q_trajectory = Vec::with_capacity(depth + 1);
    let mut scratch = ContractScratch::new();
    let mut labels = LabelScratch::new();

    // Walk levels from coarsest (k = depth) down to the original (k = 0).
    for k in (0..=depth).rev() {
        // Vertices of level k are communities after k contractions; the
        // graph at level k aggregates the original by the level-k
        // assignment (§VI's SᵀAS, computed as one map contraction).
        let num_level_vertices = result.level_maps.get(k).map_or(coarse_n, Vec::len);
        let contracted;
        let level_graph = if k == 0 {
            original
        } else {
            contracted = contract_map_into(
                original,
                &result.assignment_at_level(k),
                num_level_vertices,
                &mut scratch,
                GraphParts::default(),
            );
            &contracted
        };
        // Project the running partition onto this level's vertices: at the
        // coarsest it is the identity; at finer levels each vertex
        // inherits its coarse parent's community.
        if k < depth {
            let map = &result.level_maps[k]; // level-k vertex -> level-k+1 vertex
            let refined = &labels.labels;
            part_at_level = par::map(num_level_vertices, |v| refined[map[v] as usize]);
        }
        synchronous_move_phase(
            level_graph,
            Some(&part_at_level),
            sweeps_per_level,
            CommitRule::Repick,
            &mut labels,
        );
        q_trajectory.push(pcd_metrics::modularity(level_graph, &labels.labels));
    }

    let (dense, num_communities) = pcd_metrics::compact_labels(&labels.labels);
    MultilevelOutcome {
        assignment: dense,
        num_communities,
        q_trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect, Config};

    /// Detection with recorded levels, then the V-cycle over them.
    fn detect_multilevel(g: Graph, sweeps: usize) -> (DetectionResult, MultilevelOutcome) {
        let r = detect(g.clone(), &Config::default().with_recorded_levels());
        let ml = refine_multilevel(&g, &r, sweeps);
        (r, ml)
    }

    #[test]
    fn multilevel_never_hurts() {
        for seed in [2u64, 13] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, seed));
            let plain = detect(g.clone(), &Config::default());
            let (_, ml) = detect_multilevel(g.clone(), 5);
            let q_ml = pcd_metrics::modularity(&g, &ml.assignment);
            assert!(
                q_ml >= plain.modularity - 1e-9,
                "seed {seed}: {q_ml} < {}",
                plain.modularity
            );
            // The trajectory is the per-level Q *of that level's graph*;
            // the final entry must equal the fine-level modularity.
            assert!((ml.q_trajectory.last().unwrap() - q_ml).abs() < 1e-9);
        }
    }

    #[test]
    fn multilevel_beats_flat_refinement_or_ties() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 5));
        let plain = detect(g.clone(), &Config::default());
        let flat = crate::refine::refine(&g, &plain.assignment, 5);
        let (_, ml) = detect_multilevel(g.clone(), 5);
        let q_ml = pcd_metrics::modularity(&g, &ml.assignment);
        // Multilevel explores strictly more moves than one flat pass.
        assert!(q_ml >= flat.q_after - 1e-6, "{q_ml} vs {}", flat.q_after);
    }

    #[test]
    fn trajectory_length_matches_depth() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        let (r, ml) = detect_multilevel(g, 3);
        assert_eq!(ml.q_trajectory.len(), r.level_maps.len() + 1);
        assert!(ml.num_communities >= 1);
    }

    #[test]
    fn works_on_graph_with_no_levels() {
        // All-negative scores (clique ring fully merged is impossible at
        // size 2 cliques? use an edgeless graph): detection does nothing.
        let g = Graph::empty(4);
        let (r, ml) = detect_multilevel(g, 2);
        assert!(r.levels.is_empty());
        assert_eq!(ml.num_communities, 4);
        assert_eq!(ml.q_trajectory.len(), 1);
    }
}
