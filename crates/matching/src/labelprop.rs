//! Label-guided matching: a maximal matching that prefers edges inside
//! label classes, and the [`LabelScratch`] that the Louvain move phase in
//! `pcd-core` computes those labels in.
//!
//! 1. **Adjacency** — the level graph stores each edge once (in one
//!    endpoint's bucket), so the move phase refreshes the scratch's
//!    [`Csr`] over *both* directions first ([`Csr::refresh`]), reusing
//!    its buffers from level to level.
//! 2. **Match** ([`match_within_labels`]) — the real scores are
//!    *boosted*: every positively-scored edge whose endpoints share a
//!    label gains a constant larger than any positive score. Boosting
//!    never changes an edge's sign, so the boosted and real score arrays
//!    have identical positive support — a matching maximal over one is
//!    maximal over the other, and every matched edge has a positive real
//!    score. The engine's `verify_matching` debug assertion (which checks
//!    against the real scores) therefore holds by construction, while the
//!    matcher preferentially pairs vertices inside the same community.
//!
//! The [`LabelScratch`] buffers (CSR, label arrays, per-label volumes)
//! live inside [`MatchScratch`], so the louvain backend stays
//! allocation-free across levels.

use crate::parallel::{match_unmatched_list_scratch, MatchScratch};
use crate::MatchOutcome;
use pcd_graph::{Csr, Graph};
use pcd_util::par;
use pcd_util::{VertexId, Weight};

/// Reusable storage for the label-guided matcher: the label double buffer,
/// the bidirectional CSR, per-label volumes, per-vertex volumes and the
/// re-pick commit's accumulator (the Louvain move phase's bookkeeping),
/// and the boosted-score buffer the guided matching hands to the
/// unmatched-list kernel. Owned by [`MatchScratch`] so the engine's
/// scratch reuse policy covers it automatically; refinement holds its
/// own.
#[derive(Debug, Default)]
pub struct LabelScratch {
    /// Per-vertex community label (the move-phase output).
    pub labels: Vec<VertexId>,
    /// Synchronous double buffer; the move phase stores proposal targets
    /// here between its parallel and commit passes.
    pub labels_next: Vec<VertexId>,
    /// The level graph's adjacency in both directions, refreshed by the
    /// move phase on every level.
    pub csr: Csr,
    /// Per-label volumes, updated as the move phase commits moves.
    pub vol: Vec<Weight>,
    /// Immutable per-vertex volumes (`2·self_loop + Σ incident weight`).
    pub vertex_vol: Vec<Weight>,
    /// Label-boosted copy of the scores for the guided matching.
    pub boosted: Vec<f64>,
    /// The re-pick commit's dense per-label accumulator, all zero between
    /// vertices.
    pub acc: Vec<Weight>,
    /// The labels `acc` holds for the vertex being committed.
    pub touched: Vec<VertexId>,
}

impl LabelScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        LabelScratch::default()
    }

    /// Resets `labels` to the singleton partition (every vertex its own
    /// label) and sizes the double buffer to match.
    pub fn reset_labels(&mut self, nv: usize) {
        self.labels.clear();
        self.labels.resize(nv, 0);
        par::for_each_mut(&mut self.labels, |v, l| *l = v as VertexId);
        self.labels_next.clear();
        self.labels_next.resize(nv, 0);
    }
}

/// Tolerance below which a move gain is treated as zero — guards the
/// move phase against f64 rounding noise masquerading as progress.
pub const GAIN_EPS: f64 = 1e-12;

/// Matches `g` maximally over the positive real scores while preferring
/// edges whose endpoints share a label: positively-scored intra-label
/// edges get a constant boost larger than any positive score, and the
/// boosted array is handed to the unmatched-list kernel. Boosting never
/// changes a score's sign, so the result is a valid maximal matching of
/// the *real* positive-score subgraph.
pub fn match_within_labels(
    g: &Graph,
    scores: &[f64],
    labels: &[VertexId],
    boosted: &mut Vec<f64>,
    scratch: &mut MatchScratch,
) -> MatchOutcome {
    assert_eq!(scores.len(), g.num_edges());
    assert_eq!(labels.len(), g.num_vertices());
    let max_pos = scores
        .iter()
        .copied()
        .filter(|s| *s > 0.0)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0);
    let boost = max_pos + 1.0;
    // The pass below overwrites every element, so only grown slots need a
    // fill; a shrinking level just truncates.
    boosted.resize(g.num_edges(), 0.0);
    par::for_each_mut(boosted, |e, b| {
        let s = scores[e];
        let (i, j, _) = g.edge(e);
        *b = if s > 0.0 && labels[i as usize] == labels[j as usize] {
            s + boost
        } else {
            s
        };
    });
    match_unmatched_list_scratch(g, boosted, usize::MAX, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_matching;
    use pcd_graph::GraphBuilder;

    fn weight_scores(g: &Graph) -> Vec<f64> {
        g.weights().iter().map(|&w| w as f64).collect()
    }

    #[test]
    fn guided_matching_is_valid_and_prefers_intra_label() {
        // Path 0-1-2-3 with a heavy middle edge; labels force the outer
        // pairing. Real scores make (1,2) the greedy choice, but labels
        // {0,1} and {2,3} boost the outer edges past it.
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 10)
            .add_edge(2, 3, 1)
            .build();
        let s = weight_scores(&g);
        let labels = vec![0, 0, 2, 2];
        let mut boosted = Vec::new();
        let mut scratch = MatchScratch::new();
        let out = match_within_labels(&g, &s, &labels, &mut boosted, &mut scratch);
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
        assert_eq!(out.matching.mate(0), Some(1));
        assert_eq!(out.matching.mate(2), Some(3));
    }

    #[test]
    fn boosting_preserves_positive_support() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(7, 5));
        let s: Vec<f64> = g
            .weights()
            .iter()
            .enumerate()
            .map(|(e, &w)| if e % 3 == 0 { -1.0 } else { w as f64 })
            .collect();
        let labels: Vec<VertexId> = (0..g.num_vertices() as VertexId).map(|v| v / 8).collect();
        let mut boosted = Vec::new();
        let mut scratch = MatchScratch::new();
        let out = match_within_labels(&g, &s, &labels, &mut boosted, &mut scratch);
        for (e, (&b, &r)) in boosted.iter().zip(s.iter()).enumerate() {
            assert_eq!(b > 0.0, r > 0.0, "sign flipped at edge {e}");
        }
        // Maximality over the real positive support is the engine's
        // debug assertion; check it explicitly here.
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::empty(3);
        let s: Vec<f64> = Vec::new();
        let mut scratch = MatchScratch::new();
        let out = match_within_labels(&g, &s, &[0, 1, 2], &mut Vec::new(), &mut scratch);
        assert!(out.matching.is_empty());
        assert!(!out.degraded);
    }
}
