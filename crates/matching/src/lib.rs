#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Greedy approximately-maximum-weight maximal matching (§IV-B).
//!
//! Given per-edge scores, the matching selects disjoint community pairs to
//! merge. Three implementations share one result type and one verifier:
//!
//! * [`parallel::match_unmatched_list`] — the paper's improved algorithm:
//!   parallelise over an array of currently-unmatched vertices, each
//!   scanning its own edge bucket, claiming the best eligible edge via a
//!   mutual-best handshake. "Marginal on the Cray XMT but drastic on
//!   Intel-based platforms."
//! * [`edge_sweep::match_edge_sweep`] — the 2011 baseline that sweeps the
//!   *entire* edge array every pass, hot-spotting on high-degree vertices.
//! * [`seq::match_sequential_greedy`] — the classic sequential greedy
//!   (Preis-style), processing edges in descending score order.
//!
//! The edge-sweep variant proposes **every** eligible edge each pass, so
//! its mutual-best pairs are exactly the locally dominant edges and it
//! computes precisely the sequential greedy matching. The unmatched-list
//! variant proposes only each live vertex's single best *bucket* edge, so
//! a vertex can be claimed through a lighter edge while its heaviest
//! incident edge sits unproposed in a busy neighbour's bucket — the
//! matching may differ from greedy (the paper calls its algorithm
//! non-deterministic for the same reason; ours is still deterministic for
//! a fixed thread-independent proposal schedule). All variants produce a
//! matching that is maximal over the positive-score subgraph; the paper
//! argues weight within a factor of two of the maximum.

#[cfg(test)]
mod brute;
pub mod edge_sweep;
pub mod labelprop;
pub mod parallel;
pub mod seq;
pub mod verify;

pub use labelprop::{match_within_labels, LabelScratch};
pub use parallel::{match_unmatched_list, match_unmatched_list_scratch, MatchScratch};

use pcd_graph::Graph;
use pcd_util::{VertexId, NO_VERTEX};

/// Outcome of a round-capped matching run ([`match_unmatched_list_scratch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    /// The matching — always valid and maximal over positive scores,
    /// whether or not the watchdog fired.
    pub matching: Matching,
    /// Parallel rounds executed (excludes the sequential fallback pass).
    pub rounds: usize,
    /// True if the round cap expired and the remaining live vertices were
    /// matched by the sequential greedy fallback.
    pub degraded: bool,
}

/// Result of a matching pass over a community graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    /// `mate[v]` = matched partner, or [`NO_VERTEX`].
    mate: Vec<VertexId>,
    /// Indices (into the graph's edge arrays) of the matched edges, in
    /// ascending order.
    edges: Vec<usize>,
}

impl Matching {
    pub(crate) fn new(mate: Vec<VertexId>, mut edges: Vec<usize>) -> Self {
        edges.sort_unstable();
        Matching { mate, edges }
    }

    /// An empty matching over `nv` vertices.
    pub fn empty(nv: usize) -> Self {
        Matching {
            mate: vec![NO_VERTEX; nv],
            edges: Vec::new(),
        }
    }

    /// The matched partner of `v`, if any.
    #[inline]
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        let m = self.mate[v as usize];
        (m != NO_VERTEX).then_some(m)
    }

    /// Raw mate array (`NO_VERTEX` = unmatched).
    #[inline]
    pub fn mates(&self) -> &[VertexId] {
        &self.mate
    }

    /// Indices of matched edges, ascending.
    #[inline]
    pub fn matched_edges(&self) -> &[usize] {
        &self.edges
    }

    /// Number of matched pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    /// True if no pairs were matched.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Sum of the scores of matched edges.
    pub fn total_score(&self, scores: &[f64]) -> f64 {
        self.edges.iter().map(|&e| scores[e]).sum()
    }

    /// Builds a `Matching` from raw parts **without validation**. Only for
    /// the fault-injection harness, so tests can hand the driver an
    /// invalid matching and prove the runtime guards reject it.
    #[cfg(feature = "fault-injection")]
    pub fn from_raw_parts(mate: Vec<VertexId>, edges: Vec<usize>) -> Self {
        Matching::new(mate, edges)
    }
}

/// Strict total order on edges used by every implementation:
/// score first, then stored endpoints as tie-breaks. Returns `true` if edge
/// `a` beats edge `b`.
#[inline]
pub(crate) fn edge_beats(g: &Graph, scores: &[f64], a: usize, b: usize) -> bool {
    let ka = (scores[a], g.srcs()[a], g.dsts()[a]);
    let kb = (scores[b], g.srcs()[b], g.dsts()[b]);
    ka > kb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3);
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.mate(1), None);
        assert_eq!(m.total_score(&[]), 0.0);
    }

    #[test]
    fn edges_sorted_on_new() {
        let m = Matching::new(vec![1, 0, 3, 2], vec![5, 2]);
        assert_eq!(m.matched_edges(), &[2, 5]);
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.len(), 2);
    }
}
