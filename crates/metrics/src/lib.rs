#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Community quality metrics.
//!
//! The paper optimises modularity (or negated conductance) and terminates
//! its performance runs at coverage ≥ 0.5; it leaves deep quality
//! evaluation to future work but sanity-checks modularity against SNAP.
//! This crate provides all three metrics over *either* view:
//!
//! * an original graph plus a community assignment (`Vec<community id>`),
//! * a contracted community graph, where each vertex *is* a community
//!   (self-loop = internal weight, volume = total degree weight).
//!
//! It also implements NMI and the adjusted Rand index against planted
//! ground truth — stronger evidence than the paper's qualitative check,
//! available because our LiveJournal stand-in is generated with known
//! communities.

pub mod conductance;
pub mod modularity;
pub mod nmi;
pub mod report;
pub mod sizes;

pub use conductance::community_conductances;
pub use modularity::{community_graph_modularity, community_graph_modularity_with_vol, modularity};
pub use nmi::{adjusted_rand_index, normalized_mutual_information};
pub use report::{community_reports, largest_communities, CommunityReport};
pub use sizes::coverage;

use pcd_util::VertexId;

/// Relabels an assignment to dense ids `0..k`, preserving structure.
/// Useful before NMI/size computations on sparse label sets.
pub fn compact_labels(assignment: &[VertexId]) -> (Vec<VertexId>, usize) {
    let mut map = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(assignment.len());
    for &a in assignment {
        let next = map.len() as VertexId;
        let id = *map.entry(a).or_insert(next);
        out.push(id);
    }
    (out, map.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_labels_dense() {
        let (l, k) = compact_labels(&[7, 3, 7, 9]);
        assert_eq!(k, 3);
        assert_eq!(l, vec![0, 1, 0, 2]);
    }

    #[test]
    fn compact_labels_empty() {
        let (l, k) = compact_labels(&[]);
        assert_eq!(k, 0);
        assert!(l.is_empty());
    }
}
