//! Edge triples and the paper's parity-hash canonical storage order.

use pcd_util::{VertexId, Weight};

/// An undirected weighted edge as stored: `(src, dst, weight)` with
/// `(src, dst)` in [`canonical_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Stored-first endpoint (bucket owner).
    pub src: VertexId,
    /// Stored-second endpoint.
    pub dst: VertexId,
    /// Accumulated weight.
    pub weight: Weight,
}

impl Edge {
    /// Builds an edge in canonical storage order from arbitrary endpoints.
    #[inline]
    pub fn new(i: VertexId, j: VertexId, weight: Weight) -> Self {
        let (src, dst) = canonical_order(i, j);
        Edge { src, dst, weight }
    }
}

/// The paper's storage-order hash (§IV-A):
///
/// > If `i` and `j` both are even or odd, then the indices are stored such
/// > that `i < j`, otherwise `i > j`.
///
/// Same-parity pairs store `(min, max)`; mixed-parity pairs store
/// `(max, min)`. Roughly half of a high-degree vertex's edges therefore land
/// in *other* vertices' buckets, spreading hot adjacency lists across the
/// edge array.
///
/// Panics in debug builds on self-loops — those live in the separate
/// self-loop array, never the edge list.
#[inline]
pub fn canonical_order(i: VertexId, j: VertexId) -> (VertexId, VertexId) {
    debug_assert_ne!(i, j, "self-loops are stored separately");
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    if (lo ^ hi) & 1 == 0 {
        (lo, hi)
    } else {
        (hi, lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_parity_stores_min_first() {
        assert_eq!(canonical_order(2, 4), (2, 4));
        assert_eq!(canonical_order(4, 2), (2, 4));
        assert_eq!(canonical_order(7, 3), (3, 7));
        assert_eq!(canonical_order(3, 7), (3, 7));
    }

    #[test]
    fn mixed_parity_stores_max_first() {
        assert_eq!(canonical_order(2, 3), (3, 2));
        assert_eq!(canonical_order(3, 2), (3, 2));
        assert_eq!(canonical_order(0, 5), (5, 0));
    }

    #[test]
    fn symmetric_in_arguments() {
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    assert_eq!(canonical_order(i, j), canonical_order(j, i));
                }
            }
        }
    }

    #[test]
    fn preserves_endpoint_set() {
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    let (a, b) = canonical_order(i, j);
                    assert!((a == i && b == j) || (a == j && b == i));
                }
            }
        }
    }

    #[test]
    fn scatters_star_center() {
        // In a star centred at 0, about half the edges must be owned by the
        // leaves (odd leaves, mixed parity with 0 -> leaf owns; even leaves,
        // same parity -> 0 owns since 0 < leaf).
        let owned_by_center = (1..101u32)
            .filter(|&leaf| canonical_order(0, leaf).0 == 0)
            .count();
        assert_eq!(owned_by_center, 50);
    }

    #[test]
    fn edge_new_canonicalizes() {
        let e = Edge::new(3, 2, 9);
        assert_eq!((e.src, e.dst, e.weight), (3, 2, 9));
    }
}
