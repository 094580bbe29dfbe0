//! Deterministic small graphs for tests and examples.

use pcd_graph::{Graph, GraphBuilder};
use pcd_util::VertexId;

/// Zachary's karate club (34 vertices, 78 edges) — the classic community
/// detection benchmark. The known fission splits it into two factions.
pub fn karate_club() -> Graph {
    const EDGES: [(u32, u32); 78] = [
        (1, 0),
        (2, 0),
        (2, 1),
        (3, 0),
        (3, 1),
        (3, 2),
        (4, 0),
        (5, 0),
        (6, 0),
        (6, 4),
        (6, 5),
        (7, 0),
        (7, 1),
        (7, 2),
        (7, 3),
        (8, 0),
        (8, 2),
        (9, 2),
        (10, 0),
        (10, 4),
        (10, 5),
        (11, 0),
        (12, 0),
        (12, 3),
        (13, 0),
        (13, 1),
        (13, 2),
        (13, 3),
        (16, 5),
        (16, 6),
        (17, 0),
        (17, 1),
        (19, 0),
        (19, 1),
        (21, 0),
        (21, 1),
        (25, 23),
        (25, 24),
        (27, 2),
        (27, 23),
        (27, 24),
        (28, 2),
        (29, 23),
        (29, 26),
        (30, 1),
        (30, 8),
        (31, 0),
        (31, 24),
        (31, 25),
        (31, 28),
        (32, 2),
        (32, 8),
        (32, 14),
        (32, 15),
        (32, 18),
        (32, 20),
        (32, 22),
        (32, 23),
        (32, 29),
        (32, 30),
        (32, 31),
        (33, 8),
        (33, 9),
        (33, 13),
        (33, 14),
        (33, 15),
        (33, 18),
        (33, 19),
        (33, 20),
        (33, 22),
        (33, 23),
        (33, 26),
        (33, 27),
        (33, 28),
        (33, 29),
        (33, 30),
        (33, 31),
        (33, 32),
    ];
    GraphBuilder::new(34).add_pairs(EDGES).build()
}

/// The known two-faction split of the karate club (Mr. Hi = 0, Officer = 1).
pub fn karate_factions() -> Vec<VertexId> {
    // Faction of each member, 0-indexed; the standard assignment.
    vec![
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1,
    ]
}

/// Complete graph on `n` vertices.
pub fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            b = b.add_edge(i, j, 1);
        }
    }
    b.build()
}

/// Cycle on `n ≥ 3` vertices.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3);
    GraphBuilder::new(n)
        .add_pairs((0..n as u32).map(|i| (i, (i + 1) % n as u32)))
        .build()
}

/// Path on `n ≥ 2` vertices.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2);
    GraphBuilder::new(n)
        .add_pairs((0..n as u32 - 1).map(|i| (i, i + 1)))
        .build()
}

/// Star with `n ≥ 2` leaves around centre 0 — the paper's worst case for
/// contraction progress (only one pair merges per phase).
pub fn star(leaves: usize) -> Graph {
    assert!(leaves >= 1);
    GraphBuilder::new(leaves + 1)
        .add_pairs((1..=leaves as u32).map(|i| (0, i)))
        .build()
}

/// `k` cliques of size `s` joined in a ring by single bridge edges — an
/// unambiguous community structure for end-to-end tests.
pub fn clique_ring(k: usize, s: usize) -> Graph {
    assert!(k >= 2 && s >= 2);
    let n = k * s;
    let mut b = GraphBuilder::new(n);
    for c in 0..k {
        let base = (c * s) as u32;
        for i in 0..s as u32 {
            for j in i + 1..s as u32 {
                b = b.add_edge(base + i, base + j, 1);
            }
        }
        let next_base = (((c + 1) % k) * s) as u32;
        b = b.add_edge(base, next_base, 1);
    }
    b.build()
}

/// Ground-truth community labels for [`clique_ring`].
pub fn clique_ring_truth(k: usize, s: usize) -> Vec<VertexId> {
    (0..k * s).map(|v| (v / s) as u32).collect()
}

/// Two cliques of size `s` joined by one bridge — the minimal two-community
/// graph.
pub fn two_cliques(s: usize) -> Graph {
    assert!(s >= 2);
    let mut b = GraphBuilder::new(2 * s);
    for base in [0u32, s as u32] {
        for i in 0..s as u32 {
            for j in i + 1..s as u32 {
                b = b.add_edge(base + i, base + j, 1);
            }
        }
    }
    b.add_edge(0, s as u32, 1).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karate_shape() {
        let g = karate_club();
        assert_eq!(g.num_vertices(), 34);
        assert_eq!(g.num_edges(), 78);
        assert_eq!(g.total_weight(), 78);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(karate_factions().len(), 34);
        // Connected.
        let l = pcd_graph::components::components(&g);
        assert_eq!(pcd_graph::components::count_components(&l), 1);
    }

    #[test]
    fn clique_edge_count() {
        let g = clique(6);
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn ring_and_path() {
        assert_eq!(ring(5).num_edges(), 5);
        assert_eq!(path(5).num_edges(), 4);
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn clique_ring_shape() {
        let k = 4;
        let s = 5;
        let g = clique_ring(k, s);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), k * s * (s - 1) / 2 + k);
        let t = clique_ring_truth(k, s);
        assert_eq!(t[0], 0);
        assert_eq!(t[19], 3);
    }

    #[test]
    fn two_cliques_shape() {
        let g = two_cliques(4);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2 * 6 + 1);
    }
}
