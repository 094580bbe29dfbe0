//! Induced subgraphs and vertex relabelling.
//!
//! [`induce`] extracts one vertex subset, as the largest connected
//! component of a generated R-MAT graph (§V-B) or one community for a
//! closer look. [`split_by_labels`] carves a whole graph into its
//! connected components at once for the sharded stage (DESIGN §16), with
//! the paper's §IV-C relabel → scatter → per-row sort on a bijective
//! relabel:
//!
//! 1. **Relabel.** Every vertex gets a *global slot*: its part's first
//!    slot plus its dense id inside the part, by a stable counting sort of
//!    the vertices by part. A part's slots are consecutive, so its local
//!    ids are its global slots minus one shift shared by every vertex of
//!    the part. The parity hash depends only on the endpoints' order and
//!    on whether their parities differ, and a common shift keeps both, so
//!    [`canonical_order`] on the global slots orients every edge as the
//!    part's own builder would.
//! 2. **Scatter.** Each stripe of edges counts its edges under their
//!    stored-first slots ([`Stripes`]); the column sums' prefix gives every
//!    row its place. Every edge goes straight to its place in one shared
//!    `dst`/`weight` pair, its other end as an id local to its part. A
//!    part's rows are consecutive, so its edges are one run of both. The
//!    parent is released after this pass.
//! 3. **Sort** each row by destination. A graph's edges come sorted from
//!    its builder, so a row arrives as at most three ascending runs (edges
//!    whose orientation flipped, from sources below the row's, its own
//!    bucket, then flipped ones from sources above); a row already in
//!    order is left alone and any other is sorted in O(d log d).
//!
//! The result is a [`Split`], not the parts' graphs: [`Split::graph`]
//! copies one part's run out when the part is needed. The sharded stage
//! builds each part on the worker that detects it, just before its run,
//! so many small parts never fill the heap at once (DESIGN §16,
//! "Memory").
//!
//! The parent is canonical and free of duplicates, so no part needs the
//! builder's checks, sort or run sums, and every part is bit-identical to
//! [`induce`] of its component.

use crate::components::{components, largest_component_label};
use crate::{builder, canonical_order, Graph, GraphParts};
use pcd_util::par::{self, Stripes};
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, AtomicU32, AtomicU64, RELAXED};
use pcd_util::{VertexId, Weight, NO_VERTEX};
use std::ops::Range;

/// Result of extracting a vertex-induced subgraph.
#[derive(Debug)]
pub struct Extracted {
    /// The induced subgraph with dense new ids `0..n'`.
    pub graph: Graph,
    /// `old_of_new[new] = old` vertex id.
    pub old_of_new: Vec<VertexId>,
    /// `new_of_old[old] = new` id, or [`NO_VERTEX`] if dropped.
    pub new_of_old: Vec<VertexId>,
}

/// Induces the subgraph on the vertices where `keep[v]` is true,
/// relabelling them densely in ascending old-id order (deterministic).
pub fn induce(g: &Graph, keep: &[bool]) -> Extracted {
    assert_eq!(keep.len(), g.num_vertices());
    let mut new_of_old = vec![NO_VERTEX; g.num_vertices()];
    let mut old_of_new = Vec::new();
    for (old, &k) in keep.iter().enumerate() {
        if k {
            new_of_old[old] = old_of_new.len() as VertexId;
            old_of_new.push(old as VertexId);
        }
    }
    let nv = old_of_new.len();

    let mut edges: Vec<(VertexId, VertexId, u64)> = g
        .edges()
        .filter_map(|(i, j, w)| {
            let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
            (ni != NO_VERTEX && nj != NO_VERTEX).then_some((ni, nj, w))
        })
        .collect();
    // Carry surviving self-loops through as (v, v, w) entries.
    edges.extend(old_of_new.iter().enumerate().filter_map(|(new, &old)| {
        let w = g.self_loop(old);
        (w > 0).then_some((new as VertexId, new as VertexId, w))
    }));

    Extracted {
        graph: builder::from_edges(nv, edges),
        old_of_new,
        new_of_old,
    }
}

/// Extracts the largest connected component, as the paper's R-MAT pipeline
/// does before measuring.
pub fn largest_component(g: &Graph) -> Extracted {
    let label = components(g);
    let (rep, _) = largest_component_label(&label);
    let keep: Vec<bool> = par::map(label.len(), |v| label[v] == rep);
    induce(g, &keep)
}

/// A graph carved into its connected components by [`split_by_labels`]:
/// every component's edges in one run of shared, slot-ordered arrays, from
/// which [`Split::graph`] builds the component's own graph when it is
/// needed.
///
/// Parts are numbered by their representative, the smallest parent vertex
/// id in the component, so the decomposition is identical for any thread
/// count. Within a part, vertices keep ascending parent-id order, exactly
/// matching [`induce`]'s dense relabelling; detection on `split.graph(p)`
/// is therefore bit-identical to detection on the `induce`-extracted
/// component.
#[derive(Debug)]
pub struct Split {
    /// Part `p`'s global slots are `first_slot[p]..first_slot[p + 1]`.
    first_slot: Vec<usize>,
    /// Slot `s`'s row is `row_off[s]..row_off[s + 1]` of `dst`/`weight`.
    row_off: Vec<usize>,
    /// The parent vertex at each slot.
    old_of_slot: Vec<VertexId>,
    /// Stored-second endpoints, in ids local to their part.
    dst: Vec<VertexId>,
    /// Edge weights, alongside `dst`.
    weight: Vec<Weight>,
    /// Self-loop weight at each slot.
    self_loop: Vec<Weight>,
}

impl Split {
    /// The number of parts: the parent's connected components.
    pub fn len(&self) -> usize {
        self.first_slot.len() - 1
    }

    /// True when the parent had no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Part `p`'s vertex and edge counts.
    pub fn size(&self, p: usize) -> (usize, usize) {
        let slots = self.slots(p);
        (
            slots.len(),
            self.row_off[slots.end] - self.row_off[slots.start],
        )
    }

    /// `old_of_new[new] = old`: part `p`'s parent vertex ids, strictly
    /// ascending.
    pub fn old_of_new(&self, p: usize) -> &[VertexId] {
        &self.old_of_slot[self.slots(p)]
    }

    /// Builds part `p`'s graph, bit-identical to `induce(g, keep).graph`
    /// for its component's membership mask: copies of its run of the
    /// shared arrays, with sources and buckets from its rows' offsets.
    pub fn graph(&self, p: usize) -> Graph {
        let slots = self.slots(p);
        let rows = &self.row_off[slots.start..=slots.end];
        let edges = rows[0]..rows[rows.len() - 1];
        let mut src = Vec::with_capacity(edges.len());
        for (v, r) in rows.windows(2).enumerate() {
            src.resize(src.len() + r[1] - r[0], v as VertexId);
        }
        let s = GraphParts {
            src,
            dst: self.dst[edges.clone()].to_vec(),
            weight: self.weight[edges.clone()].to_vec(),
            bucket_begin: rows[..rows.len() - 1]
                .iter()
                .map(|&r| r - edges.start)
                .collect(),
            bucket_end: rows[1..].iter().map(|&r| r - edges.start).collect(),
            self_loop: self.self_loop[slots.clone()].to_vec(),
        };
        let total = s.weight.iter().sum::<Weight>() + s.self_loop.iter().sum::<Weight>();
        Graph::from_recycled_parts(slots.len(), s, total)
    }

    fn slots(&self, p: usize) -> Range<usize> {
        self.first_slot[p]..self.first_slot[p + 1]
    }
}

/// Decomposes `g` into its connected components (module docs, steps 1–3).
/// `label` must be the output of [`components`] (or
/// [`crate::components::components_seq`]) on `g`: `label[v]` is the
/// smallest vertex id in `v`'s component.
///
/// The parent is consumed and released once its edges are scattered. The
/// parts' graphs are not built here: [`Split::graph`] builds one at a
/// time, so a caller that runs each part as it builds it never holds every
/// part's arrays at once.
pub fn split_by_labels(g: Graph, label: &[VertexId]) -> Split {
    let (nv, ne) = (g.num_vertices(), g.num_edges());
    assert_eq!(label.len(), nv);

    // Part ids in ascending-representative order: `label[v] == v` exactly
    // at representatives, so a part's id is its representative's rank.
    let mut rank: Vec<usize> = par::map(nv, |v| usize::from(label[v] == v as VertexId));
    let num_parts = exclusive_prefix_sum(&mut rank);
    let part: Vec<u32> = par::map(nv, |v| rank[label[v] as usize] as u32);
    drop(rank);

    // Step 1: a stable counting sort of the vertices by part gives each
    // its global slot, members in ascending parent-id order.
    let mut stripes = Stripes::default();
    stripes.reset(nv, num_parts);
    stripes.for_each(|mut row, range| range.for_each(|v| row.bump(part[v] as usize)));
    let mut first_slot = vec![0; num_parts + 1];
    stripes.column_sums(&mut first_slot[..num_parts]);
    first_slot[num_parts] = exclusive_prefix_sum(&mut first_slot[..num_parts]);
    stripes.cursors_from(&first_slot[..num_parts]);
    let (mut slot, mut old_of_slot) = (vec![0; nv], vec![0; nv]);
    {
        let (slot_c, old_c) = (as_atomic_u32(&mut slot), as_atomic_u32(&mut old_of_slot));
        stripes.for_each(|mut row, range| {
            // ORDERING: RELAXED — vertex `v` has one stripe and slot `s`
            // one taker, so every cell has one writer; the join publishes
            // both maps.
            for v in range {
                let s = row.take(part[v] as usize);
                slot_c[v].store(s as VertexId, RELAXED);
                old_c[s].store(v as VertexId, RELAXED);
            }
        });
    }

    // Step 2: rows by stored-first slot, each edge's other end as an id
    // local to its part. A part's rows are consecutive, so its edges are
    // one run of `dst`/`weight`.
    let oriented = |e: usize| {
        let (i, j, w) = g.edge(e);
        debug_assert_eq!(
            part[i as usize], part[j as usize],
            "edge crosses components"
        );
        let (a, b) = canonical_order(slot[i as usize], slot[j as usize]);
        let base = first_slot[part[i as usize] as usize] as VertexId;
        (a as usize, b - base, w)
    };
    stripes.reset(ne, nv);
    stripes.for_each(|mut row, range| range.for_each(|e| row.bump(oriented(e).0)));
    let mut row_off = vec![0; nv + 1];
    stripes.column_sums(&mut row_off[..nv]);
    row_off[nv] = exclusive_prefix_sum(&mut row_off[..nv]);
    stripes.cursors_from(&row_off[..nv]);
    let (mut dst, mut weight) = (vec![0; ne], vec![0; ne]);
    let (dst_c, weight_c) = (as_atomic_u32(&mut dst), as_atomic_u64(&mut weight));
    stripes.for_each(|mut row, range| {
        // ORDERING: RELAXED — each take hands out a distinct slot of the
        // stripe's own run of the row, so every cell has one writer; the
        // join publishes both arrays to the row sort.
        for e in range {
            let (a, b, w) = oriented(e);
            let at = row.take(a);
            dst_c[at].store(b, RELAXED);
            weight_c[at].store(w, RELAXED);
        }
    });
    let self_loop: Vec<Weight> = par::map(nv, |s| g.self_loop(old_of_slot[s]));
    drop((g, stripes, slot, part));

    // Step 3: the rows are cut by length, so a hub row is no one chunk's
    // whole load.
    par::for_each_mut_init_weighted(&mut old_of_slot, &row_off, Vec::new, |buf, s, _| {
        let row = row_off[s]..row_off[s + 1];
        sort_row(&dst_c[row.clone()], &weight_c[row], buf);
    });

    Split {
        first_slot,
        row_off,
        old_of_slot,
        dst,
        weight,
        self_loop,
    }
}

/// Sorts one row by destination, its weights alongside: a row already in
/// order is only read, any other goes through `buf` and an O(d log d) sort.
fn sort_row(dst: &[AtomicU32], weight: &[AtomicU64], buf: &mut Vec<(VertexId, Weight)>) {
    // ORDERING: RELAXED — the row has one task, this one; the scatter's
    // join published it, and this region's join publishes it back.
    if dst
        .windows(2)
        .all(|d| d[0].load(RELAXED) < d[1].load(RELAXED))
    {
        return;
    }
    buf.clear();
    buf.extend(
        dst.iter()
            .zip(weight)
            .map(|(d, w)| (d.load(RELAXED), w.load(RELAXED))),
    );
    buf.sort_unstable_by_key(|&(d, _)| d);
    for ((d, w), &(to_d, to_w)) in dst.iter().zip(weight).zip(buf.iter()) {
        d.store(to_d, RELAXED);
        w.store(to_w, RELAXED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::count_components;
    use crate::GraphBuilder;

    #[test]
    fn induce_keeps_internal_edges_only() {
        let g = GraphBuilder::new(5)
            .add_pairs([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let keep = vec![true, true, true, false, false];
        let ex = induce(&g, &keep);
        assert_eq!(ex.graph.num_vertices(), 3);
        assert_eq!(ex.graph.num_edges(), 2); // 0-1, 1-2 survive
        assert_eq!(ex.old_of_new, vec![0, 1, 2]);
        assert_eq!(ex.new_of_old[3], NO_VERTEX);
    }

    #[test]
    fn induce_preserves_weights_and_self_loops() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 7)
            .add_self_loop(1, 5)
            .add_edge(1, 2, 2)
            .build();
        let ex = induce(&g, &[true, true, false]);
        assert_eq!(ex.graph.total_weight(), 12); // 7 + self 5
        assert_eq!(ex.graph.self_loop(ex.new_of_old[1]), 5);
    }

    #[test]
    fn largest_component_picks_biggest() {
        let g = GraphBuilder::new(8)
            .add_pairs([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2), (6, 7)])
            .build();
        let ex = largest_component(&g);
        assert_eq!(ex.graph.num_vertices(), 4);
        assert_eq!(ex.graph.num_edges(), 4);
        assert_eq!(ex.old_of_new, vec![2, 3, 4, 5]);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = GraphBuilder::new(6).add_pairs([(1, 3), (3, 5)]).build();
        let ex = induce(&g, &[false, true, false, true, false, true]);
        for (new, &old) in ex.old_of_new.iter().enumerate() {
            assert_eq!(ex.new_of_old[old as usize] as usize, new);
        }
    }

    /// Field-level graph equality: `Graph` has no `PartialEq` on purpose,
    /// so the split tests compare the full stored representation.
    fn assert_graphs_identical(a: &Graph, b: &Graph, what: &str) {
        assert_eq!(a.num_vertices(), b.num_vertices(), "{what}: |V|");
        assert_eq!(a.srcs(), b.srcs(), "{what}: src");
        assert_eq!(a.dsts(), b.dsts(), "{what}: dst");
        assert_eq!(a.weights(), b.weights(), "{what}: weight");
        let buckets = |g: &Graph| {
            (0..g.num_vertices() as VertexId)
                .map(|v| g.bucket(v))
                .collect::<Vec<_>>()
        };
        assert_eq!(buckets(a), buckets(b), "{what}: buckets");
        assert_eq!(a.self_loops(), b.self_loops(), "{what}: self-loops");
        assert_eq!(a.total_weight(), b.total_weight(), "{what}: total weight");
    }

    /// Splits `g` and checks every part against `induce` of its component,
    /// in ascending-representative order.
    fn assert_split_matches_induce(g: &Graph) {
        let label = components(g);
        let split = split_by_labels(g.clone(), &label);
        let mut reps = label.clone();
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(split.len(), reps.len(), "one part per component");
        for (p, &rep) in reps.iter().enumerate() {
            let keep: Vec<bool> = label.iter().map(|&l| l == rep).collect();
            let ex = induce(g, &keep);
            let part = split.graph(p);
            assert_graphs_identical(&part, &ex.graph, &format!("part {rep}"));
            assert_eq!(split.old_of_new(p), ex.old_of_new, "part {rep} old_of_new");
            let size = (part.num_vertices(), part.num_edges());
            assert_eq!(split.size(p), size, "part {rep} size");
        }
    }

    /// Two triangles, an isolated edge, an isolated vertex, and a
    /// self-loop vertex — five components with mixed shapes.
    fn disconnected_graph() -> Graph {
        GraphBuilder::new(10)
            .add_pairs([(0, 1), (1, 2), (2, 0)])
            .add_edge(4, 5, 3)
            .add_pairs([(6, 7), (7, 8), (8, 6)])
            .add_self_loop(9, 2)
            .add_self_loop(1, 4)
            .build()
    }

    #[test]
    fn split_matches_induce_per_component() {
        let g = disconnected_graph();
        assert_split_matches_induce(&g);
        let split = split_by_labels(g.clone(), &components(&g));
        let parts: Vec<Graph> = (0..split.len()).map(|p| split.graph(p)).collect();
        let total: usize = parts.iter().map(Graph::num_vertices).sum();
        assert_eq!(total, g.num_vertices(), "parts partition the vertices");
        let weight: u64 = parts.iter().map(Graph::total_weight).sum();
        assert_eq!(weight, g.total_weight(), "weight conserved across parts");
    }

    #[test]
    fn split_reorients_interleaved_components() {
        // One component on the even ids, one on the odd ids, then two
        // isolated vertices. Halving the ids changes which endpoints share
        // a parity, so edges flip orientation and rows must be sorted.
        // Vertex 0 is a hub of the first.
        let mut b = GraphBuilder::new(302);
        for v in 2..300u32 {
            b = b.add_edge(v - 2, v, u64::from(v % 7) + 1);
            if v % 4 == 0 {
                b = b.add_edge(0, v, 2);
            }
            if v % 5 == 0 {
                b = b.add_self_loop(v, 1);
            }
        }
        let g = b.build();
        assert_eq!(count_components(&components(&g)), 4);
        assert_split_matches_induce(&g);
    }

    #[test]
    fn split_handles_degenerate_graphs() {
        let split = |g: Graph| {
            let label = components(&g);
            split_by_labels(g, &label)
        };
        assert!(split(Graph::empty(0)).is_empty());
        let singleton = split(Graph::empty(1));
        assert_eq!(singleton.len(), 1);
        assert_eq!(singleton.graph(0).num_vertices(), 1);
        let connected = split(GraphBuilder::new(3).add_pairs([(0, 1), (1, 2)]).build());
        assert_eq!(connected.len(), 1);
        assert_eq!(connected.old_of_new(0), [0, 1, 2]);
    }
}
