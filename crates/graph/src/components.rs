//! Connected components.
//!
//! The paper's R-MAT pipeline "extract\[s\] the largest connected component"
//! before running community detection. We provide a parallel
//! label-propagation/pointer-jumping component labelling (Shiloach–Vishkin
//! flavoured) plus a sequential union-find oracle used in tests.

use crate::Graph;
use pcd_util::par;
use pcd_util::sync::{as_atomic_u32, AtomicBool, RELAXED};
use pcd_util::VertexId;

/// Parallel connected-component labelling.
///
/// # Label canonicalization contract
///
/// Returns `label` with `label[v]` the **smallest vertex id in `v`'s
/// component** — a canonical representative, identical for any thread
/// count, schedule, or edge order. Three properties follow, and both this
/// function and the sequential oracle [`components_seq`] guarantee all of
/// them (the property test below pins parallel ≡ sequential on adversarial
/// graphs):
///
/// 1. *Idempotent*: `label[label[v]] == label[v]` — representatives label
///    themselves, so `label[v] == v` exactly at representatives.
/// 2. *Minimal*: `label[v] <= v`, with equality iff `v` is its component's
///    smallest vertex.
/// 3. *Sorted reps ≡ sorted components*: scanning vertices in ascending
///    order visits representatives in ascending order, which is what makes
///    [`crate::subgraph::split_components`]' part ordering deterministic.
///
/// Downstream consumers (subgraph extraction, the sharded detection
/// pipeline) rely on this contract; treat it as frozen API.
pub fn components(g: &Graph) -> Vec<VertexId> {
    let nv = g.num_vertices();
    let mut label: Vec<u32> = (0..nv as u32).collect();
    if g.num_edges() == 0 {
        return label;
    }
    let changed = AtomicBool::new(true);
    // ORDERING: RELAXED — the swap only resets the convergence flag; all
    // label traffic is published by the join barriers inside the loop.
    while changed.swap(false, RELAXED) {
        {
            let cells = as_atomic_u32(&mut label);
            // Hook: pull each edge's endpoints to the smaller label.
            // ORDERING: RELAXED throughout — labels only ever decrease
            // (fetch_min is monotone), so stale reads cost extra rounds,
            // never wrong answers; `changed` is a flag with no payload and
            // the round's join barrier publishes everything.
            par::for_each(g.num_edges(), |e| {
                let (i, j, _) = g.edge(e);
                let li = cells[i as usize].load(RELAXED);
                let lj = cells[j as usize].load(RELAXED);
                if li < lj {
                    if cells[j as usize].fetch_min(li, RELAXED) > li {
                        changed.store(true, RELAXED);
                    }
                } else if lj < li && cells[i as usize].fetch_min(lj, RELAXED) > lj {
                    changed.store(true, RELAXED);
                }
            });
            // Shortcut: pointer-jump labels toward roots.
            loop {
                let jumped = AtomicBool::new(false);
                // ORDERING: RELAXED — same monotone argument as the hook
                // pass above; the join barrier separates jump rounds.
                par::for_each(nv, |v| {
                    let l = cells[v].load(RELAXED);
                    let ll = cells[l as usize].load(RELAXED);
                    if ll < l {
                        cells[v].fetch_min(ll, RELAXED);
                        jumped.store(true, RELAXED);
                    }
                });
                // ORDERING: RELAXED — flag read after the join barrier.
                if !jumped.load(RELAXED) {
                    break;
                }
            }
        }
    }
    label
}

/// Sequential union-find components — the test oracle.
pub fn components_seq(g: &Graph) -> Vec<VertexId> {
    let nv = g.num_vertices();
    let mut parent: Vec<u32> = (0..nv as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let gp = parent[parent[v as usize] as usize];
            parent[v as usize] = gp;
            v = gp;
        }
        v
    }
    for (i, j, _) in g.edges() {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
            parent[hi as usize] = lo;
        }
    }
    (0..nv as u32).map(|v| find(&mut parent, v)).collect()
}

/// Sizes of each component keyed by representative label; returns
/// `(representative, size)` of the largest component.
pub fn largest_component_label(label: &[VertexId]) -> (VertexId, usize) {
    use std::collections::HashMap;
    let mut sizes: HashMap<u32, usize> = HashMap::new();
    for &l in label {
        *sizes.entry(l).or_insert(0) += 1;
    }
    sizes
        .into_iter()
        .max_by_key(|&(l, s)| (s, std::cmp::Reverse(l)))
        // analyze: allow(panic, reason = "documented contract: calling this on an empty labelling is a caller bug")
        .expect("empty graph has no components")
}

/// Number of distinct components.
pub fn count_components(label: &[VertexId]) -> usize {
    let mut sorted = label.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles_and_isolate() -> Graph {
        GraphBuilder::new(7)
            .add_pairs([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
            .build()
        // vertex 6 isolated
    }

    #[test]
    fn labels_two_components() {
        let g = two_triangles_and_isolate();
        let l = components(&g);
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_eq!(l[4], l[5]);
        assert_ne!(l[0], l[3]);
        assert_eq!(l[6], 6);
        assert_eq!(count_components(&l), 3);
    }

    #[test]
    fn parallel_matches_sequential_on_random() {
        let mut rng = pcd_util::rng::ChaCha8Rng::seed_from_u64(3);
        let nv = 300;
        let edges: Vec<_> = (0..400)
            .map(|_| {
                (
                    rng.gen_range(0..nv as u32),
                    rng.gen_range(0..nv as u32),
                    1u64,
                )
            })
            .collect();
        let g = crate::builder::from_edges(nv, edges);
        assert_eq!(components(&g), components_seq(&g));
    }

    #[test]
    fn representative_is_minimum() {
        let g = GraphBuilder::new(5).add_pairs([(4, 2), (2, 3)]).build();
        let l = components(&g);
        assert_eq!(l[2], 2);
        assert_eq!(l[3], 2);
        assert_eq!(l[4], 2);
    }

    #[test]
    fn largest_component_found() {
        let g = two_triangles_and_isolate();
        let l = components(&g);
        let (rep, size) = largest_component_label(&l);
        assert_eq!(size, 3);
        assert!(rep == 0 || rep == 3);
    }

    #[test]
    fn path_graph_single_component() {
        let n = 1000u32;
        let g = GraphBuilder::new(n as usize)
            .add_pairs((0..n - 1).map(|i| (i, i + 1)))
            .build();
        let l = components(&g);
        assert!(l.iter().all(|&x| x == 0));
        assert_eq!(count_components(&l), 1);
    }

    /// Asserts the full canonicalization contract documented on
    /// [`components`]: min-id representatives, idempotence, and agreement
    /// with the union-find oracle.
    fn assert_canonical_and_matching(g: &Graph) {
        let par = components(g);
        let seq = components_seq(g);
        assert_eq!(par, seq, "parallel vs sequential labels");
        // Minimality + idempotence: the label is never above its vertex
        // and representatives label themselves, which together pin the
        // label to the component's smallest member.
        for (v, &l) in par.iter().enumerate() {
            assert!(l as usize <= v, "label {l} above its vertex {v}");
            assert_eq!(par[l as usize], l, "representative {l} not a fixpoint");
        }
    }

    /// Adversarial random multigraphs: duplicate edges, self-loops,
    /// skewed endpoints (hub bias via min), isolated tails.
    #[test]
    fn parallel_components_match_sequential_oracle() {
        pcd_util::prop::check(48, |rng| {
            let nv = rng.gen_range(1usize..220);
            let ne = rng.gen_range(0usize..500);
            let mut state = rng.gen::<u64>() | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let edges: Vec<(u32, u32, u64)> = (0..ne)
                .map(|_| {
                    // Bias one endpoint low so star/hub shapes appear.
                    let i = (next() % nv as u64).min(next() % nv as u64) as u32;
                    let j = (next() % nv as u64) as u32;
                    (i, j, next() % 5 + 1)
                })
                .collect();
            let g = crate::builder::from_edges(nv, edges);
            assert_canonical_and_matching(&g);
        });
    }

    /// Long chains exercise the pointer-jumping shortcut loop.
    #[test]
    fn parallel_components_match_on_chains() {
        pcd_util::prop::check(48, |rng| {
            let nv = rng.gen_range(2usize..400);
            let stride = rng.gen_range(1usize..5);
            let edges: Vec<(u32, u32, u64)> = (0..nv.saturating_sub(stride))
                .map(|i| (i as u32, (i + stride) as u32, 1))
                .collect();
            let g = crate::builder::from_edges(nv, edges);
            assert_canonical_and_matching(&g);
        });
    }
}
