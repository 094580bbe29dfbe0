//! Louvain-style synchronous move phase over a level graph.
//!
//! Classic Louvain sweeps vertices sequentially, moving each to the
//! neighboring community with the best modularity gain. The synchronous
//! variant (Chiêm et al.) splits every sweep into a **parallel proposal
//! pass** — each vertex computes its best positive-gain move against a
//! sweep-start snapshot of the per-community volumes, with deterministic
//! tie-breaking — and a **sequential commit pass** that re-validates each
//! proposal against the current partition (earlier commits in the same
//! sweep may have changed both communities) and applies it only if the
//! re-computed gain is still positive. The commit pass costs one
//! adjacency rescan per proposing vertex; the expensive part — the argmax
//! over every neighboring community of every vertex — stays parallel.
//! Both passes read the level graph's adjacency from the
//! [`LabelScratch`]'s [`pcd_graph::Csr`], refreshed into its own buffers
//! at the start of every level, where each neighbour sits next to the
//! weight of the edge to it.
//!
//! Invariants this buys:
//!
//! * **Monotone**: every committed move's gain is the exact modularity
//!   delta of the current partition, so modularity never decreases within
//!   or across sweeps (up to f64 rounding).
//! * **Progress**: the first proposal the commit pass reaches sees the
//!   same state the proposal pass saw, so any sweep with proposals
//!   commits at least one move; a sweep without proposals converges.
//! * **Deterministic**: community weights are commutative integer sums,
//!   the argmax tie-breaks on the label id, and the commit pass runs in
//!   vertex order — results are bit-identical for any thread count and
//!   any order of a row's neighbours.
//!
//! The move phase produces labels, not merges; the louvain arm of
//! [`crate::kernel::match_level`] feeds them to
//! [`pcd_matching::match_within_labels`], which prefers intra-label edges
//! while remaining a valid maximal matching over the positive real
//! scores, so the move phase folds into the ordinary contract pipeline
//! and reuses [`crate::LevelScratch`] via the matcher's [`LabelScratch`].

use pcd_graph::Graph;
use pcd_matching::labelprop::GAIN_EPS;
use pcd_matching::LabelScratch;
use pcd_util::par;
use pcd_util::{VertexId, Weight};

/// Outcome of [`synchronous_move_phase`]; the labels themselves are left
/// in the [`LabelScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveStats {
    /// Sweeps executed (each one proposal pass plus one commit pass).
    pub sweeps: usize,
    /// Moves committed across all sweeps.
    pub moves: usize,
    /// True when the final sweep proposed no positive-gain move; false
    /// when the sweep cap expired with moves still flowing.
    pub converged: bool,
}

/// Runs the synchronous move phase on `g` for at most `max_sweeps`
/// sweeps, starting from the singleton partition. On return
/// `scratch.labels` holds the per-vertex community labels and
/// `scratch.vol` the per-label volumes.
pub fn synchronous_move_phase(
    g: &Graph,
    max_sweeps: usize,
    scratch: &mut LabelScratch,
) -> MoveStats {
    let nv = g.num_vertices();
    scratch.csr.refresh(g);
    scratch.reset_labels(nv);
    g.volumes_into(&mut scratch.vol);
    scratch.vertex_vol.clear();
    scratch.vertex_vol.resize(nv, 0);
    scratch.vertex_vol.copy_from_slice(&scratch.vol);
    let m = g.total_weight();
    let mut stats = MoveStats {
        sweeps: 0,
        moves: 0,
        converged: true,
    };
    if m == 0 || nv == 0 {
        return stats;
    }
    let inv_m = 1.0 / m as f64;
    let inv_2m2 = 1.0 / (2.0 * (m as f64) * (m as f64));
    let LabelScratch {
        labels,
        labels_next,
        csr,
        vol,
        vertex_vol,
        ..
    } = scratch;
    let (xadj, adj, wgt) = (&csr.xadj, &csr.adj, &csr.wgt);

    while stats.sweeps < max_sweeps {
        stats.sweeps += 1;

        // Proposal pass: best positive-gain move per vertex against the
        // sweep-start snapshot of `labels` and `vol` (both read-only
        // here). A vertex with no positive-gain target proposes itself.
        // Chunks are cut by adjacency length, so a level with few
        // vertices but many edges still runs on every worker. Each worker
        // sums u's edge weight per neighbouring label in a dense
        // accumulator, recording each label it touches, then scans the
        // touched labels and zeroes them again: O(degree) per vertex.
        {
            let labels_ro: &[VertexId] = labels;
            let vol_ro: &[Weight] = vol;
            par::for_each_mut_init_weighted(
                labels_next,
                xadj,
                // analyze: allow(alloc, reason = "per-worker label accumulator and touched list; one allocation each per participating thread, not per vertex")
                || (vec![0 as Weight; nv], Vec::new()),
                |(acc, touched): &mut (Vec<Weight>, Vec<VertexId>), u, target| {
                    let a = labels_ro[u];
                    *target = a;
                    for s in xadj[u]..xadj[u + 1] {
                        let lab = labels_ro[adj[s] as usize];
                        if acc[lab as usize] == 0 {
                            // A zero-weight edge can list a label twice;
                            // scoring it twice changes nothing below.
                            // analyze: allow(alloc, reason = "per-worker touched list; amortized by clear+reuse across vertices")
                            touched.push(lab);
                        }
                        acc[lab as usize] += wgt[s];
                    }
                    if touched.is_empty() {
                        return;
                    }
                    // u's connection to its own community (excluding its
                    // self-loop, which moves with u and cancels out of
                    // every gain).
                    let k_u = vertex_vol[u] as f64;
                    let w_own = acc[a as usize];
                    let vol_a_less_u = (vol_ro[a as usize] - vertex_vol[u]) as f64;
                    // The argmax over candidate communities. Gain of
                    // moving u from a to b:
                    //   (w_ub - w_ua)/m - k_u (vol_b - vol_a') / (2 m^2)
                    let (mut best_lab, mut best_gain) = (a, 0.0f64);
                    for &lab in touched.iter() {
                        if lab == a {
                            continue;
                        }
                        let w = acc[lab as usize];
                        let dq = (w as f64 - w_own as f64) * inv_m
                            - k_u * (vol_ro[lab as usize] as f64 - vol_a_less_u) * inv_2m2;
                        // The deterministic rule, whatever order the
                        // labels were touched in: the larger gain wins,
                        // and an exact tie goes to the smaller label.
                        if dq > best_gain || (dq == best_gain && lab < best_lab) {
                            best_gain = dq;
                            best_lab = lab;
                        }
                    }
                    for &lab in touched.iter() {
                        acc[lab as usize] = 0;
                    }
                    touched.clear();
                    if best_gain > GAIN_EPS {
                        *target = best_lab;
                    }
                },
            );
        }

        let labels_ro: &[VertexId] = labels;
        if !par::any(nv, |u| labels_ro[u] != labels_next[u]) {
            stats.converged = true;
            return stats;
        }

        // Commit pass: sequential, in vertex order. Re-derive the gain
        // from the *current* partition (earlier commits may have moved
        // u's neighbors or changed either community's volume) and apply
        // only if it is still positive — this is what makes every
        // committed move an exact, positive modularity delta.
        for u in 0..nv {
            let a = labels[u];
            let b = labels_next[u];
            if a == b {
                continue;
            }
            let (mut w_a, mut w_b): (Weight, Weight) = (0, 0);
            for s in xadj[u]..xadj[u + 1] {
                let l = labels[adj[s] as usize];
                let w = wgt[s];
                if l == a {
                    w_a += w;
                } else if l == b {
                    w_b += w;
                }
            }
            let k = vertex_vol[u];
            let dq = (w_b as f64 - w_a as f64) * inv_m
                - (k as f64) * (vol[b as usize] as f64 - (vol[a as usize] - k) as f64) * inv_2m2;
            if dq > GAIN_EPS {
                labels[u] = b;
                vol[a as usize] -= k;
                vol[b as usize] += k;
                stats.moves += 1;
            }
        }
    }
    // Cap expired while proposals were still flowing.
    stats.converged = false;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_graph::GraphBuilder;
    use pcd_metrics::modularity;

    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(8);
        for c in [0u32, 4] {
            for i in c..c + 4 {
                for j in i + 1..c + 4 {
                    b = b.add_edge(i, j, 10);
                }
            }
        }
        b.add_edge(3, 4, 1).build()
    }

    #[test]
    fn recovers_two_cliques() {
        let g = two_cliques();
        let mut ls = LabelScratch::new();
        let stats = synchronous_move_phase(&g, 64, &mut ls);
        assert!(stats.converged);
        assert!(stats.moves > 0);
        assert_eq!(ls.labels[..4], [ls.labels[0]; 4]);
        assert_eq!(ls.labels[4..], [ls.labels[4]; 4]);
        assert_ne!(ls.labels[0], ls.labels[4]);
    }

    #[test]
    fn modularity_is_monotone_in_the_sweep_cap() {
        // Determinism makes a k-sweep run a prefix of a (k+1)-sweep run,
        // so sweeping the cap observes per-sweep modularity directly.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 17));
        let mut prev = f64::NEG_INFINITY;
        for cap in 1..=8 {
            let mut ls = LabelScratch::new();
            synchronous_move_phase(&g, cap, &mut ls);
            let q = modularity(&g, &ls.labels);
            assert!(
                q >= prev - 1e-9,
                "modularity decreased at cap {cap}: {prev} -> {q}"
            );
            prev = q;
        }
    }

    #[test]
    fn volumes_stay_consistent_with_labels() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(7, 3));
        let mut ls = LabelScratch::new();
        synchronous_move_phase(&g, 64, &mut ls);
        let mut expect = vec![0u64; g.num_vertices()];
        let vols = g.volumes();
        for (v, &l) in ls.labels.iter().enumerate() {
            expect[l as usize] += vols[v];
        }
        assert_eq!(ls.vol, expect);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 23));
        let run = |threads: usize| {
            pcd_util::pool::with_threads(threads, || {
                let mut ls = LabelScratch::new();
                let stats = synchronous_move_phase(&g, 64, &mut ls);
                (stats, ls.labels)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn empty_and_edgeless_graphs_converge_immediately() {
        for g in [Graph::empty(0), Graph::empty(5)] {
            let mut ls = LabelScratch::new();
            let stats = synchronous_move_phase(&g, 8, &mut ls);
            assert!(stats.converged);
            assert_eq!(stats.moves, 0);
        }
    }
}
