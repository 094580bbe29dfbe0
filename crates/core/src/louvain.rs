//! The one parallel local-move pass: a Louvain-style synchronous move
//! phase over a level graph.
//!
//! Classic Louvain sweeps vertices sequentially, moving each to the
//! neighboring community with the best modularity gain. The synchronous
//! variant (Chiêm et al.) splits every sweep into a **parallel proposal
//! pass**, where each vertex picks its best label against a sweep-start
//! snapshot of the labels and per-label volumes, and a **sequential
//! commit pass** in vertex order that checks each proposal against the
//! current partition (earlier commits in the same sweep may have changed
//! both communities). The argmax over every neighboring community of
//! every vertex stays parallel; the commit rescans only the rows of
//! proposing vertices. One helper picks the best label in both passes:
//! the larger gain wins, then the smaller label, if that gain is above
//! the commit rule's tolerance.
//!
//! The caller passes the start and the [`CommitRule`]:
//!
//! * the louvain backend starts every level from singletons and
//!   **re-validates** each proposed label: its gain against the current
//!   partition must still be above [`GAIN_EPS`];
//! * refinement ([`crate::refine`], [`crate::multilevel`]) starts from
//!   the caller's partition and **re-picks** the best label against the
//!   current partition, with a tolerance of `1e-15`.
//!
//! Each rule keeps its caller's output bit for bit (DESIGN.md §17).
//!
//! Both passes read the level graph's adjacency from the
//! [`LabelScratch`]'s [`pcd_graph::Csr`], refreshed into its own buffers
//! at the start of every call, where each neighbour sits next to the
//! weight of the edge to it.
//!
//! Invariants this buys, under either rule:
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

/// How the commit pass treats a vertex whose proposal is a new label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitRule {
    /// Apply the proposed label if its gain against the current
    /// partition is still above [`GAIN_EPS`] (the louvain backend).
    Revalidate,
    /// Pick the best label again against the current partition and apply
    /// it; a move must gain more than `1e-15` (refinement).
    Repick,
}

impl CommitRule {
    /// The gain a move must exceed under this rule. `1e-15` sits below
    /// the smallest nonzero gain, `1/(2m²)`, for any `m` under ~2·10⁷
    /// and above the rounding noise of a zero gain.
    fn min_gain(self) -> f64 {
        match self {
            CommitRule::Revalidate => GAIN_EPS,
            CommitRule::Repick => 1e-15,
        }
    }
}

/// The read-only inputs of every gain on one level.
struct Level<'a> {
    xadj: &'a [usize],
    adj: &'a [VertexId],
    wgt: &'a [Weight],
    vertex_vol: &'a [Weight],
    /// `1/m`.
    inv_m: f64,
    /// `1/(2m²)`.
    inv_2m2: f64,
    /// The commit rule's [`CommitRule::min_gain`].
    min_gain: f64,
}

impl Level<'_> {
    /// Gain of moving a vertex of volume `k` from its label `a` to `b`:
    /// `(w_ub − w_ua)/m − k (vol_b − vol_a′)/(2m²)`, where `vol_a′`
    /// leaves the vertex out of `a`. Its self-loop moves with it and
    /// cancels out of every gain.
    #[inline]
    fn gain(&self, k: Weight, w_b: Weight, w_a: Weight, vol_b: Weight, vol_a_less_k: f64) -> f64 {
        (w_b as f64 - w_a as f64) * self.inv_m
            - k as f64 * (vol_b as f64 - vol_a_less_k) * self.inv_2m2
    }

    /// `u`'s best label against `labels` and `vol`: the larger gain wins,
    /// and an exact tie goes to the smaller label, whatever order the
    /// labels were touched in. `u` keeps its own label unless the best
    /// gain is above `min_gain`.
    ///
    /// `acc` is a dense per-label accumulator, all zero on entry and on
    /// return; `touched` lists the labels it holds, empty on entry and on
    /// return. Summing `u`'s row into them and scanning the touched
    /// labels is O(degree).
    fn best_label(
        &self,
        u: usize,
        labels: &[VertexId],
        vol: &[Weight],
        acc: &mut [Weight],
        touched: &mut Vec<VertexId>,
    ) -> VertexId {
        let a = labels[u];
        for s in self.xadj[u]..self.xadj[u + 1] {
            let lab = labels[self.adj[s] as usize];
            if acc[lab as usize] == 0 {
                // A zero-weight edge can list a label twice; scoring it
                // twice changes nothing below.
                // analyze: allow(alloc, reason = "the caller's touched list; amortized by clear+reuse across vertices")
                touched.push(lab);
            }
            acc[lab as usize] += self.wgt[s];
        }
        let k = self.vertex_vol[u];
        let w_a = acc[a as usize];
        let vol_a_less_k = (vol[a as usize] - k) as f64;
        let (mut best_lab, mut best_gain) = (a, 0.0f64);
        for &lab in touched.iter() {
            if lab == a {
                continue;
            }
            let dq = self.gain(k, acc[lab as usize], w_a, vol[lab as usize], vol_a_less_k);
            if dq > best_gain || (dq == best_gain && lab < best_lab) {
                best_gain = dq;
                best_lab = lab;
            }
        }
        for &lab in touched.iter() {
            acc[lab as usize] = 0;
        }
        touched.clear();
        if best_gain > self.min_gain {
            best_lab
        } else {
            a
        }
    }

    /// Gain of moving `u` from its label to `b` against `labels` and
    /// `vol`, from one scan of `u`'s row.
    fn gain_to(&self, u: usize, b: VertexId, labels: &[VertexId], vol: &[Weight]) -> f64 {
        let a = labels[u];
        let (mut w_a, mut w_b): (Weight, Weight) = (0, 0);
        for s in self.xadj[u]..self.xadj[u + 1] {
            let l = labels[self.adj[s] as usize];
            if l == a {
                w_a += self.wgt[s];
            } else if l == b {
                w_b += self.wgt[s];
            }
        }
        let k = self.vertex_vol[u];
        self.gain(k, w_b, w_a, vol[b as usize], (vol[a as usize] - k) as f64)
    }
}

/// Runs the synchronous move phase on `g` for at most `max_sweeps`
/// sweeps, from `start` (one label per vertex) or, when it is `None`,
/// from the singleton partition, committing by `commit`. On return
/// `scratch.labels` holds the per-vertex community labels and
/// `scratch.vol` the per-label volumes.
///
/// # Panics
///
/// If `start` does not have one label per vertex.
pub fn synchronous_move_phase(
    g: &Graph,
    start: Option<&[VertexId]>,
    max_sweeps: usize,
    commit: CommitRule,
    scratch: &mut LabelScratch,
) -> MoveStats {
    let nv = g.num_vertices();
    scratch.csr.refresh(g);
    g.volumes_into(&mut scratch.vertex_vol);
    // Labels index `vol` and the accumulators, so they span the vertex
    // ids and every label of `start`.
    let num_labels = match start {
        None => {
            scratch.reset_labels(nv);
            scratch.vol.clear();
            scratch.vol.resize(nv, 0);
            scratch.vol.copy_from_slice(&scratch.vertex_vol);
            nv
        }
        Some(part) => {
            assert_eq!(part.len(), nv, "one start label per vertex");
            scratch.labels.resize(nv, 0);
            scratch.labels.copy_from_slice(part);
            scratch.labels_next.resize(nv, 0);
            let num_labels = part.iter().fold(nv, |n, &l| n.max(l as usize + 1));
            scratch.vol.clear();
            scratch.vol.resize(num_labels, 0);
            for (&l, &k) in part.iter().zip(&scratch.vertex_vol) {
                scratch.vol[l as usize] += k;
            }
            num_labels
        }
    };
    let m = g.total_weight();
    let mut stats = MoveStats {
        sweeps: 0,
        moves: 0,
        converged: true,
    };
    if m == 0 || nv == 0 {
        return stats;
    }
    let LabelScratch {
        labels,
        labels_next,
        csr,
        vol,
        vertex_vol,
        acc,
        touched,
        ..
    } = scratch;
    if commit == CommitRule::Repick {
        acc.clear();
        acc.resize(num_labels, 0);
        touched.clear();
    }
    let level = Level {
        xadj: &csr.xadj,
        adj: &csr.adj,
        wgt: &csr.wgt,
        vertex_vol,
        inv_m: 1.0 / m as f64,
        inv_2m2: 1.0 / (2.0 * (m as f64) * (m as f64)),
        min_gain: commit.min_gain(),
    };

    while stats.sweeps < max_sweeps {
        stats.sweeps += 1;

        // Proposal pass: each vertex's best label against the sweep-start
        // snapshot of `labels` and `vol` (both read-only here), through a
        // per-worker accumulator. Chunks are cut by adjacency length, so
        // a level with few vertices but many edges still runs on every
        // worker.
        {
            let labels_ro: &[VertexId] = labels;
            let vol_ro: &[Weight] = vol;
            par::for_each_mut_init_weighted(
                labels_next,
                level.xadj,
                // analyze: allow(alloc, reason = "per-worker label accumulator and touched list; one allocation each per participating thread, not per vertex")
                || (vec![0 as Weight; num_labels], Vec::new()),
                |(acc, touched): &mut (Vec<Weight>, Vec<VertexId>), u, target| {
                    *target = level.best_label(u, labels_ro, vol_ro, acc, touched);
                },
            );
        }

        let labels_ro: &[VertexId] = labels;
        if !par::any(nv, |u| labels_ro[u] != labels_next[u]) {
            stats.converged = true;
            return stats;
        }

        // Commit pass: sequential, in vertex order, against the *current*
        // partition (earlier commits may have moved u's neighbors or
        // changed either community's volume), so every committed move is
        // an exact, positive modularity delta.
        for u in 0..nv {
            let a = labels[u];
            let proposed = labels_next[u];
            if a == proposed {
                continue;
            }
            let b = match commit {
                CommitRule::Revalidate => {
                    if level.gain_to(u, proposed, labels, vol) > level.min_gain {
                        proposed
                    } else {
                        a
                    }
                }
                CommitRule::Repick => level.best_label(u, labels, vol, acc, touched),
            };
            if b != a {
                let k = level.vertex_vol[u];
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
        let stats = synchronous_move_phase(&g, None, 64, CommitRule::Revalidate, &mut ls);
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
            synchronous_move_phase(&g, None, cap, CommitRule::Revalidate, &mut ls);
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
        synchronous_move_phase(&g, None, 64, CommitRule::Revalidate, &mut ls);
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
                let stats = synchronous_move_phase(&g, None, 64, CommitRule::Revalidate, &mut ls);
                (stats, ls.labels)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn empty_and_edgeless_graphs_converge_immediately() {
        for g in [Graph::empty(0), Graph::empty(5)] {
            let mut ls = LabelScratch::new();
            let stats = synchronous_move_phase(&g, None, 8, CommitRule::Revalidate, &mut ls);
            assert!(stats.converged);
            assert_eq!(stats.moves, 0);
        }
    }
}
