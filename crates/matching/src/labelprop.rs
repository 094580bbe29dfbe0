//! Label-guided matching: synchronous weighted label propagation over the
//! level graph, then a maximal matching that prefers intra-label edges.
//!
//! The propagation phase is the classic LPA loop made deterministic and
//! oscillation-free:
//!
//! 1. **Adjacency** — the level graph stores each edge once (in one
//!    endpoint's bucket), so a reusable CSR over *both* directions is
//!    built first. Slot order within a row is schedule-dependent
//!    (fetch-add placement), which is harmless: every consumer below
//!    aggregates with commutative integer sums and label-keyed argmax.
//! 2. **Propagate** — every round is a **parallel proposal pass** plus a
//!    **sequential commit pass**, the same shape as the Louvain move
//!    phase in `pcd-core`. The proposal pass finds, per vertex, the label
//!    with the largest total weight over its positively-scored incident
//!    edges (ties to the smaller label) and proposes it only when that
//!    support *strictly* exceeds the current label's. The commit pass
//!    walks vertices in order, re-validates the strict improvement
//!    against the current labels (earlier commits may have shifted
//!    support) and applies it only when it still holds. Every commit
//!    raises the total intra-label edge weight — an integer bounded by
//!    twice the graph weight — by at least one, and the first proposal
//!    each round always commits, so the loop terminates and cannot
//!    oscillate (plain synchronous LPA famously flip-flops forever). The
//!    engine watchdog's round cap still bounds the loop; expiry reports
//!    `degraded` through the normal [`MatchOutcome`] channel.
//! 3. **Match** — the real scores are *boosted*: every positively-scored
//!    edge whose endpoints share a label gains a constant larger than any
//!    positive score. Boosting never changes an edge's sign, so the
//!    boosted and real score arrays have identical positive support — a
//!    matching maximal over one is maximal over the other, and every
//!    matched edge has a positive real score. The engine's
//!    `verify_matching` debug assertion (which checks against the real
//!    scores) therefore holds by construction, while the matcher
//!    preferentially pairs vertices inside the same propagated community.
//!
//! The [`LabelScratch`] buffers also serve the Louvain move phase in
//! `pcd-core` (same CSR, same label arrays, per-label volume tracking),
//! so both label-driven backends stay allocation-free across levels.

use crate::parallel::{match_unmatched_list_scratch, MatchScratch};
use crate::MatchOutcome;
use pcd_graph::Graph;
use pcd_util::par;
use pcd_util::sync::{as_atomic_u32, as_atomic_usize, RELAXED};
use pcd_util::{VertexId, Weight};

/// Reusable storage for label-driven matchers: the label double buffer,
/// the bidirectional CSR, per-label volumes and per-vertex volumes (the
/// Louvain move phase's bookkeeping), and the boosted-score buffer the
/// guided matching hands to the unmatched-list kernel. Owned by
/// [`MatchScratch`] so the engine's scratch ledger and reuse policy cover
/// it automatically.
#[derive(Debug, Default)]
pub struct LabelScratch {
    /// Per-vertex community label (the propagation/move-phase output).
    pub labels: Vec<VertexId>,
    /// Synchronous double buffer; the move phase stores proposal targets
    /// here between its parallel and commit passes.
    pub labels_next: Vec<VertexId>,
    /// CSR row offsets over both edge directions (`nv + 1` entries).
    pub offsets: Vec<usize>,
    /// CSR neighbor ids (`2 |E|` entries, self-loops excluded).
    pub nbr: Vec<VertexId>,
    /// CSR edge ids aligned with `nbr` (each edge appears twice).
    pub eid: Vec<usize>,
    /// Per-label volumes, updated as the move phase commits moves.
    pub vol: Vec<Weight>,
    /// Immutable per-vertex volumes (`2·self_loop + Σ incident weight`).
    pub vertex_vol: Vec<Weight>,
    /// CSR build cursors.
    pub cursor: Vec<usize>,
    /// Label-boosted copy of the scores for the guided matching.
    pub boosted: Vec<f64>,
}

impl LabelScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        LabelScratch::default()
    }

    /// Heap bytes retained (capacity, not length) — summed into the
    /// engine's scratch-memory ceiling through [`MatchScratch`].
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.labels.capacity() * size_of::<VertexId>()
            + self.labels_next.capacity() * size_of::<VertexId>()
            + self.offsets.capacity() * size_of::<usize>()
            + self.nbr.capacity() * size_of::<VertexId>()
            + self.eid.capacity() * size_of::<usize>()
            + self.vol.capacity() * size_of::<Weight>()
            + self.vertex_vol.capacity() * size_of::<Weight>()
            + self.cursor.capacity() * size_of::<usize>()
            + self.boosted.capacity() * size_of::<f64>()
    }

    /// Builds the bidirectional CSR for `g`: counts per-vertex degrees in
    /// parallel, prefix-sums the offsets, then places both directions of
    /// every edge with fetch-add cursors. Slot order within a row is
    /// schedule-dependent; every consumer aggregates commutatively, so
    /// results stay bit-deterministic for any thread count.
    pub fn build_adjacency(&mut self, g: &Graph) {
        let nv = g.num_vertices();
        let ne = g.num_edges();
        self.cursor.clear();
        self.cursor.resize(nv, 0);
        {
            let deg = as_atomic_usize(&mut self.cursor);
            par::for_each(ne, |e| {
                let (i, j, _) = g.edge(e);
                debug_assert_ne!(i, j, "self-loops live in the self_loops array");
                // ORDERING: RELAXED — commutative counters, published by
                // the join barrier.
                deg[i as usize].fetch_add(1, RELAXED);
                deg[j as usize].fetch_add(1, RELAXED);
            });
        }
        self.offsets.clear();
        self.offsets.reserve(nv + 1);
        let mut acc = 0usize;
        for v in 0..nv {
            // analyze: allow(alloc, reason = "push into a buffer reserved to its exact final length above")
            self.offsets.push(acc);
            acc += self.cursor[v];
        }
        // analyze: allow(alloc, reason = "push into a buffer reserved to its exact final length above")
        self.offsets.push(acc);
        self.nbr.clear();
        self.nbr.resize(acc, 0);
        self.eid.clear();
        self.eid.resize(acc, 0);
        self.cursor[..nv].copy_from_slice(&self.offsets[..nv]);
        {
            let cur = as_atomic_usize(&mut self.cursor);
            let nbr = as_atomic_u32(&mut self.nbr);
            let eid = as_atomic_usize(&mut self.eid);
            par::for_each(ne, |e| {
                let (i, j, _) = g.edge(e);
                // ORDERING: RELAXED throughout — every slot index is
                // claimed by exactly one fetch_add, so the stores are
                // disjoint; the join barrier publishes them.
                let si = cur[i as usize].fetch_add(1, RELAXED);
                nbr[si].store(j, RELAXED);
                eid[si].store(e, RELAXED);
                let sj = cur[j as usize].fetch_add(1, RELAXED);
                nbr[sj].store(i, RELAXED);
                eid[sj].store(e, RELAXED);
            });
        }
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

/// Tolerance below which a propagation/move gain is treated as zero —
/// guards the loops against f64 rounding noise masquerading as progress.
pub const GAIN_EPS: f64 = 1e-12;

/// Runs strict-improvement label propagation over the positively scored
/// edges of `g`, starting from the singleton partition, for at most
/// `max_rounds` rounds (each a parallel proposal pass plus a sequential
/// commit pass). Returns `(rounds_taken, converged)`; `scratch.labels`
/// holds the final labels. Deterministic for any thread count: label
/// support is a commutative integer sum, the argmax tie-breaks on the
/// label id alone, and commits run in vertex order.
pub fn propagate_labels(
    g: &Graph,
    scores: &[f64],
    max_rounds: usize,
    scratch: &mut LabelScratch,
) -> (usize, bool) {
    assert_eq!(scores.len(), g.num_edges());
    let nv = g.num_vertices();
    scratch.build_adjacency(g);
    scratch.reset_labels(nv);
    let LabelScratch {
        labels,
        labels_next,
        offsets,
        nbr,
        eid,
        ..
    } = scratch;
    let weights = g.weights();
    let mut rounds = 0usize;
    while rounds < max_rounds {
        rounds += 1;
        // Proposal pass: per vertex, the label with the largest support
        // (weight sum over positively-scored incident edges) against the
        // round-start snapshot; proposed only when strictly better than
        // the current label's support, so ties never cause churn.
        {
            let labels_ro: &[VertexId] = labels;
            par::for_each_mut_init(
                labels_next,
                // analyze: allow(alloc, reason = "per-worker gather buffer; one allocation per participating thread, not per vertex")
                Vec::new,
                |buf: &mut Vec<(VertexId, Weight)>, v, slot| {
                    let cur = labels_ro[v];
                    *slot = cur;
                    buf.clear();
                    for s in offsets[v]..offsets[v + 1] {
                        let e = eid[s];
                        if scores[e] > 0.0 {
                            // analyze: allow(alloc, reason = "per-task gather buffer; amortized by clear+reuse across vertices")
                            buf.push((labels_ro[nbr[s] as usize], weights[e]));
                        }
                    }
                    if buf.is_empty() {
                        return;
                    }
                    // Within-label order is irrelevant (integer sums
                    // commute); sorting groups the runs.
                    buf.sort_unstable();
                    let (mut best_label, mut best_w) = (cur, 0 as Weight);
                    let mut cur_w: Weight = 0;
                    let mut i = 0;
                    while i < buf.len() {
                        let lab = buf[i].0;
                        let mut w: Weight = 0;
                        while i < buf.len() && buf[i].0 == lab {
                            w += buf[i].1;
                            i += 1;
                        }
                        if lab == cur {
                            cur_w = w;
                        }
                        if w > best_w || (w == best_w && lab < best_label) {
                            best_w = w;
                            best_label = lab;
                        }
                    }
                    if best_label != cur && best_w > cur_w {
                        *slot = best_label;
                    }
                },
            );
        }
        let labels_ro: &[VertexId] = labels;
        if !par::any(nv, |v| labels_ro[v] != labels_next[v]) {
            return (rounds, true);
        }
        // Commit pass: sequential, in vertex order. Re-validate the
        // strict improvement against the *current* labels — earlier
        // commits in the same round may have moved support away — and
        // apply only when it still holds. The first proposal processed
        // sees the same state the proposal pass saw, so every round with
        // proposals commits at least one change; each commit raises the
        // intra-label edge weight (an integer bounded by 2·total weight)
        // by at least one, so the loop terminates instead of oscillating.
        for v in 0..nv {
            let a = labels[v];
            let b = labels_next[v];
            if a == b {
                continue;
            }
            let (mut w_a, mut w_b): (Weight, Weight) = (0, 0);
            for s in offsets[v]..offsets[v + 1] {
                let e = eid[s];
                if scores[e] <= 0.0 {
                    continue;
                }
                let l = labels[nbr[s] as usize];
                if l == a {
                    w_a += weights[e];
                } else if l == b {
                    w_b += weights[e];
                }
            }
            if w_b > w_a {
                labels[v] = b;
            }
        }
    }
    // A cap of zero (or expiry while changes were still flowing) is not
    // convergence; the caller reports it through `MatchOutcome::degraded`.
    (rounds, false)
}

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
    boosted.clear();
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

/// The label-propagation matcher: propagation (capped at `max_rounds`,
/// the engine watchdog's budget) followed by the label-guided matching.
/// `rounds` in the outcome counts propagation rounds; `degraded` reports
/// cap expiry before convergence, which the engine folds into
/// `Termination::WatchdogDegraded` exactly like the unmatched-list
/// watchdog.
pub fn match_labelprop_scratch(
    g: &Graph,
    scores: &[f64],
    max_rounds: usize,
    scratch: &mut MatchScratch,
) -> MatchOutcome {
    let mut ls = scratch.take_label();
    let (rounds, converged) = propagate_labels(g, scores, max_rounds, &mut ls);
    let mut boosted = std::mem::take(&mut ls.boosted);
    let inner = match_within_labels(g, scores, &ls.labels, &mut boosted, scratch);
    ls.boosted = boosted;
    scratch.put_label(ls);
    MatchOutcome {
        matching: inner.matching,
        rounds,
        degraded: !converged || inner.degraded,
    }
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
    fn two_cliques_get_two_labels() {
        // Two 4-cliques joined by one light bridge.
        let mut b = GraphBuilder::new(8);
        for c in [0u32, 4] {
            for i in c..c + 4 {
                for j in i + 1..c + 4 {
                    b = b.add_edge(i, j, 10);
                }
            }
        }
        let g = b.add_edge(3, 4, 1).build();
        let s = weight_scores(&g);
        let mut ls = LabelScratch::new();
        let (_, converged) = propagate_labels(&g, &s, 64, &mut ls);
        assert!(converged);
        let left: Vec<_> = ls.labels[..4].to_vec();
        let right: Vec<_> = ls.labels[4..].to_vec();
        assert!(left.iter().all(|&l| l == left[0]), "labels {:?}", ls.labels);
        assert!(
            right.iter().all(|&l| l == right[0]),
            "labels {:?}",
            ls.labels
        );
        assert_ne!(left[0], right[0]);
    }

    #[test]
    fn single_edge_converges_despite_symmetry() {
        // Plain synchronous LPA flip-flops forever on one edge; the
        // sequential commit pass must converge it.
        let g = GraphBuilder::new(2).add_edge(0, 1, 3).build();
        let s = weight_scores(&g);
        let mut ls = LabelScratch::new();
        let (rounds, converged) = propagate_labels(&g, &s, 64, &mut ls);
        assert!(converged, "rounds {rounds}");
        assert_eq!(ls.labels[0], ls.labels[1]);
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
    fn labelprop_matcher_is_deterministic_across_pools() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 13));
        let s = weight_scores(&g);
        let run = |threads: usize| {
            pcd_util::pool::with_threads(threads, || {
                let mut scratch = MatchScratch::new();
                match_labelprop_scratch(&g, &s, 256, &mut scratch)
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert!(verify_matching(&g, &s, &a.matching).is_ok());
    }

    #[test]
    fn cap_expiry_reports_degraded_but_stays_valid() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 2));
        let s = weight_scores(&g);
        let mut scratch = MatchScratch::new();
        let out = match_labelprop_scratch(&g, &s, 1, &mut scratch);
        assert!(
            out.degraded,
            "a round that commits changes is not converged"
        );
        assert_eq!(out.rounds, 1);
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::empty(3);
        let s: Vec<f64> = Vec::new();
        let mut scratch = MatchScratch::new();
        let out = match_labelprop_scratch(&g, &s, 8, &mut scratch);
        assert!(out.matching.is_empty());
        assert!(!out.degraded);
    }
}
