//! The paper's improved matching: parallelise over the unmatched-vertex
//! list, not the whole edge array (§IV-B).
//!
//! Each round has three barrier-separated parallel passes:
//!
//! 1. **Propose** — every live unmatched vertex `u` picks the best eligible
//!    edge of *its own bucket* (positive score, both endpoints unmatched)
//!    under the total order (score, src, dst), and CAS-maxes that edge into
//!    a per-vertex `best` register of **both** endpoints. `mate` is
//!    read-only in this pass and CAS-max is commutative, so the registers
//!    are schedule-independent.
//! 2. **Resolve** — an edge whose two endpoints both hold it as their best
//!    is *locally dominant*; its endpoints are matched. At least the
//!    globally best eligible edge is always mutual-best, so every round
//!    makes progress.
//! 3. **Compact** — vertices that were matched, or whose bucket holds no
//!    eligible edge (they may still be matched passively by a neighbour's
//!    proposal later — but have nothing to propose), leave the list.
//!
//! **Carried proposals.** Each live vertex's proposed edge sits beside it
//! in the live list, and the compaction moves both with the same keep
//! flags. Within a level the scores are fixed and mates are only ever set,
//! so a vertex's eligible set only shrinks; and [`edge_beats`] is a strict
//! total order on one bucket's edges (for finite scores: their second
//! endpoints differ), so the best edge of a set is also the best of any
//! subset that still holds it. A vertex whose carried edge's other
//! endpoint is still unmatched therefore proposes that edge again, and
//! stays on the list, without scanning its bucket; only round 1, and a
//! vertex whose target was matched, scan. Every proposal is the one a full
//! rescan would make, so every register, pair and round count is too.
//!
//! **Work-weighted passes.** The three passes that scan buckets — the
//! level's first liveness pass over all vertices, propose, and the keep
//! test of the compaction — are cut into chunks of about equal bucket
//! length (`par::for_each_mut_init_weighted` over a prefix of the scanned
//! buckets' lengths, rebuilt in a reused buffer each round), so a level
//! with few vertices but many edges still runs on every worker. Resolve
//! and the register reset do O(1) work per vertex and stay split by count.
//!
//! Because proposals come only from bucket owners (each edge lives in
//! exactly one endpoint's bucket), a vertex can be claimed through a
//! lighter edge while its heaviest incident edge waits in a neighbour's
//! bucket — the result is a valid maximal matching that may differ from
//! sequential greedy. The paper calls the total work "effectively
//! O(|E|)", but the rounds are not few: on R-MAT 18 (seed 42) levels 1–9
//! take 18–34 rounds each. There the propose pass visits 2.1× a level's
//! edges on level 1 and up to 3.4× on levels 7–9: 64 M visits for 22.7 M
//! edges over levels 1–9. Rescanning every live bucket each round visited
//! 3.1× and up to 9.1× (138 M).

use crate::labelprop::LabelScratch;
use crate::{edge_beats, MatchOutcome, Matching};
use pcd_graph::Graph;
use pcd_util::par;
use pcd_util::scan::Compactor;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, cas_improve_u64, AtomicU64, ACQUIRE, RELAXED};
use pcd_util::{VertexId, NO_VERTEX};

/// Register value meaning "no proposal".
const EMPTY: u64 = u64::MAX;

/// Reusable storage for [`match_unmatched_list_scratch`]: the proposal
/// registers, the live list and the proposals it carries (each with a
/// compaction double buffer; `pair_edge`, the per-round resolution slots,
/// doubles for the proposals), the bucket-length prefix that splits the
/// scanning passes by work, and the sequential fallback's candidate
/// buffer. Holding these across levels (and recycling the finished
/// [`Matching`]'s own vectors via [`MatchScratch::recycle`]) makes
/// steady-state matching allocation-free.
#[derive(Debug, Default)]
pub struct MatchScratch {
    mate: Vec<VertexId>,
    edges: Vec<usize>,
    best: Vec<u64>,
    list: Vec<VertexId>,
    survivors: Vec<VertexId>,
    proposals: Vec<u64>,
    pair_edge: Vec<u64>,
    keep: Vec<bool>,
    work: Vec<usize>,
    candidates: Vec<usize>,
    compactor: Compactor,
    label: LabelScratch,
}

impl MatchScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Reclaims a finished matching's storage (its mate array and matched
    /// edge list) so the next level's run can reuse the capacity.
    pub fn recycle(&mut self, m: Matching) {
        let Matching { mate, edges } = m;
        self.mate = mate;
        self.edges = edges;
    }

    /// Moves the label sub-scratch out, leaving an empty one behind, so a
    /// label-driven matcher can borrow its buffers while the rest of the
    /// scratch runs the inner unmatched-list matching. Pair with
    /// [`MatchScratch::put_label`] to retain the capacity.
    pub fn take_label(&mut self) -> LabelScratch {
        std::mem::take(&mut self.label)
    }

    /// Returns a label sub-scratch taken with [`MatchScratch::take_label`].
    pub fn put_label(&mut self, label: LabelScratch) {
        self.label = label;
    }
}

/// Computes the greedy maximal matching over positively-scored edges.
///
/// `scores[e]` aligns with the graph's edge arrays. Returns a matching that
/// is maximal over the positive-score subgraph and deterministic for any
/// thread count. [`match_unmatched_list_scratch`] also reports the number
/// of rounds taken; this entry point discards it.
pub fn match_unmatched_list(g: &Graph, scores: &[f64]) -> Matching {
    match_unmatched_list_capped(g, scores, usize::MAX).matching
}

/// [`match_unmatched_list_scratch`] on a fresh [`MatchScratch`].
fn match_unmatched_list_capped(g: &Graph, scores: &[f64], max_rounds: usize) -> MatchOutcome {
    let mut scratch = MatchScratch::new();
    match_unmatched_list_scratch(g, scores, max_rounds, &mut scratch)
}

/// As [`match_unmatched_list`], also returning the round count, with a
/// watchdog: after `max_rounds` parallel rounds the algorithm stops
/// trusting its own convergence and degrades to sequential greedy
/// matching over the remaining live vertices. The round count is provably
/// bounded in theory (every round matches at least the globally best
/// eligible edge), but a production service guards against its own bugs:
/// a miscompiled CAS loop or a corrupted score array must cost throughput,
/// not liveness. The result is a valid maximal matching either way.
///
/// Runs entirely inside the caller-owned [`MatchScratch`]; the result is
/// bit-identical for any thread count and any scratch history. After the
/// first call at a given graph size, further calls perform no heap
/// allocation (graphs shrink level over level, so capacity carries).
pub fn match_unmatched_list_scratch(
    g: &Graph,
    scores: &[f64],
    max_rounds: usize,
    scratch: &mut MatchScratch,
) -> MatchOutcome {
    assert_eq!(scores.len(), g.num_edges());
    let nv = g.num_vertices();
    let mut mate: Vec<u32> = std::mem::take(&mut scratch.mate);
    mate.clear();
    mate.resize(nv, NO_VERTEX);
    let mut matched_edges: Vec<usize> = std::mem::take(&mut scratch.edges);
    matched_edges.clear();
    // Capacity to the `nv`-derived ceilings, not last level's occupancy:
    // live-list length and matched count are not monotone across levels
    // (a later level can match more pairs than its predecessor), but both
    // are bounded by this level's nv, which only shrinks. One reservation
    // here keeps every later call allocation-free.
    matched_edges.reserve(nv / 2);

    let MatchScratch {
        best,
        list,
        survivors,
        proposals,
        pair_edge,
        keep,
        work,
        candidates,
        compactor,
        ..
    } = scratch;
    best.clear();
    best.resize(nv, EMPTY);
    for buf in [&mut *list, survivors] {
        buf.clear();
        buf.reserve(nv);
    }
    for buf in [&mut *proposals, pair_edge] {
        buf.clear();
        buf.reserve(nv);
    }

    // Live list: vertices owning at least one positively-scored bucket
    // edge. The keep-flag + chunked compaction reproduces the indexed
    // filter's order for any thread count.
    bucket_work_into(g, 0..nv as VertexId, work);
    keep.clear();
    keep.resize(nv, false);
    par::for_each_mut_init_weighted(
        keep,
        work,
        || (),
        |_, v, k| {
            *k = g.bucket(v as u32).any(|e| scores[e] > 0.0);
        },
    );
    compactor.compact_indices_into(keep, list);
    // Nothing is carried into round 1: every live vertex scans.
    proposals.resize(list.len(), EMPTY);

    let mut rounds = 0usize;

    while !list.is_empty() && rounds < max_rounds {
        rounds += 1;
        bucket_work_into(g, list.iter().copied(), work);

        // Pass 1: propose. `mate` is read-only during this pass. Each live
        // vertex keeps its carried edge while that edge's target is
        // unmatched and rescans its bucket otherwise, then CAS-maxes its
        // choice into both endpoints' registers.
        {
            let mate_ro: &[u32] = &mate;
            let best = as_atomic_u64(best);
            par::for_each_mut_init_weighted(
                proposals,
                work,
                || (),
                |_, k, slot| {
                    let u = list[k];
                    if !still_eligible(g, mate_ro, *slot) {
                        *slot = best_eligible(g, scores, mate_ro, u);
                    }
                    if *slot != EMPTY {
                        let e = *slot as usize;
                        let (i, j, _) = g.edge(e);
                        debug_assert_eq!(i, u);
                        propose(g, scores, &best[i as usize], e);
                        propose(g, scores, &best[j as usize], e);
                    }
                },
            );
        }

        // Pass 2: resolve mutual-best edges. Each matched pair is recorded
        // once, by its stored-first endpoint, into that vertex's slot.
        pair_edge.clear();
        pair_edge.resize(list.len(), EMPTY);
        {
            let best = as_atomic_u64(best);
            let mate_cells = as_atomic_u32(&mut mate);
            par::for_each_mut(pair_edge, |k, slot| {
                let u = list[k];
                // ORDERING: ACQUIRE loads pair with the CAS releases in
                // `propose`, so a register read here also sees the
                // proposal it names; the mate stores are RELAXED
                // because both endpoints write identical values and
                // the join barrier publishes them.
                let e = best[u as usize].load(ACQUIRE);
                if e == EMPTY {
                    return;
                }
                let e_us = e as usize;
                let (i, j, _) = g.edge(e_us);
                if best[i as usize].load(ACQUIRE) == e && best[j as usize].load(ACQUIRE) == e {
                    // Both endpoints execute identical stores; benign.
                    mate_cells[i as usize].store(j, RELAXED);
                    mate_cells[j as usize].store(i, RELAXED);
                    if u == i {
                        *slot = e;
                    }
                }
            });
        }
        // Appending in slot (= list) order reproduces the order a
        // filter_map collect over the list would have produced.
        let before = matched_edges.len();
        // analyze: allow(alloc, reason = "append into a caller-reserved buffer; the reserve above set the round ceiling")
        matched_edges.extend(
            pair_edge
                .iter()
                .filter(|&&e| e != EMPTY)
                .map(|&e| e as usize),
        );
        let progressed = matched_edges.len() > before;

        // Pass 3a: which live vertices stay on the list? An unmatched one
        // whose carried edge is still eligible does, without a scan.
        keep.clear();
        keep.resize(list.len(), false);
        {
            let mate_ro: &[u32] = &mate;
            let carried: &[u64] = proposals;
            par::for_each_mut_init_weighted(
                keep,
                work,
                || (),
                |_, idx, k| {
                    let u = list[idx];
                    *k = mate_ro[u as usize] == NO_VERTEX
                        && (still_eligible(g, mate_ro, carried[idx])
                            || g.bucket(u).any(|e| {
                                scores[e] > 0.0 && mate_ro[g.dsts()[e] as usize] == NO_VERTEX
                            }));
                },
            );
        }
        // Pass 3b: targeted register reset. Exactly the registers at the
        // endpoints of this round's proposals were written (passive
        // endpoints included); racing EMPTY stores are idempotent. Every
        // other register is EMPTY by induction, so no O(|V|) sweep.
        {
            let best = as_atomic_u64(best);
            par::for_each(proposals.len(), |k| {
                let e = proposals[k];
                if e != EMPTY {
                    let (i, j, _) = g.edge(e as usize);
                    // ORDERING: RELAXED — racing EMPTY stores all write the
                    // same value; the round's join barrier orders them
                    // before the next round's proposals.
                    best[i as usize].store(EMPTY, RELAXED);
                    best[j as usize].store(EMPTY, RELAXED);
                }
            });
        }
        // Pass 3c: the survivors take their proposals into the next round
        // (`pair_edge` is free until the next resolve pass).
        compactor.compact_into(list, keep, survivors);
        std::mem::swap(list, survivors);
        compactor.compact_into(proposals, keep, pair_edge);
        std::mem::swap(proposals, pair_edge);

        debug_assert!(
            progressed || list.is_empty(),
            "matching round made no progress"
        );
        if !progressed && !list.is_empty() {
            // Defensive: cannot happen (globally best eligible edge is
            // always mutual-best), but never loop forever in release builds.
            break;
        }
    }

    // Watchdog expired (or the defensive break fired) with live vertices
    // remaining: finish them off sequentially so the matching stays maximal.
    let degraded = !list.is_empty();
    if degraded {
        complete_sequential(g, scores, &mut mate, &mut matched_edges, candidates);
    }

    MatchOutcome {
        matching: Matching::new(mate, matched_edges),
        rounds,
        degraded,
    }
}

/// Writes the work prefix of a pass that scans the buckets of `owners`:
/// `work[k]` is the total bucket length of the first `k` owners, so `work`
/// ends one entry longer than `owners`. Resizing a buffer that already
/// held the level's first (longest) prefix allocates nothing.
fn bucket_work_into(
    g: &Graph,
    owners: impl ExactSizeIterator<Item = VertexId>,
    work: &mut Vec<usize>,
) {
    work.resize(owners.len() + 1, 0);
    work[0] = 0;
    let mut total = 0;
    for (w, u) in work[1..].iter_mut().zip(owners) {
        total += g.bucket(u).len();
        *w = total;
    }
}

/// True if `e` is a proposal (not [`EMPTY`]) whose other endpoint is still
/// unmatched. For an edge its live owner chose, that is eligibility: the
/// owner is unmatched and the score is fixed for the level.
#[inline]
fn still_eligible(g: &Graph, mate: &[VertexId], e: u64) -> bool {
    e != EMPTY && mate[g.dsts()[e as usize] as usize] == NO_VERTEX
}

/// The best eligible edge of `u`'s bucket under [`edge_beats`] — positive
/// score, other endpoint unmatched — or [`EMPTY`] if there is none.
fn best_eligible(g: &Graph, scores: &[f64], mate: &[VertexId], u: VertexId) -> u64 {
    let mut choice = EMPTY;
    for e in g.bucket(u) {
        if scores[e] <= 0.0 {
            continue;
        }
        let (i, j, _) = g.edge(e);
        debug_assert_eq!(i, u);
        if mate[j as usize] != NO_VERTEX {
            continue;
        }
        if choice == EMPTY || edge_beats(g, scores, e, choice as usize) {
            choice = e as u64;
        }
    }
    choice
}

/// Sequential greedy completion over whatever is still unmatched. Uses
/// `total_cmp` so even NaN scores (which the eligibility filter excludes,
/// but a corrupted array could smuggle past `> 0.0` elsewhere) cannot
/// panic the fallback path. Candidates are built **once** into the reused
/// scratch buffer and sorted in place (`sort_unstable` allocates nothing),
/// rather than collected fresh and re-sorted.
fn complete_sequential(
    g: &Graph,
    scores: &[f64],
    mate: &mut [VertexId],
    matched_edges: &mut Vec<usize>,
    candidates: &mut Vec<usize>,
) {
    candidates.clear();
    // analyze: allow(alloc, reason = "watchdog's sequential fallback: correctness path, allocation is acceptable")
    candidates.extend((0..g.num_edges()).filter(|&e| {
        let (i, j, _) = g.edge(e);
        scores[e] > 0.0 && mate[i as usize] == NO_VERTEX && mate[j as usize] == NO_VERTEX
    }));
    candidates.sort_unstable_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then(g.srcs()[b].cmp(&g.srcs()[a]))
            .then(g.dsts()[b].cmp(&g.dsts()[a]))
    });
    for &e in candidates.iter() {
        let (i, j, _) = g.edge(e);
        if mate[i as usize] == NO_VERTEX && mate[j as usize] == NO_VERTEX {
            mate[i as usize] = j;
            mate[j as usize] = i;
            // analyze: allow(alloc, reason = "watchdog's sequential fallback: correctness path, allocation is acceptable")
            matched_edges.push(e);
        }
    }
}

/// CAS-max of edge `e` into `cell` under the total order. The retry loop
/// itself lives in the audited sync layer ([`cas_improve_u64`]); `edge_beats`
/// is a strict total order, so the register's final value is
/// interleaving-independent.
#[inline]
fn propose(g: &Graph, scores: &[f64], cell: &AtomicU64, e: usize) {
    cas_improve_u64(cell, e as u64, |cur| {
        cur == EMPTY || edge_beats(g, scores, e, cur as usize)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_matching;
    use pcd_graph::GraphBuilder;

    fn uniform_scores(g: &Graph) -> Vec<f64> {
        vec![1.0; g.num_edges()]
    }

    #[test]
    fn matches_path_maximally() {
        let g = pcd_gen::classic::path(4);
        let s = uniform_scores(&g);
        let m = match_unmatched_list(&g, &s);
        assert!(verify_matching(&g, &s, &m).is_ok());
        // A path of 4 has a perfect matching of 2 edges under maximality +
        // greedy tie-breaks; at minimum it is maximal (>= 1 pair).
        assert!(!m.is_empty());
        let unmatched = m.mates().iter().filter(|&&v| v == NO_VERTEX).count();
        assert_eq!(unmatched + 2 * m.len(), 4);
    }

    #[test]
    fn ignores_non_positive_scores() {
        let g = GraphBuilder::new(4).add_pairs([(0, 1), (2, 3)]).build();
        let mut s = uniform_scores(&g);
        // Zero out the (2,3) edge (stored (2,3) same parity -> bucket 2).
        for (e, score) in s.iter_mut().enumerate() {
            let (i, j, _) = g.edge(e);
            if (i.min(j), i.max(j)) == (2, 3) {
                *score = 0.0;
            }
        }
        let m = match_unmatched_list(&g, &s);
        assert_eq!(m.len(), 1);
        assert_eq!(m.mate(2), None);
        assert_eq!(m.mate(3), None);
        assert!(verify_matching(&g, &s, &m).is_ok());
    }

    #[test]
    fn prefers_heavier_edge() {
        // Triangle where one edge dominates.
        let g = GraphBuilder::new(3)
            .add_pairs([(0, 1), (1, 2), (0, 2)])
            .build();
        let mut s = vec![1.0; g.num_edges()];
        for (e, score) in s.iter_mut().enumerate() {
            let (i, j, _) = g.edge(e);
            if (i.min(j), i.max(j)) == (1, 2) {
                *score = 5.0;
            }
        }
        let m = match_unmatched_list(&g, &s);
        assert_eq!(m.mate(1), Some(2));
        assert_eq!(m.mate(0), None);
    }

    #[test]
    fn star_matches_exactly_one_pair() {
        let g = pcd_gen::classic::star(50);
        let s = uniform_scores(&g);
        let m = match_unmatched_list(&g, &s);
        assert_eq!(m.len(), 1, "star centre can be matched only once");
        assert!(verify_matching(&g, &s, &m).is_ok());
    }

    #[test]
    fn empty_scores_empty_matching() {
        let g = pcd_gen::classic::clique(5);
        let s = vec![-1.0; g.num_edges()];
        let m = match_unmatched_list(&g, &s);
        assert!(m.is_empty());
        assert!(verify_matching(&g, &s, &m).is_ok());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = pcd_gen::RmatParams::paper(9, 11);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m1 = pcd_util::pool::with_threads(1, || match_unmatched_list(&g, &s));
        let m4 = pcd_util::pool::with_threads(4, || match_unmatched_list(&g, &s));
        assert_eq!(m1, m4);
    }

    #[test]
    fn rounds_stay_small_on_rmat() {
        let p = pcd_gen::RmatParams::paper(10, 3);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let out = match_unmatched_list_capped(&g, &s, usize::MAX);
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
        assert!(out.rounds < 64, "rounds = {}", out.rounds);
    }

    /// A graph that provably needs two parallel rounds: all endpoints even
    /// (same parity, so (min, max) storage), edges (2,4,w5) and (2,6,w1) in
    /// bucket 2, (4,8,w10) in bucket 4. Round 1 matches (4,8) — best[4]
    /// prefers it over (2,4) — leaving vertex 2 live with only (2,6)
    /// eligible, which round 2 matches.
    fn two_round_graph() -> (Graph, Vec<f64>) {
        let g = GraphBuilder::new(9)
            .add_edge(2, 4, 5)
            .add_edge(2, 6, 1)
            .add_edge(4, 8, 10)
            .build();
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        (g, s)
    }

    #[test]
    fn two_round_graph_takes_two_rounds() {
        let (g, s) = two_round_graph();
        let out = match_unmatched_list_capped(&g, &s, usize::MAX);
        assert_eq!(out.rounds, 2);
        assert!(!out.degraded);
        assert_eq!(out.matching.mate(4), Some(8));
        assert_eq!(out.matching.mate(2), Some(6));
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
    }

    #[test]
    fn watchdog_degrades_to_sequential_completion() {
        let (g, s) = two_round_graph();
        let capped = match_unmatched_list_capped(&g, &s, 1);
        assert_eq!(capped.rounds, 1);
        assert!(capped.degraded, "cap of 1 must expire on a 2-round graph");
        // The fallback must restore maximality; here it also reproduces the
        // uncapped matching exactly.
        assert!(verify_matching(&g, &s, &capped.matching).is_ok());
        let uncapped = match_unmatched_list_capped(&g, &s, usize::MAX);
        assert_eq!(capped.matching, uncapped.matching);
    }

    #[test]
    fn watchdog_cap_zero_is_fully_sequential() {
        let p = pcd_gen::RmatParams::paper(7, 6);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let out = match_unmatched_list_capped(&g, &s, 0);
        assert_eq!(out.rounds, 0);
        assert!(out.degraded);
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch carried across graphs of shrinking-then-varied sizes
        // must reproduce the owning entry point exactly, including the
        // degraded fallback path.
        let mut scratch = MatchScratch::new();
        for seed in [11, 29, 31] {
            let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, seed));
            let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
            for cap in [usize::MAX, 1] {
                let fresh = match_unmatched_list_capped(&g, &s, cap);
                let reused = match_unmatched_list_scratch(&g, &s, cap, &mut scratch);
                assert_eq!(fresh, reused, "seed {seed} cap {cap}");
                scratch.recycle(reused.matching);
            }
        }
    }

    #[test]
    fn generous_cap_never_degrades() {
        let p = pcd_gen::RmatParams::paper(8, 4);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let out = match_unmatched_list_capped(&g, &s, 1024);
        assert!(!out.degraded);
        assert!(verify_matching(&g, &s, &out.matching).is_ok());
    }
}
