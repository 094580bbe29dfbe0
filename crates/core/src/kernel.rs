//! Kernel dispatch: the one place a kind enum becomes a concrete kernel
//! call.
//!
//! The paper's loop is three fixed primitives (§III), and a [`Config`]
//! picks each one by a kind enum, which is the kernel's only
//! representation: its `ALL`, `name()` and `description()` are the
//! registry that `parcomm --list-kernels` prints. The engine scores with
//! [`score_all_into`](crate::scorer::score_all_into), which takes the
//! [`ScorerKind`](crate::ScorerKind) itself, and matches and contracts
//! through [`match_level`] and [`contract_level`]. Each is one exhaustive
//! `match`, so adding or removing a kernel is an edit to its enum and
//! the compiler checks that every arm is handled.
//!
//! Contracts (see DESIGN.md §11 for the full statement):
//!
//! - Kernels are stateless; all per-level mutable state lives in the
//!   scratch arguments.
//! - An arm is a pure wrapper: byte-for-byte the same output as calling
//!   the underlying concrete function directly. The dispatch-parity
//!   suite (`tests/dispatch_parity.rs`) holds this to zero output bits.
//! - The engine owns policy. Masking, fault injection, paranoia guards,
//!   and timing happen around these calls, never inside them.
//!
//! [`Config`]: crate::Config

use crate::config::{ContractorKind, MatcherKind};
use crate::louvain::{synchronous_move_phase, CommitRule};
use pcd_contract::{bucket, linked, seq as contract_seq, ContractScratch, Placement, RowSort};
use pcd_graph::{Graph, GraphParts};
use pcd_matching::{
    edge_sweep, match_within_labels, parallel, seq as match_seq, MatchOutcome, MatchScratch,
    Matching,
};

/// Matching backend (§III step 2): a valid matching over `g`'s edges
/// given per-edge `scores`, with the rounds used and whether the watchdog
/// degraded the kernel.
///
/// May assume `scores.len() == g.num_edges()` and every score finite (the
/// engine guards that under cheap paranoia). `round_cap` is the watchdog
/// bound: it caps the unmatched-list matcher's parallel rounds (on expiry
/// it completes sequentially) and the Louvain move phase's sweeps; the
/// edge-sweep and sequential matchers have statically bounded pass
/// counts, ignore it and report `degraded: false`. Scratch is recycled by
/// the engine between levels; a kernel must not assume it is empty, only
/// that its buffers are the kernel's to overwrite.
pub fn match_level(
    kind: MatcherKind,
    g: &Graph,
    scores: &[f64],
    round_cap: usize,
    scratch: &mut MatchScratch,
) -> MatchOutcome {
    match kind {
        MatcherKind::UnmatchedList => {
            parallel::match_unmatched_list_scratch(g, scores, round_cap, scratch)
        }
        MatcherKind::EdgeSweep => {
            let (matching, sweeps) = edge_sweep::match_edge_sweep_stats(g, scores);
            MatchOutcome {
                matching,
                rounds: sweeps,
                degraded: false,
            }
        }
        MatcherKind::Sequential => MatchOutcome {
            matching: match_seq::match_sequential_greedy(g, scores),
            rounds: 1,
            degraded: false,
        },
        MatcherKind::LouvainMove => {
            let mut ls = scratch.take_label();
            let stats = synchronous_move_phase(g, None, round_cap, CommitRule::Revalidate, &mut ls);
            let mut boosted = std::mem::take(&mut ls.boosted);
            let inner = match_within_labels(g, scores, &ls.labels, &mut boosted, scratch);
            ls.boosted = boosted;
            scratch.put_label(ls);
            MatchOutcome {
                matching: inner.matching,
                rounds: stats.sweeps,
                degraded: !stats.converged || inner.degraded,
            }
        }
    }
}

/// Contraction backend (§III step 3): builds the next community graph
/// from `g` and a matching, returning `(next_graph, num_new_vertices)`.
///
/// Leaves the dense old→new vertex map in `scratch` (the engine folds
/// assignments, counts, and volumes through it). `parts` is the storage
/// of the graph retired two levels ago (possibly empty): the bucket-sort
/// pipeline scatters into it, the baseline and oracle kernels go through
/// the owning API, drop it and deposit their map into `scratch`
/// afterwards, so the engine's fold path is uniform. The three
/// bucket-sort kinds are the pipeline's row sort and placement choices.
pub fn contract_level(
    kind: ContractorKind,
    g: &Graph,
    matching: &Matching,
    scratch: &mut ContractScratch,
    parts: GraphParts,
) -> (Graph, usize) {
    let (sort, placement) = match kind {
        ContractorKind::Radix => (RowSort::Radix, Placement::PrefixSum),
        ContractorKind::Bucket => (RowSort::Heapsort, Placement::PrefixSum),
        ContractorKind::BucketFetchAdd => (RowSort::Heapsort, Placement::FetchAdd),
        ContractorKind::Linked => {
            let c = linked::contract_linked(g, matching);
            scratch.set_new_of_old(c.new_of_old);
            return (c.graph, c.num_new);
        }
        ContractorKind::Sequential => {
            let c = contract_seq::contract_seq(g, matching);
            scratch.set_new_of_old(c.new_of_old);
            return (c.graph, c.num_new);
        }
    };
    bucket::contract_into(g, matching, sort, placement, scratch, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{score_all_into, ScoreContext};
    use crate::ScorerKind;
    use pcd_matching::verify::verify_matching;
    use pcd_matching::LabelScratch;

    fn modularity_scores(g: &Graph) -> Vec<f64> {
        let mut scores = Vec::new();
        score_all_into(
            ScorerKind::Modularity,
            g,
            &ScoreContext::new(g),
            &mut scores,
        );
        scores
    }

    #[test]
    fn match_level_matches_concrete_kernels() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 11));
        let scores = modularity_scores(&g);
        let mut scratch = MatchScratch::new();
        for kind in MatcherKind::ALL {
            let got = match_level(kind, &g, &scores, 1000, &mut scratch);
            let want = match kind {
                MatcherKind::UnmatchedList => parallel::match_unmatched_list_scratch(
                    &g,
                    &scores,
                    1000,
                    &mut MatchScratch::new(),
                ),
                MatcherKind::EdgeSweep => {
                    let (matching, sweeps) = edge_sweep::match_edge_sweep_stats(&g, &scores);
                    MatchOutcome {
                        matching,
                        rounds: sweeps,
                        degraded: false,
                    }
                }
                MatcherKind::Sequential => MatchOutcome {
                    matching: match_seq::match_sequential_greedy(&g, &scores),
                    rounds: 1,
                    degraded: false,
                },
                MatcherKind::LouvainMove => {
                    let mut ls = LabelScratch::new();
                    let stats =
                        synchronous_move_phase(&g, None, 1000, CommitRule::Revalidate, &mut ls);
                    let inner = match_within_labels(
                        &g,
                        &scores,
                        &ls.labels,
                        &mut Vec::new(),
                        &mut MatchScratch::new(),
                    );
                    assert!(stats.converged);
                    MatchOutcome {
                        matching: inner.matching,
                        rounds: stats.sweeps,
                        degraded: false,
                    }
                }
            };
            assert_eq!(got, want, "{kind:?}");
        }
    }

    /// Every arm must satisfy the engine's per-level debug assertion: a
    /// valid maximal matching over the *real* scores, which the louvain
    /// arm gets only through its sign-preserving boost.
    #[test]
    fn every_matcher_verifies_against_real_scores() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 19));
        let scores = modularity_scores(&g);
        for kind in MatcherKind::ALL {
            let out = match_level(kind, &g, &scores, 1000, &mut MatchScratch::new());
            assert_eq!(
                verify_matching(&g, &scores, &out.matching),
                Ok(()),
                "{} emitted an invalid matching",
                kind.name()
            );
        }
    }

    #[test]
    fn louvain_cap_expiry_reports_degraded_but_stays_valid() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 2));
        let scores = modularity_scores(&g);
        let out = match_level(
            MatcherKind::LouvainMove,
            &g,
            &scores,
            1,
            &mut MatchScratch::new(),
        );
        assert!(out.degraded, "a sweep that commits moves is not converged");
        assert_eq!(out.rounds, 1);
        assert_eq!(verify_matching(&g, &scores, &out.matching), Ok(()));
    }

    #[test]
    fn every_matcher_handles_an_edgeless_graph() {
        let g = Graph::empty(3);
        for kind in MatcherKind::ALL {
            let out = match_level(kind, &g, &[], 8, &mut MatchScratch::new());
            assert!(out.matching.is_empty(), "{kind:?}");
            assert!(!out.degraded, "{kind:?}");
        }
    }

    #[test]
    fn every_contractor_gives_the_same_map() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 23));
        let scores = modularity_scores(&g);
        let matching =
            parallel::match_unmatched_list_scratch(&g, &scores, 1000, &mut MatchScratch::new())
                .matching;

        let mut reference: Option<(Vec<u32>, usize)> = None;
        for kind in ContractorKind::ALL {
            let mut scratch = ContractScratch::new();
            let (next, num_new) =
                contract_level(kind, &g, &matching, &mut scratch, GraphParts::default());
            assert_eq!(next.num_vertices(), num_new, "{kind:?}");
            assert_eq!(next.total_weight(), g.total_weight(), "{kind:?}");
            let map = scratch.new_of_old().to_vec();
            match &reference {
                None => reference = Some((map, num_new)),
                Some((ref_map, ref_new)) => {
                    assert_eq!(&map, ref_map, "{kind:?}");
                    assert_eq!(num_new, *ref_new, "{kind:?}");
                }
            }
        }
    }
}
