//! [`Matcher`] impls wrapping the concrete kernels in `pcd-matching`.

use super::Matcher;
use crate::config::MatcherKind;
use crate::louvain::synchronous_move_phase;
use pcd_graph::Graph;
use pcd_matching::{
    edge_sweep, labelprop, match_within_labels, parallel, seq, MatchOutcome, MatchScratch,
};

/// The paper's improved unmatched-vertex-list matching (§IV-B). The only
/// kernel governed by the watchdog `round_cap`; on expiry it degrades to
/// the sequential completion and reports `degraded: true`.
#[derive(Debug)]
pub struct UnmatchedList;

impl Matcher for UnmatchedList {
    fn kind(&self) -> MatcherKind {
        MatcherKind::UnmatchedList
    }
    fn name(&self) -> &'static str {
        "unmatched-list"
    }
    fn description(&self) -> &'static str {
        "paper's improved unmatched-vertex-list matching (sec. IV-B)"
    }
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        round_cap: usize,
        scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        parallel::match_unmatched_list_scratch(g, scores, round_cap, scratch)
    }
}

/// The 2011 full-edge-sweep baseline. Statically bounded sweeps; ignores
/// the watchdog cap and never degrades.
#[derive(Debug)]
pub struct EdgeSweep;

impl Matcher for EdgeSweep {
    fn kind(&self) -> MatcherKind {
        MatcherKind::EdgeSweep
    }
    fn name(&self) -> &'static str {
        "edge-sweep"
    }
    fn description(&self) -> &'static str {
        "2011 full-edge-sweep baseline matcher"
    }
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        _round_cap: usize,
        _scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        let (matching, sweeps) = edge_sweep::match_edge_sweep_stats(g, scores);
        MatchOutcome {
            matching,
            rounds: sweeps,
            degraded: false,
        }
    }
}

/// Sequential greedy (oracle / single-thread reference). One pass; ignores
/// the watchdog cap and never degrades.
#[derive(Debug)]
pub struct SequentialGreedy;

impl Matcher for SequentialGreedy {
    fn kind(&self) -> MatcherKind {
        MatcherKind::Sequential
    }
    fn name(&self) -> &'static str {
        "sequential"
    }
    fn description(&self) -> &'static str {
        "sequential greedy oracle matcher (single-thread reference)"
    }
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        _round_cap: usize,
        _scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        MatchOutcome {
            matching: seq::match_sequential_greedy(g, scores),
            rounds: 1,
            degraded: false,
        }
    }
}

/// Synchronous label propagation guiding the unmatched-list matching.
/// The watchdog `round_cap` bounds the propagation rounds; expiry before
/// convergence reports `degraded: true` through the usual channel.
#[derive(Debug)]
pub struct LabelProp;

impl Matcher for LabelProp {
    fn kind(&self) -> MatcherKind {
        MatcherKind::LabelProp
    }
    fn name(&self) -> &'static str {
        "labelprop"
    }
    fn description(&self) -> &'static str {
        "synchronous label propagation guiding an intra-label-first maximal matching"
    }
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        round_cap: usize,
        scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        labelprop::match_labelprop_scratch(g, scores, round_cap, scratch)
    }
}

/// Louvain-style synchronous move phase guiding the unmatched-list
/// matching. The watchdog `round_cap` bounds the sweeps; expiry before
/// convergence reports `degraded: true`.
#[derive(Debug)]
pub struct MoveMatcher;

impl Matcher for MoveMatcher {
    fn kind(&self) -> MatcherKind {
        MatcherKind::LouvainMove
    }
    fn name(&self) -> &'static str {
        "louvain"
    }
    fn description(&self) -> &'static str {
        "synchronous Louvain move phase guiding an intra-label-first maximal matching"
    }
    fn match_level(
        &self,
        g: &Graph,
        scores: &[f64],
        round_cap: usize,
        scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        let mut ls = scratch.take_label();
        let stats = synchronous_move_phase(g, round_cap, &mut ls);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{score_all_into, ScoreContext};
    use crate::ScorerKind;

    #[test]
    fn trait_output_matches_concrete_kernels() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 11));
        let ctx = ScoreContext::new(&g);
        let mut scores = Vec::new();
        score_all_into(ScorerKind::Modularity, &g, &ctx, &mut scores);

        let mut scratch = MatchScratch::new();
        let via_trait = UnmatchedList.match_level(&g, &scores, 1000, &mut scratch);
        let mut scratch2 = MatchScratch::new();
        let direct = parallel::match_unmatched_list_scratch(&g, &scores, 1000, &mut scratch2);
        assert_eq!(via_trait.matching.mates(), direct.matching.mates());
        assert_eq!(via_trait.rounds, direct.rounds);
        assert_eq!(via_trait.degraded, direct.degraded);

        let via_trait = EdgeSweep.match_level(&g, &scores, 1, &mut scratch);
        let (direct, sweeps) = edge_sweep::match_edge_sweep_stats(&g, &scores);
        assert_eq!(via_trait.matching.mates(), direct.mates());
        assert_eq!(via_trait.rounds, sweeps);
        assert!(!via_trait.degraded);

        let via_trait = SequentialGreedy.match_level(&g, &scores, 1, &mut scratch);
        let direct = seq::match_sequential_greedy(&g, &scores);
        assert_eq!(via_trait.matching.mates(), direct.mates());
        assert_eq!(via_trait.rounds, 1);
        assert!(!via_trait.degraded);

        let via_trait = LabelProp.match_level(&g, &scores, 1000, &mut scratch);
        let mut scratch3 = MatchScratch::new();
        let direct = labelprop::match_labelprop_scratch(&g, &scores, 1000, &mut scratch3);
        assert_eq!(via_trait, direct);

        let via_trait = MoveMatcher.match_level(&g, &scores, 1000, &mut scratch);
        let mut ls = pcd_matching::LabelScratch::new();
        let stats = synchronous_move_phase(&g, 1000, &mut ls);
        let mut boosted = Vec::new();
        let mut scratch4 = MatchScratch::new();
        let direct = match_within_labels(&g, &scores, &ls.labels, &mut boosted, &mut scratch4);
        assert_eq!(via_trait.matching, direct.matching);
        assert_eq!(via_trait.rounds, stats.sweeps);
        assert!(!via_trait.degraded);
    }

    /// The label-driven wrappers must satisfy the engine's per-level
    /// debug assertion: a valid maximal matching over the *real* scores.
    #[test]
    fn label_driven_matchers_verify_against_real_scores() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 19));
        let ctx = ScoreContext::new(&g);
        let mut scores = Vec::new();
        score_all_into(ScorerKind::Modularity, &g, &ctx, &mut scores);
        for matcher in [&LabelProp as &dyn Matcher, &MoveMatcher] {
            let mut scratch = MatchScratch::new();
            let out = matcher.match_level(&g, &scores, 1000, &mut scratch);
            assert_eq!(
                pcd_matching::verify::verify_matching(&g, &scores, &out.matching),
                Ok(()),
                "{} emitted an invalid matching",
                matcher.name()
            );
        }
    }
}
