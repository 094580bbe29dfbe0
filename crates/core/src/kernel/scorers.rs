//! [`Scorer`] impls wrapping the concrete metrics in
//! [`crate::scorer`]. Registry names match the CLI `--scorer` spellings.

use super::Scorer;
use crate::config::ScorerKind;
use crate::scorer::{score_all_into, ScoreContext};
use pcd_graph::Graph;

/// Change in Newman–Girvan modularity (the paper's primary metric).
#[derive(Debug)]
pub struct Modularity;

impl Scorer for Modularity {
    fn kind(&self) -> ScorerKind {
        ScorerKind::Modularity
    }
    fn name(&self) -> &'static str {
        "modularity"
    }
    fn description(&self) -> &'static str {
        "change in Newman-Girvan modularity (paper primary metric)"
    }
    fn score_into(&self, g: &Graph, ctx: &ScoreContext, out: &mut Vec<f64>) {
        score_all_into(ScorerKind::Modularity, g, ctx, out);
    }
}

/// Negated change in conductance (minimisation turned maximisation).
#[derive(Debug)]
pub struct Conductance;

impl Scorer for Conductance {
    fn kind(&self) -> ScorerKind {
        ScorerKind::Conductance
    }
    fn name(&self) -> &'static str {
        "conductance"
    }
    fn description(&self) -> &'static str {
        "negated change in conductance (minimisation as maximisation)"
    }
    fn score_into(&self, g: &Graph, ctx: &ScoreContext, out: &mut Vec<f64>) {
        score_all_into(ScorerKind::Conductance, g, ctx, out);
    }
}

/// Raw edge weight — plain heavy-edge coarsening, a useful ablation.
#[derive(Debug)]
pub struct HeavyEdge;

impl Scorer for HeavyEdge {
    fn kind(&self) -> ScorerKind {
        ScorerKind::HeavyEdge
    }
    fn name(&self) -> &'static str {
        "heavy"
    }
    fn description(&self) -> &'static str {
        "raw edge weight (heavy-edge coarsening ablation)"
    }
    fn score_into(&self, g: &Graph, ctx: &ScoreContext, out: &mut Vec<f64>) {
        score_all_into(ScorerKind::HeavyEdge, g, ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_output_matches_concrete_kernel() {
        let g = pcd_gen::classic::clique_ring(4, 5);
        let ctx = ScoreContext::new(&g);
        for (scorer, kind) in [
            (&Modularity as &dyn Scorer, ScorerKind::Modularity),
            (&Conductance, ScorerKind::Conductance),
            (&HeavyEdge, ScorerKind::HeavyEdge),
        ] {
            let mut via_trait = Vec::new();
            scorer.score_into(&g, &ctx, &mut via_trait);
            let mut direct = Vec::new();
            score_all_into(kind, &g, &ctx, &mut direct);
            assert_eq!(via_trait, direct, "{kind:?}");
        }
    }
}
