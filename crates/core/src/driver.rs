//! One-shot entry points for the agglomerative main loop (§III).
//!
//! The loop itself lives in [`crate::engine`]. With [`Config::sharding`]
//! off (the default), [`detect`] and [`try_detect`] construct a throwaway
//! [`crate::Detector`] per call, which dispatches each phase on the
//! configuration's kernel kinds ([`crate::kernel`]) and runs score →
//! match → contract until a local maximum or the coverage stop; with
//! sharding on, they go through the [`crate::shard`] pipeline, where
//! connected components run concurrently on warm per-worker engines and
//! merge deterministically. Callers running many detections keep a
//! [`crate::Detector`] (or use [`crate::detect_many`]) to reuse its warm
//! scratch arenas; outputs are bit-identical either way.

use crate::config::Config;
use crate::engine::Detector;
use crate::observer::NoopObserver;
use crate::result::DetectionResult;
use crate::shard;
use pcd_graph::Graph;
use pcd_util::PcdError;

/// Runs agglomerative community detection over `graph` under `config`.
///
/// The graph is consumed; it becomes level 0 of the hierarchy. Every
/// original vertex ends in exactly one community; isolated vertices stay
/// singletons.
///
/// Panics on an invalid configuration or a paranoia-guard trip; callers
/// that need structured errors use [`try_detect`].
pub fn detect(graph: Graph, config: &Config) -> DetectionResult {
    // analyze: allow(panic, reason = "documented panicking twin of try_detect (see doc comment)")
    try_detect(graph, config).unwrap_or_else(|e| panic!("community detection failed: {e}"))
}

/// Fallible [`detect`]: validates the configuration up front and, when
/// [`Config::paranoia`] is raised, re-checks kernel invariants after every
/// phase, returning [`PcdError::InvariantViolation`] instead of producing
/// a silently corrupt hierarchy.
pub fn try_detect(graph: Graph, config: &Config) -> Result<DetectionResult, PcdError> {
    if config.sharding {
        let (result, _) = shard::try_detect_sharded_observed(graph, config, || NoopObserver)?;
        Ok(result)
    } else {
        Detector::new(config.clone())?.run(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::config::{ContractorKind, MatcherKind, Paranoia, ScorerKind};
    use crate::result::StopReason;

    #[test]
    fn clique_ring_finds_cliques() {
        let k = 8;
        let s = 8;
        let g = pcd_gen::classic::clique_ring(k, s);
        let r = detect(g.clone(), &Config::default());
        assert_eq!(r.stop_reason, StopReason::LocalMaximum);
        // Communities should align with the planted cliques: NMI close to 1.
        let truth = pcd_gen::classic::clique_ring_truth(k, s);
        let nmi = pcd_metrics::normalized_mutual_information(&r.assignment, &truth);
        assert!(nmi > 0.75, "nmi = {nmi}");
        assert!(r.modularity > 0.6, "q = {}", r.modularity);
        // Assignment and community graph agree.
        assert_eq!(r.num_communities, r.community_graph.num_vertices());
        let q_direct = pcd_metrics::modularity(&g, &r.assignment);
        assert!((q_direct - r.modularity).abs() < 1e-9);
    }

    #[test]
    fn karate_reaches_reasonable_modularity() {
        let g = pcd_gen::classic::karate_club();
        let r = detect(g, &Config::default());
        // Sequential CNM reaches ~0.38 on karate; matching-based
        // agglomeration should land in the same neighbourhood.
        assert!(r.modularity > 0.30, "q = {}", r.modularity);
        assert!(r.num_communities >= 2);
    }

    #[test]
    fn modularity_telescopes_across_levels() {
        // Q after each level == Q before + Σ matched scores; checked
        // end-to-end: per-level modularity must be non-decreasing under the
        // modularity scorer (every matched score is positive).
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 7));
        let r = detect(g, &Config::default());
        let mut prev = f64::NEG_INFINITY;
        for lvl in &r.levels {
            assert!(
                lvl.modularity > prev - 1e-12,
                "level {} decreased Q: {} -> {}",
                lvl.level,
                prev,
                lvl.modularity
            );
            prev = lvl.modularity;
        }
    }

    #[test]
    fn coverage_criterion_stops_early() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(10, 13));
        let full = detect(g.clone(), &Config::default());
        let half = detect(g.clone(), &Config::paper_performance());
        assert!(half.levels.len() <= full.levels.len());
        if half.stop_reason == StopReason::Criterion {
            assert!(half.coverage >= 0.5);
            // It stopped at the first level crossing the threshold.
            if half.levels.len() >= 2 {
                assert!(half.levels[half.levels.len() - 2].coverage < 0.5);
            }
        }
        // The threshold is inclusive: set to exactly level k's recorded
        // coverage (which rises strictly level to level), the run stops
        // after level k.
        assert!(full.levels.len() >= 2);
        for (k, lvl) in (1..).zip(&full.levels) {
            let r = detect(
                g.clone(),
                &Config::default().with_coverage_stop(lvl.coverage),
            );
            assert_eq!(r.levels.len(), k, "threshold {}", lvl.coverage);
            assert_eq!(r.stop_reason, StopReason::Criterion);
            assert_eq!(r.coverage.to_bits(), lvl.coverage.to_bits());
        }
    }

    #[test]
    fn max_community_size_masks_merges() {
        let g = pcd_gen::classic::clique(16);
        let r = detect(g, &Config::default().with_max_community_size(4));
        assert!(
            r.community_vertex_counts.iter().all(|&c| c <= 4),
            "counts = {:?}",
            r.community_vertex_counts
        );
        assert_eq!(r.stop_reason, StopReason::LocalMaximum);
    }

    #[test]
    fn counts_partition_all_vertices() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 3));
        let n = g.num_vertices() as u64;
        let r = detect(g, &Config::default());
        assert_eq!(r.community_vertex_counts.iter().sum::<u64>(), n);
        assert_eq!(r.assignment.len(), n as usize);
        for &a in &r.assignment {
            assert!((a as usize) < r.num_communities);
        }
    }

    #[test]
    fn all_kernel_combinations_agree_on_quality() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        let truth = pcd_gen::classic::clique_ring_truth(6, 5);
        for matcher in [
            MatcherKind::UnmatchedList,
            MatcherKind::EdgeSweep,
            MatcherKind::Sequential,
        ] {
            for contractor in ContractorKind::ALL {
                let cfg = Config::default()
                    .with_matcher(matcher)
                    .with_contractor(contractor);
                let r = detect(g.clone(), &cfg);
                let nmi = pcd_metrics::normalized_mutual_information(&r.assignment, &truth);
                assert!(
                    nmi > 0.7,
                    "matcher {matcher:?} contractor {contractor:?}: nmi {nmi}"
                );
            }
        }
    }

    #[test]
    fn conductance_scorer_runs_to_completion() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        let r = detect(
            g,
            &Config::default()
                .with_scorer(ScorerKind::Conductance)
                .with_budget(Budget::unarmed().with_max_levels(10)),
        );
        assert!(r.num_communities >= 1);
        assert!(r.coverage >= 0.0);
    }

    #[test]
    fn empty_graph_all_singletons() {
        let g = Graph::empty(5);
        let r = detect(g, &Config::default());
        assert_eq!(r.num_communities, 5);
        assert_eq!(r.stop_reason, StopReason::LocalMaximum);
        assert!(r.levels.is_empty());
    }

    #[test]
    fn star_makes_slow_progress() {
        // The paper's worst case: a star contracts O(1) pairs per level.
        let g = pcd_gen::classic::star(64);
        let r = detect(g, &Config::default());
        assert!(!r.levels.is_empty());
        // First level merges exactly one pair (centre + one leaf).
        assert_eq!(r.levels[0].pairs_merged, 1);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 77));
        let r1 = pcd_util::pool::with_threads(1, {
            let g = g.clone();
            move || detect(g, &Config::default())
        });
        let r4 = pcd_util::pool::with_threads(4, move || detect(g, &Config::default()));
        assert_eq!(r1.assignment, r4.assignment);
        assert_eq!(r1.num_communities, r4.num_communities);
        assert_eq!(r1.modularity, r4.modularity);
    }

    #[test]
    fn recorded_levels_rebuild_any_partition() {
        let g = pcd_gen::classic::clique_ring(8, 6);
        let r = detect(g.clone(), &Config::default().with_recorded_levels());
        assert_eq!(r.level_maps.len(), r.levels.len());
        // Level 0 is the singleton partition.
        let a0 = r.assignment_at_level(0);
        assert_eq!(a0, (0..g.num_vertices() as u32).collect::<Vec<_>>());
        // The deepest level reproduces the final assignment.
        let deepest = r.assignment_at_level(r.level_maps.len());
        assert_eq!(deepest, r.assignment);
        // Intermediate levels have monotonically fewer communities.
        let mut prev = usize::MAX;
        for k in 0..=r.level_maps.len() {
            let a = r.assignment_at_level(k);
            let (_, count) = pcd_metrics::compact_labels(&a);
            assert!(count < prev || k == 0);
            prev = count;
        }
    }

    #[test]
    fn try_detect_rejects_invalid_config() {
        let g = pcd_gen::classic::clique(4);
        let cfg = Config::default().with_coverage_stop(f64::NAN);
        let err = try_detect(g, &cfg).unwrap_err();
        assert!(err.to_string().contains("coverage"), "{err}");
    }

    #[test]
    fn watchdog_degradation_recorded_in_level_stats() {
        // All-even vertex ids → same-parity storage: (2,4) and (2,6) share
        // bucket 2, (4,8) sits in bucket 4, so level 1 needs two parallel
        // rounds under modularity scoring. A cap of 1 must expire, fall
        // back to the sequential completion, and flag the level.
        let g = pcd_graph::GraphBuilder::new(9)
            .add_edge(2, 4, 5)
            .add_edge(2, 6, 1)
            .add_edge(4, 8, 10)
            .build();
        let uncapped = try_detect(g.clone(), &Config::default()).unwrap();
        assert_eq!(uncapped.levels[0].match_rounds, 2);
        assert!(!uncapped.levels[0].matcher_degraded);
        let cfg = Config::default()
            .with_max_match_rounds(1)
            .with_paranoia(Paranoia::Full);
        let r = try_detect(g, &cfg).expect("degraded run must still succeed");
        assert!(!r.levels.is_empty());
        // Full paranoia verified every level's matching as valid and
        // maximal, so reaching here proves graceful degradation.
        assert!(
            r.levels[0].matcher_degraded,
            "cap of 1 must trip the watchdog on a 2-round level"
        );
        assert_eq!(r.levels[0].match_rounds, 1);
    }

    #[test]
    fn generous_watchdog_never_degrades() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 21));
        let r = detect(g, &Config::default().with_paranoia(Paranoia::Full));
        assert!(r.levels.iter().all(|l| !l.matcher_degraded));
    }

    #[test]
    fn paranoia_levels_do_not_change_results() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 5));
        let off = detect(g.clone(), &Config::default());
        for p in [Paranoia::Cheap, Paranoia::Full] {
            let guarded = detect(g.clone(), &Config::default().with_paranoia(p));
            assert_eq!(off.assignment, guarded.assignment, "paranoia {p:?}");
            assert_eq!(off.modularity, guarded.modularity);
            assert_eq!(off.levels.len(), guarded.levels.len());
        }
    }

    #[test]
    fn paranoia_guards_pass_on_all_kernels() {
        let g = pcd_gen::classic::clique_ring(6, 5);
        for contractor in ContractorKind::ALL {
            let cfg = Config::default()
                .with_contractor(contractor)
                .with_paranoia(Paranoia::Full);
            let r = try_detect(g.clone(), &cfg);
            assert!(r.is_ok(), "contractor {contractor:?}: {:?}", r.err());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // The arena ablation: reuse on (default) and off must be
        // bit-identical, across kernels and paranoia levels.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 41));
        for base in [
            Config::default(),
            Config::default().with_paranoia(Paranoia::Full),
            Config::default()
                .with_matcher(MatcherKind::EdgeSweep)
                .with_contractor(ContractorKind::Linked),
            Config::default().with_contractor(ContractorKind::BucketFetchAdd),
            Config::default().with_recorded_levels(),
        ] {
            let reused = detect(g.clone(), &base.clone().with_scratch_reuse(true));
            let fresh = detect(g.clone(), &base.with_scratch_reuse(false));
            assert_eq!(reused.assignment, fresh.assignment);
            assert_eq!(reused.modularity, fresh.modularity);
            assert_eq!(reused.num_communities, fresh.num_communities);
            assert_eq!(reused.level_maps, fresh.level_maps);
            assert_eq!(
                reused.community_vertex_counts,
                fresh.community_vertex_counts
            );
        }
    }
}
