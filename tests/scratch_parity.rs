//! Scratch reuse must be invisible: `Config::reuse_scratch` flips between
//! the retained-arena level loop (the default) and the ablation arm that
//! rebuilds every buffer from scratch each level. The two paths share all
//! kernel code — only buffer provenance differs — so every observable
//! output must agree bit-for-bit on arbitrary generated graphs. A
//! divergence here means a buffer leaked state across levels (stale
//! capacity is fine, stale *contents* are not).

use parcomm::prelude::*;
use parcomm::util::prop::check;

fn assert_reuse_fresh_agree(g: Graph, cfg: &Config) {
    let reuse = detect(g.clone(), &cfg.clone().with_scratch_reuse(true));
    let fresh = detect(g, &cfg.clone().with_scratch_reuse(false));
    assert_eq!(reuse.assignment, fresh.assignment);
    assert_eq!(reuse.num_communities, fresh.num_communities);
    assert_eq!(reuse.modularity, fresh.modularity);
    assert_eq!(reuse.coverage, fresh.coverage);
    assert_eq!(reuse.community_vertex_counts, fresh.community_vertex_counts);
    assert_eq!(reuse.levels.len(), fresh.levels.len());
    for (a, b) in reuse.levels.iter().zip(&fresh.levels) {
        assert_eq!(a.pairs_merged, b.pairs_merged);
        assert_eq!(a.match_rounds, b.match_rounds);
        assert_eq!(a.matcher_degraded, b.matcher_degraded);
        assert_eq!(a.modularity, b.modularity);
    }
    assert_eq!(reuse.level_maps, fresh.level_maps);
}

#[test]
fn reuse_matches_fresh_on_rmat() {
    check(12, |rng| {
        let scale = rng.gen_range(6u32..9);
        let seed = rng.gen_range(0u64..1000);
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(scale, seed));
        assert_reuse_fresh_agree(g, &Config::default().with_recorded_levels());
    });
}

#[test]
fn reuse_matches_fresh_on_sbm() {
    check(12, |rng| {
        let n = rng.gen_range(200usize..800);
        let seed = rng.gen_range(0u64..1000);
        let g = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(n, seed)).graph;
        assert_reuse_fresh_agree(g, &Config::default());
    });
}

#[test]
fn reuse_matches_fresh_across_kernels() {
    check(12, |rng| {
        let seed = rng.gen_range(0u64..1000);
        // The ablation must hold for every kernel combination the driver
        // threads scratch through, not just the default path.
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(7, seed));
        for cfg in [
            Config::default().with_scorer(ScorerKind::Conductance),
            Config::default().with_contractor(ContractorKind::BucketFetchAdd),
            Config::default()
                .with_matcher(MatcherKind::EdgeSweep)
                .with_contractor(ContractorKind::Linked),
            Config::default()
                .with_max_community_size(16)
                .with_coverage_stop(0.7)
                .with_paranoia(Paranoia::Full),
        ] {
            assert_reuse_fresh_agree(g.clone(), &cfg);
        }
    });
}
