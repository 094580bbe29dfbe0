//! The paranoia guards must be pure observers: running detection with
//! every runtime invariant check enabled must produce bit-for-bit the same
//! hierarchy as running with the guards off, on arbitrary generated
//! graphs. (If a guard ever *changed* a result, it would be a bug factory
//! rather than a bug detector.)

use parcomm::prelude::*;
use parcomm::util::prop::check;

fn assert_off_full_agree(g: Graph, cfg: &Config) {
    let off = detect(g.clone(), &cfg.clone().with_paranoia(Paranoia::Off));
    let full = try_detect(g, &cfg.clone().with_paranoia(Paranoia::Full))
        .expect("healthy kernels must pass full paranoia");
    assert_eq!(off.assignment, full.assignment);
    assert_eq!(off.num_communities, full.num_communities);
    assert_eq!(off.modularity, full.modularity);
    assert_eq!(off.coverage, full.coverage);
    assert_eq!(off.levels.len(), full.levels.len());
    for (a, b) in off.levels.iter().zip(&full.levels) {
        assert_eq!(a.pairs_merged, b.pairs_merged);
        assert_eq!(a.match_rounds, b.match_rounds);
        assert_eq!(a.matcher_degraded, b.matcher_degraded);
    }
}

#[test]
fn full_paranoia_agrees_with_off_on_rmat() {
    check(12, |rng| {
        let scale = rng.gen_range(6u32..9);
        let seed = rng.gen_range(0u64..1000);
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(scale, seed));
        assert_off_full_agree(g, &Config::default());
    });
}

#[test]
fn full_paranoia_agrees_with_off_on_sbm() {
    check(12, |rng| {
        let n = rng.gen_range(200usize..800);
        let seed = rng.gen_range(0u64..1000);
        let g = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(n, seed)).graph;
        assert_off_full_agree(g, &Config::default());
    });
}

#[test]
fn full_paranoia_agrees_under_constraints() {
    check(12, |rng| {
        let seed = rng.gen_range(0u64..1000);
        // Guards also coexist with masking and early termination.
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(7, seed));
        let cfg = Config::default()
            .with_max_community_size(16)
            .with_coverage_stop(0.7);
        assert_off_full_agree(g, &cfg);
    });
}

/// The watchdog's driver-level contract: a cap the level cannot meet still
/// yields a complete, valid detection run, with the degradation recorded
/// per level. Full paranoia verifies every level's matching (validity +
/// maximality), so a passing run proves the fallback produced a lawful
/// maximal matching at every level.
#[test]
fn watchdog_expiry_degrades_gracefully_end_to_end() {
    let g = GraphBuilder::new(9)
        .add_edge(2, 4, 5)
        .add_edge(2, 6, 1)
        .add_edge(4, 8, 10)
        .build();
    let cfg = Config::default()
        .with_max_match_rounds(1)
        .with_paranoia(Paranoia::Full);
    let r = try_detect(g, &cfg).expect("degraded run must still complete");
    assert!(
        r.levels[0].matcher_degraded,
        "level 1 needs 2 rounds; cap is 1"
    );
    assert_eq!(r.levels[0].match_rounds, 1);
    // The degraded matching still merged both pairs: {2,6} and {4,8}.
    assert_eq!(r.levels[0].pairs_merged, 2);
}

/// A generous cap never trips, and the stats say so.
#[test]
fn default_watchdog_cap_stays_clear_of_real_graphs() {
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 99));
    let r = detect(g, &Config::default().with_paranoia(Paranoia::Cheap));
    assert!(r.levels.iter().all(|l| !l.matcher_degraded));
    let cap = parcomm::core::default_match_round_cap(1 << 10);
    assert!(r.levels.iter().all(|l| l.match_rounds < cap));
}
