//! Golden regression tests: the pipeline is deterministic, so exact
//! results on fixed inputs are stable anchors. A change here means the
//! algorithm's behaviour changed — intentional changes must update the
//! goldens consciously.

use parcomm::prelude::*;

#[test]
fn karate_club_golden() {
    let g = parcomm::gen::classic::karate_club();
    let r = detect(g, &Config::default());
    // Locked-in behaviour of the default configuration on karate.
    assert_eq!(r.num_communities, 4);
    assert!((r.modularity - 0.392).abs() < 5e-4, "q = {}", r.modularity);
    assert_eq!(r.levels.len(), 7);
    // Level-by-level merge counts.
    let pairs: Vec<usize> = r.levels.iter().map(|l| l.pairs_merged).collect();
    assert_eq!(pairs, vec![13, 8, 4, 2, 1, 1, 1]);
    // Community membership counts (sorted).
    let mut counts = r.community_vertex_counts.clone();
    counts.sort_unstable();
    assert_eq!(counts, vec![4, 7, 10, 13]);
}

#[test]
fn rmat_10_seed_7_golden() {
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 7));
    // Generator goldens: sizes fixed by (seed, scale).
    assert_eq!(g.num_vertices(), 1018);
    assert_eq!(g.num_edges(), 11_037);
    assert_eq!(g.total_weight(), 16_384);
    // On this small R-MAT the modularity local maximum arrives *before*
    // coverage reaches 0.5 (R-MAT has little community structure) — lock
    // that behaviour in.
    let r = detect(g, &Config::paper_performance());
    assert_eq!(
        r.stop_reason,
        parcomm::core::result::StopReason::LocalMaximum
    );
    assert!(r.coverage < 0.5, "coverage = {}", r.coverage);
}

#[test]
fn determinism_is_total_across_repeats() {
    // Two full runs through generation + detection produce identical
    // artifacts, byte for byte.
    let run = || {
        let s = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(2_000, 77));
        let r = detect(s.graph, &Config::default());
        (r.assignment, r.num_communities, r.modularity.to_bits())
    };
    assert_eq!(run(), run());
}

/// FNV-1a (64-bit) over the little-endian bytes of each label.
fn fnv1a(labels: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in labels.iter().flat_map(|l| l.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn rmat_10_multilevel_refinement_golden() {
    // The V-cycle's exact output: refined-assignment hash and the bit
    // patterns of the per-level modularity trajectory (coarsest first),
    // at 5 sweeps per level. However the level graphs are built, they
    // must reproduce these bit for bit.
    let cases: [(u64, usize, u64, &[u64]); 2] = [
        (
            2,
            10,
            0xa704_7db3_8e6b_5a37,
            &[
                0x3fd3_8be1_dbd6_2093,
                0x3fd3_8be1_dbd6_2093,
                0x3fd3_8be1_dbd6_2093,
                0x3fd3_8be1_dbd6_2093,
                0x3fd3_ae96_df7c_1273,
                0x3fd3_ec14_3562_e9d4,
                0x3fd4_6d6d_8c25_8a54,
                0x3fd5_3f55_7357_a566,
                0x3fd6_2ef8_b462_b38a,
                0x3fd7_5e32_9e1f_0dce,
            ],
        ),
        (
            13,
            9,
            0x376a_3e25_2596_a1e6,
            &[
                0x3fd3_ae22_25d6_4c90,
                0x3fd3_ae22_25d6_4c90,
                0x3fd3_ae22_25d6_4c90,
                0x3fd3_ae22_25d6_4c90,
                0x3fd3_ae22_25d6_4c90,
                0x3fd3_b143_0edd_62bb,
                0x3fd3_d742_e4d9_b29e,
                0x3fd4_253c_54a0_513d,
                0x3fd4_9070_903b_7ad3,
                0x3fd5_6f41_d2b7_a19f,
                0x3fd6_5a33_2833_9e6b,
                0x3fd7_6f4b_94e5_b276,
            ],
        ),
    ];
    for (seed, communities, hash, trajectory) in cases {
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, seed));
        let r = detect(g.clone(), &Config::default().with_recorded_levels());
        let ml = parcomm::core::refine_multilevel(&g, &r, 5);
        assert_eq!(ml.num_communities, communities, "seed {seed}");
        assert_eq!(fnv1a(&ml.assignment), hash, "seed {seed}");
        let bits: Vec<u64> = ml.q_trajectory.iter().map(|q| q.to_bits()).collect();
        assert_eq!(bits, trajectory, "seed {seed}");
    }
}

#[test]
fn louvain_backend_golden() {
    // Unit weights make exact ΔQ ties common in the move phase's first
    // sweeps (equal-degree singletons), so this pins its tie rule —
    // larger gain, then smaller label — along with the rest of the
    // backend: assignment hash, modularity bits, level count and the
    // sweeps each level took.
    let s = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(3_000, 21));
    let cfg = Config::default()
        .with_matcher(MatcherKind::LouvainMove)
        .with_recorded_levels();
    let r = detect(s.graph, &cfg);
    assert_eq!(fnv1a(&r.assignment), 0xd4fa_34b8_f422_f78b);
    assert_eq!(r.modularity.to_bits(), 0x3fe8_953b_474e_7571);
    let sweeps: Vec<usize> = r.levels.iter().map(|l| l.match_rounds).collect();
    assert_eq!(sweeps, vec![14, 8, 6, 6, 5, 5, 3, 2, 2]);
}
