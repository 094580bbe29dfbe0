//! Backend parity for the label-driven matcher: the Louvain-move backend
//! must produce valid matchings over the real scores, improve modularity
//! monotonically per sweep, stay bit-deterministic across pool sizes, and
//! ride the batch and sharded entry points with zero output drift versus
//! solo runs.

use parcomm::core::kernel::match_level;
use parcomm::core::{synchronous_move_phase, CommitRule, DetectionResult};
use parcomm::gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use parcomm::matching::verify::verify_matching;
use parcomm::matching::{LabelScratch, MatchScratch};
use parcomm::metrics::modularity;
use parcomm::prelude::*;
use parcomm::util::pool::with_threads;

const POOLS: [usize; 3] = [1, 2, 8];
const BACKEND: MatcherKind = MatcherKind::LouvainMove;

/// Bit-exact equality on every non-timing field.
fn assert_same(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(
        a.num_communities, b.num_communities,
        "{what}: num_communities"
    );
    assert_eq!(
        a.community_vertex_counts, b.community_vertex_counts,
        "{what}: counts"
    );
    assert_eq!(a.modularity, b.modularity, "{what}: modularity");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage");
    assert_eq!(a.level_maps, b.level_maps, "{what}: level_maps");
    assert_eq!(a.stop_reason, b.stop_reason, "{what}: stop_reason");
    assert_eq!(a.termination, b.termination, "{what}: termination");
    assert_eq!(a.levels.len(), b.levels.len(), "{what}: level count");
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        assert_eq!(la.num_vertices, lb.num_vertices, "{what}: level |V|");
        assert_eq!(la.num_edges, lb.num_edges, "{what}: level |E|");
        assert_eq!(la.pairs_merged, lb.pairs_merged, "{what}: pairs merged");
        assert_eq!(la.match_rounds, lb.match_rounds, "{what}: match rounds");
        assert_eq!(la.matcher_degraded, lb.matcher_degraded, "{what}: degraded");
        assert_eq!(la.modularity, lb.modularity, "{what}: level Q");
        assert_eq!(la.coverage, lb.coverage, "{what}: level coverage");
    }
}

fn parity_graphs() -> Vec<(String, Graph)> {
    vec![
        ("rmat-8".into(), rmat_graph(&RmatParams::paper(8, 11))),
        (
            "sbm-1000".into(),
            sbm_graph(&SbmParams::livejournal_like(1_000, 4)).graph,
        ),
        (
            "clique-ring".into(),
            parcomm::gen::classic::clique_ring(8, 6),
        ),
        (
            "star-500".into(),
            parcomm::graph::builder::from_edges(
                501,
                (1..=500u32).map(|v| (0, v, 1u64)).collect::<Vec<_>>(),
            ),
        ),
        ("empty".into(), Graph::empty(4)),
    ]
}

#[test]
fn louvain_proposals_are_always_a_valid_matching() {
    // Whatever the move phase proposes, the emitted matching must verify
    // against the *real* scores: strictly pairwise, positive real score
    // on every matched edge, maximal over the positive-score subgraph —
    // including when some scores are negative or the cap bites.
    for (name, g) in parity_graphs() {
        let all_pos: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let mixed: Vec<f64> = g
            .weights()
            .iter()
            .enumerate()
            .map(|(e, &w)| if e % 3 == 0 { -1.0 } else { w as f64 })
            .collect();
        for (tag, scores) in [("all-pos", &all_pos), ("mixed-sign", &mixed)] {
            for cap in [1usize, 4, 256] {
                let mut scratch = MatchScratch::new();
                let out = match_level(BACKEND, &g, scores, cap, &mut scratch);
                assert!(
                    verify_matching(&g, scores, &out.matching).is_ok(),
                    "{name}/{tag} cap={cap}: {:?}",
                    verify_matching(&g, scores, &out.matching)
                );
                assert!(out.rounds <= cap.max(1), "{name}/{tag}: rounds over cap");
            }
        }
    }
}

#[test]
fn louvain_move_phase_never_decreases_modularity_per_sweep() {
    // Determinism makes a k-sweep run a prefix of a (k+1)-sweep run, so
    // sweeping the cap observes the per-sweep modularity trajectory; the
    // commit pass re-validates every gain, so it must be monotone up to
    // f64 fold tolerance.
    for (name, g) in [
        ("rmat-9".to_string(), rmat_graph(&RmatParams::paper(9, 5))),
        (
            "sbm-1500".to_string(),
            sbm_graph(&SbmParams::livejournal_like(1_500, 2)).graph,
        ),
    ] {
        let mut prev = f64::NEG_INFINITY;
        for cap in 1..=10 {
            let mut ls = LabelScratch::new();
            let stats = synchronous_move_phase(&g, None, cap, CommitRule::Revalidate, &mut ls);
            let q = modularity(&g, &ls.labels);
            assert!(
                q >= prev - 1e-9,
                "{name}: modularity decreased at sweep {cap}: {prev} -> {q}"
            );
            prev = q;
            if stats.converged {
                break;
            }
        }
        assert!(prev > 0.0, "{name}: move phase found no structure");
    }
}

#[test]
fn backends_are_bit_deterministic_across_pool_sizes() {
    let cfg = Config::default()
        .with_matcher(BACKEND)
        .with_recorded_levels();
    for (name, g) in parity_graphs() {
        let runs: Vec<DetectionResult> = POOLS
            .iter()
            .map(|&threads| {
                let (g, cfg) = (g.clone(), cfg.clone());
                with_threads(threads, move || try_detect(g, &cfg)).expect("run")
            })
            .collect();
        for (r, &threads) in runs[1..].iter().zip(&POOLS[1..]) {
            assert_same(
                &runs[0],
                r,
                &format!("{name} t={} vs t={threads}", POOLS[0]),
            );
        }
    }
}

#[test]
fn detect_many_agrees_with_solo_for_label_backends() {
    let graphs: Vec<Graph> = (0..4)
        .map(|i| rmat_graph(&RmatParams::paper(7, 30 + i)))
        .collect();
    let cfg = Config::default()
        .with_matcher(BACKEND)
        .with_recorded_levels();
    let batch = detect_many(graphs.clone(), &cfg).expect("batch run");
    assert_eq!(batch.len(), graphs.len());
    for (i, (g, r)) in graphs.iter().zip(&batch).enumerate() {
        let solo = detect(g.clone(), &cfg);
        assert_same(r, &solo, &format!("batch graph #{i}"));
    }
}

#[test]
fn sharded_detection_agrees_with_solo_components_for_label_backends() {
    // Disjoint union of three very different components; the sharded
    // pipeline must hand each component to the backend exactly as a solo
    // run would see it, and the merged result must be pool-independent.
    let parts: Vec<Graph> = vec![
        parcomm::gen::classic::clique_ring(6, 5),
        rmat_graph(&RmatParams::paper(7, 13)),
        parcomm::graph::builder::from_edges(2, vec![(0, 1, 3)]),
    ];
    let nv: usize = parts.iter().map(Graph::num_vertices).sum();
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let mut off = 0u32;
    for g in &parts {
        edges.extend(g.edges().map(|(u, v, w)| (u + off, v + off, w)));
        off += g.num_vertices() as u32;
    }
    let union = parcomm::graph::builder::from_edges(nv, edges);

    let cfg = Config::default()
        .with_matcher(BACKEND)
        .with_recorded_levels();
    // Component-by-component parity against solo runs on the extracted
    // subgraphs.
    let outcomes =
        parcomm::core::detect_sharded_outcomes(union.clone(), &cfg).expect("sharded run");
    assert_eq!(outcomes.len(), parts.len(), "component count");
    for o in &outcomes {
        let mut keep = vec![false; union.num_vertices()];
        for &old in &o.old_of_new {
            keep[old as usize] = true;
        }
        let solo = try_detect(parcomm::graph::subgraph::induce(&union, &keep).graph, &cfg)
            .expect("solo run");
        let sharded = o.outcome.as_ref().expect("component succeeds");
        assert_same(
            sharded,
            &solo,
            &format!("component rep={}", o.representative()),
        );
    }
    // Merged run: pool-independent, and the reported quality really
    // describes the merged assignment on the original graph.
    let merged_cfg = cfg.with_sharding(true);
    let runs: Vec<DetectionResult> = POOLS
        .iter()
        .map(|&threads| {
            let (g, cfg) = (union.clone(), merged_cfg.clone());
            with_threads(threads, move || try_detect(g, &cfg)).expect("merged run")
        })
        .collect();
    for (r, &threads) in runs[1..].iter().zip(&POOLS[1..]) {
        assert_same(&runs[0], r, &format!("merged t={threads}"));
    }
    let q = modularity(&union, &runs[0].assignment);
    assert!(
        (q - runs[0].modularity).abs() < 1e-9,
        "reported Q {} vs direct {q}",
        runs[0].modularity
    );
}
