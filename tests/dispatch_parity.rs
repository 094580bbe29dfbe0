//! Dispatch parity: the kernel dispatch and the reusable `Detector`
//! engine must change zero output bits. Every (scorer × matcher ×
//! contractor) combination in the kind enums' `ALL` lists is run through
//! the one-shot wrappers and the engine — fresh and warm — and compared
//! field by field (everything except wall-clock timings, which
//! legitimately vary).

use parcomm::core::DetectionResult;
use parcomm::gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use parcomm::prelude::*;

/// Bit-exact equality on every non-timing field.
fn assert_same(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(
        a.num_communities, b.num_communities,
        "{what}: num_communities"
    );
    assert_eq!(a.input_vertices, b.input_vertices, "{what}: input |V|");
    assert_eq!(a.input_edges, b.input_edges, "{what}: input |E|");
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

#[test]
fn every_kernel_combo_agrees_through_wrapper_fresh_and_warm_engine() {
    let g = rmat_graph(&RmatParams::paper(7, 11));
    for scorer in ScorerKind::ALL {
        for matcher in MatcherKind::ALL {
            for contractor in ContractorKind::ALL {
                let cfg = Config::default()
                    .with_scorer(scorer)
                    .with_matcher(matcher)
                    .with_contractor(contractor)
                    .with_recorded_levels();
                let what = format!("{scorer:?}/{matcher:?}/{contractor:?}");
                let wrapped = try_detect(g.clone(), &cfg).expect("wrapper run");
                let mut engine = Detector::new(cfg.clone()).expect("valid combo");
                let fresh = engine.run(g.clone()).expect("fresh engine run");
                assert_same(&wrapped, &fresh, &format!("{what} fresh"));
                // Second run on the same engine: warm arenas, same bits.
                let warm = engine.run(g.clone()).expect("warm engine run");
                assert_same(&wrapped, &warm, &format!("{what} warm"));
            }
        }
    }
}

#[test]
fn attached_trace_observer_changes_zero_bits() {
    // The whole point of recording outside the phase timers: running with
    // the full metrics/span recorder attached must be indistinguishable —
    // bit for bit — from running with the NoopObserver, for every kernel
    // combination.
    let g = rmat_graph(&RmatParams::paper(7, 11));
    for scorer in ScorerKind::ALL {
        for matcher in MatcherKind::ALL {
            for contractor in ContractorKind::ALL {
                let cfg = Config::default()
                    .with_scorer(scorer)
                    .with_matcher(matcher)
                    .with_contractor(contractor)
                    .with_recorded_levels();
                let what = format!("{scorer:?}/{matcher:?}/{contractor:?} observed");
                let mut engine = Detector::new(cfg).expect("valid combo");
                let plain = engine.run(g.clone()).expect("plain run");
                let mut tracer = TraceObserver::new();
                let observed = engine
                    .run_observed(g.clone(), &mut tracer)
                    .expect("observed run");
                assert_same(&plain, &observed, &what);
                // And the recorder actually saw the run it didn't perturb.
                let reg = tracer.into_registry();
                let runs = reg
                    .counters_of("pcd_runs_total")
                    .map(|c| c.value)
                    .sum::<u64>();
                assert_eq!(runs, 1, "{what}: runs counter");
                let levels = reg
                    .counters_of("pcd_levels_total")
                    .map(|c| c.value)
                    .sum::<u64>();
                assert_eq!(
                    levels as usize,
                    observed.levels.len(),
                    "{what}: levels counter"
                );
            }
        }
    }
}

#[test]
fn unarmed_and_non_binding_budgets_change_zero_bits() {
    // The budget sentinel's zero-overhead claim, as a correctness
    // statement: for every kernel combination, a run with the default
    // unarmed budget, a run with an explicitly constructed unarmed
    // budget, and a run with an armed but non-binding budget (generous
    // deadline, a huge level cap) must all
    // be bit-identical — and all converge, never reporting a breach.
    let g = rmat_graph(&RmatParams::paper(7, 11));
    for scorer in ScorerKind::ALL {
        for matcher in MatcherKind::ALL {
            for contractor in ContractorKind::ALL {
                let base = Config::default()
                    .with_scorer(scorer)
                    .with_matcher(matcher)
                    .with_contractor(contractor)
                    .with_recorded_levels();
                let what = format!("{scorer:?}/{matcher:?}/{contractor:?} budget");
                let plain = Detector::new(base.clone())
                    .expect("valid combo")
                    .run(g.clone())
                    .expect("plain run");
                let explicit = Detector::new(base.clone().with_budget(Budget::unarmed()))
                    .expect("valid combo")
                    .run(g.clone())
                    .expect("explicit-unarmed run");
                let generous = Budget::unarmed()
                    .with_deadline(std::time::Duration::from_secs(3600))
                    .with_max_levels(usize::MAX);
                assert!(generous.is_armed());
                let armed = Detector::new(base.with_budget(generous))
                    .expect("valid combo")
                    .run(g.clone())
                    .expect("armed non-binding run");
                assert_same(&plain, &explicit, &format!("{what} explicit-unarmed"));
                assert_same(&plain, &armed, &format!("{what} armed-non-binding"));
                assert_eq!(plain.termination, Termination::Converged, "{what}");
            }
        }
    }
}

#[test]
fn warm_engine_across_different_graphs_matches_fresh_engines() {
    // Arena contents from one graph must never leak into the next, even
    // when the graphs have different sizes and the arenas stay allocated.
    let inputs: Vec<Graph> = vec![
        rmat_graph(&RmatParams::paper(8, 1)),
        sbm_graph(&SbmParams::livejournal_like(500, 9)).graph,
        rmat_graph(&RmatParams::paper(6, 5)),
        Graph::empty(3),
        rmat_graph(&RmatParams::paper(8, 1)),
    ];
    let cfg = Config::default().with_recorded_levels();
    let mut warm = Detector::new(cfg.clone()).expect("valid config");
    for (i, g) in inputs.into_iter().enumerate() {
        let from_warm = warm.run(g.clone()).expect("warm run");
        let from_fresh = Detector::new(cfg.clone())
            .expect("valid config")
            .run(g)
            .expect("fresh run");
        assert_same(&from_warm, &from_fresh, &format!("graph #{i}"));
    }
}

/// Inputs chosen to stress the radix row sort against the heapsort rows
/// of the `bucket` ablation: a hub star (one giant row), a dense
/// parallel-edge multigraph (long per-row duplicate runs), an R-MAT graph
/// whose hub rows outgrow the insertion cutoff for several levels, and
/// degenerate empties.
fn adversarial_graphs() -> Vec<(String, Graph)> {
    let star_edges: Vec<(u32, u32, u64)> = (1..=5000u32).map(|v| (0, v, 1)).collect();
    let star = parcomm::graph::builder::from_edges(5001, star_edges);
    // Deterministic xorshift multigraph: 32 vertices, 6000 edges with
    // heavy duplication, self-loops and varied weights.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let multi_edges: Vec<(u32, u32, u64)> = (0..6000)
        .map(|_| {
            let i = (next() % 32) as u32;
            let j = (next() % 32) as u32;
            (i, j, next() % 9 + 1)
        })
        .collect();
    let multi = parcomm::graph::builder::from_edges(32, multi_edges);
    vec![
        ("star-5000".into(), star),
        ("multi-32x6000".into(), multi),
        ("rmat-10".into(), rmat_graph(&RmatParams::paper(10, 3))),
        ("empty".into(), Graph::empty(5)),
        ("singleton".into(), Graph::empty(1)),
    ]
}

#[test]
fn radix_contractor_is_bit_identical_to_bucket_on_adversarial_graphs() {
    for (name, g) in adversarial_graphs() {
        let base = Config::default().with_recorded_levels();
        let bucket = detect(
            g.clone(),
            &base.clone().with_contractor(ContractorKind::Bucket),
        );
        let radix = detect(g.clone(), &base.with_contractor(ContractorKind::Radix));
        assert_same(&bucket, &radix, &name);
    }
}

#[test]
fn detect_many_matches_per_graph_wrappers() {
    let graphs: Vec<Graph> = (0..5)
        .map(|i| rmat_graph(&RmatParams::paper(7, 20 + i)))
        .collect();
    for cfg in [
        Config::default(),
        Config::default()
            .with_matcher(MatcherKind::EdgeSweep)
            .with_contractor(ContractorKind::Linked),
    ] {
        let batch = detect_many(graphs.clone(), &cfg).expect("batch run");
        assert_eq!(batch.len(), graphs.len());
        for (i, (g, r)) in graphs.iter().zip(&batch).enumerate() {
            let single = detect(g.clone(), &cfg);
            assert_same(r, &single, &format!("batch graph #{i}"));
        }
    }
}
