//! Integration tests for the budget subsystem: deadlines, level caps,
//! strict mode, and the best-effort-partition guarantee on every breach
//! path. A zero deadline is the deterministic level-start breach: it has
//! expired by the first check.

use parcomm::core::NoopObserver;
use parcomm::prelude::*;
use parcomm::util::prop::{self, check};
use parcomm::util::rng::ChaCha8Rng;
use std::time::Duration;

/// Every partition the engine returns — converged or best-effort — must
/// be complete and self-consistent: one community id per input vertex,
/// dense ids, counts that sum to the input, and quality numbers that
/// match a direct recomputation on the assignment.
fn assert_valid_partition(g: &Graph, r: &parcomm::core::DetectionResult) {
    let nv = g.num_vertices();
    assert_eq!(r.assignment.len(), nv);
    assert_eq!(r.input_vertices, nv);
    assert_eq!(r.community_vertex_counts.len(), r.num_communities);
    assert_eq!(
        r.community_vertex_counts.iter().sum::<u64>(),
        nv as u64,
        "community counts must cover every input vertex"
    );
    assert!(r
        .assignment
        .iter()
        .all(|&c| (c as usize) < r.num_communities));
    let q = parcomm::metrics::modularity(g, &r.assignment);
    assert!(
        (q - r.modularity).abs() < 1e-9,
        "reported modularity {} != recomputed {q}",
        r.modularity
    );
    assert!((0.0..=1.0).contains(&r.coverage));
}

fn paper_graph() -> Graph {
    parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(9, 17))
}

#[test]
fn unbudgeted_run_terminates_converged() {
    let r = parcomm::detect(paper_graph(), &Config::default());
    assert_eq!(r.termination, Termination::Converged);
    assert!(!r.termination.is_budget_breach());
}

#[test]
fn expired_deadline_returns_best_effort() {
    let g = paper_graph();
    let cfg = Config::default().with_budget(Budget::unarmed().with_deadline(Duration::ZERO));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    // A zero deadline has expired by the very first level-start check.
    assert_eq!(r.termination, Termination::Deadline);
    assert_eq!(r.levels.len(), 0);
    assert_valid_partition(&g, &r);
}

#[test]
fn expired_deadline_returns_singletons() {
    // A breach at the first level start leaves nothing folded, so the best
    // effort is the input's own vertices, each its own community.
    let g = paper_graph();
    let cfg = Config::default().with_budget(Budget::unarmed().with_deadline(Duration::ZERO));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::Deadline);
    assert_eq!(r.levels.len(), 0);
    assert_eq!(r.num_communities, g.num_vertices());
    let identity: Vec<u32> = (0..g.num_vertices() as u32).collect();
    assert_eq!(r.assignment, identity);
    assert_valid_partition(&g, &r);
}

#[test]
fn level_cap_matches_the_criterion_partition() {
    // Capping levels through the budget must cut the hierarchy exactly: a
    // run capped at k levels returns the uncapped run's recorded partition
    // at depth k, with that level's counts and modularity — only the
    // reported termination differs (a breach, not convergence).
    let g = paper_graph();
    let full = Detector::new(Config::default().with_recorded_levels())
        .unwrap()
        .run(g.clone())
        .unwrap();
    assert_eq!(full.termination, Termination::Converged);
    assert!(full.levels.len() > 3, "{} levels", full.levels.len());
    for k in 0..=3 {
        let capped =
            Detector::new(Config::default().with_budget(Budget::unarmed().with_max_levels(k)))
                .unwrap()
                .run(g.clone())
                .unwrap();
        assert_eq!(capped.termination, Termination::MaxLevels, "k = {k}");
        assert_eq!(capped.levels.len(), k);
        let at_k = full.assignment_at_level(k);
        let mut counts = vec![0u64; capped.num_communities];
        for &c in &at_k {
            counts[c as usize] += 1;
        }
        assert_eq!(capped.assignment, at_k, "k = {k}");
        assert_eq!(capped.community_vertex_counts, counts, "k = {k}");
        if k >= 1 {
            assert_eq!(
                capped.modularity.to_bits(),
                full.levels[k - 1].modularity.to_bits(),
                "k = {k}"
            );
        }
        assert_valid_partition(&g, &capped);
    }
}

#[test]
fn level_cap_zero_returns_singletons() {
    let g = parcomm::gen::classic::clique_ring(6, 5);
    let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(0));
    let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
    assert_eq!(r.termination, Termination::MaxLevels);
    assert_eq!(r.levels.len(), 0);
    assert_eq!(r.num_communities, g.num_vertices());
    assert_valid_partition(&g, &r);
}

#[test]
fn strict_mode_turns_breach_into_error() {
    let cfg =
        Config::default().with_budget(Budget::unarmed().with_deadline(Duration::ZERO).strict());
    let err = Detector::new(cfg)
        .unwrap()
        .run(paper_graph())
        .expect_err("a strict expired deadline must error");
    assert!(err.is_budget_exceeded());
    assert!(err.to_string().contains("deadline"));
    // Strict mode without any limit never errors.
    let cfg = Config::default().with_budget(Budget::unarmed().strict());
    assert!(!cfg.budget.is_armed());
    let r = Detector::new(cfg).unwrap().run(paper_graph()).unwrap();
    assert_eq!(r.termination, Termination::Converged);
}

#[test]
fn expired_deadline_stops_a_whole_batch() {
    let graphs: Vec<Graph> = [3u64, 5, 7]
        .iter()
        .map(|&s| parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(8, s)))
        .collect();
    let expired = Budget::unarmed().with_deadline(Duration::ZERO);
    let cfg = Config::default().with_budget(expired.clone());
    let outcomes = detect_many_observed(graphs.clone(), &cfg, || NoopObserver).unwrap();
    assert_eq!(outcomes.len(), graphs.len());
    for (g, (outcome, _)) in graphs.iter().zip(outcomes) {
        let r = outcome.expect("a non-strict breach is a best-effort result");
        assert_eq!(r.termination, Termination::Deadline);
        assert_eq!(r.levels.len(), 0);
        assert_valid_partition(g, &r);
    }
    // The same batch under a strict budget fails every graph instead.
    let cfg = Config::default().with_budget(expired.strict());
    for (outcome, _) in detect_many_observed(graphs, &cfg, || NoopObserver).unwrap() {
        assert!(outcome.expect_err("strict breach").is_budget_exceeded());
    }
}

#[test]
fn engine_stays_usable_after_a_breach() {
    // One engine, alternating budgeted and effectively-unbudgeted runs:
    // a breach must not leave stale state behind.
    let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(1));
    let mut engine = Detector::new(cfg).unwrap();
    let first = engine.run(paper_graph()).unwrap();
    assert_eq!(first.termination, Termination::MaxLevels);
    let second = engine.run(paper_graph()).unwrap();
    assert_eq!(second.assignment, first.assignment);
    assert_eq!(second.modularity, first.modularity);
}

fn arb_graph_input(rng: &mut ChaCha8Rng) -> (usize, Vec<(u32, u32, u64)>) {
    prop::edges(rng, 2..40, 0..120, 1..4)
}

/// The termination contract's core promise: whatever the breach —
/// deadline or level cap — the returned best-effort partition is a
/// complete, valid partition of the input.
#[test]
fn breached_runs_return_complete_valid_partitions() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = parcomm::graph::builder::from_edges(nv, edges);

        let cfg = Config::default().with_budget(Budget::unarmed().with_deadline(Duration::ZERO));
        let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
        assert_eq!(r.termination, Termination::Deadline);
        assert_valid_partition(&g, &r);

        let cfg = Config::default().with_budget(Budget::unarmed().with_max_levels(1));
        let r = Detector::new(cfg).unwrap().run(g.clone()).unwrap();
        // Graphs that stop naturally within one level report that stop;
        // everything else is the cap.
        assert!(r.levels.len() <= 1);
        assert!(r.termination == Termination::MaxLevels || !r.termination.is_budget_breach());
        assert_valid_partition(&g, &r);
    });
}
