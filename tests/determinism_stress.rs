//! Cross-thread-count determinism stress test.
//!
//! The matcher's CAS-max proposal registers use a strict total order on
//! (score, edge id), which makes the winning proposal independent of
//! interleaving; contraction and refinement are prefix-sum placed. The
//! whole pipeline therefore promises *identical* output for any worker
//! count (DESIGN.md §9). This test drives that promise end-to-end on seeded
//! R-MAT instances across 1, 2, and 8 threads — the configuration a data
//! race or ordering bug would most likely perturb.

use parcomm::prelude::*;
use parcomm::util::pool::with_threads;

fn run(g: &Graph, cfg: &Config, threads: usize) -> parcomm::core::DetectionResult {
    let g = g.clone();
    let cfg = cfg.clone();
    with_threads(threads, move || detect(g, &cfg))
}

#[test]
fn rmat_detection_identical_across_pools() {
    for seed in [42u64, 7] {
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, seed));
        let cfg = Config::default();
        let base = run(&g, &cfg, 1);
        for threads in [2usize, 8] {
            let r = run(&g, &cfg, threads);
            assert_eq!(
                r.assignment, base.assignment,
                "seed {seed}: labels diverged at {threads} threads"
            );
            assert_eq!(r.num_communities, base.num_communities, "seed {seed}");
            assert_eq!(
                r.modularity.to_bits(),
                base.modularity.to_bits(),
                "seed {seed}: modularity diverged at {threads} threads"
            );
            assert_eq!(r.levels.len(), base.levels.len(), "seed {seed}");
        }
    }
}

/// The deterministic slice of a traced run: result bits plus every counter
/// the recorder keeps. Histogram *counts* are deterministic too (one
/// observation per phase per level); bucket placement depends on wall
/// clocks and is checked for schema only, never for equality.
fn traced_fingerprint(
    g: &Graph,
    cfg: &Config,
    threads: usize,
) -> (Vec<parcomm::util::VertexId>, u64, Vec<(String, u64)>, u64) {
    let g = g.clone();
    let cfg = cfg.clone();
    with_threads(threads, move || {
        let mut engine = Detector::new(cfg).expect("valid config");
        let mut tracer = TraceObserver::new();
        let r = engine.run_observed(g, &mut tracer).expect("observed run");
        let reg = tracer.into_registry();
        let mut counters: Vec<(String, u64)> = reg
            .families()
            .flat_map(|f| reg.counters_of(f.name))
            .map(|c| (c.name.to_string(), c.value))
            .collect();
        counters.sort();
        let phase_observations = reg
            .histograms_of("pcd_phase_seconds")
            .map(|h| h.count)
            .sum::<u64>();
        (
            r.assignment,
            r.modularity.to_bits(),
            counters,
            phase_observations,
        )
    })
}

#[test]
fn traced_counters_identical_across_pools() {
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 21));
    let cfg = Config::default();
    let base = traced_fingerprint(&g, &cfg, 1);
    assert!(!base.2.is_empty(), "recorder registered no counters");
    for threads in [2usize, 8] {
        let r = traced_fingerprint(&g, &cfg, threads);
        assert_eq!(r.0, base.0, "labels diverged at {threads} threads");
        assert_eq!(r.1, base.1, "modularity diverged at {threads} threads");
        assert_eq!(r.2, base.2, "metric counters diverged at {threads} threads");
        assert_eq!(
            r.3, base.3,
            "phase observations diverged at {threads} threads"
        );
    }
}

#[test]
fn detect_many_traced_merge_identical_across_pools() {
    // The merged batch registry folds per-graph registries in input order,
    // so it must be independent of both pool size and which worker ran
    // which graph.
    let graphs: Vec<Graph> = (0..4)
        .map(|i| parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(8, 30 + i)))
        .collect();
    let cfg = Config::default();
    let fingerprint = |threads: usize| {
        let graphs = graphs.clone();
        let cfg = cfg.clone();
        with_threads(threads, move || {
            let runs = detect_many_observed(graphs, &cfg, TraceObserver::new).expect("batch run");
            let reg = merge_runs(
                runs.iter()
                    .map(|(outcome, obs)| outcome.as_ref().map(|_| obs)),
            );
            let labels: Vec<_> = runs
                .iter()
                .map(|(outcome, _)| outcome.as_ref().expect("graph run").assignment.clone())
                .collect();
            let mut counters: Vec<(String, u64)> = reg
                .families()
                .flat_map(|f| reg.counters_of(f.name))
                .map(|c| (c.name.to_string(), c.value))
                .collect();
            counters.sort();
            // Timing gauges (total_seconds, edges_per_second) legitimately
            // vary; the rest must not.
            const STABLE_GAUGES: [&str; 5] = [
                "pcd_last_run_modularity",
                "pcd_last_run_coverage",
                "pcd_last_run_communities",
                "pcd_last_run_input_vertices",
                "pcd_last_run_input_edges",
            ];
            let gauges: Vec<(String, u64)> = STABLE_GAUGES
                .into_iter()
                .flat_map(|name| reg.gauges_of(name))
                .map(|g| (g.name.to_string(), g.value.to_bits()))
                .collect();
            (labels, counters, gauges, reg.dropped_observations())
        })
    };
    let base = fingerprint(1);
    let runs = base
        .1
        .iter()
        .find(|(n, _)| n == "pcd_runs_total")
        .map(|(_, v)| *v);
    assert_eq!(runs, Some(graphs.len() as u64), "merge lost runs");
    for threads in [2usize, 8] {
        let r = fingerprint(threads);
        assert_eq!(r.0, base.0, "labels diverged at {threads} threads");
        assert_eq!(r.1, base.1, "merged counters diverged at {threads} threads");
        assert_eq!(r.2, base.2, "merged gauges diverged at {threads} threads");
        assert_eq!(r.3, base.3, "dropped count diverged at {threads} threads");
    }
}

#[test]
fn performance_config_identical_across_pools() {
    // The paper's performance configuration exercises the alternative
    // kernel paths; it must be just as interleaving-independent.
    let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(10, 13));
    let cfg = Config::paper_performance();
    let base = run(&g, &cfg, 1);
    for threads in [2usize, 8] {
        let r = run(&g, &cfg, threads);
        assert_eq!(r.assignment, base.assignment, "{threads} threads");
        assert_eq!(r.modularity.to_bits(), base.modularity.to_bits());
    }
}
