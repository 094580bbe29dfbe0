//! Quality comparison: the paper's parallel agglomerative detector against
//! the sequential baselines (CNM, Louvain) — the
//! quantitative version of the paper's "modularities appear reasonable
//! compared with … SNAP" remark.
//!
//! Run with: `cargo run --release --example compare_baselines`

use parcomm::baseline::{cnm, louvain};
use parcomm::prelude::*;
use std::time::Instant;

struct Row {
    method: &'static str,
    q: f64,
    cov: f64,
    communities: usize,
    nmi: Option<f64>,
    secs: f64,
}

fn run_all(name: &str, graph: &Graph, truth: Option<&[u32]>) {
    println!(
        "\n=== {name}: {} vertices, {} edges ===",
        graph.num_vertices(),
        graph.num_edges()
    );
    let mut rows = Vec::new();

    let eval = |a: &[u32], secs: f64, method: &'static str| -> Row {
        let (dense, k) = parcomm::metrics::compact_labels(a);
        Row {
            method,
            q: modularity(graph, &dense),
            cov: coverage(graph, &dense),
            communities: k,
            nmi: truth.map(|t| normalized_mutual_information(&dense, t)),
            secs,
        }
    };

    let t = Instant::now();
    let r = detect(graph.clone(), &Config::default());
    rows.push(eval(
        &r.assignment,
        t.elapsed().as_secs_f64(),
        "parallel-agglom",
    ));

    let t = Instant::now();
    let r = detect(
        graph.clone(),
        &Config::default().with_scorer(ScorerKind::Conductance),
    );
    rows.push(eval(
        &r.assignment,
        t.elapsed().as_secs_f64(),
        "parallel-conduct",
    ));

    let t = Instant::now();
    let a = cnm(graph);
    rows.push(eval(&a, t.elapsed().as_secs_f64(), "cnm (seq)"));

    let t = Instant::now();
    let a = louvain(graph);
    rows.push(eval(&a, t.elapsed().as_secs_f64(), "louvain (seq)"));

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "method", "Q", "cover", "#comm", "NMI", "time"
    );
    for row in rows {
        println!(
            "{:<18} {:>8.4} {:>8.3} {:>8} {:>8} {:>8.3}s",
            row.method,
            row.q,
            row.cov,
            row.communities,
            row.nmi.map_or("-".to_string(), |x| format!("{x:.3}")),
            row.secs
        );
    }
}

fn main() {
    let karate = parcomm::gen::classic::karate_club();
    let factions = parcomm::gen::classic::karate_factions();
    run_all("karate club", &karate, Some(&factions));

    let ring = parcomm::gen::classic::clique_ring(12, 8);
    let ring_truth = parcomm::gen::classic::clique_ring_truth(12, 8);
    run_all("clique ring 12x8", &ring, Some(&ring_truth));

    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(20_000, 11));
    run_all("sbm-lj 20k", &sbm.graph, Some(&sbm.ground_truth));

    let rmat = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(12, 5));
    run_all("rmat-12-16", &rmat, None);
}
