//! The paper's motivating pipeline: detect communities, then open each one
//! up to conventional tools — here per-community statistics, and a second,
//! local detection inside the largest community carved out as a
//! standalone graph.
//!
//! Run with: `cargo run --release --example community_subgraphs`

use parcomm::graph::subgraph::induce;
use parcomm::metrics::{community_reports, largest_communities};
use parcomm::prelude::*;

fn main() {
    let web = parcomm::gen::web_graph(&parcomm::gen::WebParams::uk_like(50_000, 5));
    let g = web.graph;
    println!(
        "web graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    let result = detect(g.clone(), &Config::default());
    println!(
        "detected {} communities (Q = {:.4})\n",
        result.num_communities, result.modularity
    );

    let reports = community_reports(&g, &result.assignment);
    let by_size = largest_communities(&reports, 8);

    println!("largest 8 communities:");
    println!(
        "{:>6} {:>9} {:>10} {:>9}",
        "id", "vertices", "internal", "cut"
    );
    for r in &by_size {
        println!(
            "{:>6} {:>9} {:>10} {:>9}",
            r.id, r.size, r.internal_weight, r.cut_weight
        );
    }

    // Zoom in: carve the biggest community out as its own graph and run
    // detection again inside it (the paper's "multi-level algorithms" use
    // case).
    let biggest = by_size[0].id;
    let keep: Vec<bool> = result.assignment.iter().map(|&c| c == biggest).collect();
    let sub = induce(&g, &keep);
    assert_eq!(sub.graph.total_weight(), by_size[0].internal_weight);
    let inner = detect(sub.graph, &Config::default());
    println!(
        "\nzooming into community {biggest}: {} sub-communities, Q = {:.4}",
        inner.num_communities, inner.modularity
    );

    // Sanity: internal weights plus half the cut weights (each cut edge is
    // counted on both sides) account for the whole graph.
    let internal: u64 = reports.iter().map(|r| r.internal_weight).sum();
    let cut: u64 = reports.iter().map(|r| r.cut_weight).sum();
    assert_eq!(internal + cut / 2, g.total_weight());
    println!(
        "\naccounting check: internal {} + cut {} / 2 == total {}",
        internal,
        cut,
        g.total_weight()
    );
}
