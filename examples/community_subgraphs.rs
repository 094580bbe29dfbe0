//! The paper's motivating pipeline: detect communities, then carve each
//! out as an independent subgraph small enough for conventional tools —
//! here we run per-community statistics and a second, local detection
//! inside the largest community.
//!
//! Run with: `cargo run --release --example community_subgraphs`

use parcomm::graph::extract::extract_communities;
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

    let subs = extract_communities(&g, &result.assignment);
    let mut by_size: Vec<&_> = subs.iter().collect();
    by_size.sort_by_key(|s| std::cmp::Reverse(s.graph.num_vertices()));

    println!("largest 8 communities as standalone graphs:");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>9}",
        "id", "vertices", "edges", "internal", "external"
    );
    for s in by_size.iter().take(8) {
        println!(
            "{:>6} {:>9} {:>10} {:>10} {:>9}",
            s.community,
            s.graph.num_vertices(),
            s.graph.num_edges(),
            s.graph.total_weight(),
            s.external_weight
        );
    }

    // Zoom in: run detection again inside the biggest community (the
    // paper's "multi-level algorithms" use case).
    let biggest = by_size[0];
    let inner = detect(biggest.graph.clone(), &Config::default());
    println!(
        "\nzooming into community {}: {} sub-communities, Q = {:.4}",
        biggest.community, inner.num_communities, inner.modularity
    );

    // Sanity: the union of subgraph weights + half the external weights
    // accounts for the whole graph.
    let internal: u64 = subs.iter().map(|s| s.graph.total_weight()).sum();
    let external: u64 = subs.iter().map(|s| s.external_weight).sum();
    assert_eq!(internal + external / 2, g.total_weight());
    println!(
        "\naccounting check: internal {} + cross {} / 2 == total {}",
        internal,
        external,
        g.total_weight()
    );
}
