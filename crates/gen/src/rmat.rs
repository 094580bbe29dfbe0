//! R-MAT graph generation (Chakrabarti, Zhan, Faloutsos; SSCA#2 flavour).
//!
//! The paper generates `2^s · f` edges over `2^s` vertices with quadrant
//! probabilities `a = 0.55, b = c = 0.10, d = 0.25`, *perturbs* the
//! parameters at each recursion level (the "perturbed Kronecker product"),
//! accumulates repeated edges into weights, and keeps the largest connected
//! component.

use pcd_graph::subgraph::largest_component;
use pcd_graph::{builder, Graph};
use pcd_util::par;
use pcd_util::rng::stream;
use pcd_util::{VertexId, Weight};

/// R-MAT generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// log2 of the vertex count (`s`; the paper uses 24).
    pub scale: u32,
    /// Edges generated per vertex (`f`; the paper uses 16).
    pub edge_factor: u32,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Per-level multiplicative noise on the parameters (SSCA#2 uses ~0.1);
    /// 0 disables perturbation.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatParams {
    /// The paper's parameters at a given scale and seed.
    pub fn paper(scale: u32, seed: u64) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.55,
            b: 0.10,
            c: 0.10,
            noise: 0.1,
            seed,
        }
    }

    /// The remaining (bottom-right) quadrant probability.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// `2^scale` vertices.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// `2^scale · edge_factor` raw edge draws.
    fn num_generated_edges(&self) -> usize {
        self.num_vertices() * self.edge_factor as usize
    }
}

/// Generates the raw R-MAT edge multiset (self-loops and duplicates
/// included, as the paper notes). Deterministic per `(seed, edge index)`.
fn rmat_edges(p: &RmatParams) -> Vec<(VertexId, VertexId, Weight)> {
    assert!(p.scale > 0 && p.scale <= 31, "scale out of range");
    assert!(
        (p.a + p.b + p.c + p.d() - 1.0).abs() < 1e-9 && p.d() >= 0.0,
        "quadrant probabilities must sum to 1"
    );
    par::map(p.num_generated_edges(), |idx| {
        let idx = idx as u64;
        let mut rng = stream(p.seed, idx);
        let (mut i, mut j) = (0u32, 0u32);
        for _ in 0..p.scale {
            // Perturb the quadrant probabilities at each level.
            let jitter = |base: f64, r: &mut pcd_util::rng::ChaCha8Rng| {
                base * (1.0 + p.noise * (2.0 * r.gen::<f64>() - 1.0))
            };
            let (pa, pb, pc, pd) = (
                jitter(p.a, &mut rng),
                jitter(p.b, &mut rng),
                jitter(p.c, &mut rng),
                jitter(p.d(), &mut rng),
            );
            let total = pa + pb + pc + pd;
            let u = rng.gen::<f64>() * total;
            i <<= 1;
            j <<= 1;
            if u < pa {
                // top-left: no bits set
            } else if u < pa + pb {
                j |= 1;
            } else if u < pa + pb + pc {
                i |= 1;
            } else {
                i |= 1;
                j |= 1;
            }
        }
        (i, j, 1u64)
    })
}

/// Full paper pipeline: generate, accumulate duplicates into weights
/// (self-loops land in the self-loop array), then extract the largest
/// connected component. Returns the component graph.
pub fn rmat_graph(p: &RmatParams) -> Graph {
    let edges = rmat_edges(p);
    let g = builder::from_edges(p.num_vertices(), edges);
    largest_component(&g).graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_graph::components::{components, count_components};

    fn small() -> RmatParams {
        RmatParams::paper(10, 42)
    }

    #[test]
    fn generates_requested_count() {
        let p = small();
        let e = rmat_edges(&p);
        assert_eq!(e.len(), 1024 * 16);
        assert!(e
            .iter()
            .all(|&(i, j, _)| (i as usize) < 1024 && (j as usize) < 1024));
    }

    #[test]
    fn deterministic_for_seed() {
        let p = small();
        assert_eq!(rmat_edges(&p), rmat_edges(&p));
        let mut p2 = p;
        p2.seed = 43;
        assert_ne!(rmat_edges(&p), rmat_edges(&p2));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = small();
        let a = pcd_util::pool::with_threads(1, || rmat_edges(&p));
        let b = pcd_util::pool::with_threads(4, || rmat_edges(&p));
        assert_eq!(a, b);
    }

    #[test]
    fn graph_is_connected_component() {
        let g = rmat_graph(&small());
        assert!(g.num_vertices() > 0);
        assert_eq!(g.validate(), Ok(()));
        let labels = components(&g);
        assert_eq!(count_components(&labels), 1);
    }

    #[test]
    fn skew_toward_low_ids() {
        // Quadrant a=0.55 concentrates edges at low vertex ids; vertex ids
        // below the median should hold well over half the endpoints.
        let p = small();
        let e = rmat_edges(&p);
        let half = (p.num_vertices() / 2) as u32;
        let low = e
            .iter()
            .flat_map(|&(i, j, _)| [i, j])
            .filter(|&v| v < half)
            .count();
        assert!(
            low as f64 > 0.6 * (2 * e.len()) as f64,
            "low fraction {}",
            low
        );
    }

    #[test]
    fn weights_accumulate_duplicates() {
        let p = small();
        let g = rmat_graph(&p);
        // With 16K draws over ~1K vertices under heavy skew there must be
        // duplicate edges, i.e. some weight > 1.
        assert!(g.weights().iter().any(|&w| w > 1));
        // Total weight (plus dropped components/self loops) accounts for all
        // generated edges.
        assert!(g.total_weight() <= p.num_generated_edges() as u64);
        assert!(g.total_weight() > 0);
    }

    #[test]
    #[should_panic(expected = "scale out of range")]
    fn zero_scale_rejected() {
        rmat_edges(&RmatParams::paper(0, 1));
    }

    #[test]
    fn noise_zero_is_pure_rmat() {
        let mut p = small();
        p.noise = 0.0;
        let e = rmat_edges(&p);
        assert_eq!(e.len(), p.num_generated_edges());
    }
}
