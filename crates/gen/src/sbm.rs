//! Planted-partition (stochastic block model) generator — the stand-in for
//! the soc-LiveJournal1 snapshot.
//!
//! Community sizes follow a truncated Pareto distribution; every vertex
//! draws a Poisson number of internal partners (within its community) and
//! external partners (anywhere). The planted assignment is returned as
//! ground truth so quality experiments can report NMI/ARI, which is stronger
//! evidence than the paper's qualitative modularity remark.

use pcd_graph::{builder, Graph};
use pcd_util::par;
use pcd_util::rng::stream;
use pcd_util::rng::ChaCha8Rng;
use pcd_util::{VertexId, Weight};

/// Draws a Poisson variate (Knuth's method; fine for the small λ used here).
pub(crate) fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> usize {
    debug_assert!(
        (0.0..64.0).contains(&lambda),
        "poisson λ out of supported range"
    );
    if lambda == 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Draws a truncated integer Pareto variate in `[min, max]` with shape `alpha`.
pub(crate) fn pareto_int(rng: &mut ChaCha8Rng, min: usize, max: usize, alpha: f64) -> usize {
    debug_assert!(min >= 1 && max >= min && alpha > 0.0);
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let lo = min as f64;
    let hi = max as f64;
    // Inverse-CDF of a Pareto truncated to [lo, hi].
    let x = lo / (1.0 - u * (1.0 - (lo / hi).powf(alpha))).powf(1.0 / alpha);
    (x as usize).clamp(min, max)
}

/// Parameters for the planted-partition generator.
#[derive(Debug, Clone, Copy)]
pub struct SbmParams {
    /// Total vertex count.
    pub num_vertices: usize,
    /// Smallest / largest community sizes (Pareto-truncated).
    pub min_community: usize,
    /// Largest community size.
    pub max_community: usize,
    /// Pareto shape for community sizes (smaller → heavier tail).
    pub size_exponent: f64,
    /// Mean internal partner draws per vertex.
    pub internal_degree: f64,
    /// Mean external partner draws per vertex.
    pub external_degree: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SbmParams {
    /// LiveJournal-flavoured defaults at a configurable vertex count:
    /// community-rich (strong internal/external contrast), skewed sizes.
    pub fn livejournal_like(num_vertices: usize, seed: u64) -> Self {
        SbmParams {
            num_vertices,
            min_community: 10,
            max_community: (num_vertices / 10).max(20),
            size_exponent: 1.6,
            internal_degree: 10.0,
            external_degree: 2.5,
            seed,
        }
    }

    /// Easy planted partition for quality oracles: `communities`
    /// equal-sized blocks (min = max community size, so the Pareto draw
    /// degenerates to a constant) with a strong internal/external degree
    /// contrast that any reasonable detector recovers near-perfectly.
    pub fn planted_partition(num_vertices: usize, communities: usize, seed: u64) -> Self {
        assert!(communities >= 1 && num_vertices >= 2 * communities);
        let size = num_vertices.div_ceil(communities).max(2);
        SbmParams {
            num_vertices,
            min_community: size,
            max_community: size,
            size_exponent: 1.0,
            internal_degree: 16.0,
            external_degree: 1.0,
            seed,
        }
    }
}

/// A generated planted-partition graph plus its ground truth.
#[derive(Debug)]
pub struct SbmGraph {
    /// The generated graph.
    pub graph: Graph,
    /// Planted community id per vertex.
    pub ground_truth: Vec<VertexId>,
    /// Number of planted communities.
    pub num_communities: usize,
}

/// Generates the planted-partition graph. Deterministic for `(params, seed)`
/// and independent of thread count.
pub fn sbm_graph(p: &SbmParams) -> SbmGraph {
    assert!(p.num_vertices > 0);
    assert!(p.min_community >= 2 && p.max_community >= p.min_community);

    // Community sizes: sequential draw (cheap — O(#communities)).
    let mut sizes: Vec<usize> = Vec::new();
    let mut covered = 0usize;
    let mut size_rng = stream(p.seed, u64::MAX);
    while covered < p.num_vertices {
        let s = pareto_int(
            &mut size_rng,
            p.min_community,
            p.max_community,
            p.size_exponent,
        )
        .min(p.num_vertices - covered);
        sizes.push(s);
        covered += s;
    }
    // Community start offsets and per-vertex labels.
    let mut start = Vec::with_capacity(sizes.len());
    let mut acc = 0usize;
    for &s in &sizes {
        start.push(acc);
        acc += s;
    }
    let mut ground_truth = vec![0u32; p.num_vertices];
    for (c, (&st, &sz)) in start.iter().zip(sizes.iter()).enumerate() {
        ground_truth[st..st + sz]
            .iter_mut()
            .for_each(|g| *g = c as u32);
    }

    // Per-vertex partner draws.
    let edges: Vec<(VertexId, VertexId, Weight)> = par::map(p.num_vertices, |v| {
        let v = v as u64;
        let mut rng = stream(p.seed, v);
        let c = ground_truth[v as usize] as usize;
        let (st, sz) = (start[c], sizes[c]);
        let mut out = Vec::new();
        if sz > 1 {
            let din = poisson(&mut rng, p.internal_degree).min(4 * sz);
            for _ in 0..din {
                let mut u = st + rng.gen_range(0..sz);
                if u == v as usize {
                    u = st + (u - st + 1) % sz;
                }
                out.push((v as u32, u as u32, 1u64));
            }
        }
        let dout = poisson(&mut rng, p.external_degree);
        for _ in 0..dout {
            let mut u = rng.gen_range(0..p.num_vertices);
            if u == v as usize {
                u = (u + 1) % p.num_vertices;
            }
            out.push((v as u32, u as u32, 1u64));
        }
        out
    })
    .concat();

    SbmGraph {
        graph: builder::from_edges(p.num_vertices, edges),
        ground_truth,
        num_communities: sizes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SbmParams {
        SbmParams {
            num_vertices: 2_000,
            min_community: 10,
            max_community: 100,
            size_exponent: 1.6,
            internal_degree: 8.0,
            external_degree: 1.5,
            seed: 5,
        }
    }

    #[test]
    fn covers_all_vertices() {
        let s = sbm_graph(&small());
        assert_eq!(s.ground_truth.len(), 2_000);
        assert!(s.num_communities > 1);
        let max_label = *s.ground_truth.iter().max().unwrap() as usize;
        assert_eq!(max_label + 1, s.num_communities);
        assert_eq!(s.graph.validate(), Ok(()));
    }

    #[test]
    fn deterministic() {
        let a = sbm_graph(&small());
        let b = sbm_graph(&small());
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn thread_count_independent() {
        let a = pcd_util::pool::with_threads(1, || sbm_graph(&small()));
        let b = pcd_util::pool::with_threads(4, || sbm_graph(&small()));
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.graph.weights(), b.graph.weights());
    }

    #[test]
    fn internal_edges_dominate() {
        let s = sbm_graph(&small());
        let (mut intra, mut inter) = (0u64, 0u64);
        for (i, j, w) in s.graph.edges() {
            if s.ground_truth[i as usize] == s.ground_truth[j as usize] {
                intra += w;
            } else {
                inter += w;
            }
        }
        assert!(
            intra as f64 > 2.0 * inter as f64,
            "intra {intra} not dominating inter {inter}"
        );
    }

    #[test]
    fn poisson_mean_close() {
        let mut rng = stream(1, 0);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 6.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut rng = stream(2, 0);
        for _ in 0..10_000 {
            let x = pareto_int(&mut rng, 5, 50, 1.5);
            assert!((5..=50).contains(&x));
        }
    }

    #[test]
    fn pareto_is_skewed_small() {
        let mut rng = stream(3, 0);
        let small_draws = (0..10_000)
            .filter(|_| pareto_int(&mut rng, 5, 500, 1.5) < 20)
            .count();
        assert!(small_draws > 6_000, "only {small_draws} small draws");
    }
}
