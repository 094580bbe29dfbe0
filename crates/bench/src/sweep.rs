//! Thread-count sweeps (paper Figures 1–3).
//!
//! Each configuration runs `runs` times (the paper uses three) on a
//! region width of the requested size; we report min/median/max.

use pcd_core::{detect, Config, DetectionResult};
use pcd_graph::Graph;
use pcd_util::pool::with_threads;
use pcd_util::timing::{RunStats, Timer};

/// One point of a scaling sweep.
#[derive(Debug)]
pub struct SweepPoint {
    pub threads: usize,
    pub secs: RunStats,
    /// Result of the last run (all runs are equivalent up to timing).
    pub result: DetectionResult,
}

impl SweepPoint {
    /// Input-edges-per-second processing rate at the best (min) time —
    /// the paper's Table III metric.
    pub fn edges_per_sec(&self, input_edges: usize) -> f64 {
        input_edges as f64 / self.secs.min()
    }
}

/// Runs `detect` `runs` times per thread count.
pub fn run_sweep(g: &Graph, config: &Config, threads: &[usize], runs: usize) -> Vec<SweepPoint> {
    threads
        .iter()
        .map(|&t| {
            let mut samples = Vec::with_capacity(runs);
            let mut last = None;
            for _ in 0..runs {
                let graph = g.clone();
                let cfg = config.clone();
                let timer = Timer::start();
                let result = with_threads(t, move || detect(graph, &cfg));
                samples.push(timer.elapsed_secs());
                last = Some(result);
            }
            SweepPoint {
                threads: t,
                secs: RunStats::new(samples),
                // analyze: allow(panic, reason = "the sample loop above runs at least once, so `last` is Some")
                result: last.expect("runs >= 1"),
            }
        })
        .collect()
}

/// The thread counts to sweep: powers of two to the host maximum, plus
/// oversubscribed 2x and 4x points when the host has few cores (so the
/// overhead shape is still visible on small machines).
pub fn sweep_threads() -> Vec<usize> {
    let mut counts = pcd_util::pool::sweep_thread_counts();
    // analyze: allow(panic, reason = "sweep_thread_counts always yields at least the 1-thread point")
    let max = *counts.last().unwrap();
    if max < 4 {
        for extra in [2 * max.max(1), 4 * max.max(1)] {
            if !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// Speed-up series relative to the best single-thread (or lowest thread
/// count) time — the paper's Figure 2 transformation.
pub fn speedups(points: &[SweepPoint]) -> Vec<(usize, f64)> {
    let base = points
        .iter()
        .min_by_key(|p| p.threads)
        .map(|p| p.secs.min())
        .unwrap_or(1.0);
    points
        .iter()
        .map(|p| (p.threads, base / p.secs.min()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_reports() {
        let g = pcd_gen::classic::clique_ring(8, 5);
        let pts = run_sweep(&g, &Config::default(), &[1, 2], 2);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].threads, 1);
        assert_eq!(pts[0].secs.samples.len(), 2);
        assert!(pts[0].edges_per_sec(g.num_edges()) > 0.0);
        let su = speedups(&pts);
        assert_eq!(su[0].1, 1.0);
    }

    #[test]
    fn sweep_threads_nonempty_sorted_start_one() {
        let t = sweep_threads();
        assert_eq!(t[0], 1);
        assert!(t.len() >= 2); // oversubscription points on small hosts
    }
}
