//! Level-loop observation hooks.
//!
//! [`LevelObserver`] is the seam between the engine's phase functions and
//! anything that wants to watch a detection run — the `pcd-trace`
//! recorder (behind `parcomm detect --metrics` and `bench_gate`'s phase
//! columns), the CLI's `--progress` flag, and future observability
//! layers. The default methods are no-ops, so observers implement only
//! what they need and [`NoopObserver`] costs nothing.
//!
//! Hooks fire at phase boundaries, *outside* the phase timers: an
//! observer can be arbitrarily slow without perturbing the recorded
//! `score_secs`/`match_secs`/`contract_secs`, and it can never change
//! detection output (it sees `&LevelStats`, not the hierarchy state).

use crate::result::{DetectionResult, LevelStats};
use pcd_util::Phase;

/// Callbacks fired by the engine at run, level, and phase boundaries.
pub trait LevelObserver {
    /// A detection run is starting on an input graph of `num_vertices` /
    /// `num_edges`. Fires before the run's total-time clock starts, so a
    /// slow observer cannot inflate `total_secs`.
    fn on_run_start(&mut self, num_vertices: usize, num_edges: usize) {
        let _ = (num_vertices, num_edges);
    }

    /// A level is starting on a community graph of `num_vertices` /
    /// `num_edges`. Levels are 1-based.
    fn on_level_start(&mut self, level: usize, num_vertices: usize, num_edges: usize) {
        let _ = (level, num_vertices, num_edges);
    }

    /// A phase finished in `secs` (the same value recorded in
    /// [`LevelStats`]). Fires even for the phase that triggers a stop
    /// (e.g. the score phase of a local-maximum level).
    fn on_phase_end(&mut self, level: usize, phase: Phase, secs: f64) {
        let _ = (level, phase, secs);
    }

    /// A level fully folded into the hierarchy; `stats` is the entry just
    /// pushed onto [`DetectionResult::levels`](crate::DetectionResult).
    /// Does not fire for the terminal partial level (stopped in score or
    /// match), which records no stats — same as before the hook existed.
    fn on_level_end(&mut self, stats: &LevelStats) {
        let _ = stats;
    }

    /// The run finished; `result` is the completed [`DetectionResult`]
    /// (with `total_secs` already stamped). Fires once per successful run,
    /// after the total-time clock stops.
    fn on_run_end(&mut self, result: &DetectionResult) {
        let _ = result;
    }
}

/// The default observer: every hook is a no-op.
#[derive(Debug)]
pub struct NoopObserver;

impl LevelObserver for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl LevelObserver for Recorder {
        fn on_run_start(&mut self, nv: usize, ne: usize) {
            self.events.push(format!("run-start {nv} {ne}"));
        }
        fn on_level_start(&mut self, level: usize, nv: usize, ne: usize) {
            self.events.push(format!("start {level} {nv} {ne}"));
        }
        fn on_phase_end(&mut self, level: usize, phase: Phase, _secs: f64) {
            self.events.push(format!("phase {level} {phase}"));
        }
        fn on_level_end(&mut self, stats: &LevelStats) {
            self.events.push(format!("end {}", stats.level));
        }
        fn on_run_end(&mut self, result: &DetectionResult) {
            self.events
                .push(format!("run-end {}", result.num_communities));
        }
    }

    #[test]
    fn observer_sees_every_phase_in_order() {
        let g = pcd_gen::classic::clique_ring(4, 5);
        let mut rec = Recorder::default();
        let mut det = crate::Detector::new(crate::Config::default()).unwrap();
        let r = det.run_observed(g, &mut rec).unwrap();
        // Every completed level contributes start + 3 phases + end; the
        // terminal level stops in score or match and contributes no end.
        let ends = rec.events.iter().filter(|e| e.starts_with("end")).count();
        assert_eq!(ends, r.levels.len());
        let starts: Vec<&String> = rec
            .events
            .iter()
            .filter(|e| e.starts_with("start"))
            .collect();
        assert_eq!(
            starts.len(),
            r.levels.len() + 1,
            "terminal level also starts"
        );
        // Within a level the order is start, score, [match, [contract, end]].
        let first_level: Vec<&str> = rec
            .events
            .iter()
            .skip_while(|e| e.starts_with("run-start"))
            .take_while(|e| !e.starts_with("start 2"))
            .map(String::as_str)
            .collect();
        assert_eq!(
            first_level[0],
            format!("start 1 {} {}", 20, r.levels[0].num_edges)
        );
        assert_eq!(first_level[1], "phase 1 score");
        assert_eq!(first_level[2], "phase 1 match");
        assert_eq!(first_level[3], "phase 1 contract");
        assert_eq!(first_level[4], "end 1");
    }

    #[test]
    fn run_hooks_bracket_the_level_events() {
        let g = pcd_gen::classic::clique_ring(4, 5);
        let (nv, ne) = (g.num_vertices(), g.num_edges());
        let mut rec = Recorder::default();
        let mut det = crate::Detector::new(crate::Config::default()).unwrap();
        let r = det.run_observed(g, &mut rec).unwrap();
        assert_eq!(rec.events.first().unwrap(), &format!("run-start {nv} {ne}"));
        assert_eq!(
            rec.events.last().unwrap(),
            &format!("run-end {}", r.num_communities)
        );
        assert_eq!(r.input_vertices, nv);
        assert_eq!(r.input_edges, ne);
    }

    #[test]
    fn noop_observer_matches_unobserved_run() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 5));
        let mut det = crate::Detector::new(crate::Config::default()).unwrap();
        let observed = det.run_observed(g.clone(), &mut NoopObserver).unwrap();
        let plain = crate::detect(g, &crate::Config::default());
        assert_eq!(observed.assignment, plain.assignment);
        assert_eq!(observed.modularity, plain.modularity);
    }
}
