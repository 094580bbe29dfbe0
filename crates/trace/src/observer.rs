//! The [`TraceObserver`]: a [`LevelObserver`] that records spans and
//! metrics for a detection run.
//!
//! All storage — the span ring, every metric series — is allocated in
//! [`TraceObserver::new`]. The hook bodies are tick reads, ring writes,
//! and registry index updates; none allocates, so attaching the recorder
//! adds only constant per-hook work outside the phase timers and cannot
//! change detection output (`tests/dispatch_parity.rs` proves
//! bit-identity, `tests/alloc_regression.rs` proves the zero-allocation
//! claim).
//!
//! Two clocks appear in a span: `start_ticks`/`end_ticks` are stamped by
//! the observer's own [`TickClock`] at hook boundaries, so they bracket
//! the covered work *plus* guard and observer overhead; `kernel_secs` is
//! the engine's phase-timer reading — the authoritative kernel time,
//! identical to what lands in [`LevelStats`].

use crate::registry::{decade_bounds, CounterId, GaugeId, HistogramId, Registry};
use crate::ring::{SpanKind, SpanRecord, SpanRing};
use pcd_core::{DetectionResult, LevelObserver, LevelStats, Termination};
use pcd_util::pool::thread_ordinal;
use pcd_util::timing::TickClock;
use pcd_util::{PcdError, Phase};

/// Default span-ring capacity: deep enough for hundreds of levels (a level
/// contributes four spans, a run one more).
const DEFAULT_SPAN_CAPACITY: usize = 4096;

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Score => 0,
        Phase::Match => 1,
        Phase::Contract => 2,
    }
}

/// Index of `t` in [`Termination::ALL`] — the registration order of the
/// per-reason termination counters.
fn termination_index(t: Termination) -> usize {
    Termination::ALL
        .iter()
        .position(|&x| x == t)
        // analyze: allow(panic, reason = "Termination::ALL is the exhaustive variant list; coverage is self-tested")
        .expect("Termination::ALL covers every variant")
}

/// Help string for the poisoned-engines counter; shared with
/// [`merge_runs`] so [`Registry::merge_from`] unifies the series by name.
const POISONED_HELP: &str =
    "Detection engines poisoned by a worker panic (each was torn down and rebuilt).";

/// The `pcd_last_run_*` gauges, which describe one detection result.
#[derive(Debug, Clone, Copy)]
struct RunGauges {
    modularity: GaugeId,
    coverage: GaugeId,
    communities: GaugeId,
    total_seconds: GaugeId,
    input_vertices: GaugeId,
    input_edges: GaugeId,
    edges_per_second: GaugeId,
}

impl RunGauges {
    /// Registers (or finds) the gauges in `reg`.
    fn register(reg: &mut Registry) -> Self {
        let mut gauge = |name, help| reg.gauge(name, help, &[]);
        RunGauges {
            modularity: gauge(
                "pcd_last_run_modularity",
                "Final modularity of the most recent run.",
            ),
            coverage: gauge(
                "pcd_last_run_coverage",
                "Final coverage of the most recent run.",
            ),
            communities: gauge(
                "pcd_last_run_communities",
                "Communities found by the most recent run.",
            ),
            total_seconds: gauge(
                "pcd_last_run_total_seconds",
                "Total wall-clock seconds of the most recent run.",
            ),
            input_vertices: gauge(
                "pcd_last_run_input_vertices",
                "Input-graph vertices of the most recent run.",
            ),
            input_edges: gauge(
                "pcd_last_run_input_edges",
                "Input-graph edges of the most recent run.",
            ),
            edges_per_second: gauge(
                "pcd_last_run_edges_per_second",
                "Input edges over total seconds for the most recent run \
                 (the paper's Table III rate).",
            ),
        }
    }

    /// Sets every gauge from `result`. Index writes; never allocates.
    fn set(&self, reg: &mut Registry, result: &DetectionResult) {
        reg.set(self.modularity, result.modularity);
        reg.set(self.coverage, result.coverage);
        reg.set(self.communities, result.num_communities as f64);
        reg.set(self.total_seconds, result.total_secs);
        reg.set(self.input_vertices, result.input_vertices as f64);
        reg.set(self.input_edges, result.input_edges as f64);
        reg.set(self.edges_per_second, result.edges_per_sec());
    }
}

/// Sets `reg`'s `pcd_last_run_*` gauges from `result`, as
/// [`TraceObserver`] does at the end of a run. A merge of per-run
/// recorders keeps the last run's gauges ([`Registry::merge_from`]), and
/// refinement changes a result after its run ends, so a caller that
/// exports a merged or refined result sets them from it here.
pub fn set_run_gauges(reg: &mut Registry, result: &DetectionResult) {
    RunGauges::register(reg).set(reg, result);
}

/// Span recorder + metrics registry behind the [`LevelObserver`] seam.
#[derive(Debug)]
pub struct TraceObserver {
    clock: TickClock,
    ring: SpanRing,
    registry: Registry,
    // Counter/gauge/histogram handles, registered at construction.
    runs_total: CounterId,
    levels_total: CounterId,
    merges_total: CounterId,
    edges_scored_total: CounterId,
    watchdog_degraded_total: CounterId,
    terminations_total: [CounterId; Termination::ALL.len()],
    phase_seconds: [HistogramId; 3],
    level_edges_per_second: HistogramId,
    last_run: RunGauges,
    spans_dropped: GaugeId,
    // In-flight span marks (ticks on `clock`).
    run_start: u64,
    level_start: u64,
    phase_mark: u64,
    cur_level: u32,
    cur_vertices: u64,
    cur_edges: u64,
}

impl TraceObserver {
    /// A recorder with the default span capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder whose ring holds up to `capacity` spans. All metric
    /// series and the ring buffer are allocated here; the observer hooks
    /// never allocate.
    fn with_span_capacity(capacity: usize) -> Self {
        let mut reg = Registry::new();
        let runs_total = reg.counter("pcd_runs_total", "Completed detection runs.", &[]);
        let levels_total = reg.counter(
            "pcd_levels_total",
            "Completed contraction levels across all runs.",
            &[],
        );
        let merges_total = reg.counter(
            "pcd_merges_total",
            "Community pairs merged across all levels.",
            &[],
        );
        let edges_scored_total = reg.counter(
            "pcd_edges_scored_total",
            "Community-graph edges entering the score phase, summed over \
             every level started (the terminal partial level included).",
            &[],
        );
        let watchdog_degraded_total = reg.counter(
            "pcd_watchdog_degraded_total",
            "Levels whose matcher watchdog expired and fell back to \
             sequential greedy completion.",
            &[],
        );
        let term_help = "Completed runs by termination outcome (best-effort \
             budget breaches included; strict-mode breaches error instead).";
        let terminations_total = Termination::ALL.map(|t| {
            reg.counter(
                "pcd_run_terminations_total",
                term_help,
                &[("reason", t.as_str())],
            )
        });
        // Always exported (zero until `merge_runs` counts a poisoning), so
        // every recorder's document lists the same families.
        reg.counter("pcd_engines_poisoned_total", POISONED_HELP, &[]);
        let phase_bounds = decade_bounds(-6, 2);
        let phase_help = "Per-level kernel seconds by phase (engine phase-timer reading).";
        let phase_seconds = [
            reg.histogram(
                "pcd_phase_seconds",
                phase_help,
                &[("phase", "score")],
                &phase_bounds,
            ),
            reg.histogram(
                "pcd_phase_seconds",
                phase_help,
                &[("phase", "match")],
                &phase_bounds,
            ),
            reg.histogram(
                "pcd_phase_seconds",
                phase_help,
                &[("phase", "contract")],
                &phase_bounds,
            ),
        ];
        let level_edges_per_second = reg.histogram(
            "pcd_level_edges_per_second",
            "Edges of a level's input graph over that level's kernel seconds.",
            &[],
            &decade_bounds(3, 9),
        );
        let last_run = RunGauges::register(&mut reg);
        let spans_dropped = reg.gauge(
            "pcd_trace_spans_dropped",
            "Spans lost to ring-buffer overwrite.",
            &[],
        );
        TraceObserver {
            clock: TickClock::new(),
            ring: SpanRing::with_capacity(capacity),
            registry: reg,
            runs_total,
            levels_total,
            merges_total,
            edges_scored_total,
            watchdog_degraded_total,
            terminations_total,
            phase_seconds,
            level_edges_per_second,
            last_run,
            spans_dropped,
            run_start: 0,
            level_start: 0,
            phase_mark: 0,
            cur_level: 0,
            cur_vertices: 0,
            cur_edges: 0,
        }
    }

    /// The recorded metrics (counters accumulate across runs observed by
    /// this recorder).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The recorded spans.
    pub fn ring(&self) -> &SpanRing {
        &self.ring
    }

    /// Consumes the observer, returning the span ring and registry.
    pub fn into_parts(self) -> (SpanRing, Registry) {
        (self.ring, self.registry)
    }

    /// Consumes the observer, returning just the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    fn push(
        &mut self,
        kind: SpanKind,
        level: u32,
        start: u64,
        vertices: u64,
        edges: u64,
        kernel_secs: f64,
    ) {
        let end = self.clock.ticks();
        self.ring.push(SpanRecord {
            kind,
            level,
            start_ticks: start,
            end_ticks: end.max(start),
            thread: thread_ordinal(),
            vertices,
            edges,
            kernel_secs,
        });
    }
}

impl Default for TraceObserver {
    fn default() -> Self {
        TraceObserver::new()
    }
}

impl LevelObserver for TraceObserver {
    fn on_run_start(&mut self, num_vertices: usize, num_edges: usize) {
        self.run_start = self.clock.ticks();
        self.cur_vertices = num_vertices as u64;
        self.cur_edges = num_edges as u64;
    }

    fn on_level_start(&mut self, level: usize, num_vertices: usize, num_edges: usize) {
        self.cur_level = level as u32;
        self.cur_vertices = num_vertices as u64;
        self.cur_edges = num_edges as u64;
        self.registry.inc(self.edges_scored_total, num_edges as u64);
        self.level_start = self.clock.ticks();
        self.phase_mark = self.level_start;
    }

    fn on_phase_end(&mut self, level: usize, phase: Phase, secs: f64) {
        let start = self.phase_mark;
        self.registry
            .observe(self.phase_seconds[phase_index(phase)], secs);
        self.push(
            SpanKind::from_phase(phase),
            level as u32,
            start,
            self.cur_vertices,
            self.cur_edges,
            secs,
        );
        self.phase_mark = self.clock.ticks();
    }

    fn on_level_end(&mut self, stats: &LevelStats) {
        self.registry.inc(self.levels_total, 1);
        self.registry
            .inc(self.merges_total, stats.pairs_merged as u64);
        if stats.matcher_degraded {
            self.registry.inc(self.watchdog_degraded_total, 1);
        }
        let kernel_secs = stats.total_secs();
        // `observe` drops the non-finite rate of a zero-duration level.
        self.registry.observe(
            self.level_edges_per_second,
            stats.num_edges as f64 / kernel_secs,
        );
        self.push(
            SpanKind::Level,
            stats.level as u32,
            self.level_start,
            stats.num_vertices as u64,
            stats.num_edges as u64,
            kernel_secs,
        );
    }

    fn on_run_end(&mut self, result: &DetectionResult) {
        self.registry.inc(self.runs_total, 1);
        self.registry.inc(
            self.terminations_total[termination_index(result.termination)],
            1,
        );
        self.last_run.set(&mut self.registry, result);
        self.push(
            SpanKind::Run,
            0,
            self.run_start,
            result.input_vertices as u64,
            result.input_edges as u64,
            result.total_secs,
        );
        self.registry
            .set(self.spans_dropped, self.ring.dropped() as f64);
    }
}

/// Folds per-run recorders into one registry, in the order given — input
/// order from [`pcd_core::detect_many_observed`], component order from
/// [`pcd_core::try_detect_sharded_observed`] — so deterministic counters
/// (runs, levels, merges, edges scored) are identical whatever pool ran
/// the runs. Latency histograms merge too but remain timing-dependent.
///
/// Each run is its recorder, or the error that failed it. A failed run's
/// partial recording is dropped; a poisoned engine increments
/// `pcd_engines_poisoned_total`, so poisonings show in both exporters,
/// not only in the per-run `Err`s.
pub fn merge_runs<'a>(
    runs: impl IntoIterator<Item = Result<&'a TraceObserver, &'a PcdError>>,
) -> Registry {
    let mut merged = Registry::new();
    let mut poisoned = 0;
    for run in runs {
        match run {
            Ok(observer) => merged.merge_from(&observer.registry),
            Err(e) if e.is_engine_poisoned() => poisoned += 1,
            Err(_) => {}
        }
    }
    // Every recorder already carries this series, so registering it only
    // when needed keeps a merge of clean runs in the recorders' family
    // order (and an empty merge empty).
    if poisoned > 0 {
        let id = merged.counter("pcd_engines_poisoned_total", POISONED_HELP, &[]);
        merged.inc(id, poisoned);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcd_core::{detect_many, Config, Detector, StopReason};
    use pcd_graph::Graph;

    /// A traced batch: one recorder per graph, folded in input order.
    fn traced_batch(
        graphs: Vec<Graph>,
        cfg: &Config,
    ) -> (Vec<Result<DetectionResult, PcdError>>, Registry) {
        let runs = pcd_core::detect_many_observed(graphs, cfg, TraceObserver::new).unwrap();
        let reg = merge_runs(
            runs.iter()
                .map(|(outcome, obs)| outcome.as_ref().map(|_| obs)),
        );
        (runs.into_iter().map(|(outcome, _)| outcome).collect(), reg)
    }

    /// A traced sharded run: one recorder per component, folded in
    /// component order.
    fn traced_sharded(g: Graph, cfg: &Config) -> (DetectionResult, Registry) {
        let (r, observers) =
            pcd_core::try_detect_sharded_observed(g, cfg, TraceObserver::new).unwrap();
        (r, merge_runs(observers.iter().map(Ok)))
    }

    fn counter(reg: &Registry, name: &str) -> u64 {
        reg.counters_of(name).next().expect(name).value
    }

    fn gauge(reg: &Registry, name: &str) -> f64 {
        reg.gauges_of(name).next().expect(name).value
    }

    #[test]
    fn counters_match_the_result() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 11));
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        let r = det.run_observed(g, &mut obs).unwrap();
        let reg = obs.registry();

        assert_eq!(counter(reg, "pcd_runs_total"), 1);
        assert_eq!(counter(reg, "pcd_levels_total"), r.levels.len() as u64);
        let merges: u64 = r.levels.iter().map(|l| l.pairs_merged as u64).sum();
        assert_eq!(counter(reg, "pcd_merges_total"), merges);
        let mut scored: u64 = r.levels.iter().map(|l| l.num_edges as u64).sum();
        if r.stop_reason != StopReason::Criterion {
            // The terminal partial level also entered the score phase, on
            // the final community graph.
            scored += r.community_graph.num_edges() as u64;
        }
        assert_eq!(counter(reg, "pcd_edges_scored_total"), scored);
        assert_eq!(gauge(reg, "pcd_last_run_modularity"), r.modularity);
        assert_eq!(
            gauge(reg, "pcd_last_run_communities"),
            r.num_communities as f64
        );
        assert_eq!(gauge(reg, "pcd_last_run_input_edges"), r.input_edges as f64);
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        let r1 = det
            .run_observed(pcd_gen::classic::clique_ring(4, 6), &mut obs)
            .unwrap();
        let r2 = det
            .run_observed(pcd_gen::classic::clique_ring(5, 4), &mut obs)
            .unwrap();
        let reg = obs.registry();
        assert_eq!(counter(reg, "pcd_runs_total"), 2);
        assert_eq!(
            counter(reg, "pcd_levels_total"),
            (r1.levels.len() + r2.levels.len()) as u64
        );
        assert_eq!(
            gauge(reg, "pcd_last_run_communities"),
            r2.num_communities as f64,
            "gauges reflect the latest run"
        );
    }

    #[test]
    fn spans_cover_run_levels_and_phases() {
        let g = pcd_gen::classic::clique_ring(4, 5);
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        let r = det.run_observed(g, &mut obs).unwrap();
        let ring = obs.ring();
        assert_eq!(ring.dropped(), 0);

        let spans: Vec<&SpanRecord> = ring.iter().collect();
        let last = spans.last().unwrap();
        assert_eq!(last.kind, SpanKind::Run, "run span closes the stream");
        assert_eq!(last.kernel_secs, r.total_secs);
        assert_eq!(last.vertices, r.input_vertices as u64);

        let level_spans = spans.iter().filter(|s| s.kind == SpanKind::Level).count();
        assert_eq!(level_spans, r.levels.len());
        let score_spans = spans.iter().filter(|s| s.kind == SpanKind::Score).count();
        assert!(score_spans >= r.levels.len(), "terminal level scores too");
        for s in &spans {
            assert!(s.end_ticks >= s.start_ticks, "span time runs forward");
        }
        // A level span brackets its phase spans on the tick clock.
        let lvl1 = spans
            .iter()
            .find(|s| s.kind == SpanKind::Level && s.level == 1)
            .unwrap();
        let score1 = spans
            .iter()
            .find(|s| s.kind == SpanKind::Score && s.level == 1)
            .unwrap();
        assert!(lvl1.start_ticks <= score1.start_ticks);
        assert!(lvl1.end_ticks >= score1.end_ticks);
    }

    #[test]
    fn phase_histograms_see_every_completed_level() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(7, 3));
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        let r = det.run_observed(g, &mut obs).unwrap();
        let reg = obs.registry();
        for view in reg.histograms_of("pcd_phase_seconds") {
            let phase = &view.labels[0].1;
            // Every completed level runs all three phases; the terminal
            // level may add a score (and match) observation on top.
            let min_count = r.levels.len() as u64;
            assert!(
                view.count >= min_count,
                "phase {phase} saw {} < {min_count} observations",
                view.count
            );
            let bucket_total: u64 = view.buckets.iter().sum();
            assert_eq!(bucket_total, view.count);
        }
    }

    #[test]
    fn tiny_ring_drops_oldest_and_reports_it() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(7, 9));
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::with_span_capacity(2);
        det.run_observed(g, &mut obs).unwrap();
        assert!(obs.ring().dropped() > 0);
        assert_eq!(
            gauge(obs.registry(), "pcd_trace_spans_dropped"),
            obs.ring().dropped() as f64
        );
        // The run span is pushed last, so it survives any overwrite.
        assert_eq!(obs.ring().iter().last().unwrap().kind, SpanKind::Run);
    }

    #[test]
    fn merged_batch_matches_detect_many() {
        let graphs: Vec<Graph> = [3u64, 5, 7]
            .iter()
            .map(|&s| pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(7, s)))
            .collect();
        let cfg = Config::default();
        let (traced, reg) = traced_batch(graphs.clone(), &cfg);
        let plain = detect_many(graphs, &cfg).unwrap();
        assert_eq!(traced.len(), plain.len());
        for (t, p) in traced.iter().zip(&plain) {
            let t = t.as_ref().expect("clean batch");
            assert_eq!(t.assignment, p.assignment);
            assert_eq!(t.modularity, p.modularity);
        }
        assert_eq!(counter(&reg, "pcd_runs_total"), plain.len() as u64);
        let levels: u64 = plain.iter().map(|r| r.levels.len() as u64).sum();
        assert_eq!(counter(&reg, "pcd_levels_total"), levels);
        assert_eq!(counter(&reg, "pcd_engines_poisoned_total"), 0);
    }

    #[test]
    fn merge_runs_drops_failed_runs_and_counts_poisoned_engines() {
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        det.run_observed(pcd_gen::classic::clique_ring(4, 6), &mut obs)
            .unwrap();
        let poisoned = PcdError::poisoned("worker panicked");
        let tripped = PcdError::invariant(1, Phase::Score, "non-finite score");
        let reg = merge_runs([Ok(&obs), Err(&poisoned), Err(&tripped), Err(&poisoned)]);
        assert_eq!(counter(&reg, "pcd_runs_total"), 1, "failed runs dropped");
        assert_eq!(counter(&reg, "pcd_engines_poisoned_total"), 2);
        // Families keep the recorder's registration order.
        let names: Vec<&str> = reg.families().map(|f| f.name).collect();
        let own: Vec<&str> = obs.registry().families().map(|f| f.name).collect();
        assert_eq!(names, own);

        let reg = merge_runs([Err(&tripped)]);
        assert_eq!(
            reg.families().count(),
            0,
            "nothing recorded, nothing poisoned"
        );
    }

    fn termination_counter(reg: &Registry, reason: &str) -> u64 {
        reg.counters_of("pcd_run_terminations_total")
            .find(|c| c.labels.iter().any(|(_, v)| v.as_str() == reason))
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn termination_counters_classify_runs() {
        let mut det = Detector::new(Config::default()).unwrap();
        let mut obs = TraceObserver::new();
        let r = det
            .run_observed(pcd_gen::classic::clique_ring(4, 6), &mut obs)
            .unwrap();
        assert_eq!(r.termination, Termination::Converged);
        let reg = obs.registry();
        assert_eq!(
            reg.counters_of("pcd_run_terminations_total").count(),
            Termination::ALL.len()
        );
        for t in Termination::ALL {
            let expected = u64::from(t == Termination::Converged);
            assert_eq!(termination_counter(reg, t.as_str()), expected, "{t}");
        }
        assert_eq!(counter(reg, "pcd_engines_poisoned_total"), 0);
    }

    #[test]
    fn budget_breaches_land_in_their_reason_counter() {
        let cfg = Config::default().with_budget(pcd_core::Budget::unarmed().with_max_levels(1));
        let mut det = Detector::new(cfg).unwrap();
        let mut obs = TraceObserver::new();
        let r = det
            .run_observed(pcd_gen::classic::clique_ring(4, 6), &mut obs)
            .unwrap();
        assert_eq!(r.termination, Termination::MaxLevels);
        let reg = obs.registry();
        assert_eq!(termination_counter(reg, "max-levels"), 1);
        assert_eq!(termination_counter(reg, "converged"), 0);
    }

    #[test]
    fn watchdog_degradation_is_counted() {
        // A round cap of 1 forces the sequential fallback on any level the
        // parallel matcher cannot finish in one round.
        let cfg = Config::default().with_max_match_rounds(1);
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 11));
        let mut det = Detector::new(cfg).unwrap();
        let mut obs = TraceObserver::new();
        let r = det.run_observed(g, &mut obs).unwrap();
        let degraded = r.levels.iter().filter(|l| l.matcher_degraded).count() as u64;
        assert_eq!(
            counter(obs.registry(), "pcd_watchdog_degraded_total"),
            degraded
        );
        if degraded > 0 {
            assert_eq!(r.termination, Termination::WatchdogDegraded);
            assert_eq!(termination_counter(obs.registry(), "watchdog-degraded"), 1);
        }
    }

    #[test]
    fn sharded_recorders_merge_deterministically() {
        // Two clique rings plus an isolated vertex: three components, each
        // an engine run with its own recorder.
        let a = pcd_gen::classic::clique_ring(4, 5);
        let b = pcd_gen::classic::clique_ring(3, 4);
        let na = a.num_vertices();
        let mut edges: Vec<(u32, u32, u64)> = a.edges().collect();
        edges.extend(b.edges().map(|(i, j, w)| (i + na as u32, j + na as u32, w)));
        let g = pcd_graph::builder::from_edges(na + b.num_vertices() + 1, edges);
        let cfg = Config::default();

        let (r, reg) = traced_sharded(g.clone(), &cfg);
        assert_eq!(counter(&reg, "pcd_runs_total"), 3);
        let levels: u64 = {
            // Per-component level totals: recompute from solo runs.
            let split = pcd_graph::subgraph::split_components(&g);
            split
                .parts
                .iter()
                .map(|p| {
                    pcd_core::try_detect(p.graph.clone(), &cfg)
                        .unwrap()
                        .levels
                        .len() as u64
                })
                .sum()
        };
        assert_eq!(counter(&reg, "pcd_levels_total"), levels);
        assert_eq!(termination_counter(&reg, "converged"), 3);

        // Pool-size independence of the merged deterministic counters.
        let (r1, reg1) = pcd_util::pool::with_threads(1, {
            let g = g.clone();
            let cfg = cfg.clone();
            move || traced_sharded(g, &cfg)
        });
        assert_eq!(r1.assignment, r.assignment);
        assert_eq!(
            counter(&reg1, "pcd_levels_total"),
            counter(&reg, "pcd_levels_total")
        );
        assert_eq!(
            counter(&reg1, "pcd_merges_total"),
            counter(&reg, "pcd_merges_total")
        );
    }

    #[test]
    fn single_component_sharded_trace_matches_plain_trace() {
        let g = pcd_gen::classic::clique_ring(4, 6);
        let cfg = Config::default();
        let (r, reg) = traced_sharded(g.clone(), &cfg);
        let mut det = Detector::new(cfg.clone()).unwrap();
        let mut obs = TraceObserver::new();
        let plain = det.run_observed(g, &mut obs).unwrap();
        assert_eq!(r.assignment, plain.assignment);
        assert_eq!(counter(&reg, "pcd_runs_total"), 1);
        assert_eq!(
            counter(&reg, "pcd_levels_total"),
            counter(obs.registry(), "pcd_levels_total")
        );
        assert_eq!(
            counter(&reg, "pcd_edges_scored_total"),
            counter(obs.registry(), "pcd_edges_scored_total")
        );
    }
}
