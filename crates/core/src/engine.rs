//! The reusable detection engine.
//!
//! [`Detector`] is the long-lived form of the agglomerative main loop
//! (§III): it holds a validated [`Config`] and owns the [`LevelScratch`]
//! arenas (including the ping-pong [`pcd_graph::GraphParts`] shadow
//! storage), so repeated [`Detector::run`] calls reuse warm buffers
//! instead of reallocating the whole arena per detection.
//! [`crate::detect`] / [`crate::try_detect`] are thin one-shot wrappers;
//! [`detect_many_observed`] is the one batch loop — independent graphs
//! across worker threads with one warm `Detector` per worker — under
//! [`detect_many`], the sharded detect stage and traced batches.
//!
//! The level loop itself is three typed phase functions —
//! `score_phase`, `match_phase`, `contract_phase` — each owning one
//! kernel call (dispatched on the config's kind enum, [`crate::kernel`])
//! plus its fault-injection hook and paranoia guard, with the phase timer
//! wrapped around exactly the work the monolithic driver timed. A [`LevelObserver`] fires at phase boundaries (outside the
//! timers); the default no-op observer makes an unobserved run identical
//! to the pre-refactor driver, bit for bit.

use crate::budget::breach_detail;
use crate::config::{default_match_round_cap, Config, Paranoia};
use crate::kernel::{contract_level, match_level};
use crate::observer::{LevelObserver, NoopObserver};
use crate::result::{DetectionResult, LevelStats, StopReason, Termination};
use crate::scorer::{any_positive, mask_oversized, score_all_into};
use crate::scratch::LevelScratch;
use pcd_graph::Graph;
use pcd_matching::Matching;
use pcd_util::par;
use pcd_util::sync::{as_atomic_u64, RELAXED};
use pcd_util::timing::Timer;
use pcd_util::{PcdError, Phase, VertexId, Weight};
use std::time::Instant;

/// A reusable detection engine: a validated configuration + warm scratch
/// arenas.
///
/// Construction validates the configuration; [`Detector::run`] then
/// executes the level loop, dispatching each phase on the config's kind
/// enum. A single `Detector` may run any number of graphs in sequence —
/// every run re-initialises the scratch state it reads (score context,
/// per-level buffers), so outputs are bit-identical to a fresh engine
/// (proven by `tests/dispatch_parity.rs`); only buffer *capacity* carries
/// over.
pub struct Detector {
    config: Config,
    scratch: LevelScratch,
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The scratch arenas hold buffers, not state worth printing.
        f.debug_struct("Detector")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Detector {
    /// Validates `config` and builds an engine with empty arenas.
    pub fn new(config: Config) -> Result<Self, PcdError> {
        config.validate()?;
        Ok(Detector {
            config,
            scratch: LevelScratch::new(),
        })
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs agglomerative detection over `graph`, consuming it as level 0
    /// of the hierarchy. Equivalent to [`crate::try_detect`] but reuses
    /// this engine's warm arenas.
    pub fn run(&mut self, graph: Graph) -> Result<DetectionResult, PcdError> {
        self.run_observed(graph, &mut NoopObserver)
    }

    /// As [`Detector::run`], firing `observer` at level and phase
    /// boundaries. Observation cannot change the result: hooks run outside
    /// the phase timers and see only immutable views.
    pub fn run_observed(
        &mut self,
        graph: Graph,
        observer: &mut dyn LevelObserver,
    ) -> Result<DetectionResult, PcdError> {
        self.run_from(graph, observer, None)
    }

    /// As [`Detector::run_observed`], with the budget's deadline counted
    /// from `started` when given — a sharded call's one instant (DESIGN.md
    /// §16) — instead of from this run's start.
    pub(crate) fn run_from(
        &mut self,
        graph: Graph,
        observer: &mut dyn LevelObserver,
        started: Option<Instant>,
    ) -> Result<DetectionResult, PcdError> {
        let Detector { config, scratch } = self;
        let n0 = graph.num_vertices();
        let ne0 = graph.num_edges();
        // Run hooks fire outside the total-time clock, like phase hooks
        // fire outside the phase timers.
        observer.on_run_start(n0, ne0);
        let t_total = Timer::start();

        // Original-vertex → current-community mapping, and original-vertex
        // counts per current community.
        let mut assignment: Vec<VertexId> = (0..n0 as u32).collect();
        let mut counts: Vec<Weight> = vec![1; n0];
        let mut g = graph;
        let mut levels: Vec<LevelStats> = Vec::new();
        let mut level_maps: Vec<Vec<VertexId>> = Vec::new();
        // `assignment` maps input vertices to the vertices of a base level,
        // and `pending` maps the base level's vertices to the current
        // level's (empty: the identity). Levels with more than `SEQ_CUTOFF`
        // vertices fold straight into `assignment`; from the first smaller
        // one on, folds compose into `pending` instead, and `assignment` is
        // folded through it once after the loop. So each tail level gathers
        // at most `SEQ_CUTOFF` entries, inline, not every input vertex.
        let mut pending: Vec<VertexId> = Vec::new();
        scratch.ctx.refresh(&g);
        let stop_reason;
        // Budget checks live only at phase boundaries, below. Unarmed
        // budgets (the default) resolve to `None` here, once, so each
        // boundary costs a single discriminant test and the loop body is
        // bit-identical to a budget-free engine (`tests/dispatch_parity.rs`
        // proves it). A breach abandons the in-flight level — its phase
        // outputs fold nothing — so `assignment`/`counts` always describe
        // exactly the completed levels: a full, valid partition.
        let budget = config.budget.arm(started);
        let mut breach: Option<Termination> = None;

        loop {
            if !config.reuse_scratch {
                // Ablation arm: rebuild the arena from empty every level,
                // the pre-reuse allocation behaviour. Same code path,
                // identical outputs.
                *scratch = LevelScratch::new();
                scratch.ctx.refresh(&g);
            }
            let level = levels.len() + 1;
            // Boundary check: the deadline, plus the level cap (checked
            // against *completed* levels, so a cap of 0 returns the
            // untouched singleton partition).
            if let Some(s) = &budget {
                if let Some(t) = s.check_level_start(levels.len()) {
                    breach = Some(t);
                    stop_reason = StopReason::Budget;
                    break;
                }
            }
            let (nv, ne) = (g.num_vertices(), g.num_edges());
            observer.on_level_start(level, nv, ne);

            // --- Phase 1: score.
            let scored = score_phase(config, level, &g, &counts, scratch)?;
            observer.on_phase_end(level, Phase::Score, scored.secs);
            if !scored.any_positive {
                stop_reason = StopReason::LocalMaximum;
                break;
            }
            // Boundary check: natural convergence above outranks a breach
            // detected at the same boundary.
            if let Some(s) = &budget {
                if let Some(t) = s.check_interrupt() {
                    breach = Some(t);
                    stop_reason = StopReason::Budget;
                    break;
                }
            }
            let score_secs = scored.secs;

            // --- Phase 2: match.
            let matched = match_phase(config, level, &g, scratch)?;
            observer.on_phase_end(level, Phase::Match, matched.secs);
            if matched.matching.is_empty() {
                stop_reason = StopReason::NoMatches;
                break;
            }
            // Boundary check: the in-flight matching is recycled, not
            // contracted — the partition stays that of completed levels.
            if let Some(s) = &budget {
                if let Some(t) = s.check_interrupt() {
                    scratch.matching.recycle(matched.matching);
                    breach = Some(t);
                    stop_reason = StopReason::Budget;
                    break;
                }
            }
            let MatchPhase {
                matching,
                rounds,
                degraded,
                secs: match_secs,
            } = matched;

            // --- Phase 3: contract. The next graph scatters into the
            // shadow storage (the graph retired two levels ago); the
            // old→new map lands in the contract scratch.
            let contracted = contract_phase(config, level, &g, &matching, scratch)?;
            observer.on_phase_end(level, Phase::Contract, contracted.secs);
            let ContractPhase {
                next,
                num_new,
                secs: contract_secs,
            } = contracted;

            // Fold the level into the hierarchy state.
            let new_of_old = scratch.contract.new_of_old();
            if !pending.is_empty() {
                par::for_each_mut(&mut pending, |_, p| {
                    *p = new_of_old[*p as usize];
                });
            } else if new_of_old.len() > par::SEQ_CUTOFF {
                par::for_each_mut(&mut assignment, |_, a| {
                    *a = new_of_old[*a as usize];
                });
            } else {
                pending.extend_from_slice(new_of_old);
            }
            scratch.counts_next.clear();
            scratch.counts_next.resize(num_new, 0);
            {
                let cells = as_atomic_u64(&mut scratch.counts_next);
                // ORDERING: RELAXED — community-size fold is a pure
                // accumulation; the join barrier publishes the sums.
                par::for_each(counts.len(), |old| {
                    cells[new_of_old[old] as usize].fetch_add(counts[old], RELAXED);
                });
            }
            std::mem::swap(&mut counts, &mut scratch.counts_next);
            // Volumes are conserved exactly under pair merges, so the next
            // level's volumes are a fold of this level's — no recompute.
            scratch.vol_next.clear();
            scratch.vol_next.resize(num_new, 0);
            {
                let cells = as_atomic_u64(&mut scratch.vol_next);
                // ORDERING: RELAXED — volume fold is a pure accumulation;
                // the join barrier publishes the sums before the swap.
                let vol: &[Weight] = &scratch.ctx.vol;
                par::for_each(vol.len(), |old| {
                    cells[new_of_old[old] as usize].fetch_add(vol[old], RELAXED);
                });
            }
            std::mem::swap(&mut scratch.ctx.vol, &mut scratch.vol_next);
            let pairs = matching.len();
            scratch.matching.recycle(matching);
            if config.record_levels {
                level_maps.push(scratch.contract.take_new_of_old());
            }
            // Ping-pong: the outgoing graph's storage becomes the shadow
            // for the next contraction.
            let retired = std::mem::replace(&mut g, next);
            if config.reuse_scratch {
                scratch.store_parts(retired);
            }
            debug_assert_eq!(scratch.ctx.vol, g.volumes(), "volume fold drifted");

            let coverage = g.coverage();
            let modularity = pcd_metrics::community_graph_modularity_with_vol(&g, &scratch.ctx.vol);
            levels.push(LevelStats {
                level,
                num_vertices: nv,
                num_edges: ne,
                pairs_merged: pairs,
                match_rounds: rounds,
                matcher_degraded: degraded,
                modularity,
                coverage,
                score_secs,
                match_secs,
                contract_secs,
            });
            // analyze: allow(panic, reason = "a LevelRecord was pushed two statements above")
            observer.on_level_end(levels.last().expect("level just pushed"));

            if config.coverage_stop.is_some_and(|c| coverage >= c) {
                stop_reason = StopReason::Criterion;
                break;
            }
        }

        // Termination precedence (DESIGN.md §13): a budget breach wins
        // (the partition is a best-effort prefix), then watchdog
        // degradation (complete but a matcher fell back to sequential),
        // then plain convergence.
        let termination = match breach {
            Some(t) => t,
            None if levels.iter().any(|l| l.matcher_degraded) => Termination::WatchdogDegraded,
            None => Termination::Converged,
        };
        if config.budget.strict {
            if let Some(t) = breach {
                return Err(PcdError::budget(
                    t.as_str(),
                    levels.len(),
                    breach_detail(t, &config.budget),
                ));
            }
        }

        if !pending.is_empty() {
            par::for_each_mut(&mut assignment, |_, a| {
                *a = pending[*a as usize];
            });
        }
        let result = DetectionResult {
            num_communities: g.num_vertices(),
            modularity: pcd_metrics::community_graph_modularity_with_vol(&g, &scratch.ctx.vol),
            coverage: g.coverage(),
            community_vertex_counts: counts,
            // `g` sits in a recycled level buffer, sized for an earlier and
            // larger level (up to the input): the result keeps an
            // exact-size copy, so results held together, as the sharded
            // stage's are until its merge, do not hold their inputs'
            // storage.
            community_graph: g.clone(),
            assignment,
            input_vertices: n0,
            input_edges: ne0,
            levels,
            level_maps,
            stop_reason,
            termination,
            total_secs: t_total.elapsed_secs(),
        };
        observer.on_run_end(&result);
        Ok(result)
    }

    /// As [`Detector::run`], with panic isolation: a panicking kernel
    /// poisons only this engine, which is torn down and rebuilt from its
    /// config, and the panic is reported as a structured
    /// [`PcdError::EnginePoisoned`]. The engine is always usable again
    /// after this returns.
    pub fn run_isolated(&mut self, graph: Graph) -> Result<DetectionResult, PcdError> {
        self.run_isolated_observed(graph, &mut NoopObserver, None)
    }

    /// As [`Detector::run_isolated`], firing `observer` at level and phase
    /// boundaries, with the deadline counted as in [`Detector::run_from`].
    /// On a panic the observer's partial recording is the caller's to
    /// discard.
    fn run_isolated_observed(
        &mut self,
        graph: Graph,
        observer: &mut dyn LevelObserver,
        started: Option<Instant>,
    ) -> Result<DetectionResult, PcdError> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_from(graph, observer, started)
        }));
        match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                // The scratch arenas may be mid-mutation; rebuild the whole
                // engine rather than reason about a half-folded level.
                let config = self.config.clone();
                // analyze: allow(panic, reason = "the config already passed Detector::new validation once")
                *self = Detector::new(config).expect("a built Detector's config stays valid");
                Err(PcdError::poisoned(panic_message(&*payload)))
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs independent detections over many graphs across a parallel region,
/// with one warm [`Detector`] per worker, returning the results in input
/// order. Validates `config` once up front; per-graph runs can still fail
/// (e.g. a paranoia guard trip), and the first failure *in input order* is
/// returned. Runs are panic-isolated as in [`detect_many_observed`], so a
/// poisoned graph costs one error, never the whole batch.
pub fn detect_many(graphs: Vec<Graph>, config: &Config) -> Result<Vec<DetectionResult>, PcdError> {
    detect_many_observed(graphs, config, || NoopObserver)?
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect()
}

/// One graph's slot in a [`detect_many_observed`] batch: its outcome and
/// the observer that watched its run.
type BatchRun<O> = (Result<DetectionResult, PcdError>, O);

/// The batch loop behind every multi-graph detection — [`detect_many`],
/// the sharded detect stage and traced batches: runs each graph on a warm
/// per-worker [`Detector`] (arenas stay warm across the graphs a worker
/// processes), firing a fresh observer from `make_observer` per graph, and
/// returns `(outcome, observer)` per graph in input order.
///
/// One graph's failure never sinks the rest: a graph that trips a
/// paranoia guard, breaches a strict budget, or panics its worker yields
/// an `Err` in its own slot. A panic poisons only that worker's engine,
/// which is rebuilt ([`Detector::run_isolated_observed`]) before the
/// worker goes on; the panic surfaces as [`PcdError::EnginePoisoned`] and
/// the observer's partial recording is the caller's to discard. The outer
/// `Err` is reserved for an invalid `config`.
pub fn detect_many_observed<O, F>(
    graphs: Vec<Graph>,
    config: &Config,
    make_observer: F,
) -> Result<Vec<BatchRun<O>>, PcdError>
where
    O: LevelObserver + Send,
    F: Fn() -> O + Sync,
{
    run_batch(graphs, |g| g, config, make_observer, None)
}

/// [`detect_many_observed`] over items that each become a graph, by
/// `graph_of`, on the worker that runs it, with every run's deadline
/// counted from `started` when given: the sharded stage passes its call's
/// one instant and builds each part just before its run, while batch
/// graphs (`None`) each start their own clock.
pub(crate) fn run_batch<T, O, F>(
    items: Vec<T>,
    graph_of: impl Fn(T) -> Graph + Sync,
    config: &Config,
    make_observer: F,
    started: Option<Instant>,
) -> Result<Vec<BatchRun<O>>, PcdError>
where
    T: Send,
    O: LevelObserver + Send,
    F: Fn() -> O + Sync,
{
    config.validate()?;
    Ok(par::map_init(
        items,
        // analyze: allow(panic, reason = "config.validate() succeeded at function entry")
        || Detector::new(config.clone()).expect("config validated above"),
        |det, item| {
            let g = graph_of(item);
            let mut observer = make_observer();
            let outcome = det.run_isolated_observed(g, &mut observer, started);
            (outcome, observer)
        },
    ))
}

struct ScorePhase {
    any_positive: bool,
    secs: f64,
}

/// Phase 1: scores every edge into the scratch score buffer, applying the
/// max-community-size mask, the fault hook, and the cheap-paranoia
/// finiteness guard inside the phase timer — then evaluates the
/// local-maximum exit test outside it, exactly as the monolithic driver
/// did.
fn score_phase(
    config: &Config,
    level: usize,
    g: &Graph,
    counts: &[Weight],
    scratch: &mut LevelScratch,
) -> Result<ScorePhase, PcdError> {
    let t = Timer::start();
    score_all_into(config.scorer, g, &scratch.ctx, &mut scratch.scores);
    if let Some(max_size) = config.max_community_size {
        mask_oversized(g, &mut scratch.scores, counts, max_size);
    }
    #[cfg(feature = "fault-injection")]
    config.fault.corrupt_scores(level, &mut scratch.scores);
    if config.paranoia >= Paranoia::Cheap {
        guard_scores_finite(level, &scratch.scores)?;
    }
    let secs = t.elapsed_secs();
    Ok(ScorePhase {
        any_positive: any_positive(&scratch.scores),
        secs,
    })
}

struct MatchPhase {
    matching: Matching,
    rounds: usize,
    degraded: bool,
    secs: f64,
}

/// Phase 2: runs the matcher under the watchdog round cap
/// ([`Config::max_match_rounds`], defaulting to
/// [`default_match_round_cap`]), then the fault hook and the full-paranoia
/// matching verification, all inside the phase timer. The degraded flag
/// reports whether the watchdog fell back to sequential completion.
fn match_phase(
    config: &Config,
    level: usize,
    g: &Graph,
    scratch: &mut LevelScratch,
) -> Result<MatchPhase, PcdError> {
    let t = Timer::start();
    let cap = config
        .max_match_rounds
        .unwrap_or_else(|| default_match_round_cap(g.num_vertices()));
    let LevelScratch {
        scores,
        matching: match_scratch,
        ..
    } = scratch;
    #[allow(unused_mut)]
    let mut out = match_level(config.matcher, g, scores, cap, match_scratch);
    #[cfg(feature = "fault-injection")]
    config.fault.stall_match(level);
    debug_assert_eq!(
        pcd_matching::verify::verify_matching(g, scores, &out.matching),
        Ok(())
    );
    #[cfg(feature = "fault-injection")]
    config.fault.corrupt_matching(level, &mut out.matching);
    if config.paranoia >= Paranoia::Full {
        pcd_matching::verify::verify_matching(g, scores, &out.matching)
            .map_err(|detail| PcdError::invariant(level, Phase::Match, detail))?;
    }
    let secs = t.elapsed_secs();
    Ok(MatchPhase {
        matching: out.matching,
        rounds: out.rounds,
        degraded: out.degraded,
        secs,
    })
}

struct ContractPhase {
    next: Graph,
    num_new: usize,
    secs: f64,
}

/// Phase 3: contracts `g` along the matching into the recycled shadow
/// storage, then the fault hook and the cheap-paranoia conservation
/// guards, all inside the phase timer. The old→new map stays in the
/// contract scratch for the engine's fold step.
fn contract_phase(
    config: &Config,
    level: usize,
    g: &Graph,
    matching: &Matching,
    scratch: &mut LevelScratch,
) -> Result<ContractPhase, PcdError> {
    let t = Timer::start();
    #[cfg(feature = "fault-injection")]
    config.fault.panic_contract(level);
    let parts = scratch.take_parts();
    #[allow(unused_mut)]
    let (mut next, mut num_new) =
        contract_level(config.contractor, g, matching, &mut scratch.contract, parts);
    #[cfg(feature = "fault-injection")]
    {
        // The fault hook mutates a `Contraction`; round-trip through one
        // so injected faults land exactly as before.
        let mut c = pcd_contract::Contraction {
            graph: next,
            new_of_old: scratch.contract.take_new_of_old(),
            num_new,
        };
        config.fault.corrupt_contraction(level, &mut c);
        scratch.contract.set_new_of_old(c.new_of_old);
        next = c.graph;
        num_new = c.num_new;
    }
    if config.paranoia >= Paranoia::Cheap {
        guard_contraction(
            level,
            config.paranoia,
            g,
            matching,
            &next,
            scratch.contract.new_of_old(),
            num_new,
        )?;
    }
    let secs = t.elapsed_secs();
    Ok(ContractPhase {
        next,
        num_new,
        secs,
    })
}

/// Cheap-paranoia guard: every edge score must be finite. NaN in a score
/// array poisons the matcher's total order silently (every comparison is
/// false), so it is caught here rather than downstream.
fn guard_scores_finite(level: usize, scores: &[f64]) -> Result<(), PcdError> {
    if par::all(scores.len(), |e| scores[e].is_finite()) {
        return Ok(());
    }
    // analyze: allow(panic, reason = "position() is Some because the all-finite check just returned false")
    let e = scores.iter().position(|s| !s.is_finite()).unwrap();
    Err(PcdError::invariant(
        level,
        Phase::Score,
        format!("edge {e} has non-finite score {}", scores[e]),
    ))
}

/// Contraction guards. Cheap level: conservation of total edge weight,
/// conservation of internal (self-loop) weight given the matched edges,
/// and a well-formed old→new map. Full level additionally revalidates the
/// whole contracted graph structure.
#[allow(clippy::too_many_arguments)]
fn guard_contraction(
    level: usize,
    paranoia: Paranoia,
    g: &Graph,
    matching: &Matching,
    next: &Graph,
    new_of_old: &[VertexId],
    num_new: usize,
) -> Result<(), PcdError> {
    let fail = |detail: String| Err(PcdError::invariant(level, Phase::Contract, detail));

    if new_of_old.len() != g.num_vertices() {
        return fail(format!(
            "old→new map covers {} vertices, parent graph has {}",
            new_of_old.len(),
            g.num_vertices()
        ));
    }
    if num_new != next.num_vertices() {
        return fail(format!(
            "num_new = {} but contracted graph has {} vertices",
            num_new,
            next.num_vertices()
        ));
    }
    if par::any(new_of_old.len(), |v| new_of_old[v] as usize >= num_new) {
        let old = new_of_old
            .iter()
            .position(|&n| n as usize >= num_new)
            .unwrap_or_default();
        return fail(format!(
            "new_of_old[{old}] = {} out of range for {} communities",
            new_of_old[old], num_new
        ));
    }
    // Recompute the child's total from its arrays: the contraction kernel
    // stamps the parent's total by construction, so trusting
    // `total_weight()` here would make conservation a tautology.
    let (w, s) = (next.weights(), next.self_loops());
    let next_total: Weight = par::sum(w.len(), |e| w[e]) + par::sum(s.len(), |v| s[v]);
    if next_total != g.total_weight() {
        return fail(format!(
            "total edge weight not conserved: {} before, {} after",
            g.total_weight(),
            next_total
        ));
    }
    if next.total_weight() != next_total {
        return fail(format!(
            "contracted graph's stored total {} disagrees with its arrays ({next_total})",
            next.total_weight()
        ));
    }
    let matched_weight: Weight = matching
        .matched_edges()
        .iter()
        .map(|&e| g.weights()[e])
        .sum();
    let expected_internal = g.internal_weight() + matched_weight;
    if next.internal_weight() != expected_internal {
        return fail(format!(
            "internal weight {} != parent internal {} + matched {}",
            next.internal_weight(),
            g.internal_weight(),
            matched_weight
        ));
    }
    if paranoia >= Paranoia::Full {
        if let Err(msg) = next.validate() {
            return fail(format!("contracted graph fails validation: {msg}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_matches_try_detect() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 17));
        let cfg = Config::default();
        let via_wrapper = crate::try_detect(g.clone(), &cfg).unwrap();
        let mut det = Detector::new(cfg).unwrap();
        let via_engine = det.run(g).unwrap();
        assert_eq!(via_wrapper.assignment, via_engine.assignment);
        assert_eq!(via_wrapper.modularity, via_engine.modularity);
        assert_eq!(via_wrapper.levels.len(), via_engine.levels.len());
    }

    #[test]
    fn warm_engine_second_run_is_bit_identical_to_fresh() {
        let a = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(9, 31));
        let b = pcd_gen::classic::clique_ring(8, 6);
        let cfg = Config::default().with_recorded_levels();
        let mut warm = Detector::new(cfg.clone()).unwrap();
        let _first = warm.run(a).unwrap();
        let second_warm = warm.run(b.clone()).unwrap();
        let second_fresh = Detector::new(cfg).unwrap().run(b).unwrap();
        assert_eq!(second_warm.assignment, second_fresh.assignment);
        assert_eq!(second_warm.modularity, second_fresh.modularity);
        assert_eq!(second_warm.level_maps, second_fresh.level_maps);
        assert_eq!(
            second_warm.community_vertex_counts,
            second_fresh.community_vertex_counts
        );
    }

    #[test]
    fn deferred_tail_fold_matches_composed_level_maps() {
        // The first level folds the assignment directly, the later ones
        // through the pending map; both must compose like the dendrogram.
        let n = par::SEQ_CUTOFF + par::SEQ_CUTOFF / 2;
        let r = crate::detect(
            pcd_gen::classic::ring(n),
            &Config::default().with_recorded_levels(),
        );
        assert!(r.levels[0].num_vertices > par::SEQ_CUTOFF);
        assert!(r.levels[1].num_vertices <= par::SEQ_CUTOFF);
        assert!(r.levels.len() >= 3, "too few tail levels");
        assert_eq!(r.assignment, r.assignment_at_level(r.level_maps.len()));
        let mut counts = vec![0; r.num_communities];
        for &c in &r.assignment {
            counts[c as usize] += 1;
        }
        assert_eq!(counts, r.community_vertex_counts);
    }

    #[test]
    fn detect_many_matches_sequential_runs() {
        let graphs: Vec<Graph> = [3u64, 5, 7]
            .iter()
            .map(|&s| pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, s)))
            .collect();
        let cfg = Config::default();
        let batched = detect_many(graphs.clone(), &cfg).unwrap();
        assert_eq!(batched.len(), graphs.len());
        for (g, r) in graphs.into_iter().zip(&batched) {
            let lone = crate::detect(g, &cfg);
            assert_eq!(lone.assignment, r.assignment);
            assert_eq!(lone.modularity, r.modularity);
        }
    }

    #[test]
    fn detect_many_rejects_invalid_config() {
        let cfg = Config::default().with_max_match_rounds(0);
        assert!(detect_many(Vec::new(), &cfg).is_err());
    }

    #[test]
    fn new_rejects_invalid_config() {
        let cfg = Config::default().with_max_community_size(0);
        assert!(Detector::new(cfg).is_err());
    }

    #[test]
    fn engine_exposes_its_config() {
        let det = Detector::new(
            Config::default()
                .with_matcher(crate::MatcherKind::EdgeSweep)
                .with_contractor(crate::ContractorKind::Linked),
        )
        .unwrap();
        assert_eq!(det.config().matcher.name(), "edge-sweep");
        assert_eq!(det.config().contractor.name(), "linked");
    }
}
