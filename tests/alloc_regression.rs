//! Allocation-regression harness (`--features alloc-stats`).
//!
//! Drives the level loop's three kernels directly through a
//! [`LevelScratch`] arena on pinned R-MAT instances, contracting with the
//! default contractor through the engine's dispatch, and counts the heap
//! traffic of score, match, contract, and the volume/ping-pong fold on
//! every level after the first: level 1 sizes every buffer to its
//! high-water mark, and the community graph only shrinks from there.
//!
//! * Where every region runs inline — R-MAT 10 at widths 1 and 2, and
//!   R-MAT 14 at width 1 — every steady-state phase allocates **zero**
//!   blocks.
//! * R-MAT 14 at width 2 spawns workers in its weighted regions on
//!   several levels, and a spawning region allocates a few hundred bytes
//!   of thread bookkeeping. There each phase is bounded by
//!   [`SPAWNING_PHASE_BYTES`], far below one buffer sized to the level, so
//!   a buffer rebuilt per round or per level still fails.
//!
//! The contract-phase counts are release-only: debug builds run
//! `Graph::validate` inside `from_recycled_parts` (a `debug_assert!`),
//! which allocates scratch of its own. CI runs this test with
//! `--release`, where every claim is enforced.
//!
//! The counters are process-global, so run this file with
//! `-- --test-threads=1`: otherwise the test harness's own bookkeeping for
//! a neighbouring test can allocate inside a measured window.

#![cfg(feature = "alloc-stats")]

use parcomm::core::kernel::contract_level;
use parcomm::core::scorer::{any_positive, score_all_into};
use parcomm::core::{ContractorKind, LevelScratch, ScorerKind};
use parcomm::gen::RmatParams;
use parcomm::matching::parallel::match_unmatched_list_scratch;
use parcomm::util::alloc_stats::{snapshot, AllocSnapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most one steady-state phase may allocate where regions spawn
/// workers.
const SPAWNING_PHASE_BYTES: u64 = 16 << 10;

/// Heap traffic of one phase of one steady-state level.
#[derive(Debug)]
struct PhaseAllocs {
    level: usize,
    phase: &'static str,
    blocks: u64,
    bytes: u64,
}

/// Runs the level loop on `params` at `width` and returns the traffic of
/// every phase on every level after the first (in debug builds, without
/// the contract phase).
fn steady_state_phases(params: &RmatParams, width: usize) -> Vec<PhaseAllocs> {
    parcomm::util::pool::with_threads(width, || {
        let mut g = parcomm::gen::rmat_graph(params);
        let mut scratch = LevelScratch::new();
        scratch.ctx.refresh(&g);
        let mut phases = Vec::new();
        let mut record = |level: usize, phase, before: &AllocSnapshot, after: AllocSnapshot| {
            if level >= 2 {
                phases.push(PhaseAllocs {
                    level,
                    phase,
                    blocks: after.allocations_since(before),
                    bytes: after.bytes_since(before),
                });
            }
        };
        let mut levels = 0usize;

        for level in 1.. {
            let before = snapshot();
            score_all_into(
                ScorerKind::Modularity,
                &g,
                &scratch.ctx,
                &mut scratch.scores,
            );
            record(level, "score", &before, snapshot());
            if !any_positive(&scratch.scores) {
                break;
            }

            let before = snapshot();
            let outcome = match_unmatched_list_scratch(
                &g,
                &scratch.scores,
                usize::MAX,
                &mut scratch.matching,
            );
            record(level, "match", &before, snapshot());
            let matching = outcome.matching;
            if matching.is_empty() {
                break;
            }

            let before = snapshot();
            let parts = scratch.take_parts();
            let (next, num_new) = contract_level(
                ContractorKind::default(),
                &g,
                &matching,
                &mut scratch.contract,
                parts,
            );
            let contracted = snapshot();
            if !cfg!(debug_assertions) {
                record(level, "contract", &before, contracted);
            }

            // The driver's fold: carry volumes through the contraction map,
            // recycle the matching's storage, ping-pong the graphs.
            let before = snapshot();
            {
                let new_of_old = scratch.contract.new_of_old();
                scratch.vol_next.clear();
                scratch.vol_next.resize(num_new, 0);
                for (old, &v) in scratch.ctx.vol.iter().enumerate() {
                    scratch.vol_next[new_of_old[old] as usize] += v;
                }
            }
            std::mem::swap(&mut scratch.ctx.vol, &mut scratch.vol_next);
            scratch.matching.recycle(matching);
            let retired = std::mem::replace(&mut g, next);
            scratch.store_parts(retired);
            record(level, "fold", &before, snapshot());
            levels = level;
        }

        assert!(
            levels >= 3,
            "instance too small: only {} steady-state levels measured",
            levels.saturating_sub(1)
        );
        phases
    })
}

fn assert_allocation_free(phases: &[PhaseAllocs], width: usize) {
    for p in phases {
        assert_eq!(
            p.blocks, 0,
            "{} allocated at level {}, width {width}: {p:?}",
            p.phase, p.level
        );
    }
}

#[test]
fn steady_state_levels_allocate_nothing() {
    // Every region of this instance runs inline even at width 2 — the
    // largest level has about 11 k edges, under `SEQ_CUTOFF` items and
    // under `SEQ_CUTOFF` units of work — so the counts also prove that
    // deciding to run inline, by item count or by work, spawns no worker
    // and builds no chunk table.
    for width in [1, 2] {
        let phases = steady_state_phases(&RmatParams::paper(10, 3), width);
        assert_allocation_free(&phases, width);
    }
}

#[test]
fn spawning_regions_allocate_a_bounded_amount() {
    // 16 119 vertices and 221 243 edges: its larger levels' weighted
    // regions (the matcher's scans, the contractors' per-row passes) cost
    // more than `SEQ_CUTOFF` units, so at width 2 they spawn a worker.
    let params = RmatParams::paper(14, 3);
    assert_allocation_free(&steady_state_phases(&params, 1), 1);
    let phases = steady_state_phases(&params, 2);
    assert!(
        phases.iter().any(|p| p.blocks > 0),
        "no steady-state region spawned a worker at width 2"
    );
    for p in &phases {
        assert!(
            p.bytes <= SPAWNING_PHASE_BYTES,
            "{} allocated {} B in {} blocks at level {}, width 2",
            p.phase,
            p.bytes,
            p.blocks,
            p.level
        );
    }
}

#[test]
fn trace_observer_adds_zero_steady_state_allocations() {
    // Differential form of the zero-overhead claim: a warm engine run with
    // the full recorder attached performs exactly as many heap allocations
    // as the same run with the NoopObserver — the recorder itself adds
    // none. (The engine's own result vectors allocate in both arms, so the
    // comparison isolates the observer hooks.)
    use parcomm::prelude::*;
    parcomm::util::pool::with_threads(1, || {
        let g = parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(9, 5));
        let (g_warm, g_plain, g_observed) = (g.clone(), g.clone(), g);
        let mut engine = Detector::new(Config::default()).expect("valid config");
        engine.run(g_warm).expect("warm-up run");

        let before = snapshot();
        engine.run(g_plain).expect("plain run");
        let plain = snapshot().allocations_since(&before);

        let mut tracer = parcomm::trace::TraceObserver::new(); // allocates up front
        let before = snapshot();
        engine
            .run_observed(g_observed, &mut tracer)
            .expect("observed run");
        let observed = snapshot().allocations_since(&before);

        assert!(!tracer.ring().is_empty(), "recorder saw no spans");
        assert_eq!(
            observed, plain,
            "attached recorder allocated during the run"
        );
    });
}

#[test]
fn recorder_primitives_never_allocate_after_construction() {
    use parcomm::trace::{Registry, SpanKind, SpanRecord, SpanRing};
    let mut ring = SpanRing::with_capacity(64);
    let mut reg = Registry::new();
    let c = reg.counter("c", "", &[]);
    let h = reg.histogram("h", "", &[], &[1e-3, 1.0, 1e3]);
    let span = SpanRecord {
        kind: SpanKind::Score,
        level: 0,
        start_ticks: 1,
        end_ticks: 2,
        thread: 0,
        vertices: 4,
        edges: 8,
        kernel_secs: 1e-6,
    };
    let before = snapshot();
    // Far past the ring capacity: overwriting the oldest span must not
    // reallocate, and registry writes are plain index updates.
    for i in 0..10_000u64 {
        ring.push(span);
        reg.inc(c, 1);
        reg.observe(h, i as f64);
        reg.observe(h, f64::NAN); // dropped, still no allocation
    }
    assert_eq!(
        snapshot().allocations_since(&before),
        0,
        "recorder primitives allocated in steady state"
    );
    assert_eq!(ring.dropped(), 10_000 - 64);
    assert_eq!(reg.dropped_observations(), 10_000);
}

#[test]
fn counting_allocator_observes_traffic() {
    // Sanity-check the harness itself: a fresh Vec must register.
    let before = snapshot();
    let v: Vec<u64> = Vec::with_capacity(1024);
    let after = snapshot();
    assert!(after.allocations_since(&before) >= 1);
    assert!(after.bytes_since(&before) >= 8 * 1024);
    drop(v);
    let dropped = snapshot();
    assert!(dropped.deallocations > after.deallocations.saturating_sub(1));
}
