//! Exhaustive interleaving checks for the three kernel synchronisation
//! patterns, run against the real shim source (included by path in
//! `pcd_loom_models::sync`).
//!
//! Build with `RUSTFLAGS="--cfg loom"`; otherwise this file is empty.
//! Models stay at 2–3 threads with a handful of operations each — loom
//! explores every interleaving, so state space is the budget.
#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use pcd_loom_models::sync::cas_improve_u64;
use pcd_loom_models::sync::{AtomicU64, ACQUIRE, RELAXED};

/// Pattern 2 (CAS publish/observe): the best-proposal register converges
/// to the maximum of all proposed values regardless of interleaving, and
/// a proposer that lost observes a value at least as good as its own.
#[test]
fn cas_max_register_linearizes_to_max() {
    loom::model(|| {
        let cell = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [3u64, 7, 5]
            .into_iter()
            .map(|v| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let installed = cas_improve_u64(&cell, v, |cur| v > cur);
                    // Whether we won or lost, the register now holds a
                    // value no worse than ours.
                    let seen = cell.load(ACQUIRE);
                    assert!(seen >= v || installed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load(ACQUIRE), 7);
    });
}

/// One matcher proposal round on a path graph `0 —e0— 1 —e1— 2`, mirroring
/// `pcd-matching`'s `propose`: each edge CASes its index into both
/// endpoints' registers under the strict total order (score, edge id).
/// Every interleaving must resolve to the same mutual-best matching: the
/// heavier edge e0 owns both its endpoints, so {e0} is matched and the
/// round is deterministic despite the races.
#[test]
fn matcher_round_resolves_deterministically() {
    const EMPTY: u64 = u64::MAX;
    // Edge endpoints and strictly positive scores; e0 beats e1.
    const ENDPOINTS: [(usize, usize); 2] = [(0, 1), (1, 2)];
    const SCORE: [u64; 2] = [20, 10];

    fn beats(e: u64, cur: u64) -> bool {
        cur == EMPTY || (SCORE[e as usize], e) > (SCORE[cur as usize], cur)
    }

    loom::model(|| {
        let best: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(EMPTY)).collect());
        let handles: Vec<_> = (0..2u64)
            .map(|e| {
                let best = Arc::clone(&best);
                thread::spawn(move || {
                    let (u, v) = ENDPOINTS[e as usize];
                    cas_improve_u64(&best[u], e, |cur| beats(e, cur));
                    cas_improve_u64(&best[v], e, |cur| beats(e, cur));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Resolve pass (sequential here; the kernels' resolve only loads).
        let winner: Vec<u64> = best.iter().map(|c| c.load(ACQUIRE)).collect();
        // e0 must own both endpoints; e1 may hold vertex 2 but never 1.
        assert_eq!(winner[0], 0);
        assert_eq!(winner[1], 0);
        assert_eq!(winner[2], 1);
        let matched: Vec<u64> = (0..2u64)
            .filter(|&e| {
                let (u, v) = ENDPOINTS[e as usize];
                winner[u] == e && winner[v] == e
            })
            .collect();
        assert_eq!(matched, vec![0]);
    });
}

/// Pattern 1 (fork-join accumulation): contraction-style weight
/// accumulation with relaxed `fetch_add` into shared bucket cells
/// conserves total weight under every interleaving.
#[test]
fn contraction_weight_accumulation_conserves_total() {
    loom::model(|| {
        let buckets: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = [(0usize, 3u64), (1usize, 4u64)]
            .into_iter()
            .map(|(home, w)| {
                let buckets = Arc::clone(&buckets);
                thread::spawn(move || {
                    // Each worker folds one edge into its home bucket and a
                    // shared spill bucket, like bucketed contraction.
                    buckets[home].fetch_add(w, RELAXED);
                    buckets[0].fetch_add(1, RELAXED);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = buckets.iter().map(|c| c.load(RELAXED)).sum();
        assert_eq!(total, 3 + 4 + 2);
    });
}
