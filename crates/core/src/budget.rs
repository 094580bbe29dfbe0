//! Resource budgets for detection runs: wall-clock deadline, level cap,
//! scratch-memory ceiling, and cooperative cancellation.
//!
//! The north star is serving detection under heavy multi-tenant traffic;
//! there a single oversized or adversarial graph must not hold a warm
//! engine hostage. A [`Budget`] rides inside [`crate::Config`] and is
//! checked by [`crate::Detector::run_observed`] **only at phase
//! boundaries** — between score, match, and contract, never inside a
//! kernel hot loop. The agglomeration loop (§V of the paper) is naturally
//! interruptible there: a partial hierarchy is still a complete, valid
//! partition, so on breach the engine simply stops agglomerating and
//! returns the best-effort partition from completed levels, tagged with a
//! [`Termination`] variant. Under [`Budget::strict`] a breach becomes a
//! structured [`pcd_util::PcdError::BudgetExceeded`] instead.
//!
//! Cost model: an *unarmed* budget (the default) resolves to `None` once
//! before the loop, so the per-boundary cost is a single `Option`
//! discriminant test — `tests/dispatch_parity.rs` proves unarmed runs are
//! bit-identical to budget-free runs for all 36 kernel combinations, and
//! `bench_gate`'s `budgeted-unarmed` row gates the armed-but-never-firing
//! overhead at ≤ 1%: its fastest sample against the `reuse` arm's.

use crate::result::Termination;
use pcd_util::sync::CancelToken;
use std::time::{Duration, Instant};

/// Resource limits for one detection run. All limits default to `None`
/// (unarmed): detection runs exactly as if no budget existed.
///
/// ```
/// use pcd_core::{Budget, Config};
/// use std::time::Duration;
///
/// let cfg = Config::default()
///     .with_budget(Budget::unarmed().with_deadline(Duration::from_millis(250)));
/// assert!(cfg.budget.is_armed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline, measured from run start. On expiry the run
    /// stops at the next phase boundary with [`Termination::Deadline`].
    pub deadline: Option<Duration>,
    /// Maximum contraction levels to complete. Checked before each level
    /// starts, so `Some(0)` returns the singleton partition untouched.
    pub max_levels: Option<usize>,
    /// Ceiling on heap bytes retained by the engine's scratch arenas
    /// ([`crate::LevelScratch::scratch_bytes`]), checked after each level
    /// folds. The input and output graphs themselves are not counted.
    pub max_scratch_bytes: Option<usize>,
    /// Cooperative cancellation token; clones share one flag, so a server
    /// can cancel a run (or a whole batch) from another thread.
    pub cancel: Option<CancelToken>,
    /// Strict mode: report a breach as [`pcd_util::PcdError::BudgetExceeded`]
    /// instead of returning the best-effort partition.
    pub strict: bool,
}

impl Budget {
    /// A budget with no limits — detection behaves exactly as if no budget
    /// existed (and `tests/dispatch_parity.rs` proves it, bit for bit).
    pub fn unarmed() -> Self {
        Budget::default()
    }

    #[must_use]
    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    #[must_use]
    /// Sets the wall-clock deadline in milliseconds (the CLI's unit).
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    #[must_use]
    /// Caps the number of contraction levels.
    pub fn with_max_levels(mut self, n: usize) -> Self {
        self.max_levels = Some(n);
        self
    }

    #[must_use]
    /// Sets the scratch-memory ceiling in bytes.
    pub fn with_max_scratch_bytes(mut self, bytes: usize) -> Self {
        self.max_scratch_bytes = Some(bytes);
        self
    }

    #[must_use]
    /// Attaches a cancellation token (a clone; the caller keeps theirs).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    #[must_use]
    /// Enables strict mode: breaches become errors instead of best-effort
    /// partitions.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// True if any limit is set. `strict` alone does not arm a budget —
    /// with nothing to breach there is nothing to be strict about.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
            || self.max_levels.is_some()
            || self.max_scratch_bytes.is_some()
            || self.cancel.is_some()
    }

    /// Resolves the budget into its per-run checker, or `None` when
    /// unarmed. The engine calls this once before the level loop; the
    /// deadline clock starts here.
    pub(crate) fn arm(&self) -> Option<BudgetSentinel<'_>> {
        if !self.is_armed() {
            return None;
        }
        Some(BudgetSentinel {
            // A deadline too large to represent as an Instant can never
            // expire; treat it as no deadline.
            deadline_at: self.deadline.and_then(|d| Instant::now().checked_add(d)),
            max_levels: self.max_levels,
            max_scratch_bytes: self.max_scratch_bytes,
            cancel: self.cancel.as_ref(),
        })
    }
}

/// The armed, per-run form of a [`Budget`]: deadline resolved to an
/// absolute [`Instant`], token borrowed. Every check is O(1) and
/// allocation-free; the engine invokes them only at phase boundaries.
#[derive(Debug)]
pub(crate) struct BudgetSentinel<'a> {
    deadline_at: Option<Instant>,
    max_levels: Option<usize>,
    max_scratch_bytes: Option<usize>,
    cancel: Option<&'a CancelToken>,
}

impl BudgetSentinel<'_> {
    /// The interrupt checks that apply at *every* phase boundary:
    /// cancellation (explicit caller intent wins) then deadline.
    pub(crate) fn check_interrupt(&self) -> Option<Termination> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Some(Termination::Cancelled);
        }
        if self.deadline_at.is_some_and(|at| Instant::now() >= at) {
            return Some(Termination::Deadline);
        }
        None
    }

    /// The level-start check: interrupts plus the level cap, given the
    /// number of levels already completed.
    pub(crate) fn check_level_start(&self, completed_levels: usize) -> Option<Termination> {
        if let Some(t) = self.check_interrupt() {
            return Some(t);
        }
        if self.max_levels.is_some_and(|cap| completed_levels >= cap) {
            return Some(Termination::MaxLevels);
        }
        None
    }

    /// The post-fold check: scratch-memory ceiling against the arena's
    /// retained bytes (the just-completed level is the high-water mark).
    pub(crate) fn check_memory(&self, scratch_bytes: usize) -> Option<Termination> {
        if self
            .max_scratch_bytes
            .is_some_and(|cap| scratch_bytes > cap)
        {
            return Some(Termination::MemoryCeiling);
        }
        None
    }
}

/// Renders a breach as the detail string of a strict-mode
/// [`pcd_util::PcdError::BudgetExceeded`].
pub(crate) fn breach_detail(t: Termination, budget: &Budget) -> String {
    match t {
        Termination::Deadline => format!(
            "wall-clock deadline of {:?} expired",
            budget.deadline.unwrap_or_default()
        ),
        Termination::Cancelled => "cancellation was requested via the CancelToken".to_string(),
        Termination::MemoryCeiling => format!(
            "scratch arenas exceeded the {}-byte ceiling",
            budget.max_scratch_bytes.unwrap_or_default()
        ),
        Termination::MaxLevels => format!(
            "level cap of {} reached",
            budget.max_levels.unwrap_or_default()
        ),
        // analyze: allow(panic, reason = "function contract: callers pass only budget-breach variants; self-tested")
        _ => unreachable!("{t} is not a budget breach"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unarmed_and_arm_returns_none() {
        let b = Budget::unarmed();
        assert!(!b.is_armed());
        assert!(b.arm().is_none());
        // Strict alone does not arm.
        assert!(!Budget::unarmed().strict().is_armed());
    }

    #[test]
    fn each_limit_arms() {
        assert!(Budget::unarmed()
            .with_deadline(Duration::from_secs(1))
            .is_armed());
        assert!(Budget::unarmed().with_max_levels(3).is_armed());
        assert!(Budget::unarmed().with_max_scratch_bytes(1 << 20).is_armed());
        assert!(Budget::unarmed()
            .with_cancel_token(CancelToken::new())
            .is_armed());
    }

    #[test]
    fn sentinel_checks_fire_in_priority_order() {
        let token = CancelToken::new();
        let b = Budget::unarmed()
            .with_deadline(Duration::ZERO)
            .with_cancel_token(token.clone());
        let s = b.arm().expect("armed");
        // Deadline zero has already expired...
        assert_eq!(s.check_interrupt(), Some(Termination::Deadline));
        // ...but cancellation outranks it.
        token.cancel();
        assert_eq!(s.check_interrupt(), Some(Termination::Cancelled));
    }

    #[test]
    fn level_cap_counts_completed_levels() {
        let b = Budget::unarmed().with_max_levels(2);
        let s = b.arm().expect("armed");
        assert_eq!(s.check_level_start(0), None);
        assert_eq!(s.check_level_start(1), None);
        assert_eq!(s.check_level_start(2), Some(Termination::MaxLevels));
        // Cap 0 stops before any level.
        let z = Budget::unarmed().with_max_levels(0);
        assert_eq!(
            z.arm().expect("armed").check_level_start(0),
            Some(Termination::MaxLevels)
        );
    }

    #[test]
    fn memory_ceiling_is_exclusive_above() {
        let b = Budget::unarmed().with_max_scratch_bytes(100);
        let s = b.arm().expect("armed");
        assert_eq!(s.check_memory(100), None);
        assert_eq!(s.check_memory(101), Some(Termination::MemoryCeiling));
    }

    #[test]
    fn generous_limits_never_fire() {
        let b = Budget::unarmed()
            .with_deadline(Duration::from_secs(3600))
            .with_max_levels(usize::MAX)
            .with_max_scratch_bytes(usize::MAX)
            .with_cancel_token(CancelToken::new());
        let s = b.arm().expect("armed");
        assert_eq!(s.check_level_start(1_000_000), None);
        assert_eq!(s.check_memory(usize::MAX - 1), None);
    }

    #[test]
    fn overlong_deadline_never_expires() {
        let b = Budget::unarmed().with_deadline(Duration::MAX);
        let s = b.arm().expect("armed");
        assert_eq!(s.check_interrupt(), None);
    }

    #[test]
    fn breach_details_name_the_limit() {
        let b = Budget::unarmed()
            .with_deadline_ms(5)
            .with_max_levels(2)
            .with_max_scratch_bytes(64);
        assert!(breach_detail(Termination::Deadline, &b).contains("5ms"));
        assert!(breach_detail(Termination::MaxLevels, &b).contains('2'));
        assert!(breach_detail(Termination::MemoryCeiling, &b).contains("64"));
        assert!(breach_detail(Termination::Cancelled, &b).contains("CancelToken"));
    }
}
