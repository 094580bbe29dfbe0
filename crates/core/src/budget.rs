//! Resource budgets for detection runs: a wall-clock deadline and a level
//! cap, the limits `parcomm detect` sets with `--deadline-ms` and
//! `--max-levels`.
//!
//! A [`Budget`] rides inside [`crate::Config`] and is checked by
//! [`crate::Detector::run_observed`] **only at phase boundaries** — between
//! score, match, and contract, never inside a kernel hot loop. The
//! agglomeration loop (§V of the paper) is naturally interruptible there:
//! a partial hierarchy is still a complete, valid partition, so on breach
//! the engine simply stops agglomerating and returns the best-effort
//! partition from completed levels, tagged with a [`Termination`] variant.
//! Under [`Budget::strict`] a breach becomes a structured
//! [`pcd_util::PcdError::BudgetExceeded`] instead.
//!
//! Cost model: an *unarmed* budget (the default) resolves to `None` once
//! before the loop, so the per-boundary cost is a single `Option`
//! discriminant test — `tests/dispatch_parity.rs` proves unarmed runs are
//! bit-identical to budget-free runs for all 36 kernel combinations, and
//! `bench_gate`'s `budgeted-unarmed` row gates the armed-but-never-firing
//! overhead at ≤ 1%: its fastest sample against the `reuse` arm's.

use crate::result::Termination;
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
    /// Wall-clock deadline, measured from run start (from the call's start
    /// for a sharded run, DESIGN.md §16). On expiry the run stops at the
    /// next phase boundary with [`Termination::Deadline`].
    pub deadline: Option<Duration>,
    /// Maximum contraction levels to complete. Checked before each level
    /// starts, so `Some(0)` returns the singleton partition untouched.
    pub max_levels: Option<usize>,
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
    /// Caps the number of contraction levels.
    pub fn with_max_levels(mut self, n: usize) -> Self {
        self.max_levels = Some(n);
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
        self.deadline.is_some() || self.max_levels.is_some()
    }

    /// Resolves the budget into its per-run checker, or `None` when
    /// unarmed. The engine calls this once before the level loop. The
    /// deadline counts from `started`, or from now when that is `None`.
    pub(crate) fn arm(&self, started: Option<Instant>) -> Option<BudgetSentinel> {
        if !self.is_armed() {
            return None;
        }
        Some(BudgetSentinel {
            // A deadline too large to represent as an Instant can never
            // expire; treat it as no deadline.
            deadline_at: self
                .deadline
                .and_then(|d| started.unwrap_or_else(Instant::now).checked_add(d)),
            max_levels: self.max_levels,
        })
    }
}

/// The armed, per-run form of a [`Budget`], its deadline resolved to an
/// absolute [`Instant`]. Every check is O(1) and allocation-free; the
/// engine invokes them only at phase boundaries.
#[derive(Debug)]
pub(crate) struct BudgetSentinel {
    deadline_at: Option<Instant>,
    max_levels: Option<usize>,
}

impl BudgetSentinel {
    /// The check that applies at *every* phase boundary: the deadline.
    pub(crate) fn check_interrupt(&self) -> Option<Termination> {
        if self.deadline_at.is_some_and(|at| Instant::now() >= at) {
            return Some(Termination::Deadline);
        }
        None
    }

    /// The level-start check: the deadline, then the level cap, given the
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
}

/// Renders a breach as the detail string of a strict-mode
/// [`pcd_util::PcdError::BudgetExceeded`].
pub(crate) fn breach_detail(t: Termination, budget: &Budget) -> String {
    match t {
        Termination::Deadline => format!(
            "wall-clock deadline of {:?} expired",
            budget.deadline.unwrap_or_default()
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
        assert!(b.arm(None).is_none());
        // Strict alone does not arm.
        assert!(!Budget::unarmed().strict().is_armed());
    }

    #[test]
    fn each_limit_arms() {
        assert!(Budget::unarmed()
            .with_deadline(Duration::from_secs(1))
            .is_armed());
        assert!(Budget::unarmed().with_max_levels(3).is_armed());
    }

    #[test]
    fn sentinel_checks_fire_in_priority_order() {
        let b = Budget::unarmed()
            .with_deadline(Duration::ZERO)
            .with_max_levels(0);
        let s = b.arm(None).expect("armed");
        // Deadline zero has already expired, and it outranks the cap.
        assert_eq!(s.check_interrupt(), Some(Termination::Deadline));
        assert_eq!(s.check_level_start(0), Some(Termination::Deadline));
    }

    #[test]
    fn level_cap_counts_completed_levels() {
        let b = Budget::unarmed().with_max_levels(2);
        let s = b.arm(None).expect("armed");
        assert_eq!(s.check_level_start(0), None);
        assert_eq!(s.check_level_start(1), None);
        assert_eq!(s.check_level_start(2), Some(Termination::MaxLevels));
        // Cap 0 stops before any level.
        let z = Budget::unarmed().with_max_levels(0);
        assert_eq!(
            z.arm(None).expect("armed").check_level_start(0),
            Some(Termination::MaxLevels)
        );
    }

    #[test]
    fn deadline_counts_from_the_given_start() {
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let b = Budget::unarmed().with_deadline(Duration::from_millis(10));
        let s = b.arm(Some(started)).expect("armed");
        assert_eq!(s.check_interrupt(), Some(Termination::Deadline));
    }

    #[test]
    fn generous_limits_never_fire() {
        let b = Budget::unarmed()
            .with_deadline(Duration::from_secs(3600))
            .with_max_levels(usize::MAX);
        let s = b.arm(None).expect("armed");
        assert_eq!(s.check_level_start(1_000_000), None);
    }

    #[test]
    fn overlong_deadline_never_expires() {
        let b = Budget::unarmed().with_deadline(Duration::MAX);
        let s = b.arm(None).expect("armed");
        assert_eq!(s.check_interrupt(), None);
    }

    #[test]
    fn breach_details_name_the_limit() {
        let b = Budget::unarmed()
            .with_deadline(Duration::from_millis(5))
            .with_max_levels(2);
        assert!(breach_detail(Termination::Deadline, &b).contains("5ms"));
        assert!(breach_detail(Termination::MaxLevels, &b).contains('2'));
    }
}
