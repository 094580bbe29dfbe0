//! Rule `unsafe-budget` (ported): per-file `unsafe` keyword budget.
//!
//! The `unsafe` keyword may appear only in the files allowlisted below,
//! at most as many times as audited. Growing a budget requires editing
//! this file — which is the point: new unsafe code must come past
//! review carrying a `// SAFETY:` comment.
//!
//! Counting is over identifier tokens, so `unsafe` inside strings,
//! comments, or as part of a longer identifier
//! (`deny(unsafe_op_in_unsafe_fn)`) never counts. `xtask/` itself is
//! exempt: it is held to the stronger compiler-checked
//! `#![forbid(unsafe_code)]`, and its rule fixtures mention the keyword
//! in literals freely.

use crate::analyze::{FileCtx, Violation};

/// Audited `unsafe` occurrence budgets. Every site carries a
/// `// SAFETY:` comment; see the files themselves.
pub(crate) const UNSAFE_BUDGET: &[(&str, usize)] = &[
    ("crates/contract/src/bucket.rs", 1),
    ("crates/util/src/alloc_stats.rs", 9),
    // The fork-join layer: disjoint chunk slices, ordered-collect
    // `set_len`, and moving coarse items out exactly once.
    ("crates/util/src/par.rs", 3),
    ("crates/util/src/scan.rs", 1),
    ("crates/util/src/sync.rs", 5),
];

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with("xtask/") {
        return;
    }
    let count = ctx
        .code
        .iter()
        .filter(|&&i| ctx.text(i) == "unsafe")
        .count();
    let budget = UNSAFE_BUDGET
        .iter()
        .find(|(p, _)| *p == ctx.rel)
        .map_or(0, |(_, n)| *n);
    if count > budget {
        out.push(Violation {
            file: ctx.rel.to_string(),
            line: 0,
            rule: "unsafe-budget",
            msg: format!(
                "{count} `unsafe` occurrence(s), budget {budget} — new unsafe code needs \
                 a SAFETY comment and an allowlist update in \
                 xtask/src/analyze/rules/unsafe_budget.rs"
            ),
        });
    }
}
