//! Rule `kernel-fence` (ported): drivers dispatch on the kind enums
//! only.
//!
//! The detection drivers — the engine's level loop
//! (`crates/core/src/engine.rs`), the one-shot entry points
//! (`crates/core/src/driver.rs`) and `crates/core/src/multilevel.rs` —
//! may not call concrete kernel functions or name the concrete kernel
//! modules of `pcd-matching`/`pcd-contract`. They score with
//! `score_all_into` and match and contract through
//! `pcd_core::kernel::{match_level, contract_level}`, which take the
//! config's kind enum, so a backend swap is an enum edit, never a driver
//! edit. `crates/core/src/kernel.rs` is the one sanctioned dispatch site
//! and is exempt (it is simply not in [`KERNEL_CALLERS`]).
//!
//! Identifier-token matching makes this boundary-aware for free:
//! `contract_secs` never matches the `contract_seq` ban, and commented
//! or quoted mentions don't count.

use crate::analyze::{FileCtx, Violation};

/// Driver files fenced off from concrete kernels.
pub(crate) const KERNEL_CALLERS: &[&str] = &[
    "crates/core/src/driver.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/multilevel.rs",
];

/// Concrete kernel entry points (whole-identifier match).
/// `score_all_into` is not one: it is the scorer dispatch.
pub(crate) const CONCRETE_KERNEL_FNS: &[&str] = &[
    "score_edge",
    "match_unmatched_list",
    "match_unmatched_list_scratch",
    "match_edge_sweep",
    "match_edge_sweep_stats",
    "match_sequential_greedy",
    "contract_into",
    "contract_linked",
    "contract_seq",
];

/// Concrete kernel module paths (`crate::module` token-path match).
pub(crate) const CONCRETE_KERNEL_PATHS: &[(&str, &str)] = &[
    ("pcd_matching", "parallel"),
    ("pcd_matching", "edge_sweep"),
    ("pcd_matching", "seq"),
    ("pcd_contract", "bucket"),
    ("pcd_contract", "linked"),
    ("pcd_contract", "seq"),
];

pub(crate) fn check(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !KERNEL_CALLERS.contains(&ctx.rel) {
        return;
    }
    for &i in ctx.code {
        let text = ctx.text(i);
        if CONCRETE_KERNEL_FNS.contains(&text) {
            out.push(Violation {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "kernel-fence",
                msg: format!(
                    "direct concrete-kernel call `{text}` — dispatch on the kind \
                     enum through pcd_core::kernel"
                ),
            });
        }
        for (krate, module) in CONCRETE_KERNEL_PATHS {
            if ctx.is_path_seq(i, &[krate, module]) {
                out.push(Violation {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i),
                    rule: "kernel-fence",
                    msg: format!(
                        "concrete kernel module `{krate}::{module}` — drivers dispatch \
                         on the kind enum through pcd_core::kernel"
                    ),
                });
            }
        }
    }
}
