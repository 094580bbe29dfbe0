//! Rule passes for `cargo xtask analyze`.
//!
//! Every pass consumes the shared [`crate::analyze::FileCtx`] (token
//! stream + structural context) and appends [`crate::analyze::Violation`]s.
//! The three ported passes (`atomics`, `unsafe_budget`, `kernel_fence`)
//! keep the rule semantics and IDs of the original substring-based
//! `xtask lint`; the four new passes (`alloc`, `panic_free`, `ordering`,
//! `api_lock`) are the compile-review counterparts of the runtime
//! alloc-stats gate, the panic-safety policy, the DESIGN.md §9 ordering
//! discipline, and semver review. `reach` is the whole-tree pass that
//! keeps public items with no caller out of `API.lock`.

pub(crate) mod alloc;
pub(crate) mod api_lock;
pub(crate) mod atomics;
pub(crate) mod kernel_fence;
pub(crate) mod ordering;
pub(crate) mod panic_free;
pub(crate) mod reach;
pub(crate) mod unsafe_budget;
