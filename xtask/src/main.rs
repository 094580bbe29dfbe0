//! Repo automation tasks. Run via `cargo xtask <command>`.
//!
//! # `analyze` — lexer-backed static analysis gate
//!
//! Multi-pass analyzer over a real Rust token stream: hot-path
//! allocation lint, panic-freedom lint, atomic-ordering discipline,
//! public-API snapshot (`API.lock`, regenerated with `--bless`), plus
//! the three rules ported from the original substring-based linter
//! (sync-shim ban, unsafe budgets, kernel dispatch fence). See
//! `analyze/mod.rs` for the rule catalog and waiver grammar, and
//! DESIGN.md §14 for the discipline.
//!
//! # `lint` — alias for `analyze`
//!
//! Kept so existing muscle memory, docs, and CI invocations of
//! `cargo xtask lint` keep working; it runs the full analyzer.
//!
//! # `metrics` — observability export schema gate
//!
//! Validates `parcomm-metrics-v1` / `parcomm-trace-v1` documents written
//! by `parcomm detect --metrics/--trace` and `bench_gate --metrics-out`.
//! See `metrics.rs`; the JSON reader is in `json.rs`.

#![forbid(unsafe_code)]

mod analyze;
mod json;
mod metrics;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") | Some("lint") => analyze::run(&args[1..]),
        Some("metrics") => metrics::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <analyze|lint|metrics>");
            eprintln!("  analyze [--bless]   run all static-analysis passes");
            eprintln!("  lint                alias for analyze");
            ExitCode::FAILURE
        }
    }
}

/// Repo root: parent of this package when run under cargo, else the
/// current directory (bare-rustc / CI checkout usage).
pub(crate) fn repo_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(parent) = Path::new(&dir).parent() {
            return parent.to_path_buf();
        }
    }
    PathBuf::from(".")
}
