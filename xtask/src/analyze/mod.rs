//! `cargo xtask analyze` — lexer-backed multi-pass static analyzer.
//!
//! Replaces the substring scanners of the original `xtask lint` with
//! rule passes that operate on a real token stream ([`lexer`]) plus a
//! structural context pass ([`structure`]), so strings, comments, raw
//! strings and macro bodies can no longer produce false positives or
//! mask real violations.
//!
//! # Rule catalog
//!
//! | id             | pass                            | waivable |
//! |----------------|---------------------------------|----------|
//! | `lex`          | file must lex cleanly           | no       |
//! | `atomics`      | no bare std atomics / orderings outside the sync shim (ported) | no |
//! | `unsafe-budget`| per-file `unsafe` keyword budget (ported) | via budget table |
//! | `kernel-fence` | the level loop and drivers call kernels only through the kind-enum dispatch (ported) | no |
//! | `alloc`        | no allocating constructs on hot paths | yes |
//! | `panic`        | no `unwrap`/`expect`/`panic!`-family in library code | yes |
//! | `ordering`     | atomic call sites name a shim ordering constant and carry an `// ORDERING:` rationale | yes |
//! | `api`          | `pub` surface matches the checked-in `API.lock` | via `--bless` |
//! | `reach`        | every public `fn`/`const`/`static` outside a trait is named by another file | yes |
//! | `waiver`       | waiver hygiene (reason present, budget respected, no dead waivers) | no |
//!
//! # Waiver grammar
//!
//! ```text
//! // analyze: allow(<rule>, reason = "<why this site is exempt>")
//! ```
//!
//! A waiver on its own line covers the **next** line; a trailing waiver
//! covers **its own** line. Waivers must name a waivable rule, carry a
//! non-empty reason, actually suppress something (dead waivers are
//! violations), and stay within the per-file budget in
//! [`WAIVER_BUDGETS`] — growing a budget is an xtask edit that shows up
//! in review, exactly like the unsafe budget.
//!
//! See DESIGN.md §14 for the full discipline.

pub(crate) mod lexer;
pub(crate) mod rules;
pub(crate) mod structure;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lexer::{Token, TokenKind};

/// Directories scanned for Rust sources, relative to the repo root.
/// `benchmark/src` is read only as callers for `reach`; no per-file rule
/// runs there.
pub(crate) const SCAN_DIRS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "xtask",
    "tools",
    "benchmark/src",
];

/// Fixture corpus: planted violations live here on purpose, so rule
/// passes skip it. The lexer self-test still covers it.
pub(crate) const FIXTURE_DIR: &str = "tests/analyze_fixtures";

/// Checked-in public-API snapshot, relative to the repo root.
pub(crate) const API_LOCK: &str = "API.lock";

/// Per-file waiver budgets: (repo-relative path, rule id, max waivers).
/// Files not listed may not waive that rule at all. Growing a budget is
/// a reviewed xtask edit, mirroring `UNSAFE_BUDGET`.
pub(crate) const WAIVER_BUDGETS: &[(&str, &str, usize)] = &[
    ("crates/contract/src/bucket.rs", "alloc", 1),
    ("crates/core/src/budget.rs", "panic", 1),
    ("crates/core/src/driver.rs", "panic", 1),
    ("crates/core/src/engine.rs", "panic", 4),
    ("crates/core/src/fault.rs", "panic", 1),
    ("crates/core/src/louvain.rs", "alloc", 2),
    ("crates/core/src/scorer.rs", "alloc", 1),
    ("crates/graph/src/builder.rs", "panic", 1),
    ("crates/graph/src/components.rs", "panic", 1),
    ("crates/matching/src/edge_sweep.rs", "alloc", 4),
    ("crates/matching/src/parallel.rs", "alloc", 3),
    ("crates/matching/src/seq.rs", "panic", 1),
    ("crates/trace/src/observer.rs", "panic", 3),
    ("crates/util/src/scan.rs", "panic", 1),
    ("crates/util/src/timing.rs", "panic", 3),
];

/// Rules that accept `// analyze: allow(...)` waivers.
const WAIVABLE: &[&str] = &["alloc", "panic", "ordering", "reach"];

/// One finding. Ordering is (file, line, rule) so reports are stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Everything a per-file rule pass needs, precomputed once per file.
pub(crate) struct FileCtx<'a> {
    /// Repo-relative path with forward slashes.
    pub rel: &'a str,
    pub src: &'a str,
    pub tokens: &'a [Token],
    /// Indices of non-trivia tokens, in order.
    pub code: &'a [usize],
    pub structure: &'a structure::Structure,
}

impl FileCtx<'_> {
    /// Text of token `i`.
    pub(crate) fn text(&self, i: usize) -> &str {
        self.tokens[i].text(self.src)
    }

    /// Index of the next non-trivia token strictly after token `i`.
    pub(crate) fn next_code(&self, i: usize) -> Option<usize> {
        let pos = self.code.partition_point(|&c| c <= i);
        self.code.get(pos).copied()
    }

    /// Index of the previous non-trivia token strictly before token `i`.
    pub(crate) fn prev_code(&self, i: usize) -> Option<usize> {
        let pos = self.code.partition_point(|&c| c < i);
        pos.checked_sub(1).map(|p| self.code[p])
    }

    /// True if code token `i` is the ident `text` and the following
    /// code tokens spell `::` — the start of a path segment match.
    pub(crate) fn is_path_seq(&self, i: usize, segments: &[&str]) -> bool {
        let mut at = i;
        for (n, seg) in segments.iter().enumerate() {
            if self.tokens[at].kind != TokenKind::Ident || self.text(at) != *seg {
                return false;
            }
            if n + 1 == segments.len() {
                return true;
            }
            // Expect `::` then the next segment.
            let Some(c1) = self.next_code(at) else {
                return false;
            };
            let Some(c2) = self.next_code(c1) else {
                return false;
            };
            let Some(c3) = self.next_code(c2) else {
                return false;
            };
            if self.text(c1) != ":" || self.text(c2) != ":" {
                return false;
            }
            at = c3;
        }
        false
    }

    /// 1-based line of token `i`.
    pub(crate) fn line(&self, i: usize) -> u32 {
        self.tokens[i].line
    }
}

/// A parsed `// analyze: allow(rule, reason = "...")` comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    has_reason: bool,
    used: bool,
}

/// True for files where waivable rules run and waiver comments are
/// honored. Excludes xtask itself: the analyzer's sources and docs
/// discuss the waiver grammar in prose and fixtures, and no waivable
/// rule applies there anyway.
fn waivers_apply(rel: &str) -> bool {
    rel.starts_with("crates/") || rel.starts_with("src/")
}

/// Extracts waivers from comment tokens.
fn parse_waivers(src: &str, tokens: &[Token]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let Some(at) = text.find("analyze: allow(") else {
            continue;
        };
        let rest = &text[at + "analyze: allow(".len()..];
        let rule: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        // A real reason is `reason = "<non-empty>"` after the rule.
        let has_reason = rest
            .find("reason")
            .map(|r| {
                let tail = &rest[r + "reason".len()..];
                let Some(q1) = tail.find('"') else {
                    return false;
                };
                let Some(q2) = tail[q1 + 1..].find('"') else {
                    return false;
                };
                q2 > 0
            })
            .unwrap_or(false);
        out.push(Waiver {
            rule,
            line: t.line,
            has_reason,
            used: false,
        });
    }
    out
}

/// One file lexed, with its structure pass and code-token index.
struct Lexed<'a> {
    rel: &'a str,
    src: &'a str,
    tokens: Vec<Token>,
    code: Vec<usize>,
    structure: structure::Structure,
}

impl<'a> Lexed<'a> {
    fn new(rel: &'a str, src: &'a str) -> Self {
        let tokens = lexer::lex(src);
        let structure = structure::analyze(src, &tokens);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        Lexed {
            rel,
            src,
            tokens,
            code,
            structure,
        }
    }

    fn ctx(&self) -> FileCtx<'_> {
        FileCtx {
            rel: self.rel,
            src: self.src,
            tokens: &self.tokens,
            code: &self.code,
            structure: &self.structure,
        }
    }
}

/// Runs every per-file rule on one file's content and applies waiver
/// logic. `rel` must be the repo-relative path with forward slashes.
#[cfg(test)]
fn analyze_file(rel: &str, src: &str) -> Vec<Violation> {
    check_file(&Lexed::new(rel, src).ctx(), Vec::new())
}

/// The per-file rules on `ctx`, plus `cross` (this file's findings from
/// the whole-tree `reach` pass), through this file's waivers.
fn check_file(ctx: &FileCtx, cross: Vec<Violation>) -> Vec<Violation> {
    let mut raw = cross;
    // Lexical health first: a file that doesn't lex can't be trusted by
    // the other passes, but we still run them (tokens exist).
    for t in ctx.tokens.iter().filter(|t| t.kind == TokenKind::Error) {
        raw.push(Violation {
            file: ctx.rel.to_string(),
            line: t.line,
            rule: "lex",
            msg: format!(
                "unterminated or malformed lexical construct starting here: {:?}",
                &ctx.src[t.start..t.end.min(t.start + 24)]
            ),
        });
    }
    rules::atomics::check(ctx, &mut raw);
    rules::unsafe_budget::check(ctx, &mut raw);
    rules::kernel_fence::check(ctx, &mut raw);
    rules::alloc::check(ctx, &mut raw);
    rules::panic_free::check(ctx, &mut raw);
    rules::ordering::check(ctx, &mut raw);

    apply_waivers(ctx.rel, ctx.src, ctx.tokens, raw)
}

/// Analyzes `files` (repo-relative path, source) as one tree: the
/// per-file rules on every file outside `benchmark/`, and `reach` over
/// the public items of the library files. Returns the violations and
/// the sorted `API.lock` rows.
pub(crate) fn analyze_files(files: &[(String, String)]) -> (Vec<Violation>, Vec<String>) {
    let lexed: Vec<Lexed> = files
        .iter()
        .map(|(rel, src)| Lexed::new(rel, src))
        .collect();
    let mut items = Vec::new();
    let mut names = Vec::with_capacity(lexed.len());
    for (f, l) in lexed.iter().enumerate() {
        let ctx = l.ctx();
        if rules::api_lock::in_scope(l.rel) {
            let mut found = Vec::new();
            rules::api_lock::collect(&ctx, &mut found);
            items.extend(found.into_iter().map(|item| (f, item)));
        }
        names.push(if rules::reach::searched(l.rel) {
            rules::reach::names(&ctx)
        } else {
            rules::reach::Names::default()
        });
    }
    let rels: Vec<&str> = lexed.iter().map(|l| l.rel).collect();
    let mut unreached = Vec::new();
    rules::reach::check(&rels, &names, &items, &mut unreached);

    let mut violations = Vec::new();
    for l in lexed.iter().filter(|l| !l.rel.starts_with("benchmark/")) {
        let cross = unreached
            .iter()
            .filter(|v| v.file == l.rel)
            .cloned()
            .collect();
        violations.extend(check_file(&l.ctx(), cross));
    }
    let mut rows: Vec<String> = items.into_iter().map(|(_, item)| item.row).collect();
    rows.sort();
    rows.dedup();
    (violations, rows)
}

/// Waiver application: a waiver suppresses same-rule violations on its
/// own line (trailing form) or the next line (standalone form), then
/// hygiene rules fire for malformed/dead/over-budget waivers.
fn apply_waivers(rel: &str, src: &str, tokens: &[Token], raw: Vec<Violation>) -> Vec<Violation> {
    let mut waivers = if waivers_apply(rel) {
        parse_waivers(src, tokens)
    } else {
        Vec::new()
    };
    let mut out = Vec::new();

    for v in raw {
        let waived = WAIVABLE.contains(&v.rule)
            && waivers.iter_mut().any(|w| {
                let covers = w.line == v.line || w.line + 1 == v.line;
                if w.rule == v.rule && covers && w.has_reason {
                    w.used = true;
                    true
                } else {
                    false
                }
            });
        if !waived {
            out.push(v);
        }
    }

    let mut used_per_rule: Vec<(&str, usize)> = Vec::new();
    for w in &waivers {
        if !WAIVABLE.contains(&w.rule.as_str()) {
            out.push(Violation {
                file: rel.to_string(),
                line: w.line,
                rule: "waiver",
                msg: format!(
                    "`{}` is not a waivable rule (waivable: {})",
                    w.rule,
                    WAIVABLE.join(", ")
                ),
            });
            continue;
        }
        if !w.has_reason {
            out.push(Violation {
                file: rel.to_string(),
                line: w.line,
                rule: "waiver",
                msg: "waiver needs a non-empty reason: \
                      // analyze: allow(rule, reason = \"...\")"
                    .to_string(),
            });
            continue;
        }
        if !w.used {
            out.push(Violation {
                file: rel.to_string(),
                line: w.line,
                rule: "waiver",
                msg: format!(
                    "dead waiver: no `{}` violation on this or the next line — remove it",
                    w.rule
                ),
            });
            continue;
        }
        match used_per_rule.iter_mut().find(|(r, _)| *r == w.rule) {
            Some((_, n)) => *n += 1,
            None => {
                // Leak is bounded by the rule-id set; this keeps the
                // key borrowless for the budget lookup below.
                used_per_rule.push((WAIVABLE.iter().find(|r| **r == w.rule).unwrap(), 1))
            }
        }
    }
    for (rule, n) in used_per_rule {
        let budget = WAIVER_BUDGETS
            .iter()
            .find(|(f, r, _)| *f == rel && *r == rule)
            .map_or(0, |(_, _, n)| *n);
        if n > budget {
            out.push(Violation {
                file: rel.to_string(),
                line: 0,
                rule: "waiver",
                msg: format!(
                    "{n} `{rule}` waiver(s) used, budget {budget} — grow \
                     WAIVER_BUDGETS in xtask/src/analyze/mod.rs to admit more"
                ),
            });
        }
    }
    out.sort();
    out
}

/// Collects every `.rs` file under `root`'s scan dirs. `include_fixtures`
/// controls whether the planted-violation corpus is returned too.
pub(crate) fn collect_files(root: &Path, include_fixtures: bool) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs(&root.join(dir), &mut files);
    }
    let fixture_prefix = root.join(FIXTURE_DIR);
    if !include_fixtures {
        files.retain(|f| !f.starts_with(&fixture_prefix));
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Skip build output inside scanned trees (tools/loom/target).
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Analyzes the whole tree. With `bless`, rewrites `API.lock` instead
/// of diffing against it.
pub(crate) fn analyze_tree(root: &Path, bless: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut files = Vec::new();
    for file in collect_files(root, false) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&file) {
            Ok(src) => files.push((rel, src)),
            Err(_) => violations.push(Violation {
                file: rel,
                line: 0,
                rule: "lex",
                msg: "unreadable file".to_string(),
            }),
        }
    }
    let (found, api_entries) = analyze_files(&files);
    violations.extend(found);

    let lock_path = root.join(API_LOCK);
    if bless {
        let mut doc = String::from(rules::api_lock::HEADER);
        for e in &api_entries {
            doc.push_str(e);
            doc.push('\n');
        }
        if let Err(e) = std::fs::write(&lock_path, doc) {
            violations.push(Violation {
                file: API_LOCK.to_string(),
                line: 0,
                rule: "api",
                msg: format!("cannot write: {e}"),
            });
        }
    } else {
        rules::api_lock::diff(&lock_path, &api_entries, &mut violations);
    }

    violations.sort();
    violations
}

/// CLI entry point for `cargo xtask analyze` (and the `lint` alias).
pub(crate) fn run(args: &[String]) -> ExitCode {
    let mut bless = false;
    for a in args {
        match a.as_str() {
            "--bless" => bless = true,
            other => {
                eprintln!("xtask analyze: unknown argument `{other}` (supported: --bless)");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = crate::repo_root();
    let violations = analyze_tree(&root, bless);
    if violations.is_empty() {
        if bless {
            println!("xtask analyze: clean ({API_LOCK} regenerated)");
        } else {
            println!("xtask analyze: clean");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: {} violation(s)", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A library-crate path where every waivable rule is in scope.
    const LIB: &str = "crates/fixture/src/lib.rs";

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    // ---- lex rule -------------------------------------------------

    #[test]
    fn unterminated_string_is_a_lex_violation() {
        let v = analyze_file(LIB, "fn f() { let s = \"unterminated; }");
        assert!(rules_of(&v).contains(&"lex"), "{v:?}");
    }

    // ---- atomics rule (ported) ------------------------------------

    #[test]
    fn bare_std_atomics_banned_outside_shim() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        let v = analyze_file(LIB, src);
        assert!(rules_of(&v).contains(&"atomics"), "{v:?}");
        // The shim itself is the one legitimate importer.
        let v = analyze_file(rules::atomics::SHIM, src);
        assert!(!rules_of(&v).contains(&"atomics"), "{v:?}");
    }

    #[test]
    fn raw_ordering_variant_banned() {
        let v = analyze_file(LIB, "fn f() { let o = Ordering::SeqCst; }\n");
        assert!(rules_of(&v).contains(&"atomics"), "{v:?}");
    }

    #[test]
    fn atomics_in_strings_and_comments_ignored() {
        let src = "fn f() -> &'static str {\n\
                   // std::sync::atomic::AtomicUsize in a comment\n\
                   \"std::sync::atomic and Ordering::SeqCst\"\n}\n";
        assert!(analyze_file(LIB, src).is_empty());
    }

    // ---- unsafe budget rule (ported) ------------------------------

    #[test]
    fn unsafe_over_budget_flagged_but_strings_do_not_count() {
        let v = analyze_file(LIB, "fn f() { unsafe { } }\n");
        assert!(rules_of(&v).contains(&"unsafe-budget"), "{v:?}");
        let v = analyze_file(LIB, "fn f() { let s = \"unsafe unsafe\"; }\n");
        assert!(!rules_of(&v).contains(&"unsafe-budget"), "{v:?}");
    }

    // ---- kernel fence rule (ported) -------------------------------

    #[test]
    fn driver_may_not_call_concrete_kernels() {
        let src = "fn run() { pcd_matching::parallel::match_unmatched_list(); }\n";
        // The level loop and the one-shot drivers are all fenced.
        for driver in [
            "crates/core/src/driver.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/multilevel.rs",
        ] {
            let v = analyze_file(driver, src);
            assert!(rules_of(&v).contains(&"kernel-fence"), "{driver}: {v:?}");
        }
        // The same call elsewhere is fine: the dispatch file and kernels
        // may call each other.
        for free in ["crates/core/src/kernel.rs", LIB] {
            let v = analyze_file(free, src);
            assert!(!rules_of(&v).contains(&"kernel-fence"), "{free}: {v:?}");
        }
        // The scorer dispatch and the kind-enum dispatch are allowed.
        let src = "fn run() { score_all_into(k, g, c, o); \
                   crate::kernel::match_level(k, g, s, 1, m); }\n";
        let v = analyze_file("crates/core/src/engine.rs", src);
        assert!(!rules_of(&v).contains(&"kernel-fence"), "{v:?}");
    }

    // ---- alloc rule -----------------------------------------------

    #[test]
    fn alloc_banned_in_hot_file_and_waivable() {
        let hot = rules::alloc::HOT_FILES[0];
        let v = analyze_file(hot, "fn f() { let v: Vec<u32> = Vec::new(); }\n");
        assert!(rules_of(&v).contains(&"alloc"), "{v:?}");
        // Waived with a reason: the violation goes away (budget permits).
        let src = "fn f() {\n\
                   // analyze: allow(alloc, reason = \"test waiver\")\n\
                   let v: Vec<u32> = Vec::new();\n}\n";
        let v = analyze_file(hot, src);
        assert!(!rules_of(&v).contains(&"alloc"), "{v:?}");
    }

    #[test]
    fn alloc_ignored_in_test_code_and_cold_files() {
        let hot = rules::alloc::HOT_FILES[0];
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let v = vec![1]; }\n}\n";
        assert!(analyze_file(hot, src).is_empty());
        let v = analyze_file(LIB, "fn f() { let v: Vec<u32> = Vec::new(); }\n");
        assert!(!rules_of(&v).contains(&"alloc"), "{v:?}");
    }

    #[test]
    fn alloc_scopes_to_phase_fns_in_engine() {
        let (file, fun) = rules::alloc::HOT_FNS[0];
        let src = format!("fn {fun}() {{ let v = vec![1]; }}\nfn cold() {{ let v = vec![1]; }}\n");
        let v = analyze_file(file, &src);
        let allocs: Vec<_> = v.iter().filter(|x| x.rule == "alloc").collect();
        assert_eq!(allocs.len(), 1, "{v:?}");
        assert_eq!(allocs[0].line, 1);
    }

    // ---- panic rule -----------------------------------------------

    #[test]
    fn unwrap_and_panic_macros_banned_in_library_code() {
        let v = analyze_file(LIB, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
        assert!(rules_of(&v).contains(&"panic"), "{v:?}");
        let v = analyze_file(LIB, "fn f() { todo!() }\n");
        assert!(rules_of(&v).contains(&"panic"), "{v:?}");
        // Binaries may exit loudly.
        let v = analyze_file("crates/core/src/bin/tool.rs", "fn f() { todo!() }\n");
        assert!(!rules_of(&v).contains(&"panic"), "{v:?}");
    }

    #[test]
    fn panic_allowed_in_tests_and_debug_guards() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { None::<u32>.unwrap(); }\n}\n";
        assert!(analyze_file(LIB, src).is_empty());
        let src = "fn f(x: usize) { debug_assert!(x.checked_mul(2).unwrap() > 0); }\n";
        assert!(analyze_file(LIB, src).is_empty());
    }

    #[test]
    fn unwrap_in_raw_string_ignored() {
        let src = "fn f() -> &'static str { r#\"x.unwrap(); panic!()\"# }\n";
        assert!(analyze_file(LIB, src).is_empty());
    }

    // ---- ordering rule --------------------------------------------

    #[test]
    fn atomic_needs_constant_and_rationale() {
        // Named constant but no rationale: one violation.
        let v = analyze_file(LIB, "fn f(c: &AtomicU64) { c.fetch_add(1, RELAXED); }\n");
        assert_eq!(rules_of(&v), vec!["ordering"], "{v:?}");
        // Neither constant nor rationale: two violations.
        let v = analyze_file(LIB, "fn f(c: &AtomicU64, o: O) { c.fetch_add(1, o); }\n");
        assert_eq!(rules_of(&v), vec!["ordering", "ordering"], "{v:?}");
        // Rationale in the paragraph satisfies the rule.
        let src = "fn f(c: &AtomicU64) {\n\
                   // ORDERING: RELAXED — test counter, atomicity only.\n\
                   c.fetch_add(1, RELAXED);\n}\n";
        assert!(analyze_file(LIB, src).is_empty());
    }

    #[test]
    fn non_atomic_swap_and_load_not_flagged() {
        let src = "fn f(v: &mut [u32], m: &M) { v.swap(0, 1); let _x = m.load(); }\n";
        assert!(analyze_file(LIB, src).is_empty());
    }

    #[test]
    fn ordering_rationale_does_not_cross_blank_lines() {
        let src = "fn f(c: &AtomicU64) {\n\
                   // ORDERING: stale — separated by a blank line.\n\
                   \n\
                   c.fetch_add(1, RELAXED);\n}\n";
        let v = analyze_file(LIB, src);
        assert_eq!(rules_of(&v), vec!["ordering"], "{v:?}");
    }

    // ---- waiver hygiene -------------------------------------------

    #[test]
    fn waiver_without_reason_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // analyze: allow(panic)\n\
                   x.unwrap()\n}\n";
        let v = analyze_file(LIB, src);
        assert!(rules_of(&v).contains(&"waiver"), "{v:?}");
        assert!(
            rules_of(&v).contains(&"panic"),
            "reasonless waiver must not suppress: {v:?}"
        );
    }

    #[test]
    fn dead_waiver_is_flagged() {
        let src = "// analyze: allow(panic, reason = \"nothing here\")\nfn f() {}\n";
        let v = analyze_file(LIB, src);
        assert_eq!(rules_of(&v), vec!["waiver"], "{v:?}");
        assert!(v[0].msg.contains("dead waiver"), "{v:?}");
    }

    #[test]
    fn non_waivable_rule_is_flagged() {
        let src = "// analyze: allow(atomics, reason = \"nope\")\nfn f() {}\n";
        let v = analyze_file(LIB, src);
        assert_eq!(rules_of(&v), vec!["waiver"], "{v:?}");
        assert!(v[0].msg.contains("not a waivable rule"), "{v:?}");
    }

    #[test]
    fn waivers_over_budget_are_flagged() {
        // LIB has no budget row, so a single used waiver exceeds 0.
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // analyze: allow(panic, reason = \"over budget\")\n\
                   x.unwrap()\n}\n";
        let v = analyze_file(LIB, src);
        assert_eq!(rules_of(&v), vec!["waiver"], "{v:?}");
        assert!(v[0].msg.contains("budget 0"), "{v:?}");
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let (file, rule, _) = WAIVER_BUDGETS
            .iter()
            .find(|(_, r, n)| *r == "panic" && *n >= 1)
            .expect("some panic budget exists");
        let _ = rule;
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // analyze: allow(panic, reason = \"trailing form\")\n\
                   }\n";
        let v = analyze_file(file, src);
        assert!(!rules_of(&v).contains(&"panic"), "{v:?}");
        assert!(!rules_of(&v).contains(&"waiver"), "{v:?}");
    }

    // ---- api lock -------------------------------------------------

    #[test]
    fn api_collect_inventories_pub_surface() {
        let src = "pub struct S;\n\
                   pub(crate) struct Hidden;\n\
                   pub trait T { fn m(&self); }\n\
                   impl S { pub fn inherent(&self) {} }\n\
                   pub mod inner { pub const K: u32 = 1; }\n\
                   pub use crate::S as Re;\n";
        let mut items = Vec::new();
        let lexed = Lexed::new("crates/demo/src/lib.rs", src);
        rules::api_lock::collect(&lexed.ctx(), &mut items);
        let entries: Vec<String> = items.into_iter().map(|i| i.row).collect();
        assert!(
            entries.contains(&"pcd-demo\t-\t-\tstruct\tS".to_string()),
            "{entries:?}"
        );
        assert!(
            entries.contains(&"pcd-demo\t-\ttrait T\tfn\tm".to_string()),
            "{entries:?}"
        );
        assert!(
            entries.contains(&"pcd-demo\t-\timpl S\tfn\tinherent".to_string()),
            "{entries:?}"
        );
        assert!(
            entries.contains(&"pcd-demo\tinner\t-\tconst\tK".to_string()),
            "{entries:?}"
        );
        assert!(
            entries.iter().all(|e| !e.contains("Hidden")),
            "pub(crate) is not API: {entries:?}"
        );
    }

    #[test]
    fn api_diff_reports_drift_both_ways() {
        let dir = std::env::temp_dir().join(format!("apilock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join("API.lock");
        std::fs::write(&lock, "# header\na\tb\t-\tfn\told\n").unwrap();
        let entries = vec!["a\tb\t-\tfn\tnew".to_string()];
        let mut v = Vec::new();
        rules::api_lock::diff(&lock, &entries, &mut v);
        let msgs: Vec<&str> = v.iter().map(|x| x.msg.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("new public item")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("removed or renamed")),
            "{msgs:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- reach ----------------------------------------------------

    /// Violations of `files` (path, source) analyzed as one tree.
    fn tree(files: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        analyze_files(&owned).0
    }

    #[test]
    fn unreached_pub_fn_is_reported() {
        let v = tree(&[
            (LIB, "pub fn lonely() {}\nfn own() { lonely() }\n"),
            (
                "tests/t.rs",
                "// lonely\nfn t() -> &'static str { \"lonely\" }\n",
            ),
        ]);
        assert_eq!(rules_of(&v), vec!["reach"], "{v:?}");
        assert_eq!((v[0].file.as_str(), v[0].line), (LIB, 1), "{v:?}");
        // One identifier in another file reaches it.
        let v = tree(&[
            (LIB, "pub fn lonely() {}\n"),
            ("tests/t.rs", "fn t() { lonely() }\n"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reach_waiver_silences_and_spends_the_budget() {
        let src = "// analyze: allow(reach, reason = \"kept for downstream callers\")\n\
                   pub fn lonely() {}\n";
        let v = tree(&[(LIB, src)]);
        // Like every waiver it counts against the file's budget (LIB has none).
        assert_eq!(rules_of(&v), vec!["waiver"], "{v:?}");
        assert!(v[0].msg.contains("budget 0"), "{v:?}");
    }

    #[test]
    fn dead_reach_waiver_is_reported() {
        let src = "// analyze: allow(reach, reason = \"stale\")\npub fn used() {}\n";
        let v = tree(&[(LIB, src), ("examples/e.rs", "fn main() { used() }\n")]);
        assert_eq!(rules_of(&v), vec!["waiver"], "{v:?}");
        assert!(v[0].msg.contains("dead waiver"), "{v:?}");
    }

    #[test]
    fn own_crate_reexport_does_not_reach() {
        let inner = "crates/fixture/src/inner.rs";
        let v = tree(&[
            (inner, "pub fn hidden() {}\n"),
            (LIB, "pub mod inner;\npub use inner::hidden;\n"),
        ]);
        assert_eq!(rules_of(&v), vec!["reach"], "{v:?}");
        assert_eq!(v[0].file, inner, "{v:?}");
    }

    #[test]
    fn alias_of_a_reexport_reaches_the_original() {
        let v = tree(&[
            ("crates/fixture/src/inner.rs", "pub fn original() {}\n"),
            (LIB, "pub mod inner;\npub use inner::original as renamed;\n"),
            ("tests/t.rs", "fn t() { fixture::renamed() }\n"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- fixture corpus -------------------------------------------

    #[test]
    fn fixtures_tricky_clean_is_quiet() {
        let path = crate::repo_root().join(FIXTURE_DIR).join("tricky_clean.rs");
        let src = std::fs::read_to_string(&path).expect("fixture exists");
        assert!(analyze_file(LIB, &src).is_empty());
    }

    #[test]
    fn fixtures_planted_violations_are_seen() {
        let path = crate::repo_root()
            .join(FIXTURE_DIR)
            .join("planted_violations.rs");
        let src = std::fs::read_to_string(&path).expect("fixture exists");
        let v = analyze_file(LIB, &src);
        assert_eq!(rules_of(&v), vec!["panic", "ordering"], "{v:?}");
    }

    // ---- whole-tree gates -----------------------------------------

    #[test]
    fn every_source_file_lexes_cleanly_and_round_trips() {
        let root = crate::repo_root();
        let files = collect_files(&root, true);
        assert!(files.len() > 50, "scan found only {} files", files.len());
        for file in files {
            let src = std::fs::read_to_string(&file).expect("readable source");
            let tokens = lexer::lex(&src);
            let rebuilt: String = tokens.iter().map(|t| t.text(&src)).collect();
            assert_eq!(rebuilt, src, "lossy lex of {}", file.display());
            assert!(
                tokens.iter().all(|t| t.kind != TokenKind::Error),
                "lex error in {}",
                file.display()
            );
        }
    }

    #[test]
    fn real_tree_is_clean() {
        let v = analyze_tree(&crate::repo_root(), false);
        assert!(v.is_empty(), "tree not clean:\n{v:#?}");
    }
}
