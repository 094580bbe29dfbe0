//! Rule `reach`: every public `fn`, `const` and `static` is named by
//! some other file.
//!
//! Code earns its place on a measured path, as a paper ablation or as a
//! test oracle; a public item that no other file names has none of
//! these callers. For each `API.lock` row of kind `fn`, `const` or
//! `static` outside a `trait` (trait members bind implementors, so they
//! stay), the rule looks for an identifier token spelling the item's
//! name in any other file under [`SEARCHED`]. Comments and strings are
//! not identifier tokens, so they never count. Neither does the item's
//! own crate re-exporting it with `pub use`: a re-export is surface,
//! not a caller. When any `pub use … as alias` renames the item, the
//! alias is searched too.
//!
//! An unreached item is deleted, made private, or moved under
//! `#[cfg(test)]`; one that must stay public carries
//! `// analyze: allow(reach, reason = "…")` on or above its name's line.

use std::collections::{HashMap, HashSet};

use crate::analyze::lexer::TokenKind;
use crate::analyze::rules::api_lock::{crate_and_module, ApiItem};
use crate::analyze::{FileCtx, Violation};

/// Trees whose identifiers count as callers, relative to the repo root.
const SEARCHED: &[&str] = &[
    "crates/",
    "src/",
    "tests/",
    "examples/",
    "tools/",
    "benchmark/src/",
];

/// True if identifiers in `rel` count as callers.
pub(crate) fn searched(rel: &str) -> bool {
    SEARCHED.iter().any(|d| rel.starts_with(d))
}

/// The names one file spells.
#[derive(Default)]
pub(crate) struct Names {
    /// Crate of a library source file (`None` elsewhere).
    krate: Option<String>,
    /// Identifiers outside `pub use` items.
    plain: HashSet<String>,
    /// Identifiers inside `pub use` items: callers only for other crates.
    reexported: HashSet<String>,
    /// `(original, alias)` for every `original as alias` in a `pub use`.
    aliases: Vec<(String, String)>,
}

/// Gathers the identifiers `ctx`'s file spells.
pub(crate) fn names(ctx: &FileCtx) -> Names {
    let krate = (ctx.rel.starts_with("crates/") || ctx.rel.starts_with("src/"))
        .then(|| crate_and_module(ctx.rel).0);
    let mut out = Names {
        krate,
        ..Names::default()
    };
    let code = ctx.code;
    let mut p = 0;
    while p < code.len() {
        let is_pub_use =
            ctx.text(code[p]) == "pub" && code.get(p + 1).is_some_and(|&n| ctx.text(n) == "use");
        if !is_pub_use {
            if ctx.tokens[code[p]].kind == TokenKind::Ident {
                out.plain.insert(ident(ctx.text(code[p])).to_string());
            }
            p += 1;
            continue;
        }
        p += 2;
        while p < code.len() && ctx.text(code[p]) != ";" {
            let t = ctx.text(code[p]);
            if ctx.tokens[code[p]].kind == TokenKind::Ident && t != "as" {
                out.reexported.insert(ident(t).to_string());
            }
            if t == "as" && p > 0 && p + 1 < code.len() {
                out.aliases.push((
                    ident(ctx.text(code[p - 1])).to_string(),
                    ident(ctx.text(code[p + 1])).to_string(),
                ));
            }
            p += 1;
        }
    }
    out
}

/// `r#type` spells `type`.
fn ident(t: &str) -> &str {
    t.strip_prefix("r#").unwrap_or(t)
}

/// Reports every checked item in `items` (`(file index, item)`) whose
/// name, or an alias of it, no file other than its own spells. `rels`
/// and `names` are indexed by file.
pub(crate) fn check(
    rels: &[&str],
    names: &[Names],
    items: &[(usize, ApiItem)],
    out: &mut Vec<Violation>,
) {
    let mut aliases: HashMap<&str, Vec<&str>> = HashMap::new();
    for (original, alias) in names.iter().flat_map(|n| &n.aliases) {
        aliases.entry(original).or_default().push(alias);
    }
    for (file, item) in items {
        let [krate, _, container, kind, name] = item.row.splitn(5, '\t').collect::<Vec<_>>()[..]
        else {
            continue;
        };
        if !matches!(kind, "fn" | "const" | "static") || container.starts_with("trait ") {
            continue;
        }
        let mut spellings = vec![name];
        spellings.extend(aliases.get(name).into_iter().flatten());
        let reached = names.iter().enumerate().any(|(g, n)| {
            g != *file
                && spellings.iter().any(|s| {
                    n.plain.contains(*s)
                        || (n.reexported.contains(*s) && n.krate.as_deref() != Some(krate))
                })
        });
        if !reached {
            out.push(Violation {
                file: rels[*file].to_string(),
                line: item.line,
                rule: "reach",
                msg: format!(
                    "public {kind} `{name}` is named by no other file: delete it, make it \
                     private or test-only, or waive it with a reason"
                ),
            });
        }
    }
}
