//! Rule `api`: the public surface matches the checked-in `API.lock`.
//!
//! Inventories every `pub` item of the library crates (plus the members
//! of public traits, whose signatures bind implementors) into a sorted,
//! tab-separated snapshot. A normal `cargo xtask analyze` run fails on
//! any drift — added *or* removed items — until the snapshot is
//! regenerated with `cargo xtask analyze --bless` and the `API.lock`
//! diff is reviewed alongside the code change. This turns accidental
//! API breaks (a renamed `pub fn`, a dropped re-export) into loud,
//! reviewable events, the same way the unsafe budget turns new unsafe
//! blocks into xtask edits.
//!
//! What is recorded per item:
//!
//! ```text
//! <crate>\t<module-path>\t<container>\t<kind>\t<name>
//! ```
//!
//! where `container` is `-` at module level, `impl <Header>` for
//! inherent/trait impls, or `trait <Name>` for trait members. Restricted
//! visibility (`pub(crate)`, `pub(super)`, `pub(in …)`) is not public
//! API and is skipped; `#[cfg(test)]` items likewise. Only item
//! *existence* is snapshotted, not full signatures — parameter changes
//! are the type checker's job; this gate catches surface changes.

use std::path::Path;

use crate::analyze::structure::IN_TEST;
use crate::analyze::{lexer::TokenKind, FileCtx, Violation};

/// First lines of the generated `API.lock`.
pub(crate) const HEADER: &str = "\
# parcomm API.lock v1 — public-item inventory of the library crates.
# Regenerate with `cargo xtask analyze --bless` and review the diff:
# every added or removed line is a public-API change.
# Format: crate<TAB>module<TAB>container<TAB>kind<TAB>name
";

/// Library sources contribute to the API snapshot; binaries, tests,
/// examples and xtask do not.
pub(crate) fn in_scope(rel: &str) -> bool {
    let lib = (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/");
    lib && !rel.contains("/bin/")
}

/// Item keywords that can follow `pub` (after modifiers).
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "use", "union", "macro",
];

/// Modifiers allowed between `pub` and the item keyword.
const MODIFIERS: &[&str] = &["unsafe", "const", "async", "extern"];

#[derive(Clone)]
enum Frame {
    Other,
    Mod(String),
    Trait(String, bool), // name, is_pub
    Impl(String),
}

/// Crate name and intra-crate module path derived from the file path.
pub(crate) fn crate_and_module(rel: &str) -> (String, String) {
    let (krate, tail) = if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, tail) = rest.split_once("/src/").unwrap_or((rest, ""));
        (format!("pcd-{dir}"), tail)
    } else {
        (
            "parcomm".to_string(),
            rel.strip_prefix("src/").unwrap_or(rel),
        )
    };
    let mut segments: Vec<&str> = tail.split('/').collect();
    if let Some(last) = segments.last_mut() {
        *last = last.strip_suffix(".rs").unwrap_or(last);
        if *last == "lib" || *last == "mod" || last.is_empty() {
            segments.pop();
        }
    }
    (krate, segments.join("::"))
}

/// One public item: its `API.lock` row and the line its name is on.
pub(crate) struct ApiItem {
    pub row: String,
    pub line: u32,
}

/// Collects this file's public items.
pub(crate) fn collect(ctx: &FileCtx, out: &mut Vec<ApiItem>) {
    let (krate, file_mod) = crate_and_module(ctx.rel);
    let mut frames: Vec<Frame> = Vec::new();
    // Pending frame kind for the next `{` (set by mod/trait/impl headers).
    let mut pending: Option<Frame> = None;

    let emit = |out: &mut Vec<ApiItem>, frames: &[Frame], kind: &str, name: &str, line: u32| {
        let mut modpath = file_mod.clone();
        let mut container = "-".to_string();
        for f in frames {
            match f {
                Frame::Mod(m) => {
                    if modpath.is_empty() {
                        modpath = m.clone();
                    } else {
                        modpath = format!("{modpath}::{m}");
                    }
                }
                Frame::Trait(t, _) => container = format!("trait {t}"),
                Frame::Impl(h) => container = format!("impl {h}"),
                Frame::Other => {}
            }
        }
        if modpath.is_empty() {
            modpath = "-".to_string();
        }
        out.push(ApiItem {
            row: format!("{krate}\t{modpath}\t{container}\t{kind}\t{name}"),
            line,
        });
    };

    let code = ctx.code;
    let mut p = 0usize; // position in `code`
    while p < code.len() {
        let i = code[p];
        let in_test = ctx.structure.flags_at(i) & IN_TEST != 0;
        let text = ctx.text(i);
        match text {
            "{" => {
                frames.push(pending.take().unwrap_or(Frame::Other));
                p += 1;
                continue;
            }
            "}" => {
                frames.pop();
                p += 1;
                continue;
            }
            ";" => {
                pending = None;
                p += 1;
                continue;
            }
            _ => {}
        }
        if in_test {
            p += 1;
            continue;
        }
        match text {
            "mod" => {
                if let Some(&n) = code.get(p + 1) {
                    if ctx.tokens[n].kind == TokenKind::Ident {
                        pending = Some(Frame::Mod(ctx.text(n).to_string()));
                    }
                }
            }
            "trait" => {
                // Reached only for non-pub traits (the `pub` arm below
                // consumes `pub trait`); members of private traits are
                // not API, but the frame must still be typed so nested
                // items don't look like trait members.
                if let Some(&n) = code.get(p + 1) {
                    if ctx.tokens[n].kind == TokenKind::Ident {
                        pending = Some(Frame::Trait(ctx.text(n).to_string(), false));
                    }
                }
            }
            "impl" => {
                let (header, next_p) = impl_header(ctx, p + 1);
                pending = Some(Frame::Impl(header));
                p = next_p;
                continue;
            }
            "fn" | "type" | "const" => {
                // Trait members: directly inside a pub trait's block.
                if let Some(Frame::Trait(tname, true)) = frames.last() {
                    let _ = tname;
                    if let Some(&n) = code.get(p + 1) {
                        if ctx.tokens[n].kind == TokenKind::Ident {
                            emit(out, &frames, text, ctx.text(n), ctx.line(n));
                        }
                    }
                }
            }
            "pub" => {
                if let Some((kind, name, next_p, is_trait)) = pub_item(ctx, p) {
                    let line = ctx.line(code[next_p - 1]);
                    emit(out, &frames, &kind, &name, line);
                    if is_trait {
                        pending = Some(Frame::Trait(name, true));
                    } else if kind == "mod" {
                        pending = Some(Frame::Mod(name));
                    }
                    p = next_p;
                    continue;
                }
            }
            _ => {}
        }
        p += 1;
    }
}

/// Parses the item following a `pub` at `code[p]`. Returns
/// `(kind, name, next_p, is_trait)` or `None` for restricted
/// visibility / unparseable shapes. `next_p` points at the token after
/// the item name (or after the `use` path) so the caller can continue.
fn pub_item(ctx: &FileCtx, p: usize) -> Option<(String, String, usize, bool)> {
    let code = ctx.code;
    let mut q = p + 1;
    // Restricted visibility: pub(crate) & friends are not public API.
    if ctx.text(*code.get(q)?) == "(" {
        return None;
    }
    // Skip modifiers (`pub unsafe extern "C" fn`, `pub const fn`, …).
    // `pub const NAME` is disambiguated by what follows: a kind keyword
    // means `const` was a modifier only if the *next* token is `fn`.
    while MODIFIERS.contains(&ctx.text(*code.get(q)?)) {
        if ctx.text(code[q]) == "const" && code.get(q + 1).is_some_and(|&n| ctx.text(n) != "fn") {
            break; // it's a `pub const NAME: …` item
        }
        q += 1;
        // An extern ABI string literal may follow `extern`.
        if ctx.tokens[*code.get(q)?].kind == TokenKind::Str {
            q += 1;
        }
    }
    let kind = ctx.text(*code.get(q)?).to_string();
    if !ITEM_KINDS.contains(&kind.as_str()) {
        return None;
    }
    if kind == "use" {
        // Record the whole re-export path up to `;`.
        let mut path = String::new();
        let mut r = q + 1;
        while let Some(&n) = code.get(r) {
            let t = ctx.text(n);
            if t == ";" {
                break;
            }
            if t == "as" {
                path.push_str(" as ");
            } else {
                path.push_str(t);
            }
            r += 1;
        }
        return Some(("use".to_string(), path, r, false));
    }
    let mut r = q + 1;
    if kind == "static" && ctx.text(*code.get(r)?) == "mut" {
        r += 1;
    }
    let name_tok = *code.get(r)?;
    if ctx.tokens[name_tok].kind != TokenKind::Ident {
        return None;
    }
    let name = ctx.text(name_tok).to_string();
    Some((kind.clone(), name, r + 1, kind == "trait"))
}

/// Normalizes an impl header starting at `code[p]` (just past `impl`):
/// generics and the `where` clause are dropped, path separators are
/// kept tight. Returns the header and the position of the body `{`.
fn impl_header(ctx: &FileCtx, p: usize) -> (String, usize) {
    let code = ctx.code;
    let mut parts: Vec<String> = Vec::new();
    let mut angle = 0usize;
    let mut q = p;
    while let Some(&i) = code.get(q) {
        let t = ctx.text(i);
        match t {
            "{" | "where" => break,
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            _ if angle == 0 => parts.push(t.to_string()),
            _ => {}
        }
        q += 1;
    }
    // `{` (or `where`) consumed by caller loop via returned position.
    let header = parts
        .join(" ")
        .replace(" :: ", "::")
        .replace(":: ", "::")
        .replace(" ::", "::")
        .replace("& ", "&");
    (header, q)
}

/// Compares collected entries against the checked-in lock file.
pub(crate) fn diff(lock_path: &Path, entries: &[String], out: &mut Vec<Violation>) {
    let lock_name = lock_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "API.lock".to_string());
    let Ok(lock) = std::fs::read_to_string(lock_path) else {
        out.push(Violation {
            file: lock_name,
            line: 0,
            rule: "api",
            msg: "missing — generate it with `cargo xtask analyze --bless`".to_string(),
        });
        return;
    };
    let locked: Vec<&str> = lock
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    for added in entries.iter().filter(|e| !locked.contains(&e.as_str())) {
        out.push(Violation {
            file: lock_name.clone(),
            line: 0,
            rule: "api",
            msg: format!(
                "new public item not in snapshot: `{}` — review the API change, then \
                 `cargo xtask analyze --bless`",
                added.replace('\t', " ")
            ),
        });
    }
    for removed in locked.iter().filter(|l| !entries.iter().any(|e| e == *l)) {
        out.push(Violation {
            file: lock_name.clone(),
            line: 0,
            rule: "api",
            msg: format!(
                "public item removed or renamed: `{}` — review the API break, then \
                 `cargo xtask analyze --bless`",
                removed.replace('\t', " ")
            ),
        });
    }
}
