//! Rule: the warm Msg1–Msg6 path must not allocate.
//!
//! `tests/zero_alloc.rs` proves — with a counting global allocator —
//! that 64 warm rounds allocate exactly zero times, but only on the
//! paths the test happens to execute. This rule is the static twin: in
//! the enrolled warm-path files, every function that is not marked
//! cold/setup (a `#[cold]` attribute or [`Config::alloc_cold_fns`]) is
//! checked for allocating API calls, and — one level deep through the
//! call graph — for calls into workspace functions that allocate
//! directly. Propagated findings carry a related-location note pointing
//! at the allocation inside the callee.
//!
//! Known limits (DESIGN.md §9): detection is name-based (a local type
//! with a method named `to_vec` would false-positive; none exists),
//! propagation follows only uniquely-named non-test symbols, and only
//! one level deep — a warm → A → B chain where only B allocates is not
//! flagged (the runtime test remains the backstop).

use crate::config::Config;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::items::FnItem;
use crate::lexer::TokenKind;
use crate::symbols::FnKey;
use crate::Workspace;

use super::diag_tok;
use crate::diag::Note;

const RULE: &str = "alloc_freedom";

/// Macro names that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Method names that allocate on any std receiver they apply to.
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_string", "to_owned", "collect"];

/// `Type::ctor` pairs that allocate (or exist only to front an
/// allocation, like `Vec::new` ahead of growth).
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet", "Rc", "Arc",
];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// One direct allocation site inside a function body.
struct AllocSite {
    /// Token index of the allocating name.
    tok: usize,
    /// Short description, e.g. "`format!`" or "`Vec::new`".
    what: String,
}

/// True if `item` is cold/setup: explicitly `#[cold]`, or named in the
/// configured cold list (constructors, Debug impls, …).
fn is_cold(item: &FnItem, cfg: &Config) -> bool {
    item.has_attr("cold") || cfg.alloc_cold_fns.contains(&item.name)
}

/// Scans one function's own tokens (minus nested fn bodies, which are
/// their own items) for direct allocation sites.
fn direct_allocs(ctx: &FileContext, item: &FnItem) -> Vec<AllocSite> {
    let mut out = Vec::new();
    let Some((start, end)) = item.body else {
        return out;
    };
    let toks = &ctx.tokens;
    let mut i = start;
    while i < end {
        // Nested fns are separate items with their own cold marking.
        if let Some(nested) = ctx
            .items
            .iter()
            .find(|f| f.fn_tok == i && f.fn_tok != item.fn_tok)
        {
            if let Some((_, nested_end)) = nested.body {
                if nested_end <= end {
                    i = nested_end + 1;
                    continue;
                }
            }
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
            let prev_dot = i > start && toks[i - 1].is_punct(".");
            let prev_path = i > start && toks[i - 1].is_punct("::");
            if ALLOC_MACROS.contains(&name) && next_bang {
                out.push(AllocSite {
                    tok: i,
                    what: format!("`{name}!`"),
                });
            } else if ALLOC_METHODS.contains(&name) && prev_dot {
                // The std allocating methods are all zero-arg:
                // `.to_vec()`, `.collect()`, `.collect::<Vec<_>>()`. A
                // call with arguments (`self.collect(spec, vid)`) is a
                // workspace method that happens to share the name.
                let zero_arg = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
                let turbofish = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
                if zero_arg || turbofish {
                    out.push(AllocSite {
                        tok: i,
                        what: format!("`.{name}()`"),
                    });
                }
            } else if ALLOC_CTORS.contains(&name) && prev_path && i >= 2 {
                let ty = &toks[i - 2];
                if ty.kind == TokenKind::Ident && ALLOC_TYPES.contains(&ty.text.as_str()) {
                    out.push(AllocSite {
                        tok: i,
                        what: format!("`{}::{}`", ty.text, name),
                    });
                }
            }
        }
        i += 1;
    }
    out
}

pub(crate) fn check(ws: &Workspace, file: usize, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let ctx = &ws.files[file];
    for (ii, item) in ctx.items.iter().enumerate() {
        if item.body.is_none()
            || ctx.in_test.get(item.fn_tok).copied().unwrap_or(false)
            || is_cold(item, cfg)
        {
            continue;
        }
        let key = FnKey { file, item: ii };

        for site in direct_allocs(ctx, item) {
            out.push(diag_tok(
                RULE,
                ctx,
                site.tok,
                format!(
                    "{} allocates in warm-path fn `{}`; thread a scratch buffer or \
                     mark the fn `#[cold]` if it is setup-only",
                    site.what, item.name
                ),
            ));
        }

        // One level of call-graph propagation: a warm fn calling a
        // workspace fn that allocates directly drags the allocation
        // onto the warm path even though this file looks clean.
        for call in ws.calls.calls_from(key) {
            let Some(callee_key) = ws.symbols.resolve_call(call) else {
                continue;
            };
            let callee_ctx = &ws.files[callee_key.file];
            let Some(callee) = ws.symbols.item(&ws.files, callee_key) else {
                continue;
            };
            // A `#[cold]` callee is a declared cold path (outlined
            // error construction, setup): the annotation is trusted, a
            // call to it is presumed guarded. A warm (non-cold) fn in an
            // enrolled file is already flagged at its definition;
            // re-flagging every caller would only repeat the finding.
            if is_cold(callee, cfg) || cfg.is_warm_path(&callee_ctx.path) {
                continue;
            }
            let allocs = direct_allocs(callee_ctx, callee);
            let Some(first) = allocs.first() else {
                continue;
            };
            let at = &callee_ctx.tokens[first.tok];
            let mut d = diag_tok(
                RULE,
                ctx,
                call.name_tok,
                format!(
                    "warm-path fn `{}` calls `{}`, which allocates ({}); inline a \
                     non-allocating variant or mark the caller `#[cold]`",
                    item.name, call.callee, first.what
                ),
            );
            d.notes.push(Note {
                file: callee_ctx.path.clone(),
                line: at.line,
                col: at.col,
                message: format!("{} allocates here, inside `{}`", first.what, callee.name),
            });
            out.push(d);
        }
    }
}
