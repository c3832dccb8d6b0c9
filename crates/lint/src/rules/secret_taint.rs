//! Rule: a secret leak split across two functions is still a leak.
//!
//! `secret_hygiene` flags `println!("{mac_key:?}")` inside one
//! function. This rule follows the secret one call deep: an argument
//! named on the secret list, passed to a workspace function whose
//! matching *parameter* reaches a sink inside the callee body —
//!
//! * a format-like macro (the same set `secret_hygiene` polices),
//! * a serialization/stringification call ([`Config::taint_sink_fns`]),
//! * or, for arguments whose name carries a tag/MAC/digest part, a
//!   variable-time `==`/`!=` comparison (the same trigger-part list the
//!   `const_time` rule uses — plain secrets like exponents are excluded
//!   here because the arithmetic kernels legitimately consume them).
//!
//! Resolution is name-based and only unique non-test symbols are
//! followed (DESIGN.md §9), so every finding names a concrete sink,
//! attached as a related-location note. Callees on the `ct_exempt_fns`
//! list (the constant-time primitives themselves) and zeroize helpers
//! are never sinks.

use crate::config::Config;
use crate::context::match_delim;
use crate::diag::{Diagnostic, Note};
use crate::lexer::{Token, TokenKind};
use crate::Workspace;

use super::const_time::has_ct_part;
use super::{diag_tok, str_interpolates, FORMAT_MACROS};

const RULE: &str = "secret_taint";

/// What a callee does with the tainted parameter.
struct Sink {
    /// Token index of the sink inside the callee's file.
    tok: usize,
    /// Description for the note, e.g. "interpolates it into `format!`".
    what: String,
    /// True when this sink only fires for tag/digest-named secrets.
    comparison: bool,
}

pub(crate) fn check(ws: &Workspace, file: usize, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let ctx = &ws.files[file];
    for call in ws.calls.sites.iter().filter(|s| s.caller.file == file) {
        if ctx.in_test.get(call.name_tok).copied().unwrap_or(false) {
            continue;
        }
        // The constant-time primitives take secrets by design.
        if cfg.ct_exempt_fns.contains(&call.callee) || call.callee.contains("zeroize") {
            continue;
        }
        let Some(callee_key) = ws.symbols.resolve_call(call) else {
            continue;
        };
        let callee_ctx = &ws.files[callee_key.file];
        let Some(callee) = ws.symbols.item(&ws.files, callee_key) else {
            continue;
        };
        if callee.body.is_none() || cfg.ct_exempt_fns.contains(&callee.name) {
            continue;
        }
        for (pos, &(arg_start, arg_end)) in call.args.iter().enumerate() {
            let Some((secret_tok, secret_name)) =
                secret_in_arg(&ctx.tokens[arg_start..arg_end], cfg)
                    .map(|(o, n)| (arg_start + o, n))
            else {
                continue;
            };
            // Map the argument position onto the callee parameter. A
            // method call's args bind past the receiver; a UFCS call
            // (`Type::method(obj, …)`) binds positionally including
            // `self`.
            let param_pos = if call.method && callee.params.first().is_some_and(|p| p == "self") {
                pos + 1
            } else {
                pos
            };
            let Some(param) = callee.params.get(param_pos) else {
                continue;
            };
            if param == "self" || param.is_empty() {
                continue;
            }
            let ct_named = has_ct_part(&secret_name, cfg);
            let Some(sink) = find_sink(callee_ctx, callee.body.unwrap_or((0, 0)), param, cfg)
            else {
                continue;
            };
            if sink.comparison && !ct_named {
                continue;
            }
            let at = &callee_ctx.tokens[sink.tok];
            let mut d = diag_tok(
                RULE,
                ctx,
                secret_tok,
                format!(
                    "secret `{secret_name}` flows into `{}`, whose parameter \
                     `{param}` {}; the leak spans two functions",
                    call.callee, sink.what
                ),
            );
            d.notes.push(Note {
                file: callee_ctx.path.clone(),
                line: at.line,
                col: at.col,
                message: format!("`{param}` {} here", sink.what),
            });
            out.push(d);
        }
    }
}

/// Finds the first secret-listed identifier in an argument's tokens.
fn secret_in_arg(toks: &[Token], cfg: &Config) -> Option<(usize, String)> {
    toks.iter().enumerate().find_map(|(i, t)| {
        if t.kind == TokenKind::Ident
            && (cfg.secret_idents.contains(&t.text) || cfg.secret_types.contains(&t.text))
        {
            Some((i, t.text.clone()))
        } else {
            None
        }
    })
}

/// Scans the callee body for the first sink the parameter reaches.
fn find_sink(
    ctx: &crate::context::FileContext,
    (start, end): (usize, usize),
    param: &str,
    cfg: &Config,
) -> Option<Sink> {
    let toks = &ctx.tokens;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if ctx.in_test.get(i).copied().unwrap_or(false) || t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        // Format-like macro whose arguments mention the parameter.
        if FORMAT_MACROS.contains(&name)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks
                .get(i + 2)
                .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
        {
            let close = match_delim(toks, i + 2);
            let start = super::format_scan_start(toks, i, i + 2, close);
            for arg in &toks[start..close] {
                let hit = match arg.kind {
                    TokenKind::Ident => arg.text == param,
                    TokenKind::Str => str_interpolates(&arg.text, param),
                    _ => false,
                };
                if hit {
                    return Some(Sink {
                        tok: i,
                        what: format!("is interpolated into `{name}!`"),
                        comparison: false,
                    });
                }
            }
            i = close + 1;
            continue;
        }
        // Serialization/stringification sink: `param.to_string()`,
        // `serialize(param)`, …
        if cfg.taint_sink_fns.iter().any(|s| s == name) {
            let receiver_is_param =
                i >= 2 && toks[i - 1].is_punct(".") && toks[i - 2].is_ident(param);
            let arg_is_param = toks.get(i + 1).is_some_and(|n| n.is_punct("(")) && {
                let close = match_delim(toks, i + 1);
                toks[i + 2..close].iter().any(|a| a.is_ident(param))
            };
            if receiver_is_param || arg_is_param {
                return Some(Sink {
                    tok: i,
                    what: format!("is serialized via `{name}`"),
                    comparison: false,
                });
            }
        }
        // Variable-time comparison: the parameter within a short window
        // of `==`/`!=` (mirrors the const_time operand scan).
        if t.is_ident(param) {
            const WINDOW: usize = 4;
            let stop = |t: &Token| {
                t.kind == TokenKind::Punct
                    && matches!(t.text.as_str(), ";" | "{" | "}" | "&&" | "||" | ",")
            };
            let near_cmp = (1..=WINDOW).any(|k| {
                let fwd = toks
                    .get(i + k)
                    .filter(|t| !stop(t))
                    .is_some_and(|t| t.text == "==" || t.text == "!=");
                let back = i
                    .checked_sub(k)
                    .map(|j| &toks[j])
                    .filter(|t| !stop(t))
                    .is_some_and(|t| t.text == "==" || t.text == "!=");
                fwd || back
            });
            if near_cmp {
                return Some(Sink {
                    tok: i,
                    what: "is compared with variable-time `==`/`!=` (use `ct_eq`)".to_string(),
                    comparison: true,
                });
            }
        }
        i += 1;
    }
    None
}
