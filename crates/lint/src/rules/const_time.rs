//! Rule: authentication tags, MACs, and digests must be compared with
//! `ct_eq`. That comparison is the one constant-time claim the design
//! makes (DESIGN.md §7.4): the arithmetic kernels are not constant-time,
//! by design, so their branches and table indexes are not checked.

use crate::config::Config;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};

use super::diag_tok;

const RULE: &str = "const_time";

pub(crate) fn check(ctx: &FileContext, cfg: &Config, out: &mut Vec<Diagnostic>) {
    // The constant-time primitives themselves live in the zeroize module
    // and necessarily operate on the sensitive values.
    if ctx.path.ends_with("/zeroize.rs") {
        return;
    }
    let toks = &ctx.tokens;

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if ctx.in_test[i] || cfg.ct_exempt_fns.contains(&ctx.enclosing_fn[i]) {
            continue;
        }
        if let Some(name) = ct_operand(toks, i, cfg) {
            out.push(diag_tok(
                RULE,
                ctx,
                i,
                format!(
                    "variable-time `{}` on `{}`: comparing tag/digest material \
                     leaks a timing oracle; use `ct_eq`",
                    t.text, name
                ),
            ));
        }
    }
}

/// Scans a bounded window on both sides of the comparison at `op` for an
/// identifier whose snake_case parts mark it as tag/digest material.
fn ct_operand(toks: &[Token], op: usize, cfg: &Config) -> Option<String> {
    const WINDOW: usize = 8;
    let stop = |t: &Token| {
        t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}" | "&&" | "||" | ",")
    };
    let mut candidates = Vec::new();
    for k in 1..=WINDOW {
        match op.checked_sub(k).map(|j| &toks[j]) {
            Some(t) if !stop(t) => candidates.push(t),
            _ => break,
        }
    }
    for t in toks.iter().skip(op + 1).take(WINDOW) {
        if stop(t) {
            break;
        }
        candidates.push(t);
    }
    candidates
        .into_iter()
        .find(|t| t.kind == TokenKind::Ident && has_ct_part(&t.text, cfg))
        .map(|t| t.text.clone())
}

/// True if `name`'s snake_case parts include a tag/digest trigger part.
pub(crate) fn has_ct_part(name: &str, cfg: &Config) -> bool {
    name.to_ascii_lowercase()
        .split('_')
        .any(|part| cfg.ct_ident_parts.iter().any(|p| p == part))
}
