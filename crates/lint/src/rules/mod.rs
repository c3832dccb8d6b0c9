//! The six workspace rules, evaluated over a [`Workspace`].
//!
//! Each rule is a pure function from (workspace, file, config) to
//! diagnostics; suppression comments are applied centrally in
//! [`run_all`]. The original three rules (`secret_hygiene`,
//! `const_time`, `panic_freedom`) are per-file token-stream passes; the
//! lint-v2 rules (`determinism`, `alloc_freedom`, `secret_taint`) also
//! consult the symbol table and call graph.

pub mod alloc_freedom;
pub mod const_time;
pub mod determinism;
pub mod panic_freedom;
pub mod secret_hygiene;
pub mod secret_taint;

use crate::config::Config;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::Workspace;

/// Normalized names of every rule, in evaluation order.
pub const RULE_NAMES: [&str; 6] = [
    "secret_hygiene",
    "const_time",
    "panic_freedom",
    "determinism",
    "alloc_freedom",
    "secret_taint",
];

/// Macros whose arguments end up in human-readable output (or a panic
/// payload) and therefore must not interpolate key material.
pub(crate) const FORMAT_MACROS: [&str; 19] = [
    "format",
    "println",
    "print",
    "eprintln",
    "eprint",
    "write",
    "writeln",
    "panic",
    "debug",
    "info",
    "warn",
    "error",
    "trace",
    "log",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
];

/// Keywords that cannot end an expression: a `[` following one of these
/// opens a slice pattern or array type, not an index operation.
pub(crate) const NON_EXPR_KEYWORDS: [&str; 26] = [
    "return", "break", "else", "in", "match", "loop", "while", "if", "impl", "mut", "ref", "as",
    "move", "let", "const", "static", "type", "where", "for", "unsafe", "dyn", "fn", "use", "pub",
    "enum", "struct",
];

/// Runs every rule on one file of the workspace, filtering findings
/// that carry an inline `monatt::<rule>` suppression comment.
pub fn run_all(ws: &Workspace, file: usize, cfg: &Config) -> Vec<Diagnostic> {
    let ctx = &ws.files[file];
    let mut out = Vec::new();
    secret_hygiene::check(ctx, cfg, &mut out);
    const_time::check(ctx, cfg, &mut out);
    if cfg.panic_scope(&ctx.crate_name) || cfg.panic_scope_file(&ctx.path) {
        panic_freedom::check(ctx, cfg, &mut out);
    }
    if cfg.det_scope(&ctx.crate_name) {
        determinism::check(ctx, &mut out);
    }
    if cfg.is_warm_path(&ctx.path) {
        alloc_freedom::check(ws, file, cfg, &mut out);
    }
    secret_taint::check(ws, file, cfg, &mut out);
    out.retain(|d| !ctx.is_suppressed(d.rule, d.line));
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out.dedup();
    out
}

/// Long-form documentation for `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    let rule = crate::context::normalize_rule(rule);
    Some(match rule.as_str() {
        "secret_hygiene" => {
            "secret_hygiene — key material must not reach human-readable output.\n\
             \n\
             Secret-bearing types (SealKey, SigningKey, Drbg, …) must not\n\
             #[derive(Debug)], must carry a redacting manual Debug impl, and the\n\
             raw-key subset must zeroize in Drop. Identifiers on the secret list\n\
             (mac_key, shared_secret, …) must not be interpolated into format-like\n\
             macros (println!, format!, panic!, log macros, assert messages).\n\
             \n\
             Fix: write `impl fmt::Debug` that prints a redacted placeholder, add\n\
             a zeroizing Drop, and log lengths or redacted prefixes, never keys.\n\
             Suppress (justified): `// #[allow(monatt::secret_hygiene)]`."
        }
        "const_time" => {
            "const_time — comparisons and control flow over secrets must be\n\
             constant-time.\n\
             \n\
             `==`/`!=` on tag/MAC/digest/PCR material is a timing oracle: early-exit\n\
             comparison reveals the first differing byte. In the crypto hot-path\n\
             file set, `if` conditions and table indexes must not depend on\n\
             secret-derived identifiers (exp, scalar, secret, …).\n\
             \n\
             Fix: compare with `monatt_crypto::zeroize::ct_eq`; restructure kernels\n\
             to fixed-shape loops (e.g. Montgomery ladders, windowed tables with\n\
             constant scan order).\n\
             Suppress (justified): `// #[allow(monatt::const_time)]`."
        }
        "panic_freedom" => {
            "panic_freedom — protocol code must degrade into typed errors, not\n\
             aborts.\n\
             \n\
             In `core`, `net`, `crypto`, `tpm` (and enrolled files such as the\n\
             hypervisor timer wheel), `.unwrap()`, `.expect()`, the panic! macro\n\
             family, and unguarded slice indexing are banned outside tests: a\n\
             Dolev-Yao attacker controls wire bytes, so any reachable panic is a\n\
             remote crash. Kernel crates (`crypto`) keep loop-counter indexing;\n\
             strict crates must use `get`/`split_at` with an error path.\n\
             \n\
             Fix: return `Result` with a typed error; guard with `checked_*`.\n\
             Suppress (justified): `// #[allow(monatt::panic_freedom)]`."
        }
        "determinism" => {
            "determinism — sim-deterministic crates must replay bit-identically\n\
             under a fixed seed.\n\
             \n\
             The golden-trace fixture pins event order, RNG draw order, and wall\n\
             clock of the clean path; anything order- or time-dependent that the\n\
             trace does not execute can still diverge silently. In `core`, `net`,\n\
             `hypervisor`, `crypto`, `tpm` (outside tests) this rule bans:\n\
             std HashMap/HashSet (iteration order varies per process — use\n\
             BTreeMap/BTreeSet), Instant/SystemTime (wall clock — use the sim\n\
             clock), ambient randomness (OsRng, thread_rng, from_entropy — use a\n\
             seeded Drbg; no function is exempt), and ambient state\n\
             (`thread_local!`, `static mut` — it outlives its user and differs\n\
             per thread; an immutable `static` or `OnceLock` is fine).\n\
             \n\
             Fix: BTreeMap/BTreeSet, the engine's virtual clock, seeded DRBGs,\n\
             state held in a field of the object that uses it.\n\
             Suppress (justified): `// #[allow(monatt::determinism)]`."
        }
        "alloc_freedom" => {
            "alloc_freedom — the warm Msg1–Msg6 path must not allocate.\n\
             \n\
             tests/zero_alloc.rs proves 64 warm rounds allocate zero times, but\n\
             only on the paths it executes. This rule is the static twin: in the\n\
             enrolled warm-path files (wire encode_into, channel seal/open, the\n\
             timer wheel, session state machine, session arena), functions may not\n\
             call allocating APIs (Vec::new, vec!, to_vec, collect, format!,\n\
             Box::new, String::from/new, to_string, to_owned, with_capacity)\n\
             unless marked cold/setup (a `#[cold]` attribute or the cold-fn list).\n\
             One level of call-graph propagation also flags a warm call into a\n\
             workspace helper that allocates directly (resolved by unique name).\n\
             \n\
             Fix: thread a scratch buffer, pre-reserve in setup, or outline the\n\
             cold path into a `#[cold]` helper.\n\
             Suppress (justified): `// #[allow(monatt::alloc_freedom)]`."
        }
        "secret_taint" => {
            "secret_taint — a leak split across two functions is still a leak.\n\
             \n\
             secret_hygiene catches `println!(\"{mac_key:?}\")`; this rule catches\n\
             the same leak routed through one call: a secret-listed identifier\n\
             passed as an argument to a workspace function whose matching\n\
             parameter reaches a format macro, a serialization sink (to_string,\n\
             serialize, …), or — for tag/digest-named secrets — a non-ct_eq\n\
             `==`/`!=` comparison. Resolution is name-based and only unique\n\
             non-test symbols are followed (one call deep), so every finding has\n\
             a concrete sink, reported as a related-location note.\n\
             \n\
             Fix: pass a redacted view, compare via ct_eq inside the callee, or\n\
             drop the parameter from the formatted message.\n\
             Suppress (justified): `// #[allow(monatt::secret_taint)]`."
        }
        _ => return None,
    })
}

/// Builds a diagnostic whose span covers the token at `tok`.
pub(crate) fn diag_tok(
    rule: &'static str,
    ctx: &FileContext,
    tok: usize,
    message: String,
) -> Diagnostic {
    let t = &ctx.tokens[tok];
    diag_at(
        rule,
        ctx,
        t.line,
        t.col,
        t.col + t.text.chars().count() as u32,
        message,
    )
}

/// Builds a diagnostic from explicit coordinates.
pub(crate) fn diag_at(
    rule: &'static str,
    ctx: &FileContext,
    line: u32,
    col: u32,
    end_col: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        file: ctx.path.clone(),
        line,
        col,
        end_col,
        message,
        notes: Vec::new(),
    }
}

/// First argument token of a format-like macro that actually reaches
/// output. `assert!`/`debug_assert!` only print their *format*
/// arguments on failure; the leading condition never reaches output, so
/// the scan starts after the first top-level comma.
pub(crate) fn format_scan_start(toks: &[Token], mac: usize, open: usize, close: usize) -> usize {
    let start = open + 1;
    if !matches!(toks[mac].text.as_str(), "assert" | "debug_assert") {
        return start;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(close).skip(start) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => return j + 1,
                _ => {}
            }
        }
    }
    close
}

/// True if the token before a `[` means the bracket is an index operation
/// (rather than a slice pattern, array type, or array literal).
pub(crate) fn is_index_base(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !NON_EXPR_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        _ => false,
    }
}

/// True if a string literal's text contains an inline capture of `name`,
/// i.e. `{name}` or `{name:...}`.
pub(crate) fn str_interpolates(literal: &str, name: &str) -> bool {
    let mut rest = literal;
    while let Some(idx) = rest.find('{') {
        rest = &rest[idx + 1..];
        if let Some(stripped) = rest.strip_prefix(name) {
            if stripped.starts_with('}') || stripped.starts_with(':') {
                return true;
            }
        }
    }
    false
}

/// Shortens a string-literal token for use inside a message.
pub(crate) fn display_name(text: &str) -> String {
    if text.len() > 24 {
        format!(
            "{}…",
            &text[..text.char_indices().nth(24).map_or(text.len(), |(i, _)| i)]
        )
    } else {
        text.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULE_NAMES {
            let text = explain(rule).unwrap_or_else(|| panic!("no explain for {rule}"));
            assert!(text.contains(rule), "explanation names its rule: {rule}");
            assert!(text.contains("Suppress"), "explains suppression: {rule}");
        }
        assert!(
            explain("secret-taint").is_some(),
            "hyphen spelling accepted"
        );
        assert!(explain("nonsense").is_none());
    }
}
