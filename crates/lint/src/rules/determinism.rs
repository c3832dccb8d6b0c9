//! Rule: sim-deterministic crates must replay bit-identically under a
//! fixed seed.
//!
//! The golden-trace fixture (DESIGN.md §11) pins the clean path, but
//! only the paths it executes. This rule makes the three classic
//! sources of silent divergence statically impossible in the
//! deterministic crate set (`core`, `net`, `hypervisor`, `crypto`,
//! `tpm`, outside `#[cfg(test)]`):
//!
//! * `std::collections::HashMap`/`HashSet` — `RandomState` seeds the
//!   hasher per process, so iteration order differs run to run and
//!   leaks straight into event order. The workspace's `BTreeMap`
//!   convention becomes an enforced invariant.
//! * `Instant`/`SystemTime` — wall clocks desynchronize replays; all
//!   sim time flows from the engine's virtual clock.
//! * Ambient randomness (`OsRng`, `thread_rng`, `random`, and calls to
//!   `from_entropy`) — every random draw must come from a seeded DRBG
//!   so the draw stream is part of the replayable state. The DRBG's own
//!   `from_entropy` constructor is the one sanctioned entropy boundary,
//!   exempted via [`Config::entropy_fns`]; *calling* it from sim code
//!   is still flagged.

use crate::config::Config;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

use super::diag_tok;

const RULE: &str = "determinism";

/// Identifiers that name an ambient (non-seeded) randomness source.
const AMBIENT_RNG: [&str; 3] = ["OsRng", "thread_rng", "from_entropy"];

pub(crate) fn check(ctx: &FileContext, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        // A definition (`fn from_entropy`) is not a use of the name.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => {
                out.push(diag_tok(
                    RULE,
                    ctx,
                    i,
                    format!(
                        "`{}` iteration order is seeded per process and leaks into \
                         event order; use `BTreeMap`/`BTreeSet` in sim-deterministic \
                         crates",
                        t.text
                    ),
                ));
            }
            "Instant" | "SystemTime" => {
                // `Instant` alone (e.g. in a type position) is already a
                // wall-clock dependency; `Instant::now()` is the common
                // offender. Either way the sim clock is the only time
                // source allowed here.
                out.push(diag_tok(
                    RULE,
                    ctx,
                    i,
                    format!(
                        "`{}` reads the wall clock, which differs across replays; \
                         use the engine's virtual clock",
                        t.text
                    ),
                ));
            }
            name if AMBIENT_RNG.contains(&name) => {
                // The sanctioned entropy boundary (`Drbg::from_entropy`
                // itself) may touch the OS; everything else must draw
                // from a seeded DRBG.
                if cfg.entropy_fns.contains(&ctx.enclosing_fn[i]) {
                    continue;
                }
                out.push(diag_tok(
                    RULE,
                    ctx,
                    i,
                    format!(
                        "`{name}` draws ambient randomness outside the seeded DRBG; \
                         sim code must thread a seeded `Drbg` so draws replay"
                    ),
                ));
            }
            _ => {}
        }
    }
}
