//! Rule: sim-deterministic crates must replay bit-identically under a
//! fixed seed.
//!
//! The golden-trace fixture (DESIGN.md §11) pins the clean path, but
//! only the paths it executes. This rule makes the classic sources of
//! silent divergence statically impossible in the deterministic crate
//! set (`core`, `net`, `hypervisor`, `crypto`, `tpm`, `workloads`,
//! outside `#[cfg(test)]`):
//!
//! * `std::collections::HashMap`/`HashSet` — `RandomState` seeds the
//!   hasher per process, so iteration order differs run to run and
//!   leaks straight into event order. The workspace's `BTreeMap`
//!   convention becomes an enforced invariant.
//! * `Instant`/`SystemTime` — wall clocks desynchronize replays; all
//!   sim time flows from the engine's virtual clock.
//! * Ambient randomness (`OsRng`, `thread_rng`, `from_entropy`) — every
//!   random draw must come from a seeded DRBG so the draw stream is
//!   part of the replayable state. No function is exempt: the system
//!   has no OS-entropy constructor.
//! * Ambient state (`thread_local!`, `static mut`) — a value that
//!   outlives the object that uses it carries history from one run
//!   into the next on the same thread, and differs across threads;
//!   state lives in a field of its owner. (An immutable `static`,
//!   `OnceLock` included, holds one value for the whole process and is
//!   fine.)
//! * Detached threads (`thread::spawn`, `thread::Builder`) — a thread
//!   that outlives the call that started it can act on shared state at a
//!   host-dependent time, after that call has returned. The one allowed
//!   form is `std::thread::scope`, which joins every thread it spawned
//!   before returning, so a call's effects are complete when it is (the
//!   cloud's busy-server catch-up, DESIGN.md §10.2).

use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

use super::diag_tok;

const RULE: &str = "determinism";

/// Identifiers that name an ambient (non-seeded) randomness source.
const AMBIENT_RNG: [&str; 3] = ["OsRng", "thread_rng", "from_entropy"];

pub(crate) fn check(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
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
            "spawn" | "Builder"
                if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].text == "thread" =>
            {
                out.push(diag_tok(
                    RULE,
                    ctx,
                    i,
                    format!(
                        "`thread::{}` starts a detached thread, which can act after its \
                         caller returns, at a host-dependent time; use \
                         `std::thread::scope`, which joins before returning",
                        t.text
                    ),
                ));
            }
            "thread_local" | "static" => {
                let (next, what) = if t.text == "static" {
                    ("mut", "static mut")
                } else {
                    ("!", "thread_local!")
                };
                if toks.get(i + 1).is_some_and(|n| n.text == next) {
                    out.push(diag_tok(
                        RULE,
                        ctx,
                        i,
                        format!(
                            "`{what}` is ambient state: it outlives its user and carries \
                             history across runs; keep the value in a field of its owner"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}
