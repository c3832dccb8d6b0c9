//! Fixture: the deterministic counterparts to `bad_determinism.rs` —
//! ordered containers, virtual time, a seeded DRBG, and state owned by
//! the object that uses it. Linted as
//! `crates/core/src/good_determinism.rs`.

use std::collections::BTreeMap;

/// Ordered container: iteration order is part of the replayable state.
pub fn tally(ids: &[u64]) -> usize {
    let mut seen = BTreeMap::new();
    for id in ids {
        seen.entry(id).or_insert(0u32);
    }
    seen.len()
}

/// Sim time flows in as a parameter from the engine's virtual clock.
pub fn stamp(now_ns: u64) -> u64 {
    now_ns
}

/// Randomness comes from a seeded generator threaded by the caller.
pub fn roll(rng: &mut Drbg) -> u64 {
    rng.next_u64()
}

/// A precomputed context is a field of its owner, built once with it.
pub struct Field {
    modulus: u64,
    ctx: u64,
}

impl Field {
    pub fn new(modulus: u64) -> Field {
        Field {
            modulus,
            ctx: modulus.wrapping_neg(),
        }
    }
}

/// Scoped threads: every one is joined before `scope` returns, so the
/// servers are caught up when the call is, whichever thread ran each.
pub fn catch_up_all(servers: &mut [Server], deadline: u64) {
    std::thread::scope(|scope| {
        for server in servers.iter_mut() {
            scope.spawn(move || server.run_until(deadline));
        }
    });
}

/// One process-wide value, never mutated after initialization; and a
/// `'static mut` borrow is a lifetime, not a `static mut` item.
pub fn default_field(scratch: &'static mut u64) -> &'static Field {
    static FIELD: OnceLock<Field> = OnceLock::new();
    *scratch = 0;
    FIELD.get_or_init(|| Field::new(97))
}
