//! Fixture: every class of silent nondeterminism the `determinism` rule
//! bans inside the sim-deterministic crate set. Linted as
//! `crates/core/src/bad_determinism.rs`.

use std::collections::HashMap;
use std::time::Instant;

/// Iteration order of the map differs per process: event order leaks.
pub fn tally(ids: &[u64]) -> usize {
    let mut seen = HashMap::with_capacity(ids.len());
    for id in ids {
        seen.entry(id).or_insert(0u32);
    }
    seen.len()
}

/// Wall-clock read: replays desynchronize.
pub fn stamp() -> Instant {
    Instant::now()
}

/// Second wall-clock flavor.
pub fn epoch_millis() -> u64 {
    let _ = std::time::SystemTime::now();
    0
}

/// Ambient randomness: no seed, no replay.
pub fn roll() -> u64 {
    let mut rng = OsRng;
    rng.next_u64()
}

thread_local! {
    /// Per-thread cache: what a call finds depends on the calls before it.
    static CTX_CACHE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide mutable state, same problem without the thread boundary.
static mut CALLS: u64 = 0;

/// Detached threads: each may still be stepping its server after this
/// call returns, at a moment the host decides.
pub fn catch_up_all(servers: Vec<Server>, deadline: u64) {
    for mut server in servers {
        std::thread::spawn(move || server.run_until(deadline));
    }
    let named = thread::Builder::new().name("catch-up".into());
    let _ = named.spawn(|| ());
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn test_code_may_use_hash_containers() {
        let mut s = HashSet::new();
        s.insert(1u8);
        assert!(s.contains(&1));
    }
}
