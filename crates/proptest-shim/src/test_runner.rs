//! The run loop's configuration and RNG.

/// Per-test configuration (the `ProptestConfig` of real proptest).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of accepted cases to run per property.
    pub cases: u32,
}

impl Config {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        Config { cases }
    }
}

/// Marker returned by `prop_assume!` when a case is discarded.
#[derive(Clone, Copy, Debug)]
pub struct Rejected;

/// Derives the RNG seed for a test: `PROPTEST_SEED` if set, otherwise a
/// hash of the test's name (stable across runs and machines).
pub fn seed_for(test_name: &str) -> u64 {
    if let Some(seed) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return seed;
    }
    // FNV-1a over the test name.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The deterministic generator driving value generation (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Creates a generator whose raw splitmix64 state is `state`, for
    /// seeded streams that must not move (`new` whitens its seed).
    pub fn from_state(state: u64) -> Self {
        TestRng { state }
    }

    /// Returns the next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`), one `next_u64` reduced modulo `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// An element of `from`, drawn with one `below(from.len())`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// Fills `out` with the next bytes of the stream: each `next_u64`
    /// gives eight, little-endian.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_by_name_and_are_stable() {
        assert_eq!(seed_for("alpha"), seed_for("alpha"));
        assert_ne!(seed_for("alpha"), seed_for("beta"));
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
