//! Offline stand-in for the subset of the `rand` crate this workspace
//! uses. The build environment has no registry access, so the workspace
//! vendors the few APIs it needs: [`RngCore`], [`SeedableRng`],
//! [`Rng::gen_range`] and a deterministic [`rngs::StdRng`]. There is no
//! OS-entropy source: every stream in the workspace replays from a seed.
//!
//! `StdRng` here is splitmix64 — statistically fine for workload jitter
//! and test-input generation, and deliberately *not* a cryptographic
//! generator (the workspace's `monatt-crypto` DRBG covers that need).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core random-number-generation methods.
pub trait RngCore {
    /// Returns the next pseudorandom `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next pseudorandom `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with pseudorandom bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Creates a generator from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range that [`Rng::gen_range`] can sample from uniformly.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Convenience sampling methods layered over [`RngCore`].
pub trait Rng: RngCore {
    /// Returns a uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A deterministic, seedable generator (splitmix64).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Avoid the all-zero weak state without perturbing other seeds.
            StdRng {
                state: seed ^ 0x5851_f42d_4c95_7f2d,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn std_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w: u64 = rng.gen_range(5u64..=5);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
