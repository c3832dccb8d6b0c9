//! Reference oracles for the differential suites.
//!
//! Each kernel `monatt-crypto` ships has exactly one implementation in
//! `src/`; the slow, easy-to-audit versions the kernels replaced live
//! here, built only on the crate's public API, so the suites can check
//! the shipped kernels bit for bit without the oracles shipping too.
//! Every test binary includes this module and uses a different part of
//! it, hence the blanket `dead_code` allowance.

#![allow(dead_code)]

pub mod aes_ref;
pub mod bignum_ref;

/// SplitMix64: a seeded, dependency-free value stream for the seeded
/// (non-proptest) differential loops.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fills `out` with the next bytes of the stream.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}
