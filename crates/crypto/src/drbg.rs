//! A deterministic random bit generator built on the ChaCha20 block
//! function (RFC 8439). Every instance starts from a caller-supplied seed:
//! the whole system replays from its seeds, so there is no entropy source.

use crate::bigint::U256;
use crate::sha256::sha256;

/// The ChaCha20 block function: 20 rounds over a 16-word state built from a
/// 32-byte key, 12-byte nonce and 32-bit block counter. Returns 64 bytes of
/// keystream.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// A ChaCha20-based DRBG.
///
/// # Examples
///
/// ```
/// use monatt_crypto::drbg::Drbg;
///
/// let mut a = Drbg::from_seed(7);
/// let mut b = Drbg::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct Drbg {
    key: [u8; 32],
    counter: u32,
    block_high: u64,
    buffer: [u8; 64],
    buffer_pos: usize,
}

impl std::fmt::Debug for Drbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Drbg")
            .field("counter", &self.counter)
            .field("block_high", &self.block_high)
            .finish_non_exhaustive()
    }
}

impl Drop for Drbg {
    fn drop(&mut self) {
        // Both the key and the buffered output (which an attacker could
        // replay into future key derivations) are scrubbed.
        crate::zeroize::zeroize_bytes(&mut self.key);
        crate::zeroize::zeroize_bytes(&mut self.buffer);
    }
}

impl Drbg {
    /// Creates a DRBG from a full 32-byte seed.
    pub fn from_seed_bytes(seed: [u8; 32]) -> Self {
        Drbg {
            key: seed,
            counter: 0,
            block_high: 0,
            buffer: [0; 64],
            buffer_pos: 64,
        }
    }

    /// Creates a DRBG from a small integer seed, expanded by hashing.
    pub fn from_seed(seed: u64) -> Self {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&seed.to_le_bytes());
        material[8..].copy_from_slice(b"monattdb");
        Self::from_seed_bytes(sha256(&material))
    }

    fn refill(&mut self) {
        // Use block_high as part of the nonce so the stream does not repeat
        // even after 2^32 blocks.
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.block_high.to_le_bytes());
        self.buffer = chacha20_block(&self.key, self.counter, &nonce);
        let (next, wrapped) = self.counter.overflowing_add(1);
        self.counter = next;
        if wrapped {
            self.block_high = self.block_high.wrapping_add(1);
        }
        self.buffer_pos = 0;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for byte in out {
            if self.buffer_pos == 64 {
                self.refill();
            }
            *byte = self.buffer[self.buffer_pos];
            self.buffer_pos += 1;
        }
    }

    /// Returns 32 pseudorandom bytes.
    pub fn next_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a pseudorandom `u64` uniform in `[0, bound)` via rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly random `U256` in `[1, bound)` — the range used
    /// for private keys and nonces in a prime-order group.
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 1`.
    pub fn next_u256_in_group(&mut self, bound: &U256) -> U256 {
        assert!(*bound > U256::ONE, "bound must exceed one");
        loop {
            let candidate = U256::from_be_bytes(&self.next_bytes32());
            let reduced = candidate.rem(bound);
            if !reduced.is_zero() {
                return reduced;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2 test vector.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            &out[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Drbg::from_seed(99);
        let mut b = Drbg::from_seed(99);
        let mut c = Drbg::from_seed(100);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn fill_bytes_spans_blocks() {
        let mut d = Drbg::from_seed(1);
        let mut big = vec![0u8; 200];
        d.fill_bytes(&mut big);
        // Compare against byte-at-a-time extraction.
        let mut d2 = Drbg::from_seed(1);
        let mut single = vec![0u8; 200];
        for b in &mut single {
            let mut one = [0u8];
            d2.fill_bytes(&mut one);
            *b = one[0];
        }
        assert_eq!(big, single);
    }

    #[test]
    fn bounded_sampling_in_range() {
        let mut d = Drbg::from_seed(3);
        for _ in 0..1000 {
            assert!(d.next_u64_below(7) < 7);
        }
    }

    #[test]
    fn group_sampling_in_range() {
        let q = U256::from_u64(1000);
        let mut d = Drbg::from_seed(4);
        for _ in 0..100 {
            let v = d.next_u256_in_group(&q);
            assert!(!v.is_zero());
            assert!(v < q);
        }
    }

    #[test]
    fn debug_hides_key() {
        let d = Drbg::from_seed(5);
        let repr = format!("{:?}", d);
        assert!(repr.contains("Drbg"));
        assert!(!repr.contains("key"));
    }
}
