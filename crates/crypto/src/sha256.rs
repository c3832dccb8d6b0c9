//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Provides both a streaming [`Sha256`] hasher and the one-shot
//! [`sha256`] convenience function.
//!
//! The compression function runs on the CPU's SHA extensions where it
//! has them (x86-64 with SHA and SSE4.1, detected at run time) and on
//! the portable rounds below everywhere else. Both compute the same
//! function; the portable rounds are the reference the tests hold the
//! hardware path to.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use monatt_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{:02x}", x)).collect() }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            }
        }
        // Whole blocks are compressed where they lie, in one call.
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update_padding();
        // update_padding leaves exactly 8 bytes of space for the length.
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Scrubs the chaining state and the block buffer. For hashers that
    /// have absorbed key material (the HMAC pad blocks).
    pub(crate) fn zeroize(&mut self) {
        crate::zeroize::zeroize_u32s(&mut self.state);
        crate::zeroize::zeroize_bytes(&mut self.buffer);
    }

    fn update_padding(&mut self) {
        // Append 0x80 then zero-fill; if fewer than 8 bytes remain in this
        // block for the length field, compress and start a fresh block.
        let mut idx = self.buffer_len;
        self.buffer[idx] = 0x80;
        idx += 1;
        if idx > 56 {
            for b in &mut self.buffer[idx..] {
                *b = 0;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            idx = 0;
        }
        for b in &mut self.buffer[idx..56] {
            *b = 0;
        }
    }
}

/// Runs the compression function over `blocks` in order: on the SHA
/// extensions when the CPU has them, on the portable rounds otherwise.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = crate::sha_ni::ShaNi::detect() {
        return ni.compress_blocks(state, blocks);
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 rounds, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress_block(state, block);
    }
}

fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// use monatt_crypto::sha256::sha256;
///
/// let d = sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices, equivalent to hashing
/// the flattened input with [`sha256`].
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;
    use std::io::Write;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// On a CPU without the SHA extensions `compress_blocks` is the
    /// portable path, so a differential test runs that side alone: it
    /// says so rather than pass silently.
    fn say_if_portable_only(test: &str) {
        #[cfg(target_arch = "x86_64")]
        let hardware = crate::sha_ni::ShaNi::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            // Straight to stderr: the harness captures `eprintln!`, and
            // a passing test would then say nothing.
            let _ = writeln!(
                std::io::stderr(),
                "{test}: this CPU has no SHA extensions; ran the portable path alone"
            );
        }
    }

    /// SHA-256 of `data` on the portable rounds alone.
    fn portable_sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, padded.as_chunks::<64>().0);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn compression_matches_portable_on_seeded_states_and_blocks() {
        say_if_portable_only("compression_matches_portable_on_seeded_states_and_blocks");
        let mut rng = Drbg::from_seed(0x5a256);
        for pair in 0..2_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
            // Runs of one to four blocks carry the state between blocks
            // inside one call.
            let mut blocks = vec![[0u8; 64]; 1 + pair % 4];
            for block in &mut blocks {
                rng.fill_bytes(block);
            }
            let mut expect = state;
            compress_portable(&mut expect, &blocks);
            let mut got = state;
            compress_blocks(&mut got, &blocks);
            assert_eq!(got, expect, "pair {pair}");
        }
    }

    #[test]
    fn update_split_at_every_offset_matches_portable() {
        say_if_portable_only("update_split_at_every_offset_matches_portable");
        assert_eq!(
            hex(&portable_sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut rng = Drbg::from_seed(0x5a257);
        for len in (1..=5).flat_map(|blocks| [64 * blocks - 9, 64 * blocks, 64 * blocks + 31]) {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let expect = portable_sha256(&data);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expect, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split = {split}");
        }
    }

    #[test]
    fn concat_matches_flat() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths near the 55/56/64-byte padding boundaries.
        let known_55 = sha256(&[0u8; 55]);
        let known_56 = sha256(&[0u8; 56]);
        let known_64 = sha256(&[0u8; 64]);
        assert_ne!(known_55, known_56);
        assert_ne!(known_56, known_64);
        // Cross-check one of them against a fixed value (computed with
        // coreutils sha256sum).
        assert_eq!(
            hex(&known_64),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }
}
