//! AES-128 (FIPS 197) encryption and CTR-mode keystream generation,
//! implemented from scratch on round tables (the S-box fused with
//! MixColumns) built at compile time from the S-box. CTR mode runs on
//! the CPU's AES instructions instead where it has them (x86-64 with
//! AES-NI, detected at run time).
//!
//! Only the encryption direction of the block cipher is implemented because
//! CTR mode uses it for both sealing and opening.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// xtime: multiply by x in GF(2^8) with the AES polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Round tables: `TE[r][x]` is the MixColumns output column (row 0 in
/// the most significant byte) contributed by a state byte `x` sitting in
/// row `r` after SubBytes and ShiftRows. One inner round is then four
/// lookups and four XORs per column instead of sixteen byte-wise S-box
/// and `xtime` steps. `TE[0][x]` is the column `(2s, s, s, 3s)` for
/// `s = SBOX[x]`; row `r` rotates it down by `r` bytes.
static TE: [[u32; 256]; 4] = round_tables();

const fn round_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let column = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        te[0][x] = column;
        te[1][x] = column.rotate_right(8);
        te[2][x] = column.rotate_right(16);
        te[3][x] = column.rotate_right(24);
        x += 1;
    }
    te
}

/// Loads `N` big-endian words from the front of `bytes`.
#[inline]
fn be_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    std::array::from_fn(|i| {
        u32::from_be_bytes([
            bytes[4 * i],
            bytes[4 * i + 1],
            bytes[4 * i + 2],
            bytes[4 * i + 3],
        ])
    })
}

/// SubBytes on each byte of a word.
#[inline]
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// An expanded AES-128 key ready for block encryption.
///
/// # Examples
///
/// ```
/// use monatt_crypto::aes::Aes128;
///
/// let key = [0u8; 16];
/// let cipher = Aes128::new(&key);
/// let ct = cipher.encrypt_block(&[0u8; 16]);
/// assert_eq!(ct.len(), 16);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The 11 round keys as big-endian column words, four per round.
    round_keys: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        crate::zeroize::zeroize_u32s(&mut self.round_keys);
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&be_words::<4>(key));
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one block held as four big-endian column words.
    ///
    /// The table lookups are indexed by key-dependent state bytes: like
    /// the rest of the crate this is not constant-time (the byte-wise
    /// S-box it replaces was indexed the same way).
    #[inline]
    fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_keys;
        let [mut s0, mut s1, mut s2, mut s3] = block;
        s0 ^= rk[0];
        s1 ^= rk[1];
        s2 ^= rk[2];
        s3 ^= rk[3];
        // One output column: ShiftRows takes row r from column c + r.
        let column = |a: u32, b: u32, c: u32, d: u32| {
            TE[0][(a >> 24) as usize]
                ^ TE[1][(b >> 16) as usize & 0xff]
                ^ TE[2][(c >> 8) as usize & 0xff]
                ^ TE[3][d as usize & 0xff]
        };
        for round in rk[4..40].chunks_exact(4) {
            let t0 = column(s0, s1, s2, s3) ^ round[0];
            let t1 = column(s1, s2, s3, s0) ^ round[1];
            let t2 = column(s2, s3, s0, s1) ^ round[2];
            let t3 = column(s3, s0, s1, s2) ^ round[3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        // The last round has no MixColumns: plain S-box bytes.
        let last = |a: u32, b: u32, c: u32, d: u32| {
            u32::from_be_bytes([
                SBOX[(a >> 24) as usize],
                SBOX[(b >> 16) as usize & 0xff],
                SBOX[(c >> 8) as usize & 0xff],
                SBOX[d as usize & 0xff],
            ])
        };
        [
            last(s0, s1, s2, s3) ^ rk[40],
            last(s1, s2, s3, s0) ^ rk[41],
            last(s2, s3, s0, s1) ^ rk[42],
            last(s3, s0, s1, s2) ^ rk[43],
        ]
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (bytes, word) in out
            .chunks_exact_mut(4)
            .zip(self.encrypt_words(be_words(block)))
        {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// XORs the CTR-mode keystream for `nonce` into `data` in place.
    /// Calling it twice with the same nonce round-trips (encrypt/decrypt).
    ///
    /// The 16-byte counter block is `nonce (12 bytes) || counter (4 bytes,
    /// big-endian)`, starting at counter 0.
    ///
    /// Runs on the CPU's AES instructions where it has them (x86-64
    /// with AES-NI, detected at run time) and on the round tables
    /// everywhere else; the bytes are the same.
    pub fn ctr_xor(&self, nonce: &[u8; 12], data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::aes_ni::AesNi::detect() {
            return ni.ctr_xor(&self.round_keys, nonce, data);
        }
        self.ctr_xor_portable(nonce, data);
    }

    /// [`Aes128::ctr_xor`] on the round tables: the path on CPUs
    /// without AES-NI, and the reference the hardware path is tested
    /// against.
    fn ctr_xor_portable(&self, nonce: &[u8; 12], data: &mut [u8]) {
        let [n0, n1, n2] = be_words(nonce);
        for (block_idx, chunk) in data.chunks_mut(16).enumerate() {
            let keystream = self.encrypt_words([n0, n1, n2, block_idx as u32]);
            // A trailing partial chunk stops the zip short.
            for (bytes, word) in chunk.chunks_mut(4).zip(keystream) {
                for (b, k) in bytes.iter_mut().zip(word.to_be_bytes()) {
                    *b ^= k;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;
    use std::io::Write;

    /// On a CPU without AES-NI `ctr_xor` is the portable path, so a
    /// differential test runs that side alone: it says so rather than
    /// pass silently.
    fn say_if_portable_only(test: &str) {
        #[cfg(target_arch = "x86_64")]
        let hardware = crate::aes_ni::AesNi::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            // Straight to stderr: the harness captures `eprintln!`, and
            // a passing test would then say nothing.
            let _ = writeln!(
                std::io::stderr(),
                "{test}: this CPU has no AES-NI; ran the portable path alone"
            );
        }
    }

    /// Every length 0–300 under a fresh seeded key and nonce: empty,
    /// partial and whole blocks on both sides of each 4-block batch.
    #[test]
    fn ctr_matches_portable_at_every_length() {
        say_if_portable_only("ctr_matches_portable_at_every_length");
        let mut rng = Drbg::from_seed(0xae5c7);
        for len in 0..=300 {
            let (mut key, mut nonce) = ([0u8; 16], [0u8; 12]);
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut nonce);
            let cipher = Aes128::new(&key);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut expect = data.clone();
            cipher.ctr_xor_portable(&nonce, &mut expect);
            cipher.ctr_xor(&nonce, &mut data);
            assert_eq!(data, expect, "len {len}");
        }
    }

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex_to_bytes("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex_to_bytes("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        let cipher = Aes128::new(&key);
        let ct = cipher.encrypt_block(&pt);
        assert_eq!(
            ct.to_vec(),
            hex_to_bytes("3925841d02dc09fbdc118597196a0b32")
        );
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex_to_bytes("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = hex_to_bytes("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let ct = Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(
            ct.to_vec(),
            hex_to_bytes("69c4e0d86a7b0430d8cdb78070b4c55a")
        );
    }

    #[test]
    fn ctr_roundtrip() {
        let cipher = Aes128::new(&[7u8; 16]);
        let nonce = [9u8; 12];
        let original: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut buf = original.clone();
        cipher.ctr_xor(&nonce, &mut buf);
        assert_ne!(buf, original);
        cipher.ctr_xor(&nonce, &mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn ctr_nonce_separation() {
        let cipher = Aes128::new(&[7u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        cipher.ctr_xor(&[1u8; 12], &mut a);
        cipher.ctr_xor(&[2u8; 12], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_empty_and_partial_blocks() {
        let cipher = Aes128::new(&[7u8; 16]);
        let mut empty: Vec<u8> = Vec::new();
        cipher.ctr_xor(&[0u8; 12], &mut empty);
        assert!(empty.is_empty());
        let mut partial = vec![0xaa; 5];
        cipher.ctr_xor(&[0u8; 12], &mut partial);
        cipher.ctr_xor(&[0u8; 12], &mut partial);
        assert_eq!(partial, vec![0xaa; 5]);
    }
}
