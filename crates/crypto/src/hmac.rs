//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869), implemented from scratch on
//! top of [`mod@crate::sha256`].

use crate::sha256::{sha256, Sha256, DIGEST_LEN};
use crate::zeroize::Zeroizing;

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block size are first hashed, per RFC 2104.
///
/// # Examples
///
/// ```
/// use monatt_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hmac = HmacSha256::new(key);
    hmac.update(message);
    hmac.finalize()
}

/// A streaming HMAC-SHA256 computation.
///
/// [`HmacSha256::new`] compresses the two key pad blocks once. A value
/// that has absorbed no message yet is therefore a *keyed state*: a
/// long-lived key holds one and clones it per message, and each tag then
/// costs only the message blocks plus one outer block.
#[derive(Clone)]
pub struct HmacSha256 {
    /// Has absorbed `key ^ ipad`, then the message so far.
    inner: Sha256,
    /// Has absorbed `key ^ opad`; takes the inner digest at the end.
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both chaining states are equivalent to the MAC key: never
        // print them.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl Drop for HmacSha256 {
    fn drop(&mut self) {
        self.inner.zeroize();
        self.outer.zeroize();
    }
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = Zeroizing::new([0u8; BLOCK_LEN]);
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        let mut outer = Sha256::new();
        for b in key_block.iter_mut() {
            *b ^= 0x36;
        }
        inner.update(&key_block[..]);
        for b in key_block.iter_mut() {
            // Undo the inner pad and apply the outer one in one pass.
            *b ^= 0x36 ^ 0x5c;
        }
        outer.update(&key_block[..]);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // `Drop` forbids moving the hashers out of `self`; swap them
        // instead (the replacements are scrubbed along with `self`).
        let inner_digest = std::mem::take(&mut self.inner).finalize();
        let mut outer = std::mem::take(&mut self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time tag comparison; delegates to [`crate::zeroize::ct_eq`],
/// the single comparison primitive the `monatt-lint` `const_time` rule
/// permits on MAC material.
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    crate::zeroize::ct_eq(expected, actual)
}

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derives `len` bytes of output keying material from `prk`
/// bound to `info`.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "hkdf output too long");
    let mut okm = Vec::with_capacity(len);
    // T(0) is empty; T(i) is the previous block, always whole.
    let (mut prev, mut prev_len) = ([0u8; DIGEST_LEN], 0);
    let mut counter = 1u8;
    let keyed = HmacSha256::new(prk);
    while okm.len() < len {
        let mut mac = keyed.clone();
        mac.update(&prev[..prev_len]);
        mac.update(info);
        mac.update(&[counter]);
        prev = mac.finalize();
        prev_len = DIGEST_LEN;
        let take = (len - okm.len()).min(DIGEST_LEN);
        okm.extend_from_slice(&prev[..take]);
        counter = counter.wrapping_add(1);
    }
    okm
}

/// One-call HKDF: extract with `salt` then expand to `len` bytes bound to
/// `info`.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// RFC 4231 test cases 1–7: (key, data, tag prefix). Case 5 is the
    /// standard's 128-bit truncation; cases 6 and 7 have keys longer
    /// than the block, which are hashed first.
    fn rfc4231_cases() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (0x01..=0x19).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_cases_through_a_cloned_keyed_state() {
        for (i, (key, data, expect)) in rfc4231_cases().iter().enumerate() {
            let tag = hex(&hmac_sha256(key, data));
            assert_eq!(&tag[..expect.len()], *expect, "case {}", i + 1);
            // Key once; every clone of the untouched state must produce
            // the tag, whole or streamed, however many came before it.
            let keyed = HmacSha256::new(key);
            for split in [0, 1, data.len() / 2, data.len()] {
                let mut mac = keyed.clone();
                mac.update(&data[..split]);
                mac.update(&data[split..]);
                let tag = hex(&mac.finalize());
                assert_eq!(
                    &tag[..expect.len()],
                    *expect,
                    "case {} split {split}",
                    i + 1
                );
            }
            // A clone taken mid-message carries the absorbed prefix.
            let mut prefix = keyed.clone();
            prefix.update(&data[..data.len() / 2]);
            let mut rest = prefix.clone();
            rest.update(&data[data.len() / 2..]);
            assert_eq!(&hex(&rest.finalize())[..expect.len()], *expect);
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }

    #[test]
    fn verify_tag_behaviour() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[0] ^= 1;
        assert!(!verify_tag(&t, &bad));
        assert!(!verify_tag(&t, &t[..31]));
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// Case 2 chains three output blocks, each keyed on the one before;
    /// case 3 has an empty salt and info.
    #[test]
    fn rfc5869_cases_2_and_3() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        assert_eq!(
            hex(&hkdf(&salt, &ikm, &info, 82)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
        assert_eq!(
            hex(&hkdf(&[], &[0x0b; 22], &[], 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_lengths() {
        let okm = hkdf(b"s", b"ikm", b"info", 0);
        assert!(okm.is_empty());
        let okm = hkdf(b"s", b"ikm", b"info", 33);
        assert_eq!(okm.len(), 33);
        let a = hkdf(b"s", b"ikm", b"info-a", 32);
        let b = hkdf(b"s", b"ikm", b"info-b", 32);
        assert_ne!(a, b, "different info must give different keys");
    }

    #[test]
    #[should_panic(expected = "hkdf output too long")]
    fn hkdf_rejects_oversize() {
        let _ = hkdf(b"s", b"ikm", b"info", 255 * 32 + 1);
    }
}
