//! Authenticated encryption: AES-128-CTR with an HMAC-SHA256 tag in
//! encrypt-then-MAC composition, keyed from a 32-byte session secret.

use crate::aes::Aes128;
use crate::error::CryptoError;
use crate::hmac::{hkdf, verify_tag, HmacSha256};

/// Length of the authentication tag appended to every ciphertext.
pub const TAG_LEN: usize = 32;
/// Length of the per-message nonce.
pub const NONCE_LEN: usize = 12;

/// A directional authenticated-encryption key, derived from a session
/// secret. Each direction of a channel should use its own `SealKey`
/// (distinguished by the `label` passed to [`SealKey::derive`]).
#[derive(Clone)]
pub struct SealKey {
    cipher: Aes128,
    /// HMAC state keyed with the MAC half; cloned per record so the two
    /// pad blocks are compressed once per key, not once per record.
    keyed_mac: HmacSha256,
}

impl std::fmt::Debug for SealKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealKey").finish_non_exhaustive()
    }
}

impl SealKey {
    /// Derives encryption and MAC keys from `secret`, bound to `label`.
    pub fn derive(secret: &[u8; 32], label: &[u8]) -> Self {
        let okm = hkdf(b"monatt-seal-v1", secret, label, 16 + 32);
        let mut enc_key = [0u8; 16];
        enc_key.copy_from_slice(&okm[..16]);
        SealKey {
            cipher: Aes128::new(&enc_key),
            keyed_mac: HmacSha256::new(&okm[16..]),
        }
    }

    /// Encrypts `plaintext` and appends a tag binding `nonce` and `aad`.
    /// The output is `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`Self::seal`] appending `ciphertext || tag` to `out` — the
    /// steady-state form for hot paths that own the record buffer
    /// (existing contents before the append are untouched).
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(plaintext);
        if let Some(ct) = out.get_mut(start..) {
            self.cipher.ctr_xor(nonce, ct);
        }
        let mut mac = self.keyed_mac.clone();
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        if let Some(ct) = out.get(start..) {
            mac.update(ct);
        }
        let tag = mac.finalize();
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts a message produced by [`Self::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidTag`] if the message is too short or
    /// the tag does not verify (wrong key, nonce, aad, or tampering).
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut pt = Vec::with_capacity(sealed.len().saturating_sub(TAG_LEN));
        self.open_into(nonce, aad, sealed, &mut pt)?;
        Ok(pt)
    }

    /// [`Self::open`] appending the plaintext to `out` (untouched on
    /// error) — the steady-state form for hot paths that own the
    /// receive buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidTag`] if the message is too short or
    /// the tag does not verify (wrong key, nonce, aad, or tampering).
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidTag);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut mac = self.keyed_mac.clone();
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        mac.update(ct);
        if !verify_tag(&mac.finalize(), tag) {
            return Err(CryptoError::InvalidTag);
        }
        let start = out.len();
        out.extend_from_slice(ct);
        if let Some(pt) = out.get_mut(start..) {
            self.cipher.ctr_xor(nonce, pt);
        }
        Ok(())
    }

    /// Computes a raw MAC over `data` with this key's MAC half. Used for
    /// integrity-only records.
    pub fn mac(&self, data: &[u8]) -> [u8; 32] {
        let mut mac = self.keyed_mac.clone();
        mac.update(data);
        mac.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(label: &[u8]) -> SealKey {
        SealKey::derive(&[42u8; 32], label)
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key(b"c2s");
        let nonce = [1u8; NONCE_LEN];
        let sealed = k.seal(&nonce, b"header", b"secret payload");
        assert_eq!(
            k.open(&nonce, b"header", &sealed).unwrap(),
            b"secret payload"
        );
    }

    #[test]
    fn rejects_tampered_ciphertext() {
        let k = key(b"c2s");
        let nonce = [1u8; NONCE_LEN];
        let mut sealed = k.seal(&nonce, b"", b"payload");
        sealed[0] ^= 1;
        assert_eq!(k.open(&nonce, b"", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn rejects_tampered_tag() {
        let k = key(b"c2s");
        let nonce = [1u8; NONCE_LEN];
        let mut sealed = k.seal(&nonce, b"", b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(k.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn rejects_wrong_nonce_or_aad() {
        let k = key(b"c2s");
        let sealed = k.seal(&[1u8; NONCE_LEN], b"aad", b"payload");
        assert!(k.open(&[2u8; NONCE_LEN], b"aad", &sealed).is_err());
        assert!(k.open(&[1u8; NONCE_LEN], b"other", &sealed).is_err());
    }

    #[test]
    fn rejects_wrong_direction_key() {
        let sealed = key(b"c2s").seal(&[1u8; NONCE_LEN], b"", b"payload");
        assert!(key(b"s2c").open(&[1u8; NONCE_LEN], b"", &sealed).is_err());
    }

    #[test]
    fn rejects_truncated() {
        let k = key(b"c2s");
        assert_eq!(
            k.open(&[0u8; NONCE_LEN], b"", &[0u8; 5]),
            Err(CryptoError::InvalidTag)
        );
        assert!(k.open(&[0u8; NONCE_LEN], b"", &[]).is_err());
    }

    #[test]
    fn empty_plaintext_ok() {
        let k = key(b"c2s");
        let sealed = k.seal(&[0u8; NONCE_LEN], b"aad", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(k.open(&[0u8; NONCE_LEN], b"aad", &sealed).unwrap(), b"");
    }

    #[test]
    fn cloned_key_seals_and_opens_interchangeably() {
        // The keyed MAC state is cloned per record and must never be
        // advanced by use: original and clone stay the same key, record
        // after record.
        let original = key(b"c2s");
        let clone = original.clone();
        for seq in 0..4u8 {
            let nonce = [seq; NONCE_LEN];
            let payload = vec![seq; 40 * seq as usize + 7];
            let by_original = original.seal(&nonce, b"hdr", &payload);
            let by_clone = clone.seal(&nonce, b"hdr", &payload);
            assert_eq!(by_original, by_clone);
            assert_eq!(clone.open(&nonce, b"hdr", &by_original).unwrap(), payload);
            assert_eq!(original.open(&nonce, b"hdr", &by_clone).unwrap(), payload);
            assert_eq!(original.mac(&payload), clone.mac(&payload));
        }
        // And the tag is still HMAC over nonce || len(aad) || aad || ct
        // under the derived MAC key.
        let okm = hkdf(b"monatt-seal-v1", &[42u8; 32], b"c2s", 48);
        let sealed = original.seal(&[9; NONCE_LEN], b"hdr", b"payload");
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut framed = vec![9u8; NONCE_LEN];
        framed.extend_from_slice(&3u64.to_be_bytes());
        framed.extend_from_slice(b"hdr");
        framed.extend_from_slice(ct);
        assert_eq!(crate::hmac::hmac_sha256(&okm[16..], &framed), tag);
    }

    #[test]
    fn label_separates_keys() {
        let a = key(b"a").seal(&[0u8; NONCE_LEN], b"", b"msg");
        let b = key(b"b").seal(&[0u8; NONCE_LEN], b"", b"msg");
        assert_ne!(a, b);
    }
}
