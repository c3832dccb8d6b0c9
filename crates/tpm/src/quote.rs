//! Quotes: cumulative hash measurements signed by an attestation key.
//!
//! The paper borrows the term "Quote" from TPM notation: the cloud server
//! computes `Q3 = H(Vid || rM || M || N3)` and signs
//! `[Vid, rM, M, N3, Q3]` with its per-session attestation key ASKs
//! (Figure 3). This module provides the generic hash-then-sign and
//! verify-hash-and-signature operations over caller-supplied fields.

use monatt_crypto::schnorr::{Signature, SigningKey, Verifier};
use monatt_crypto::sha256::{Sha256, DIGEST_LEN};
use monatt_crypto::zeroize::ct_eq;

/// Errors from quote verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuoteError {
    /// The recomputed digest does not match the quoted digest — a field was
    /// modified after quoting.
    DigestMismatch,
    /// The signature over the quote does not verify.
    BadSignature,
}

impl std::fmt::Display for QuoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuoteError::DigestMismatch => write!(f, "quote digest does not match quoted fields"),
            QuoteError::BadSignature => write!(f, "quote signature verification failed"),
        }
    }
}

impl std::error::Error for QuoteError {}

/// A signed quote over a sequence of fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// `H(field_1 || field_2 || ...)` with length framing per field.
    pub digest: [u8; DIGEST_LEN],
    /// Signature over `digest` by the quoting key.
    pub signature: Signature,
}

/// Computes the quote digest over `fields`, length-framing each field so
/// that `["ab","c"]` and `["a","bc"]` hash differently.
pub fn quote_digest(fields: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for field in fields {
        h.update(&(field.len() as u64).to_be_bytes());
        h.update(field);
    }
    h.finalize()
}

impl Quote {
    /// Creates a quote over `fields`, signed with `key`.
    pub fn create(key: &SigningKey, fields: &[&[u8]]) -> Self {
        let digest = quote_digest(fields);
        let signature = key.sign(&digest);
        Quote { digest, signature }
    }

    /// Verifies that this quote covers exactly `fields` and carries a valid
    /// signature by `key` — a bare `VerifyingKey`, or the `BoundKey` a
    /// verifier holds for a trust anchor.
    ///
    /// # Errors
    ///
    /// [`QuoteError::DigestMismatch`] if the fields were altered,
    /// [`QuoteError::BadSignature`] if the signature is invalid.
    pub fn verify(&self, key: &impl Verifier, fields: &[&[u8]]) -> Result<(), QuoteError> {
        self.check_fields(fields)?;
        key.verify(&self.digest, &self.signature)
            .map_err(|_| QuoteError::BadSignature)
    }

    /// Checks only that this quote's digest covers exactly `fields`,
    /// without touching the signature. A verifier that picks how the
    /// signature check — `key.verify(&quote.digest, &quote.signature)` —
    /// runs uses this first: the message-4 validator takes a precomputed
    /// verdict or a bound key where it has one, verifies a lone bare
    /// quote on the spot and joins a flush's bare quotes into one batched
    /// multi-exponentiation.
    ///
    /// # Errors
    ///
    /// [`QuoteError::DigestMismatch`] if the fields were altered.
    pub fn check_fields(&self, fields: &[&[u8]]) -> Result<(), QuoteError> {
        if !ct_eq(&quote_digest(fields), &self.digest) {
            return Err(QuoteError::DigestMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_crypto::drbg::Drbg;

    fn key(seed: u64) -> SigningKey {
        SigningKey::generate(&mut Drbg::from_seed(seed))
    }

    #[test]
    fn create_verify_roundtrip() {
        let sk = key(1);
        let quote = Quote::create(&sk, &[b"vid-7", b"cpu-usage", b"12345", b"nonce"]);
        assert!(quote
            .verify(
                &sk.verifying_key(),
                &[b"vid-7", b"cpu-usage", b"12345", b"nonce"]
            )
            .is_ok());
    }

    #[test]
    fn detects_field_tampering() {
        let sk = key(2);
        let quote = Quote::create(&sk, &[b"vid-7", b"measurement"]);
        assert_eq!(
            quote.verify(&sk.verifying_key(), &[b"vid-7", b"forged"]),
            Err(QuoteError::DigestMismatch)
        );
    }

    #[test]
    fn detects_field_boundary_shift() {
        let sk = key(3);
        let quote = Quote::create(&sk, &[b"ab", b"c"]);
        assert_eq!(
            quote.verify(&sk.verifying_key(), &[b"a", b"bc"]),
            Err(QuoteError::DigestMismatch)
        );
    }

    #[test]
    fn detects_wrong_signer() {
        let sk1 = key(4);
        let sk2 = key(5);
        let quote = Quote::create(&sk1, &[b"data"]);
        assert_eq!(
            quote.verify(&sk2.verifying_key(), &[b"data"]),
            Err(QuoteError::BadSignature)
        );
    }

    #[test]
    fn detects_swapped_signature() {
        let sk = key(6);
        let quote_a = Quote::create(&sk, &[b"a"]);
        let quote_b = Quote::create(&sk, &[b"b"]);
        let franken = Quote {
            digest: quote_a.digest,
            signature: quote_b.signature,
        };
        assert_eq!(
            franken.verify(&sk.verifying_key(), &[b"a"]),
            Err(QuoteError::BadSignature)
        );
    }

    #[test]
    fn empty_fields_ok() {
        let sk = key(7);
        let quote = Quote::create(&sk, &[]);
        assert!(quote.verify(&sk.verifying_key(), &[]).is_ok());
        assert!(quote.verify(&sk.verifying_key(), &[b""]).is_err());
    }
}
