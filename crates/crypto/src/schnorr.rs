//! Schnorr signatures over the crate's safe-prime [`Group`].
//!
//! Signing uses deterministic nonces (an HMAC of the secret key and the
//! message, in the spirit of RFC 6979) so a broken RNG can never leak the
//! key through nonce reuse.
//!
//! Verification has one body (`verify_equation`) and two kinds of key
//! that can stand behind it (the [`Verifier`] trait): a bare
//! [`VerifyingKey`], for a key seen once — a fresh session attestation
//! key, a handshake peer — and a [`BoundKey`], which a verifying party
//! builds once for each long-lived trust anchor it holds and which makes
//! every later verification against that key about three times cheaper.

use crate::bigint::U256;
use crate::comb::Comb;
use crate::drbg::Drbg;
use crate::error::CryptoError;
use crate::group::Group;
use crate::hmac::HmacSha256;
use crate::sha256::Sha256;
use crate::zeroize::Zeroizing;

/// A Schnorr signing (private) key.
#[derive(Clone)]
pub struct SigningKey {
    secret: U256,
    public: VerifyingKey,
    /// HMAC state keyed with the secret scalar, cloned per signature to
    /// derive the deterministic nonce. Redacts and scrubs itself.
    nonce_mac: HmacSha256,
}

impl PartialEq for SigningKey {
    fn eq(&self, other: &Self) -> bool {
        // `public = g^secret` with `secret` in `[1, q)` and `g` of order
        // `q`, so equal public keys mean equal secrets.
        self.public == other.public
    }
}

impl Eq for SigningKey {}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Drop for SigningKey {
    fn drop(&mut self) {
        self.secret.zeroize();
    }
}

/// A Schnorr verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub(crate) U256);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({:x})", self.0)
    }
}

/// A Schnorr signature `(r, s)`: the nonce commitment `r = g^k mod p` and
/// the response `s = k + e·sk mod q`, where `e = H(r || m) mod q`.
///
/// The commitment form (rather than the compact `(e, s)` form) is what
/// makes verification *batchable*: each signature contributes the linear
/// relation `g^s = r · pk^e`, and [`crate::batch::batch_verify`] can fold
/// many such relations into one multi-exponentiation with random weights.
/// In the `(e, s)` form every `r` is locked inside its own challenge hash
/// and no combination is possible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Nonce commitment `g^k mod p`.
    pub r: U256,
    /// Response scalar `k + e·sk mod q`.
    pub s: U256,
}

impl Signature {
    /// Serializes to 64 bytes (`r || s`, each 32 bytes big-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Deserializes from the 64-byte form produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Signature {
            r: U256::from_be_bytes(&r),
            s: U256::from_be_bytes(&s),
        }
    }
}

impl SigningKey {
    /// Generates a fresh key pair using randomness from `rng`.
    pub fn generate(rng: &mut Drbg) -> Self {
        let grp = Group::default_group();
        let secret = rng.next_u256_in_group(&grp.q);
        Self::from_secret(secret)
    }

    /// Builds a key pair from an existing secret scalar (reduced mod `q`;
    /// must not reduce to zero).
    ///
    /// # Panics
    ///
    /// Panics if the secret reduces to zero modulo the group order.
    pub fn from_secret(secret: U256) -> Self {
        let grp = Group::default_group();
        let secret = secret.rem(&grp.q);
        assert!(!secret.is_zero(), "secret key must be nonzero mod q");
        let public = VerifyingKey(grp.pow_g(&secret));
        let sk_bytes = Zeroizing::new(secret.to_be_bytes());
        let nonce_mac = HmacSha256::new(&sk_bytes[..]);
        SigningKey {
            secret,
            public,
            nonce_mac,
        }
    }

    /// Returns the corresponding verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let grp = Group::default_group();
        // Deterministic nonce: k = HMAC(sk, message) mod q, retried with a
        // counter in the (cryptographically negligible) zero case.
        let mut counter = 0u8;
        let k = loop {
            // Streamed as HMAC(sk, message || counter): same tag as the
            // concatenated form, no per-signature buffer.
            let mut mac = self.nonce_mac.clone();
            mac.update(message);
            mac.update(&[counter]);
            let k = U256::from_be_bytes(&mac.finalize()).rem(&grp.q);
            if !k.is_zero() {
                break k;
            }
            counter = counter.wrapping_add(1);
        };
        let r = grp.pow_g(&k);
        let e = challenge(&r, message, &grp.q);
        // s = k + e * sk mod q
        let s = grp.scalar_add(&k, &grp.scalar_mul(&e, &self.secret));
        Signature { r, s }
    }
}

impl VerifyingKey {
    /// Returns the key's group element.
    pub fn element(&self) -> U256 {
        self.0
    }

    /// Encodes as 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Decodes a key and validates group membership.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the element is not in the
    /// prime-order subgroup.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        let elem = U256::from_be_bytes(bytes);
        if Group::default_group().is_element(&elem) {
            Ok(VerifyingKey(elem))
        } else {
            Err(CryptoError::InvalidKey)
        }
    }

    /// Verifies `signature` over `message`, raising the key to the
    /// challenge with a windowed ladder (252 squarings). A key that will
    /// be verified against again is worth a [`BoundKey`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let mont = Group::default_group().mont_ctx();
        verify_equation(message, signature, |exp| {
            mont.pow_mont(&mont.to_mont(&self.0), exp)
        })
    }
}

/// A [`VerifyingKey`] bound to its fixed-base table: what a verifying
/// party holds for a trust anchor — a key installed at deployment and
/// checked against session after session.
///
/// Building one costs less than two one-shot verifications, and 8 KiB;
/// after that [`BoundKey::verify`] runs the same checks as
/// [`VerifyingKey::verify`] with 31 squarings where the ladder pays 252.
/// A clone shares the table, so handing the key to another thread costs
/// a reference count, not 8 KiB.
#[derive(Clone)]
pub struct BoundKey {
    key: VerifyingKey,
    comb: Comb<1>,
}

impl std::fmt::Debug for BoundKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoundKey({:x})", self.key.0)
    }
}

impl BoundKey {
    /// Binds `key`, building its table.
    pub fn new(key: VerifyingKey) -> Self {
        let comb = Comb::new(Group::default_group().mont_ctx(), &key.0);
        BoundKey { key, comb }
    }

    /// Decodes, validates and binds a key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the element is not in the
    /// prime-order subgroup.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        VerifyingKey::from_bytes(bytes).map(BoundKey::new)
    }

    /// The key this table was built for.
    pub fn key(&self) -> VerifyingKey {
        self.key
    }

    /// Verifies `signature` over `message`: the same result as
    /// [`VerifyingKey::verify`] under [`Self::key`], for every input.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        verify_equation(message, signature, |exp| self.comb.pow_mont(exp))
    }
}

/// A public key a Schnorr signature can be verified against — bare or
/// bound. Code that checks a signature but does not care how long its
/// caller has known the key takes `&impl Verifier`.
pub trait Verifier {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if verification fails.
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError>;
}

impl Verifier for VerifyingKey {
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        VerifyingKey::verify(self, message, signature)
    }
}

impl Verifier for BoundKey {
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        BoundKey::verify(self, message, signature)
    }
}

/// The verification body: range checks, the challenge hash, and
/// `g^s · pk^(−e) == r`. `key_pow` supplies the one factor that depends
/// on how the key is held: `pk^exp mod p` in Montgomery form under the
/// group's context.
fn verify_equation(
    message: &[u8],
    signature: &Signature,
    key_pow: impl FnOnce(&U256) -> U256,
) -> Result<(), CryptoError> {
    let grp = Group::default_group();
    if signature.s >= grp.q || signature.r.is_zero() || signature.r >= grp.p {
        return Err(CryptoError::InvalidSignature);
    }
    // r' = g^s · pk^(q − e): pk has order q, so pk^(q−e) = pk^(−e). The
    // generator factor comes from its comb; only the key factor's cost
    // depends on the caller.
    let e = challenge(&signature.r, message, &grp.q);
    let neg_e = grp.scalar_neg(&e);
    let mont = grp.mont_ctx();
    let product = mont.mont_mul(&grp.pow_g_mont(&signature.s), &key_pow(&neg_e));
    if mont.from_mont(&product) == signature.r {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// The Fiat-Shamir challenge: `H(r || m) mod q`.
pub(crate) fn challenge(r: &U256, message: &[u8], q: &U256) -> U256 {
    let mut h = Sha256::new();
    h.update(&r.to_be_bytes());
    h.update(message);
    U256::from_be_bytes(&h.finalize()).rem(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(seed: u64) -> SigningKey {
        SigningKey::generate(&mut Drbg::from_seed(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = keypair(1);
        let sig = sk.sign(b"attestation report");
        assert!(sk
            .verifying_key()
            .verify(b"attestation report", &sig)
            .is_ok());
    }

    #[test]
    fn rejects_wrong_message() {
        let sk = keypair(2);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"tampered", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn rejects_wrong_key() {
        let sk1 = keypair(3);
        let sk2 = keypair(4);
        let sig = sk1.sign(b"msg");
        assert!(sk2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let sk = keypair(5);
        let mut sig = sk.sign(b"msg");
        sig.s = Group::default_group().scalar_add(&sig.s, &U256::ONE);
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_out_of_range_scalars() {
        let sk = keypair(6);
        let mut sig = sk.sign(b"msg");
        sig.s = Group::default_group().q; // == q is invalid
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());

        let mut sig = sk.sign(b"msg");
        sig.r = Group::default_group().p; // commitment must be < p
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());

        let mut sig = sk.sign(b"msg");
        sig.r = U256::ZERO; // and nonzero
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        let sk = keypair(7);
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"n"));
    }

    #[test]
    fn nonce_is_hmac_of_the_secret_over_message_and_counter() {
        // The keyed state inside the key must derive the nonce the
        // definition gives: k = HMAC(sk, message || 0) mod q.
        let grp = Group::default_group();
        let secret = U256::from_hex("1234567890abcdef1234567890abcdef").unwrap();
        let sk = SigningKey::from_secret(secret);
        let message = b"attestation report";
        let mut keyed_message = message.to_vec();
        keyed_message.push(0);
        let tag = crate::hmac::hmac_sha256(&secret.to_be_bytes(), &keyed_message);
        let k = U256::from_be_bytes(&tag).rem(&grp.q);
        let sig = sk.sign(message);
        assert_eq!(sig.r, grp.pow_g(&k));
        // Clones carry the same keyed state, use after use.
        let clone = sk.clone();
        assert_eq!(clone.sign(message), sig);
        assert_eq!(sk.sign(message), sig);
        assert_eq!(clone, sk);
        assert_ne!(sk, keypair(7));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let sk = keypair(8);
        let sig = sk.sign(b"serialize me");
        let restored = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, restored);
        assert!(sk
            .verifying_key()
            .verify(b"serialize me", &restored)
            .is_ok());
    }

    #[test]
    fn verifying_key_serialization() {
        let sk = keypair(9);
        let vk = sk.verifying_key();
        let restored = VerifyingKey::from_bytes(&vk.to_bytes()).unwrap();
        assert_eq!(vk, restored);
        // An element outside the subgroup is rejected.
        let bad = Group::default_group().p.wrapping_sub(&U256::ONE);
        assert_eq!(
            VerifyingKey::from_bytes(&bad.to_be_bytes()),
            Err(CryptoError::InvalidKey)
        );
    }

    #[test]
    fn empty_message() {
        let sk = keypair(10);
        let sig = sk.sign(b"");
        assert!(sk.verifying_key().verify(b"", &sig).is_ok());
        assert!(sk.verifying_key().verify(b"x", &sig).is_err());
    }

    #[test]
    fn a_bound_key_is_a_key_and_a_pointer() {
        // The table and its Montgomery context sit behind the one
        // shared pointer, so a clone held per job stays small.
        let pointer = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<BoundKey>(), 32 + pointer);
    }

    #[test]
    fn debug_hides_secret() {
        let sk = keypair(11);
        let repr = format!("{:?}", sk);
        assert!(!repr.contains("secret"));
    }
}
