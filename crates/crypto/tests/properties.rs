//! Property-based tests for the cryptographic substrate.

use monatt_crypto::bigint::U256;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::group::Group;
use monatt_crypto::hmac::{hkdf, hmac_sha256};
use monatt_crypto::schnorr::SigningKey;
use monatt_crypto::sha256::sha256;
use monatt_crypto::SealKey;
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

/// A u128 lifted into U256 — small enough to cross-check against native
/// arithmetic.
fn arb_small() -> impl Strategy<Value = (u64, u64)> {
    (any::<u64>(), any::<u64>())
}

proptest! {
    #[test]
    fn add_sub_roundtrip(a in arb_u256(), b in arb_u256()) {
        let (sum, _) = a.overflowing_add(&b);
        prop_assert_eq!(sum.wrapping_sub(&b), a);
    }

    #[test]
    fn add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn mul_matches_u128(pair in arb_small()) {
        let (a, b) = pair;
        let prod = U256::from_u64(a).full_mul(&U256::from_u64(b));
        let expected = (a as u128) * (b as u128);
        prop_assert_eq!(prod.rem(&U256::MAX), {
            let mut limbs = [0u64; 4];
            limbs[0] = expected as u64;
            limbs[1] = (expected >> 64) as u64;
            U256::from_limbs(limbs)
        });
    }

    #[test]
    fn be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_u256()) {
        let hex = format!("{:x}", a);
        prop_assert_eq!(U256::from_hex(&hex).unwrap(), a);
    }

    #[test]
    fn div_rem_reconstructs(a in arb_u256(), m in arb_u256()) {
        prop_assume!(!m.is_zero());
        let (q, r) = a.div_rem(&m);
        prop_assert!(r < m);
        // a - r is exactly q*m: dividing it by m must give (q, 0).
        let diff = a.checked_sub(&r).unwrap();
        let (q2, r2) = diff.div_rem(&m);
        prop_assert_eq!(q2, q);
        prop_assert_eq!(r2, U256::ZERO);
    }

    #[test]
    fn mod_exp_addition_law(a in any::<u64>(), b in any::<u64>()) {
        // g^a * g^b == g^(a+b) in the default group.
        let grp = Group::default_group();
        let ga = grp.pow_g(&U256::from_u64(a));
        let gb = grp.pow_g(&U256::from_u64(b));
        let (sum, _) = U256::from_u64(a).overflowing_add(&U256::from_u64(b));
        prop_assert_eq!(grp.mul(&ga, &gb), grp.pow_g(&sum));
    }

    #[test]
    fn fermat_in_group(x in 2u64..u64::MAX) {
        // x^(p-1) == 1 mod p for prime p.
        let grp = Group::default_group();
        let exp = grp.p.wrapping_sub(&U256::ONE);
        prop_assert_eq!(grp.pow(&U256::from_u64(x), &exp), U256::ONE);
    }

    #[test]
    fn sha256_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
    }

    #[test]
    fn hmac_key_sensitivity(
        k1 in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut k2 = k1.clone();
        k2[0] ^= 1;
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    #[test]
    fn hkdf_output_len(len in 0usize..=255 * 32) {
        prop_assert_eq!(hkdf(b"salt", b"ikm", b"info", len).len(), len);
    }

    #[test]
    fn schnorr_roundtrip(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sk = SigningKey::generate(&mut Drbg::from_seed(seed));
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn schnorr_rejects_bitflip(seed in any::<u64>(), mut msg in proptest::collection::vec(any::<u8>(), 1..128), idx in any::<proptest::sample::Index>()) {
        let sk = SigningKey::generate(&mut Drbg::from_seed(seed));
        let sig = sk.sign(&msg);
        let i = idx.index(msg.len());
        msg[i] ^= 1;
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_err());
    }

    #[test]
    fn seal_open_roundtrip(
        secret in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let key = SealKey::derive(&secret, b"test");
        let sealed = key.seal(&nonce, &aad, &pt);
        prop_assert_eq!(key.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn seal_tamper_detected(
        secret in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..64),
        idx in any::<proptest::sample::Index>(),
    ) {
        let key = SealKey::derive(&secret, b"test");
        let nonce = [0u8; 12];
        let mut sealed = key.seal(&nonce, b"", &pt);
        let i = idx.index(sealed.len());
        sealed[i] ^= 1;
        prop_assert!(key.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn drbg_bounded(seed in any::<u64>(), bound in 1u64..=u64::MAX) {
        let mut rng = Drbg::from_seed(seed);
        prop_assert!(rng.next_u64_below(bound) < bound);
    }
}
