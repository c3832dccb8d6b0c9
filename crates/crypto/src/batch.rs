//! Random-linear-combination batch verification of Schnorr signatures.
//!
//! A batch of `(pk_i, m_i, (r_i, s_i))` triples is accepted when
//!
//! ```text
//! g^(Σ z_i·s_i) · Π pk_i^(−z_i·e_i)  ==  Π r_i^(z_i)
//! ```
//!
//! holds for random nonzero weights `z_i`, where `e_i = H(r_i || m_i) mod
//! q`. Each genuine signature satisfies `g^(s_i) = r_i · pk_i^(e_i)`, so
//! the product of the weighted relations collapses to an identity; a
//! forged signature survives only if its error term happens to cancel
//! against the random weights, which for 64-bit weights happens with
//! probability `2^-64` per attempt.
//!
//! The win is arithmetic amortization: the two `Π`-products run as Straus
//! interleaved multi-exponentiations ([`MontgomeryCtx::multi_pow_mont`])
//! that pay the ~256-squaring chain **once per batch** instead of once per
//! signature, and the `g` factor comes from the fixed-base comb. At batch
//! 64 this verifies quotes several times faster than a serial loop.
//!
//! [`MontgomeryCtx::multi_pow_mont`]: crate::montgomery::MontgomeryCtx::multi_pow_mont
//!
//! ## Weight determinism
//!
//! The weights come from a dedicated [`Drbg`] seeded by hashing the entire
//! batch (domain tag, each key, each commitment, each response, each
//! message digest, all length-framed by position). Re-verifying the same
//! batch therefore draws the same weights — a requirement for the
//! simulator's reproducible traces — while a forger must commit to every
//! signature before the weights exist, which is exactly the Fiat–Shamir
//! argument that makes fixed-width random weights sound.
//!
//! A failed batch says only "at least one signature is bad". Callers that
//! need per-item verdicts use [`batch_verify_each`], which falls back to
//! serial verification to identify the culprits — a forged quote must
//! never poison its batch-mates.

use crate::bigint::U256;
use crate::drbg::Drbg;
use crate::error::CryptoError;
use crate::group::Group;
use crate::schnorr::{challenge, Signature, VerifyingKey};
use crate::sha256::Sha256;

/// Domain-separation tag for the weight-DRBG seed.
const WEIGHT_DST: &[u8] = b"monatt/batch-weights/v1";

/// One entry of a verification batch: signer, message, signature.
pub type BatchItem<'a> = (VerifyingKey, &'a [u8], Signature);

/// Verifies a whole batch of Schnorr signatures at once.
///
/// Empty batches are vacuously valid; singleton batches delegate to the
/// plain serial [`VerifyingKey::verify`] (the batch equation only pays for
/// itself from two items up).
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] if *any* signature in the
/// batch fails — without identifying which. Use [`batch_verify_each`]
/// when per-item verdicts are needed.
pub fn batch_verify(items: &[BatchItem<'_>]) -> Result<(), CryptoError> {
    let grp = Group::default_group();
    match items {
        [] => return Ok(()),
        [(key, msg, sig)] => return key.verify(msg, sig),
        _ => {}
    }
    // Range checks up front: an out-of-range component is an outright
    // reject, and admitting it to the algebra below would let e.g. s >= q
    // alias a valid response.
    for (_, _, sig) in items {
        if sig.s >= grp.q || sig.r.is_zero() || sig.r >= grp.p {
            return Err(CryptoError::InvalidSignature);
        }
    }
    let weights = batch_weights(items);
    let mctx = grp.mont_ctx();
    let mut zs_sum = U256::ZERO;
    let mut pk_bases = Vec::with_capacity(items.len());
    let mut pk_exps = Vec::with_capacity(items.len());
    let mut r_bases = Vec::with_capacity(items.len());
    // Distinct keys seen so far, each mapped to its slot in `pk_bases`.
    // Real batches repeat keys heavily — one identity key signs every
    // AVK binding from a server, and a reused AVK signs many quotes —
    // and `pk^a · pk^b = pk^(a+b mod q)` (the key has order q), so each
    // repeat folds into an existing exponent instead of adding another
    // 256-bit base to the multi-exponentiation.
    let mut seen: Vec<(U256, usize)> = Vec::with_capacity(items.len());
    for ((key, msg, sig), z) in items.iter().zip(weights.iter()) {
        let e = challenge(&sig.r, msg, &grp.q);
        zs_sum = grp.scalar_add(&zs_sum, &grp.scalar_mul(z, &sig.s));
        // pk_i^(−z_i·e_i) = pk_i^(q − z_i·e_i): the key has order q.
        let exp = grp.scalar_neg(&grp.scalar_mul(z, &e));
        let element = key.element();
        match seen.iter().find(|(el, _)| *el == element) {
            Some((_, slot)) => {
                pk_exps[*slot] = grp.scalar_add(&pk_exps[*slot], &exp);
            }
            None => {
                seen.push((element, pk_bases.len()));
                pk_bases.push(mctx.to_mont(&element));
                pk_exps.push(exp);
            }
        }
        r_bases.push(mctx.to_mont(&sig.r));
    }
    let lhs = mctx.mont_mul(
        &grp.pow_g_mont(&zs_sum),
        &mctx.multi_pow_mont(&pk_bases, &pk_exps),
    );
    let rhs = mctx.multi_pow_mont(&r_bases, &weights);
    if lhs == rhs {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Verifies a batch and returns a per-item verdict.
///
/// Runs [`batch_verify`] first; when the batch equation holds every item
/// is accepted in one shot. When it fails, each signature is re-verified
/// serially so exactly the forged items are rejected and their batch-mates
/// still pass.
pub fn batch_verify_each(items: &[BatchItem<'_>]) -> Vec<Result<(), CryptoError>> {
    if batch_verify(items).is_ok() {
        vec![Ok(()); items.len()]
    } else {
        items
            .iter()
            .map(|(key, msg, sig)| key.verify(msg, sig))
            .collect()
    }
}

/// Draws the 64-bit nonzero batch weights from a DRBG seeded over the
/// batch contents (see the module docs for the determinism argument).
fn batch_weights(items: &[BatchItem<'_>]) -> Vec<U256> {
    let mut h = Sha256::new();
    h.update(WEIGHT_DST);
    h.update(&(items.len() as u64).to_be_bytes());
    for (key, msg, sig) in items {
        // Keys and signatures are fixed-width; messages are framed by
        // hashing so no two batches collide across item boundaries.
        h.update(&key.to_bytes());
        h.update(&sig.to_bytes());
        let mut mh = Sha256::new();
        mh.update(msg);
        h.update(&mh.finalize());
    }
    let mut drbg = Drbg::from_seed_bytes(h.finalize());
    items
        .iter()
        .map(|_| U256::from_u64(drbg.next_u64().max(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SigningKey;

    fn keypair(seed: u64) -> SigningKey {
        SigningKey::generate(&mut Drbg::from_seed(seed))
    }

    fn batch_of(n: usize) -> (Vec<SigningKey>, Vec<Vec<u8>>) {
        let keys: Vec<SigningKey> = (0..n).map(|i| keypair(100 + i as u64)).collect();
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("quote over measurement {i}").into_bytes())
            .collect();
        (keys, msgs)
    }

    fn items<'a>(keys: &[SigningKey], msgs: &'a [Vec<u8>]) -> Vec<BatchItem<'a>> {
        keys.iter()
            .zip(msgs.iter())
            .map(|(k, m)| (k.verifying_key(), m.as_slice(), k.sign(m)))
            .collect()
    }

    #[test]
    fn accepts_valid_batches_of_all_sizes() {
        for n in [0usize, 1, 2, 3, 8, 64] {
            let (keys, msgs) = batch_of(n);
            assert!(batch_verify(&items(&keys, &msgs)).is_ok(), "n = {n}");
        }
    }

    #[test]
    fn rejects_batch_with_one_forgery() {
        let (keys, msgs) = batch_of(8);
        let mut batch = items(&keys, &msgs);
        batch[3].2.s = Group::default_group().scalar_add(&batch[3].2.s, &U256::ONE);
        assert_eq!(batch_verify(&batch), Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn rejects_swapped_signatures() {
        // Both signatures are individually valid but attached to the wrong
        // message; the batch relation must still catch the swap.
        let (keys, msgs) = batch_of(2);
        let mut batch = items(&keys, &msgs);
        let tmp = batch[0].2;
        batch[0].2 = batch[1].2;
        batch[1].2 = tmp;
        assert!(batch_verify(&batch).is_err());
    }

    #[test]
    fn rejects_out_of_range_member() {
        let (keys, msgs) = batch_of(4);
        let mut batch = items(&keys, &msgs);
        batch[2].2.r = U256::ZERO;
        assert!(batch_verify(&batch).is_err());
    }

    #[test]
    fn duplicate_keys_and_messages_are_fine() {
        let sk = keypair(42);
        let msg = b"same quote twice".to_vec();
        let sig = sk.sign(&msg);
        let batch = vec![
            (sk.verifying_key(), msg.as_slice(), sig),
            (sk.verifying_key(), msg.as_slice(), sig),
        ];
        assert!(batch_verify(&batch).is_ok());
    }

    #[test]
    fn fallback_identifies_exact_culprits() {
        let (keys, msgs) = batch_of(8);
        let mut batch = items(&keys, &msgs);
        batch[1].2.s = Group::default_group().scalar_add(&batch[1].2.s, &U256::ONE);
        batch[6].2.s = Group::default_group().scalar_add(&batch[6].2.s, &U256::ONE);
        let verdicts = batch_verify_each(&batch);
        for (i, v) in verdicts.iter().enumerate() {
            if i == 1 || i == 6 {
                assert!(v.is_err(), "forged item {i} must be rejected");
            } else {
                assert!(v.is_ok(), "honest item {i} must survive");
            }
        }
    }

    #[test]
    fn weights_are_deterministic() {
        let (keys, msgs) = batch_of(4);
        let batch = items(&keys, &msgs);
        assert_eq!(batch_weights(&batch), batch_weights(&batch));
        let (keys2, msgs2) = batch_of(5);
        let batch2 = items(&keys2, &msgs2);
        assert_ne!(batch_weights(&batch)[0], batch_weights(&batch2)[0]);
    }
}
