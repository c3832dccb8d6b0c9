//! Differential property test: `batch_verify_each` must agree with the
//! serial `VerifyingKey::verify` loop item for item — over every batch
//! size the AS hot path uses, with zero, one or many forged signatures,
//! and with duplicate signers in the batch (the same cloud server's AVK
//! can appear twice when two sessions coalesce into one flush).

use monatt_crypto::batch::{batch_verify, batch_verify_each, BatchItem};
use monatt_crypto::bigint::U256;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::group::Group;
use monatt_crypto::schnorr::SigningKey;
use proptest::prelude::*;

/// Builds a batch of `n` signed messages, forging the signatures whose
/// index bit is set in `forged_mask`, and returns the owned parts plus
/// the expected per-item validity.
fn build_case(
    n: usize,
    seed: u64,
    forged_mask: u64,
    dup_keys: bool,
) -> (Vec<SigningKey>, Vec<Vec<u8>>, Vec<bool>) {
    let mut rng = Drbg::from_seed(seed);
    // With duplicate keys, two signers cover the whole batch — the
    // weight derivation and the batch algebra must not assume distinct
    // bases.
    let distinct = if dup_keys { 2.min(n.max(1)) } else { n.max(1) };
    let pool: Vec<SigningKey> = (0..distinct)
        .map(|_| SigningKey::generate(&mut rng))
        .collect();
    let keys: Vec<SigningKey> = (0..n).map(|i| pool[i % distinct].clone()).collect();
    let msgs: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("quote {i} under seed {seed}").into_bytes())
        .collect();
    let valid: Vec<bool> = (0..n).map(|i| forged_mask & (1 << (i % 64)) == 0).collect();
    (keys, msgs, valid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_matches_serial_for_all_sizes_and_forgery_counts(
        n in prop_oneof![Just(1usize), Just(2), Just(8), Just(64)],
        seed in any::<u64>(),
        forged_mask in any::<u64>(),
        dup_keys in any::<bool>(),
    ) {
        let (keys, msgs, valid) = build_case(n, seed, forged_mask, dup_keys);
        let grp = Group::default_group();
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&msgs)
            .zip(&valid)
            .map(|((k, m), ok)| {
                let mut sig = k.sign(m);
                if !ok {
                    // A response nudged off by one fails the Schnorr
                    // relation with overwhelming probability.
                    sig.s = grp.scalar_add(&sig.s, &U256::ONE);
                }
                (k.verifying_key(), m.as_slice(), sig)
            })
            .collect();
        let serial: Vec<bool> = items
            .iter()
            .map(|(k, m, sig)| k.verify(m, sig).is_ok())
            .collect();
        // The forgery model really produced the intended verdicts.
        prop_assert_eq!(&serial, &valid);
        // Whole-batch accept/reject agrees with "any forgery present".
        let all_valid = valid.iter().all(|v| *v);
        prop_assert_eq!(batch_verify(&items).is_ok(), all_valid);
        // Per-item verdicts agree with the serial loop exactly: the
        // fallback pins failures on the forged items and never poisons
        // their batch-mates.
        let each: Vec<bool> = batch_verify_each(&items)
            .iter()
            .map(|v| v.is_ok())
            .collect();
        prop_assert_eq!(&each, &serial);
    }
}
