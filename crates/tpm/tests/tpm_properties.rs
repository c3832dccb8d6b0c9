//! Property-based tests for the Trust Module substrate.

use monatt_crypto::drbg::Drbg;
use monatt_tpm::pcr::PcrBank;
use monatt_tpm::quote::Quote;
use monatt_tpm::registers::{RegisterLayout, TrustEvidenceRegisters};
use monatt_tpm::TrustModule;
use proptest::prelude::*;

proptest! {
    // Key generation and signing are mod-exp heavy; a modest case count
    // keeps the suite fast while still exploring the space.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PCR extension commits to the exact digest sequence: any
    /// permutation or truncation yields a different value.
    #[test]
    fn pcr_commits_to_sequence(
        digests in proptest::collection::vec(any::<[u8; 32]>(), 1..8),
    ) {
        let full = PcrBank::replay(&digests);
        // Truncation changes the value.
        let truncated = PcrBank::replay(&digests[..digests.len() - 1]);
        prop_assert_ne!(full, truncated);
        // Swapping two distinct adjacent digests changes the value.
        if digests.len() >= 2 && digests[0] != digests[1] {
            let mut swapped = digests.clone();
            swapped.swap(0, 1);
            prop_assert_ne!(full, PcrBank::replay(&swapped));
        }
    }

    /// Extending a bank step by step always matches replay.
    #[test]
    fn extend_matches_replay(
        digests in proptest::collection::vec(any::<[u8; 32]>(), 0..10),
        index in 0usize..24,
    ) {
        let mut bank = PcrBank::new();
        for d in &digests {
            bank.extend(index, *d, "component");
        }
        prop_assert_eq!(bank.read(index), PcrBank::replay(&digests));
        prop_assert_eq!(bank.log().len(), digests.len());
    }

    /// Histogram registers preserve total counts and bin samples.
    #[test]
    fn histogram_registers_conserve_counts(
        samples in proptest::collection::vec(1u64..60_000, 0..64),
    ) {
        let mut regs = TrustEvidenceRegisters::new(RegisterLayout::Histogram {
            bins: 30,
            bin_width_us: 1_000,
        });
        let token = regs.unlock();
        for s in &samples {
            regs.record_interval(&token, *s, 1);
        }
        prop_assert_eq!(regs.total(), samples.len() as u64);
        let dist = regs.distribution();
        if !samples.is_empty() {
            let sum: f64 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Quotes verify for exactly the fields they were created over.
    #[test]
    fn quotes_bind_fields(
        seed in any::<u64>(),
        fields in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32),
            1..5,
        ),
    ) {
        let mut tm = TrustModule::provision(Drbg::from_seed(seed));
        let session = tm.begin_attestation();
        let refs: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
        let quote = session.quote(&refs);
        prop_assert!(quote.verify(&session.attestation_key(), &refs).is_ok());
        // Dropping the last field breaks verification.
        let shorter: Vec<&[u8]> = refs[..refs.len() - 1].to_vec();
        prop_assert!(quote.verify(&session.attestation_key(), &shorter).is_err());
    }

    /// Attestation sessions are unlinkable: fresh keys every time, all
    /// certified by the same identity.
    #[test]
    fn sessions_use_fresh_certified_keys(seed in any::<u64>(), rounds in 1usize..5) {
        let mut tm = TrustModule::provision(Drbg::from_seed(seed));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..rounds {
            let session = tm.begin_attestation();
            prop_assert!(session.certification_request().verify());
            prop_assert!(seen.insert(session.attestation_key().to_bytes()));
        }
    }
}

/// Deterministic check that belongs with the properties: quotes never
/// verify under a different session's key.
#[test]
fn quote_is_session_specific() {
    let mut tm = TrustModule::provision(Drbg::from_seed(1));
    let s1 = tm.begin_attestation();
    let s2 = tm.begin_attestation();
    let quote: Quote = s1.quote(&[b"payload"]);
    assert!(quote.verify(&s1.attestation_key(), &[b"payload"]).is_ok());
    assert!(quote.verify(&s2.attestation_key(), &[b"payload"]).is_err());
}
