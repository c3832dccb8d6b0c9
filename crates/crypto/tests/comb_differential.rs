//! The fixed-base comb and the key-bound verifier built on it.
//!
//! `Comb::pow` is held, bit for bit, to the square-and-multiply ladder in
//! `support::bignum_ref` — which shares no code with the Montgomery
//! kernels — at both table widths the crate ships (one block for a bound
//! key, four for the generator), on seeded random exponents and on the
//! exponents where a comb has seams: the row boundaries, a full row, and
//! values at or above the group order. `BoundKey::verify` is then held to
//! `VerifyingKey::verify`: the same `Result` for every accept and every
//! class of reject.

mod support;

use monatt_crypto::bigint::U256;
use monatt_crypto::comb::Comb;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::error::CryptoError;
use monatt_crypto::group::Group;
use monatt_crypto::montgomery::MontgomeryCtx;
use monatt_crypto::schnorr::{BoundKey, Signature, SigningKey};
use proptest::test_runner::TestRng;
use support::bignum_ref::mod_exp_ref;

fn random_u256(rng: &mut TestRng) -> U256 {
    U256::from_limbs(std::array::from_fn(|_| rng.next_u64()))
}

/// `2^bit`.
fn single_bit(bit: usize) -> U256 {
    let mut limbs = [0u64; 4];
    limbs[bit / 64] = 1 << (bit % 64);
    U256::from_limbs(limbs)
}

/// All 32 bits of `row` set, every other bit clear.
fn full_row(row: usize) -> U256 {
    let mut limbs = [0u64; 4];
    limbs[row / 2] = 0xffff_ffff << (32 * (row % 2));
    U256::from_limbs(limbs)
}

/// The bases a comb is built for: the generator and a key-like `g^k`.
fn bases(grp: &Group) -> [U256; 2] {
    let k = U256::from_hex("2718281828459045235360287471352662497757").unwrap();
    [grp.g, grp.pow_g(&k)]
}

/// Checks both shipped widths of the comb for `base` against the ladder.
fn check_against_ladder(grp: &Group, base: &U256, exps: &[U256]) {
    let ctx = MontgomeryCtx::new(&grp.p).unwrap();
    let (narrow, wide) = (Comb::<1>::new(&ctx, base), Comb::<4>::new(&ctx, base));
    for exp in exps {
        let expect = mod_exp_ref(base, exp, &grp.p);
        assert_eq!(narrow.pow(exp), expect, "1 block: {base:?} ^ {exp:?}");
        assert_eq!(wide.pow(exp), expect, "4 blocks: {base:?} ^ {exp:?}");
    }
}

#[test]
fn comb_matches_ladder_on_random_exponents() {
    let grp = Group::default_group();
    let mut rng = TestRng::from_state(0x636f_6d62);
    let exps: Vec<U256> = (0..48)
        .map(|i| match i % 3 {
            // Full width (most are ≥ q), reduced, and short.
            0 => random_u256(&mut rng),
            1 => random_u256(&mut rng).rem(&grp.q),
            _ => U256::from_u64(rng.next_u64()),
        })
        .collect();
    for base in bases(grp) {
        check_against_ladder(grp, &base, &exps);
    }
}

#[test]
fn comb_matches_ladder_on_edge_exponents() {
    let grp = Group::default_group();
    let mut exps = vec![
        U256::ZERO,
        U256::ONE,
        grp.q.wrapping_sub(&U256::ONE),
        grp.q,
        U256::MAX,
    ];
    for row in 0..8 {
        // The last column of one row and the first of the next sit in
        // different table-index bits; a full row hits every column once.
        exps.extend([
            single_bit(32 * row),
            single_bit(32 * row + 31),
            full_row(row),
        ]);
    }
    for base in bases(grp) {
        check_against_ladder(grp, &base, &exps);
    }
}

#[test]
fn binding_refuses_everything_outside_the_subgroup() {
    let grp = Group::default_group();
    let [_, element] = bases(grp);
    let refused = [
        U256::ZERO,
        U256::ONE,
        grp.p.wrapping_sub(&U256::ONE),
        // p ≡ 3 (mod 4): the negation of a residue is a non-residue.
        grp.p.wrapping_sub(&element),
        grp.p,
        grp.p.wrapping_add(&U256::ONE),
        U256::MAX,
    ];
    for x in refused {
        assert_eq!(
            BoundKey::from_bytes(&x.to_be_bytes()).err(),
            Some(CryptoError::InvalidKey),
            "x = {x:?}"
        );
    }
    let bound = BoundKey::from_bytes(&element.to_be_bytes()).unwrap();
    assert_eq!(bound.key().element(), element);
}

/// One way a (key, message, signature) triple can be wrong — or right.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    Genuine,
    WrongKey,
    TamperedMessage,
    TamperedS,
    TamperedR,
    SAtOrder,
    SAboveOrder,
    RZero,
    RAtModulus,
    RAboveModulus,
}

const CASES: [Case; 10] = [
    Case::Genuine,
    Case::WrongKey,
    Case::TamperedMessage,
    Case::TamperedS,
    Case::TamperedR,
    Case::SAtOrder,
    Case::SAboveOrder,
    Case::RZero,
    Case::RAtModulus,
    Case::RAboveModulus,
];

#[test]
fn bound_and_bare_keys_return_the_same_verdict() {
    let grp = Group::default_group();
    let mut rng = Drbg::from_seed(0x62_6f75_6e64);
    let signers: Vec<SigningKey> = (0..50).map(|_| SigningKey::generate(&mut rng)).collect();
    let bound: Vec<BoundKey> = signers
        .iter()
        .map(|sk| BoundKey::new(sk.verifying_key()))
        .collect();
    let mut accepted = 0;
    for triple in 0..2_000usize {
        let signer = triple % signers.len();
        let case = CASES[(triple / signers.len()) % CASES.len()];
        let mut message = [0u8; 48];
        rng.fill_bytes(&mut message[..1 + triple % 48]);
        let message = &mut message[..1 + triple % 48];
        let genuine = signers[signer].sign(message);
        let Signature { mut r, mut s } = genuine;
        let mut verifier = signer;
        match case {
            Case::Genuine => {}
            Case::WrongKey => verifier = (signer + 1) % signers.len(),
            Case::TamperedMessage => message[0] ^= 1,
            Case::TamperedS => s = grp.scalar_add(&s, &U256::ONE),
            Case::TamperedR => r = grp.mul(&r, &grp.g),
            Case::SAtOrder => s = grp.q,
            // s + q names the same exponent of g, but is out of range.
            Case::SAboveOrder => s = s.wrapping_add(&grp.q),
            Case::RZero => r = U256::ZERO,
            Case::RAtModulus => r = grp.p,
            Case::RAboveModulus => r = U256::MAX,
        }
        let signature = Signature { r, s };
        let bare = signers[verifier]
            .verifying_key()
            .verify(message, &signature);
        assert_eq!(
            bound[verifier].verify(message, &signature),
            bare,
            "triple {triple}: {case:?}"
        );
        assert_eq!(
            bare.is_ok(),
            case == Case::Genuine,
            "triple {triple}: {case:?}"
        );
        accepted += bare.is_ok() as usize;
    }
    assert_eq!(accepted, 2_000 / CASES.len());
}
