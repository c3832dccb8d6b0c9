//! Differential tests for the crypto fast paths.
//!
//! The seed implementation reduced everything through bit-by-bit binary
//! long division; that path lives on in `support::bignum_ref`
//! (`mod_mul_ref` / `mod_exp_ref` / `rem_binary`) precisely so these
//! tests can check the Montgomery kernels (the fused multiply-reduce, the
//! dedicated squaring, windowed exponentiation) and the word-level (Knuth
//! Algorithm D) division against a simple oracle, bit for bit, on random
//! 256-bit inputs and on the edge moduli where the fast paths have
//! special cases (moduli just below 2^256, small primes; even moduli
//! reach only the division). The group's scalar field — the context for
//! `q` plus its add and negate — is checked the same way, and the bytes
//! `sign` produces through it are pinned.

mod support;

use monatt_crypto::batch::{batch_verify, batch_verify_each, BatchItem};
use monatt_crypto::bigint::{U256, U512};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::group::Group;
use monatt_crypto::montgomery::MontgomeryCtx;
use monatt_crypto::schnorr::SigningKey;
use monatt_crypto::sha256::Sha256;
use proptest::prelude::*;
use support::bignum_ref::{mod_add_ref, mod_exp_ref, mod_mul_ref, rem_binary};
use support::SplitMix64;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

/// An odd modulus > 1 — the Montgomery-eligible domain.
fn arb_odd_modulus() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(|mut limbs| {
        limbs[0] |= 1;
        U256::from_limbs(limbs)
    })
}

proptest! {
    #[test]
    fn montgomery_mul_matches_reference(
        a in arb_u256(),
        b in arb_u256(),
        m in arb_odd_modulus(),
    ) {
        prop_assume!(m > U256::ONE);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.mul(&a, &b), mod_mul_ref(&a, &b, &m));
    }

    #[test]
    fn montgomery_form_roundtrip(a in arb_u256(), m in arb_odd_modulus()) {
        prop_assume!(m > U256::ONE);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a.rem(&m));
    }

    #[test]
    fn knuth_division_matches_binary(a in arb_u256(), b in arb_u256(), m in arb_u256()) {
        prop_assume!(!m.is_zero());
        let wide = a.full_mul(&b);
        prop_assert_eq!(wide.rem(&m), rem_binary(&wide, &m));
    }

    #[test]
    fn fused_mont_mul_and_sqr_match_reference(
        a in arb_u256(),
        b in arb_u256(),
        m in arb_odd_modulus(),
    ) {
        prop_assume!(m > U256::ONE);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        check_mont_kernels(&ctx, &a.rem(&m), &b);
    }

    #[test]
    fn pow_g_table_matches_generic_pow(exp in arb_u256()) {
        let grp = Group::default_group();
        prop_assert_eq!(grp.pow_g(&exp), grp.pow(&grp.g, &exp));
    }
}

proptest! {
    // The reference exponentiation runs a full binary-division ladder per
    // case, so keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn montgomery_pow_matches_reference(
        base in arb_u256(),
        exp in arb_u256(),
        m in arb_odd_modulus(),
    ) {
        prop_assume!(m > U256::ONE);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.pow(&base, &exp), mod_exp_ref(&base, &exp, &m));
    }

    #[test]
    fn double_exp_matches_reference(x in arb_u256(), y in arb_u256()) {
        // The product verification evaluates: the generator's comb times
        // a windowed ladder over another element.
        let grp = Group::default_group();
        let b = grp.pow_g(&U256::from_u64(11));
        let expect = mod_mul_ref(
            &mod_exp_ref(&grp.g, &x, &grp.p),
            &mod_exp_ref(&b, &y, &grp.p),
            &grp.p,
        );
        prop_assert_eq!(grp.mul(&grp.pow_g(&x), &grp.pow(&b, &y)), expect);
    }
}

/// Checks `mont_mul(a, b)` and `mont_sqr(a)` against their definition,
/// for `a < m` and any `b`: the result is fully reduced, and multiplying
/// it back by `R mod m` gives the plain product.
fn check_mont_kernels(ctx: &MontgomeryCtx, a: &U256, b: &U256) {
    let m = ctx.modulus();
    let r = ctx.one_mont();
    for (x, y) in [(a, b), (b, a)] {
        let prod = ctx.mont_mul(x, y);
        assert!(prod < *m, "mont_mul not reduced: m={m:?} x={x:?} y={y:?}");
        assert_eq!(
            mod_mul_ref(&prod, &r, m),
            mod_mul_ref(x, y, m),
            "mont_mul m={m:?} x={x:?} y={y:?}"
        );
    }
    let sq = ctx.mont_sqr(a);
    assert_eq!(sq, ctx.mont_mul(a, a), "mont_sqr m={m:?} a={a:?}");
    assert_eq!(mod_mul_ref(&sq, &r, m), mod_mul_ref(a, a, m));
}

/// Moduli where the fast paths have corner cases: the largest odd value
/// (forces the 513-bit REDC intermediate), small primes (single-limb
/// divisor path), the default group primes, and a power of two plus the
/// all-even-limb pattern (no context: the division alone).
const EDGE_MODULI_HEX: &[&str] = &[
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", // 2^256 - 1
    "3",
    "5",
    "61", // 97
    "fffffffb",
    "fffffffa",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43", // 2^256 - 189
    "8000000000000000000000000000000000000000000000000000000000000001", // 2^255 + 1
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", // top limb nearly full
    "b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f", // default p
    "5bf4fb9afba5fa30f5a04eb3ba3d313a9a78bef6a5d4ad303c87cbc2a4e46127", // default q
    "8000000000000000000000000000000000000000000000000000000000000000", // 2^255
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe", // 2^256 - 2
];

#[test]
fn edge_moduli_differential() {
    let values = [
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        U256::from_u64(0xdead_beef),
        U256::from_hex("123456789abcdef0fedcba9876543210").unwrap(),
        U256::MAX.wrapping_sub(&U256::from_u64(9)),
        U256::MAX.wrapping_sub(&U256::ONE),
        U256::MAX,
    ];
    for hex in EDGE_MODULI_HEX {
        let m = U256::from_hex(hex).unwrap();
        let ctx = MontgomeryCtx::new(&m);
        for a in &values {
            for b in &values {
                let expect = mod_mul_ref(a, b, &m);
                assert_eq!(
                    a.full_mul(b).rem(&m),
                    expect,
                    "division m={m:?} a={a:?} b={b:?}"
                );
                if let Some(ctx) = &ctx {
                    assert_eq!(ctx.mul(a, b), expect, "mul m={m:?} a={a:?} b={b:?}");
                }
            }
            // One exponentiation per (modulus, value) keeps the reference
            // ladder affordable.
            let e = U256::from_u64(0xf0f1_f2f3);
            if let Some(ctx) = &ctx {
                assert_eq!(
                    ctx.pow(a, &e),
                    mod_exp_ref(a, &e, &m),
                    "pow m={m:?} a={a:?}"
                );
            }
        }
    }
}

#[test]
fn fused_kernels_on_edge_moduli_and_operands() {
    let mut rng = SplitMix64(0x4d4f_4e54);
    for hex in EDGE_MODULI_HEX {
        let m = U256::from_hex(hex).unwrap();
        let Some(ctx) = MontgomeryCtx::new(&m) else {
            continue; // even: not Montgomery-eligible
        };
        let m_minus_1 = m.wrapping_sub(&U256::ONE);
        let mut operands = vec![
            U256::ZERO,
            U256::ONE,
            m_minus_1,
            m_minus_1.wrapping_sub(&U256::ONE),
            ctx.one_mont(),
        ];
        for _ in 0..8 {
            operands.push(U256::from_limbs(std::array::from_fn(|_| rng.next_u64())));
        }
        for a in &operands {
            for b in &operands {
                // `b` may exceed m (one unreduced operand is allowed).
                check_mont_kernels(&ctx, &a.rem(&m), b);
            }
        }
    }
}

#[test]
fn knuth_division_across_divisor_widths() {
    let mut rng = SplitMix64(0x6b6e_7574);
    let mut limb = || rng.next_u64();
    for t in 0..200usize {
        let a = U256::from_limbs(std::array::from_fn(|_| limb()));
        let b = U256::from_limbs(std::array::from_fn(|_| limb()));
        let prod = a.full_mul(&b);
        // Vary the divisor width from one limb up to four.
        let width = t % 4 + 1;
        let mut limbs = [0u64; 4];
        for l in limbs.iter_mut().take(width) {
            *l = limb() | 1;
        }
        let m = U256::from_limbs(limbs);
        assert_eq!(prod.rem(&m), rem_binary(&prod, &m), "t={t} m={m:?}");
    }
    // Divisors that stress the normalization shift: one limb with the
    // high bit set, the maximal divisor, trailing zero limbs.
    let prod = U256::MAX.full_mul(&U256::MAX);
    for m in [
        U256::from_u64(1 << 63),
        U256::MAX,
        U256::from_limbs([0, 0, 0, 1]),
        U256::from_limbs([0, 0, 1 << 63, 0]),
    ] {
        assert_eq!(prod.rem(&m), rem_binary(&prod, &m), "m={m:?}");
        let narrow = U512::from_u256(&U256::MAX);
        assert_eq!(narrow.rem(&m), rem_binary(&narrow, &m), "m={m:?}");
    }
}

#[test]
fn montgomery_eligibility() {
    // Even or trivial moduli are rejected; odd moduli > 1 are accepted.
    assert!(MontgomeryCtx::new(&U256::ZERO).is_none());
    assert!(MontgomeryCtx::new(&U256::ONE).is_none());
    assert!(MontgomeryCtx::new(&U256::from_u64(2)).is_none());
    assert!(MontgomeryCtx::new(&U256::MAX.wrapping_sub(&U256::ONE)).is_none());
    assert!(MontgomeryCtx::new(&U256::from_u64(3)).is_some());
    assert!(MontgomeryCtx::new(&U256::MAX).is_some());
}

#[test]
fn scalar_field_matches_reference() {
    let grp = Group::default_group();
    let q = &grp.q;
    let mut rng = SplitMix64(0x7363_616c);
    let mut operands = vec![U256::ZERO, U256::ONE, q.wrapping_sub(&U256::ONE)];
    for _ in 0..24 {
        operands.push(U256::from_limbs(std::array::from_fn(|_| rng.next_u64())).rem(q));
    }
    // -1 mod q, so the negate oracle is a reference multiplication.
    let minus_one = q.wrapping_sub(&U256::ONE);
    for a in &operands {
        assert_eq!(
            grp.scalar_neg(a),
            mod_mul_ref(a, &minus_one, q),
            "neg a={a:?}"
        );
        for b in &operands {
            assert_eq!(
                grp.scalar_add(a, b),
                mod_add_ref(a, b, q),
                "add a={a:?} b={b:?}"
            );
            assert_eq!(
                grp.scalar_mul(a, b),
                mod_mul_ref(a, b, q),
                "mul a={a:?} b={b:?}"
            );
        }
    }
}

/// The `i`-th seeded (key, message) pair of the signature pins: message
/// lengths run from empty past two SHA-256 blocks.
fn seeded_pair(i: u64) -> (SigningKey, Vec<u8>) {
    let mut rng = Drbg::from_seed(0x7369_676e_0000 + i);
    let key = SigningKey::generate(&mut rng);
    let mut message = vec![0u8; (i as usize * 7) % 150];
    rng.fill_bytes(&mut message);
    (key, message)
}

#[test]
fn sign_bytes_are_pinned() {
    // SHA-256 over the 64 signatures' `r || s`, recorded at the commit
    // before `Group` owned the scalar field. A changed nonce, challenge
    // or `s = k + e·sk mod q` shows here, where the golden trace would
    // only show a different session.
    const PINNED: &str = "737d5477e7c9f3cbffb60f5a2e5a430f1d3e0deca7081b9fb7a9d00a85d592ec";
    let mut h = Sha256::new();
    for i in 0..64 {
        let (key, message) = seeded_pair(i);
        h.update(&key.sign(&message).to_bytes());
    }
    let digest: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(digest, PINNED);
}

#[test]
fn mixed_batch_verdicts_equal_serial_verify() {
    let grp = Group::default_group();
    // Four signers over sixteen items, so every key repeats; three
    // items are spoiled, each a different way.
    let pairs: Vec<(SigningKey, Vec<u8>)> = (0..16).map(|i| seeded_pair(i % 4)).collect();
    let items: Vec<BatchItem<'_>> = pairs
        .iter()
        .enumerate()
        .map(|(i, (key, message))| {
            let mut sig = key.sign(message);
            let mut verifier = key.verifying_key();
            match i {
                2 => sig.s = grp.scalar_add(&sig.s, &U256::ONE),
                6 => sig.s = grp.q,
                10 => verifier = pairs[(i + 1) % 4].0.verifying_key(),
                _ => {}
            }
            (verifier, message.as_slice(), sig)
        })
        .collect();
    let serial: Vec<bool> = items
        .iter()
        .map(|(key, message, sig)| key.verify(message, sig).is_ok())
        .collect();
    let expect: Vec<bool> = (0..16).map(|i| ![2, 6, 10].contains(&i)).collect();
    assert_eq!(serial, expect);
    let each: Vec<bool> = batch_verify_each(&items)
        .iter()
        .map(|v| v.is_ok())
        .collect();
    assert_eq!(each, serial);
    assert!(batch_verify(&items).is_err());
    // Without the spoiled items the one-shot equation holds, repeated
    // keys folded into shared exponents.
    let genuine: Vec<BatchItem<'_>> = items
        .iter()
        .zip(&serial)
        .filter_map(|(item, ok)| ok.then_some(*item))
        .collect();
    assert!(batch_verify(&genuine).is_ok());
    // The out-of-range response is rejected before the algebra, however
    // the rest of the batch looks.
    assert!(batch_verify(&[genuine[0], items[6]]).is_err());
}
