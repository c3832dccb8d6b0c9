//! `Group::is_element` decides safe-prime groups by a Jacobi symbol.
//! These tests hold it to the predicate it replaces — `x` in `(1, p)`
//! and `x^q ≡ 1 (mod p)` — on seeded random values and on the edges,
//! and show that a group without `p = 2q + 1` still exponentiates.

mod support;

use monatt_crypto::bigint::U256;
use monatt_crypto::group::Group;
use support::bignum_ref::{is_element_by_pow, is_element_by_ref_pow};
use support::SplitMix64;

fn random_u256(rng: &mut SplitMix64) -> U256 {
    U256::from_limbs(std::array::from_fn(|_| rng.next_u64()))
}

#[test]
fn jacobi_agrees_with_exponentiation_on_random_values() {
    let grp = Group::default_group();
    let mut rng = SplitMix64(0x4a41_434f_4249);
    let (mut members, mut outsiders) = (0u32, 0u32);
    for i in 0..12_000u32 {
        // Full-width values (a quarter land at or above p), values
        // reduced into the field, and small values with many trailing
        // zero bits for the strip-twos step.
        let x = match i % 3 {
            0 => random_u256(&mut rng),
            1 => random_u256(&mut rng).rem(&grp.p),
            _ => U256::from_u64(rng.next_u64() << (i % 64)),
        };
        let expect = is_element_by_pow(grp, &x);
        assert_eq!(grp.is_element(&x), expect, "x = {x:?}");
        if expect {
            members += 1;
        } else {
            outsiders += 1;
        }
    }
    // Half the field is residues: both verdicts are well exercised.
    assert!(
        members > 2_000 && outsiders > 2_000,
        "{members} / {outsiders}"
    );
}

#[test]
fn jacobi_agrees_with_exponentiation_on_edges() {
    let grp = Group::default_group();
    let one = U256::ONE;
    let mut edges = vec![
        U256::ZERO,
        one,
        U256::from_u64(2),
        U256::from_u64(3),
        U256::from_u64(4),
        grp.q,
        grp.q.wrapping_add(&one),
        grp.p.wrapping_sub(&U256::from_u64(2)),
        grp.p.wrapping_sub(&one),
        grp.p,
        grp.p.wrapping_add(&one),
        U256::MAX.wrapping_sub(&one),
        U256::MAX,
        // Single set bits and all-ones runs: long strip-twos shifts.
        U256::from_limbs([0, 0, 0, 1 << 63]),
        U256::from_limbs([0, 0, 1, 0]),
        U256::from_limbs([u64::MAX, u64::MAX, 0, 0]),
    ];
    // Subgroup members g^k and their non-member negations p - g^k.
    let mut rng = SplitMix64(7);
    for k in 0..200u64 {
        let exp = if k < 100 {
            U256::from_u64(k)
        } else {
            random_u256(&mut rng)
        };
        let member = grp.pow_g(&exp);
        edges.push(member);
        edges.push(grp.p.wrapping_sub(&member));
    }
    for x in &edges {
        assert_eq!(grp.is_element(x), is_element_by_pow(grp, x), "x = {x:?}");
    }
    // g^k for k not a multiple of q is a member; its negation never is.
    let member = grp.pow_g(&U256::from_u64(123_456));
    assert!(grp.is_element(&member));
    assert!(!grp.is_element(&grp.p.wrapping_sub(&member)));
}

#[test]
fn jacobi_agrees_with_the_bit_by_bit_ladder() {
    // The same predicate through an exponentiation that shares no code
    // with the shipped kernels; each call is a 256-step binary-division
    // ladder, so the sample is small.
    let grp = Group::default_group();
    let mut rng = SplitMix64(0x0b17);
    for _ in 0..24 {
        let x = random_u256(&mut rng).rem(&grp.p);
        assert_eq!(
            grp.is_element(&x),
            is_element_by_ref_pow(grp, &x),
            "x = {x:?}"
        );
    }
}

#[test]
fn group_without_the_safe_prime_relation_keeps_the_exponentiation() {
    // p = 31, q = 5, g = 2: the order-5 subgroup {1, 2, 4, 8, 16} is a
    // strict subset of the 15 quadratic residues, so a Jacobi symbol
    // would accept residues such as 5 = 6^2 that x^q rejects.
    let grp = Group::new(U256::from_u64(31), U256::from_u64(5), U256::from_u64(2));
    let members: Vec<u64> = (0..40)
        .filter(|x| grp.is_element(&U256::from_u64(*x)))
        .collect();
    assert_eq!(members, [2, 4, 8, 16]);
    for x in 0..40u64 {
        let x = U256::from_u64(x);
        assert_eq!(grp.is_element(&x), is_element_by_pow(&grp, &x), "x = {x:?}");
    }

    // p = 23 = 2·11 + 1 with g = 2 is a safe-prime group: the Jacobi
    // path serves it, and agrees with the definition everywhere.
    let grp = Group::new(U256::from_u64(23), U256::from_u64(11), U256::from_u64(2));
    for x in 0..30u64 {
        let x = U256::from_u64(x);
        assert_eq!(grp.is_element(&x), is_element_by_pow(&grp, &x), "x = {x:?}");
    }

    // A q that satisfies p = 2q + 1 only modulo 2^256 must not count:
    // q = 11 + 2^255 is ≡ 21 (mod 22), so x^q = x^-1 and nothing but 1
    // (excluded) passes, where a Jacobi symbol would accept 11 residues.
    let p = U256::from_u64(23);
    let wrapped_q = U256::from_u64(11).wrapping_add(&U256::from_limbs([0, 0, 0, 1 << 63]));
    let grp = Group::new(p, wrapped_q, U256::from_u64(2));
    for x in 0..30u64 {
        assert!(!grp.is_element(&U256::from_u64(x)), "x = {x}");
    }
}
