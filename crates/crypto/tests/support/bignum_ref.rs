//! Bit-by-bit modular arithmetic: the seed implementation of
//! `mod_mul` / `mod_exp` (binary long division, square-and-multiply),
//! and subgroup membership by its definition `x^q ≡ 1`.

use monatt_crypto::bigint::{U256, U512};
use monatt_crypto::group::Group;

/// `wide mod m` by binary long division: shift the remainder left one
/// bit, bring down the next dividend bit, subtract `m` if it fits.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn rem_binary(wide: &U512, m: &U256) -> U256 {
    assert!(!m.is_zero(), "division by zero");
    let mut rem = U256::ZERO;
    for i in (0..wide.bits()).rev() {
        // The doubled remainder can reach 257 bits: `carry` is bit 256.
        let (mut doubled, carry) = rem.overflowing_add(&rem);
        if wide.bit(i) {
            // `doubled` is even, so this cannot carry.
            doubled = doubled.wrapping_add(&U256::ONE);
        }
        rem = if carry || doubled >= *m {
            doubled.wrapping_sub(m)
        } else {
            doubled
        };
    }
    rem
}

/// `a + b mod m` by [`rem_binary`], for a sum that fits 256 bits (any two
/// residues of a modulus below `2^255`).
///
/// # Panics
///
/// Panics if `a + b` overflows.
pub fn mod_add_ref(a: &U256, b: &U256, m: &U256) -> U256 {
    let sum = a.checked_add(b).expect("sum fits 256 bits");
    rem_binary(&U512::from_u256(&sum), m)
}

/// `a · b mod m` as a full product followed by [`rem_binary`].
pub fn mod_mul_ref(a: &U256, b: &U256, m: &U256) -> U256 {
    rem_binary(&a.full_mul(b), m)
}

/// `base^exp mod m` by left-to-right square-and-multiply over
/// [`mod_mul_ref`]. `mod_exp_ref(_, _, 1)` is zero for all inputs.
pub fn mod_exp_ref(base: &U256, exp: &U256, m: &U256) -> U256 {
    assert!(!m.is_zero(), "modulus must be nonzero");
    if *m == U256::ONE {
        return U256::ZERO;
    }
    let mut result = U256::ONE;
    let base = rem_binary(&U512::from_u256(base), m);
    for i in (0..exp.bits()).rev() {
        result = mod_mul_ref(&result, &result, m);
        if exp.bit(i) {
            result = mod_mul_ref(&result, &base, m);
        }
    }
    result
}

/// Subgroup membership by definition: `x` in `(1, p)` and `x^q ≡ 1`,
/// with the exponentiation done by the group's windowed Montgomery
/// `pow`. This is the predicate `Group::is_element` computed before it
/// decided safe-prime groups by a Jacobi symbol.
pub fn is_element_by_pow(grp: &Group, x: &U256) -> bool {
    !x.is_zero() && *x != U256::ONE && *x < grp.p && grp.pow(x, &grp.q) == U256::ONE
}

/// [`is_element_by_pow`] with the exponentiation done by
/// [`mod_exp_ref`], sharing no code with the shipped kernels (and some
/// hundred times slower: sample sparingly).
pub fn is_element_by_ref_pow(grp: &Group, x: &U256) -> bool {
    !x.is_zero() && *x != U256::ONE && *x < grp.p && mod_exp_ref(x, &grp.q, &grp.p) == U256::ONE
}
