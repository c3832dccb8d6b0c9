//! Modular arithmetic over 256-bit moduli: addition, subtraction,
//! multiplication, exponentiation and inversion (via Fermat's little
//! theorem, so inversion requires a prime modulus).
//!
//! Multiplication and exponentiation dispatch on the modulus: odd moduli
//! (every prime the protocol uses) go through a thread-locally cached
//! [`MontgomeryCtx`], which replaces per-step long division with REDC and
//! windowed exponentiation; even moduli fall back to the word-level
//! division in [`bigint`](crate::bigint). The bit-by-bit oracle both are
//! differentially tested against lives in `tests/support/`.

use crate::bigint::U256;
use crate::montgomery::MontgomeryCtx;
use std::cell::RefCell;
use std::rc::Rc;

/// How many Montgomery contexts each thread keeps warm. The protocol only
/// alternates between `p` and `q` (plus the occasional test modulus), so a
/// handful suffices.
const CTX_CACHE_CAP: usize = 4;

thread_local! {
    /// MRU-ordered cache of Montgomery contexts, keyed by modulus.
    static CTX_CACHE: RefCell<Vec<Rc<MontgomeryCtx>>> = const { RefCell::new(Vec::new()) };
}

/// Returns a (cached) Montgomery context for `m`, or `None` when `m` is
/// not Montgomery-friendly (even or `<= 1`).
fn ctx_for(m: &U256) -> Option<Rc<MontgomeryCtx>> {
    CTX_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(pos) = cache.iter().position(|c| c.modulus() == m) {
            let ctx = cache.remove(pos);
            cache.insert(0, Rc::clone(&ctx));
            return Some(ctx);
        }
        let ctx = Rc::new(MontgomeryCtx::new(m)?);
        cache.insert(0, Rc::clone(&ctx));
        cache.truncate(CTX_CACHE_CAP);
        Some(ctx)
    })
}

/// Computes `(a + b) mod m`.
///
/// Inputs need not be reduced; the result always is.
///
/// # Panics
///
/// Panics if `m` is zero.
///
/// # Examples
///
/// ```
/// use monatt_crypto::bigint::U256;
/// use monatt_crypto::modmath::mod_add;
///
/// let m = U256::from_u64(97);
/// assert_eq!(mod_add(&U256::from_u64(90), &U256::from_u64(10), &m), U256::from_u64(3));
/// ```
pub fn mod_add(a: &U256, b: &U256, m: &U256) -> U256 {
    let a = a.rem(m);
    let b = b.rem(m);
    let (sum, carry) = a.overflowing_add(&b);
    if carry || sum >= *m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// Computes `(a - b) mod m`.
///
/// Inputs need not be reduced; the result always is.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_sub(a: &U256, b: &U256, m: &U256) -> U256 {
    let a = a.rem(m);
    let b = b.rem(m);
    match a.checked_sub(&b) {
        Some(v) => v,
        None => a.wrapping_add(m).wrapping_sub(&b),
    }
}

/// Computes `(a * b) mod m`.
///
/// Odd moduli use a cached Montgomery context (convert one factor, two
/// fused multiply-reduces, no division); even moduli take the full
/// 512-bit product and divide.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &U256, b: &U256, m: &U256) -> U256 {
    match ctx_for(m) {
        Some(ctx) => ctx.mul(a, b),
        None => a.full_mul(b).rem(m),
    }
}

/// Computes `base^exp mod m` by left-to-right square-and-multiply.
///
/// # Panics
///
/// Panics if `m` is zero. `mod_exp(_, _, 1)` is zero for all inputs.
///
/// # Examples
///
/// ```
/// use monatt_crypto::bigint::U256;
/// use monatt_crypto::modmath::mod_exp;
///
/// let m = U256::from_u64(1_000_000_007);
/// assert_eq!(
///     mod_exp(&U256::from_u64(2), &U256::from_u64(10), &m),
///     U256::from_u64(1024)
/// );
/// ```
pub fn mod_exp(base: &U256, exp: &U256, m: &U256) -> U256 {
    assert!(!m.is_zero(), "modulus must be nonzero");
    if *m == U256::ONE {
        return U256::ZERO;
    }
    if let Some(ctx) = ctx_for(m) {
        return ctx.pow(base, exp);
    }
    // Even modulus: square-and-multiply over word-level division.
    let mut result = U256::ONE;
    let base = base.rem(m);
    for i in (0..exp.bits()).rev() {
        result = result.full_mul(&result).rem(m);
        // Variable-time by design: the simulation substrate documents that
        // nothing here is constant-time (see crate docs).
        // #[allow(monatt::const_time)]
        if exp.bit(i) {
            result = result.full_mul(&base).rem(m);
        }
    }
    result
}

/// Computes the modular inverse `a^(-1) mod p` for a **prime** `p` using
/// Fermat's little theorem (`a^(p-2) mod p`).
///
/// Returns `None` if `a ≡ 0 (mod p)`, which has no inverse.
///
/// # Panics
///
/// Panics if `p < 2`. The primality of `p` is the caller's responsibility;
/// for composite `p` the result is meaningless.
pub fn mod_inv_prime(a: &U256, p: &U256) -> Option<U256> {
    assert!(*p >= U256::from_u64(2), "modulus must be at least 2");
    let a = a.rem(p);
    if a.is_zero() {
        return None;
    }
    let exp = p.wrapping_sub(&U256::from_u64(2));
    Some(mod_exp(&a, &exp, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_wraps() {
        let m = u(97);
        assert_eq!(mod_add(&u(96), &u(1), &m), U256::ZERO);
        assert_eq!(mod_add(&u(50), &u(50), &m), u(3));
    }

    #[test]
    fn add_handles_unreduced_inputs() {
        let m = u(7);
        assert_eq!(mod_add(&u(100), &u(100), &m), u(200 % 7));
    }

    #[test]
    fn add_near_max_modulus() {
        // Exercise the carry-out path: m close to 2^256.
        let m = U256::MAX;
        let a = U256::MAX.wrapping_sub(&u(1)); // m - 1
        let s = mod_add(&a, &a, &m);
        assert_eq!(s, U256::MAX.wrapping_sub(&u(2)));
    }

    #[test]
    fn sub_wraps() {
        let m = u(97);
        assert_eq!(mod_sub(&u(3), &u(5), &m), u(95));
        assert_eq!(mod_sub(&u(5), &u(3), &m), u(2));
    }

    #[test]
    fn mul_matches_u64() {
        let m = u(1_000_003);
        assert_eq!(
            mod_mul(&u(999_999), &u(999_998), &m),
            u((999_999u64 * 999_998) % 1_000_003)
        );
    }

    #[test]
    fn exp_edge_cases() {
        let m = u(13);
        assert_eq!(mod_exp(&u(5), &U256::ZERO, &m), U256::ONE);
        assert_eq!(mod_exp(&u(5), &U256::ONE, &m), u(5));
        assert_eq!(mod_exp(&u(5), &u(12), &m), U256::ONE); // Fermat
        assert_eq!(mod_exp(&u(5), &u(3), &U256::ONE), U256::ZERO);
    }

    #[test]
    fn even_modulus_falls_back_to_division() {
        // 2^255 is about as Montgomery-hostile as a modulus gets.
        let m = U256::from_limbs([0, 0, 0, 1 << 63]);
        assert_eq!(mod_mul(&u(3), &u(5), &m), u(15));
        assert_eq!(mod_exp(&u(2), &u(255), &m), U256::ZERO);
        assert_eq!(mod_exp(&u(3), &u(4), &u(6)), u(81 % 6));
        assert_eq!(mod_mul(&u(7), &u(8), &u(10)), u(6));
    }

    #[test]
    fn inv_prime() {
        let p = u(97);
        for a in 1..97u64 {
            let inv = mod_inv_prime(&u(a), &p).unwrap();
            assert_eq!(mod_mul(&u(a), &inv, &p), U256::ONE, "a = {a}");
        }
        assert_eq!(mod_inv_prime(&U256::ZERO, &p), None);
        assert_eq!(mod_inv_prime(&u(97), &p), None);
    }
}
