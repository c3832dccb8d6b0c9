//! Montgomery-form modular multiplication for odd 256-bit moduli.
//!
//! A [`MontgomeryCtx`] precomputes everything reduction needs for a fixed
//! modulus `m`: the limb inverse `n0 = -m^{-1} mod 2^64` and the conversion
//! constant `R^2 mod m` (with `R = 2^256`). In Montgomery form a value `a`
//! is represented as `a·R mod m`, and the product of two such values can be
//! reduced with shifts and multiplies only — no division. The two kernels
//! every exponentiation is built from are [`MontgomeryCtx::mont_mul`], one
//! fused multiply-reduce pass, and [`MontgomeryCtx::mont_sqr`], a squaring
//! that computes each cross product once; all of their loops have fixed
//! trip counts. That is what makes the attestation hot path (Schnorr
//! sign/verify, DH agreement) fast.
//!
//! Montgomery reduction requires `gcd(m, R) = 1`, i.e. an odd modulus.
//! [`MontgomeryCtx::new`] returns `None` for even (or trivial) moduli;
//! the only shipped caller, [`Group::new`](crate::group::Group::new),
//! rejects such parameters.
//!
//! Like the rest of the crate this is not constant-time: window lookups
//! and the skipped multiplies of zero exponent digits are data-dependent.
//! See DESIGN.md.

use crate::bigint::{U256, U512};

/// Exponentiation window width in bits. Four bits means a 16-entry table
/// and one potential multiply per four squarings.
const WINDOW_BITS: usize = 4;
/// Table size for one window: `2^WINDOW_BITS`.
const WINDOW_TABLE: usize = 1 << WINDOW_BITS;

/// Precomputed state for Montgomery arithmetic modulo a fixed odd `m`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus. Odd and greater than one.
    m: U256,
    /// `-m^{-1} mod 2^64`, the REDC folding constant.
    n0: u64,
    /// `R^2 mod m`, used to convert into Montgomery form.
    r2: U256,
    /// `R mod m`, the Montgomery form of one.
    one: U256,
}

impl MontgomeryCtx {
    /// Builds a context for modulus `m`.
    ///
    /// Returns `None` when `m` is even or `m <= 1`: Montgomery reduction
    /// needs `gcd(m, 2^64) = 1`, and a modulus of one has no useful
    /// residues.
    pub fn new(m: &U256) -> Option<Self> {
        if m.is_even() || *m <= U256::ONE {
            return None;
        }
        // Invert the low limb mod 2^64 by Newton iteration: for odd x,
        // x is its own inverse mod 8, and each step doubles the number of
        // correct low bits (3 -> 6 -> 12 -> 24 -> 48 -> 96 >= 64).
        let m0 = m.limbs()[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();
        // one = R mod m, computed by dividing 2^256 (bit 256 of a U512).
        let mut r_limbs = [0u64; 8];
        r_limbs[4] = 1;
        let one = U512(r_limbs).rem(m);
        // r2 = R^2 mod m = (R mod m)^2 mod m.
        let r2 = one.full_mul(&one).rem(m);
        Some(MontgomeryCtx { m: *m, n0, r2, one })
    }

    /// Returns the modulus this context reduces by.
    pub fn modulus(&self) -> &U256 {
        &self.m
    }

    /// Returns the Montgomery form of one (`R mod m`).
    pub fn one_mont(&self) -> U256 {
        self.one
    }

    /// Converts `a` into Montgomery form (`a·R mod m`). `a` need not be
    /// reduced.
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of Montgomery form (`a·R^{-1} mod m`).
    pub fn from_mont(&self, a: &U256) -> U256 {
        let a = a.limbs();
        self.redc([a[0], a[1], a[2], a[3], 0, 0, 0, 0])
    }

    /// Montgomery product: `a · b · R^{-1} mod m`.
    ///
    /// When both inputs are in Montgomery form the result is too; when
    /// exactly one is, the result is the plain modular product. At least
    /// one operand must be below `m` for the result to be fully reduced.
    ///
    /// Multiply and reduce are one fused pass (coarsely integrated
    /// operand scanning): each round adds `a · b[i]`, folds the low limb
    /// away with a multiple of `m`, and shifts down one limb, so the
    /// running value never exceeds five limbs plus one bit and every loop
    /// has a fixed trip count.
    #[inline]
    pub fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        let (a, b, m) = (a.limbs(), b.limbs(), self.m.limbs());
        let mut t = [0u64; 4];
        // Limb 4 of the running value; at most one between rounds.
        let mut t4 = 0u64;
        for bi in b {
            let bi = bi as u128;
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = t[j] as u128 + a[j] as u128 * bi + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let hi = t4 as u128 + carry;
            // Choose u so that t + u·m clears limb 0, add it, shift down.
            let u = t[0].wrapping_mul(self.n0) as u128;
            let mut carry = (t[0] as u128 + u * m[0] as u128) >> 64;
            for j in 1..4 {
                let cur = t[j] as u128 + u * m[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = (hi as u64) as u128 + carry;
            t[3] = cur as u64;
            t4 = (hi >> 64) as u64 + (cur >> 64) as u64;
        }
        self.reduce_once(t, t4)
    }

    /// Montgomery square: `a · a · R^{-1} mod m`, equal to
    /// `mont_mul(a, a)`. `a` must be below `m` for the result to be fully
    /// reduced.
    ///
    /// The squaring chains of exponentiation call this four times per
    /// multiply. Each cross product `a[i]·a[j]` is computed once and
    /// doubled (ten limb multiplies instead of sixteen) before a
    /// fixed-trip-count REDC.
    #[inline]
    pub fn mont_sqr(&self, a: &U256) -> U256 {
        let a = a.limbs();
        let mul = |x: u64, y: u64| x as u128 * y as u128;
        // Off-diagonal products, each once: rows a0·(a1,a2,a3),
        // a1·(a2,a3), a2·a3.
        let mut t = [0u64; 8];
        let cur = mul(a[0], a[1]);
        t[1] = cur as u64;
        let cur = mul(a[0], a[2]) + (cur >> 64);
        t[2] = cur as u64;
        let cur = mul(a[0], a[3]) + (cur >> 64);
        t[3] = cur as u64;
        t[4] = (cur >> 64) as u64;
        let cur = mul(a[1], a[2]) + t[3] as u128;
        t[3] = cur as u64;
        let cur = mul(a[1], a[3]) + t[4] as u128 + (cur >> 64);
        t[4] = cur as u64;
        t[5] = (cur >> 64) as u64;
        let cur = mul(a[2], a[3]) + t[5] as u128;
        t[5] = cur as u64;
        t[6] = (cur >> 64) as u64;
        // Double them (the sum is below 2^448, so nothing shifts out).
        for i in (1..8).rev() {
            t[i] = (t[i] << 1) | (t[i - 1] >> 63);
        }
        // Add the diagonal squares a[i]^2 at limb 2i.
        let mut carry = 0u128;
        for i in 0..4 {
            let sq = mul(a[i], a[i]);
            let cur = t[2 * i] as u128 + (sq as u64) as u128 + carry;
            t[2 * i] = cur as u64;
            let cur = t[2 * i + 1] as u128 + (sq >> 64) + (cur >> 64);
            t[2 * i + 1] = cur as u64;
            carry = cur >> 64;
        }
        self.redc(t)
    }

    /// Plain modular product `a · b mod m` (inputs in ordinary form).
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        // mont_mul(a·R, b) = a·R·b·R^{-1} = a·b mod m: one conversion, two
        // fused multiply-reduces, no division.
        self.mont_mul(&self.to_mont(a), b)
    }

    /// Montgomery reduction (REDC): folds a 512-bit `t < m·R` down to
    /// `t · R^{-1} mod m`, one limb at a time.
    #[inline]
    fn redc(&self, mut t: [u64; 8]) -> U256 {
        let m = self.m.limbs();
        // Round i's carry out of limb i+4 belongs to limb i+5, which
        // round i+1 finishes on; handing it over there keeps every trip
        // count fixed. After the last round it is the 513th bit (set only
        // when m is close to 2^256).
        let mut over = 0u64;
        for i in 0..4 {
            // Choose u so that t + u·m·B^i clears limb i, then add it in.
            let u = t[i].wrapping_mul(self.n0) as u128;
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = t[i + j] as u128 + u * m[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[i + 4] as u128 + carry + over as u128;
            t[i + 4] = cur as u64;
            over = (cur >> 64) as u64;
        }
        // The low four limbs are now zero; the result is the high half.
        self.reduce_once([t[4], t[5], t[6], t[7]], over)
    }

    /// Final step of a reduction: `t + over·2^256 < 2m` comes down to
    /// `[0, m)` with one subtraction, selected by mask instead of by
    /// branch (the outcome is a coin flip the predictor cannot learn).
    #[inline]
    fn reduce_once(&self, t: [u64; 4], over: u64) -> U256 {
        let t = U256::from_limbs(t);
        let (diff, borrow) = t.overflowing_sub(&self.m);
        // Keep t only when it is below m and no bit overflowed.
        let keep = ((over == 0) & borrow) as u64;
        let mask = keep.wrapping_neg();
        let (t, d) = (t.limbs(), diff.limbs());
        U256::from_limbs([
            (t[0] & mask) | (d[0] & !mask),
            (t[1] & mask) | (d[1] & !mask),
            (t[2] & mask) | (d[2] & !mask),
            (t[3] & mask) | (d[3] & !mask),
        ])
    }

    /// Computes `base^exp mod m` by fixed-window exponentiation in
    /// Montgomery form: a 16-entry table of base powers, then four
    /// squarings and at most one table multiply per exponent nibble.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        self.from_mont(&self.pow_mont(&self.to_mont(base), exp))
    }

    /// The same fixed-window exponentiation staying entirely in the
    /// Montgomery domain: `base_m` and the result are in Montgomery form.
    /// Useful for composing multi-exponentiations without round-tripping
    /// through ordinary representation.
    pub fn pow_mont(&self, base_m: &U256, exp: &U256) -> U256 {
        let nbits = exp.bits();
        if nbits == 0 {
            return self.one;
        }
        let table = self.window_table(base_m);
        let top = (nbits - 1) / WINDOW_BITS;
        // Secret-indexed window lookup: a documented simulation tradeoff —
        // the crate is explicit that nothing here is constant-time.
        let mut acc = table[Self::window(exp, top)]; // #[allow(monatt::const_time)]
        for w in (0..top).rev() {
            for _ in 0..WINDOW_BITS {
                acc = self.mont_sqr(&acc);
            }
            let d = Self::window(exp, w);
            if d != 0 {
                acc = self.mont_mul(&acc, &table[d]);
            }
        }
        acc
    }

    /// Straus interleaved multi-exponentiation, entirely in the Montgomery
    /// domain: computes `Π bases_m[i]^{exps[i]} mod m` with one shared
    /// squaring chain.
    ///
    /// The squarings — the dominant fixed cost of a lone
    /// [`Self::pow_mont`] — are paid once for the whole product instead of
    /// once per factor. That amortization is what makes
    /// random-linear-combination batch verification cheaper than verifying
    /// signatures one at a time. Each base gets its own 16-entry window
    /// table walked sequentially per window position — an odd-power
    /// sliding-window variant does fewer multiplies on paper but loses in
    /// practice to this layout's prefetch-friendly linear table scans. The
    /// chain length follows the *longest* exponent, so short (e.g. 64-bit)
    /// batch weights only pay their own window multiplies.
    ///
    /// The two slices are walked in lockstep; surplus elements of the
    /// longer slice are ignored.
    pub fn multi_pow_mont(&self, bases_m: &[U256], exps: &[U256]) -> U256 {
        let pairs = bases_m.len().min(exps.len());
        let nbits = exps[..pairs].iter().map(|x| x.bits()).max().unwrap_or(0);
        if nbits == 0 || pairs == 0 {
            return self.one;
        }
        let tables: Vec<[U256; WINDOW_TABLE]> = bases_m[..pairs]
            .iter()
            .map(|b| self.window_table(b))
            .collect();
        let top = (nbits - 1) / WINDOW_BITS;
        let mut acc = self.one;
        for w in (0..=top).rev() {
            if w != top {
                for _ in 0..WINDOW_BITS {
                    acc = self.mont_sqr(&acc);
                }
            }
            for (table, x) in tables.iter().zip(exps[..pairs].iter()) {
                let d = Self::window(x, w);
                if d != 0 {
                    acc = self.mont_mul(&acc, &table[d]);
                }
            }
        }
        acc
    }

    /// Builds the window table `[1, b, b^2, ..., b^15]` (Montgomery form).
    fn window_table(&self, base_m: &U256) -> [U256; WINDOW_TABLE] {
        let mut table = [self.one; WINDOW_TABLE];
        table[1] = *base_m;
        for d in 2..WINDOW_TABLE {
            table[d] = self.mont_mul(&table[d - 1], base_m);
        }
        table
    }

    /// Extracts the `w`-th 4-bit window of `exp` (window 0 is least
    /// significant). Window width divides the limb width, so no window
    /// straddles a limb boundary.
    fn window(exp: &U256, w: usize) -> usize {
        let limb = exp.limbs()[w * WINDOW_BITS / 64];
        ((limb >> ((w * WINDOW_BITS) % 64)) & (WINDOW_TABLE as u64 - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&U256::ZERO).is_none());
        assert!(MontgomeryCtx::new(&U256::ONE).is_none());
        assert!(MontgomeryCtx::new(&u(100)).is_none());
        assert!(MontgomeryCtx::new(&u(97)).is_some());
        assert!(MontgomeryCtx::new(&U256::MAX).is_some());
    }

    #[test]
    fn round_trip_through_montgomery_form() {
        let ctx = MontgomeryCtx::new(&u(1_000_003)).unwrap();
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let m = ctx.to_mont(&u(v));
            assert_eq!(ctx.from_mont(&m), u(v), "v = {v}");
        }
    }

    #[test]
    fn mul_matches_u128_arithmetic() {
        let ctx = MontgomeryCtx::new(&u(0xffff_fffb)).unwrap(); // prime
        for a in [3u64, 12_345, 0xffff_fffa] {
            for b in [1u64, 7, 0x8000_0000] {
                let expect = (a as u128 * b as u128 % 0xffff_fffbu128) as u64;
                assert_eq!(ctx.mul(&u(a), &u(b)), u(expect), "{a} * {b}");
            }
        }
    }

    #[test]
    fn unreduced_inputs_are_handled() {
        let ctx = MontgomeryCtx::new(&u(97)).unwrap();
        assert_eq!(ctx.mul(&u(1000), &u(1000)), u(1000 * 1000 % 97));
        assert_eq!(ctx.pow(&u(1000), &u(3)), u(1000u64.pow(3) % 97));
    }

    #[test]
    fn pow_edge_cases() {
        let ctx = MontgomeryCtx::new(&u(13)).unwrap();
        assert_eq!(ctx.pow(&u(5), &U256::ZERO), U256::ONE);
        assert_eq!(ctx.pow(&u(5), &U256::ONE), u(5));
        assert_eq!(ctx.pow(&u(5), &u(12)), U256::ONE); // Fermat
        assert_eq!(ctx.pow(&U256::ZERO, &u(4)), U256::ZERO);
        assert_eq!(ctx.pow(&U256::ZERO, &U256::ZERO), U256::ONE);
    }

    #[test]
    fn multi_pow_matches_separate_exponentiations() {
        let p = U256::from_hex(crate::group::DEFAULT_P_HEX).unwrap();
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let bases = [u(3), u(7), u(11), u(101)];
        let exps = [
            U256::from_hex("deadbeefcafef00d").unwrap(),
            U256::from_hex("0123456789abcdef0123456789abcdef").unwrap(),
            U256::ONE,
            U256::ZERO,
        ];
        let bases_m: Vec<U256> = bases.iter().map(|b| ctx.to_mont(b)).collect();
        let mut expect = U256::ONE;
        for (b, x) in bases.iter().zip(exps.iter()) {
            expect = ctx.mul(&expect, &ctx.pow(b, x));
        }
        let got = ctx.from_mont(&ctx.multi_pow_mont(&bases_m, &exps));
        assert_eq!(got, expect);
        // Degenerate shapes.
        assert_eq!(ctx.multi_pow_mont(&[], &[]), ctx.one_mont());
        assert_eq!(
            ctx.multi_pow_mont(&bases_m, &[U256::ZERO; 4]),
            ctx.one_mont()
        );
        // Lockstep walk ignores surplus elements of the longer slice.
        assert_eq!(
            ctx.multi_pow_mont(&bases_m[..2], &exps),
            ctx.multi_pow_mont(&bases_m[..2], &exps[..2])
        );
    }
}
