//! Fixed-width unsigned big integers: [`U256`] and the crate-internal
//! [`U512`] used as an intermediate for 256-bit modular multiplication.
//!
//! Limbs are stored little-endian (`limbs[0]` is least significant).
//! Modular reduction uses word-level long division (Knuth's Algorithm D),
//! which processes 64 bits per step instead of one; the bit-by-bit binary
//! division it is differentially tested against lives in `tests/support/`.
//! None of this code is constant-time; the crate is a simulation substrate,
//! not a production cryptography library.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer (four little-endian `u64` limbs).
///
/// # Examples
///
/// ```
/// use monatt_crypto::bigint::U256;
///
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// let (sum, carry) = a.overflowing_add(&b);
/// assert_eq!(sum, U256::from_u64(12));
/// assert!(!carry);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub(crate) [u64; 4]);

/// A 512-bit unsigned integer, produced by [`U256::full_mul`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U512(pub(crate) [u64; 8]);

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0; 4]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a `U256` from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a `U256` from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Overwrites the limbs with zeros (see [`crate::zeroize`]). Secret
    /// scalars call this from their owners' `Drop` impls.
    pub fn zeroize(&mut self) {
        crate::zeroize::zeroize_u64s(&mut self.0);
    }

    /// Parses a big-endian hexadecimal string (with or without a `0x`
    /// prefix).
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is empty, contains a non-hexadecimal
    /// character, or encodes a value wider than 256 bits. Leading zeros are
    /// allowed, so the digit count itself is not limited.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() {
            return None;
        }
        let mut out = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16)? as u64;
            // shl_small silently discards shifted-out bits, so detect
            // overflow before shifting in the next digit.
            if out.0[3] >> 60 != 0 {
                return None;
            }
            out = out.shl_small(4);
            out.0[0] |= d;
        }
        Some(out)
    }

    /// Encodes as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().rev().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Decodes from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Returns true if the value is even.
    pub fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for (i, limb) in self.0.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// Adds, returning the wrapped sum and whether a carry out occurred.
    #[allow(clippy::needless_range_loop)] // parallel limb indexing is clearer
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Subtracts, returning the wrapped difference and whether a borrow
    /// occurred (i.e. `rhs > self`).
    #[allow(clippy::needless_range_loop)] // parallel limb indexing is clearer
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping addition (discards the carry).
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction (discards the borrow).
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction: `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Shifts left by `n < 64` bits, discarding bits shifted out.
    #[allow(clippy::needless_range_loop)] // parallel limb indexing is clearer
    fn shl_small(&self, n: u32) -> U256 {
        debug_assert!(n < 64);
        if n == 0 {
            return *self;
        }
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = (self.0[i] << n) | carry;
            carry = self.0[i] >> (64 - n);
        }
        U256(out)
    }

    /// Multiplies two `U256` values into a full 512-bit product.
    pub fn full_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// Computes `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        U512::from_u256(self).rem(m)
    }

    /// Divides by `m`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn div_rem(&self, m: &U256) -> (U256, U256) {
        let (q, r) = U512::from_u256(self).div_rem(m);
        // self < 2^256, so the quotient fits in the low four limbs.
        debug_assert_eq!(q.0[4..], [0u64; 4]);
        (q.low_u256(), r)
    }
}

impl U512 {
    /// The value zero.
    pub const ZERO: U512 = U512([0; 8]);

    /// Widens a `U256` into the low half of a `U512`.
    pub fn from_u256(v: &U256) -> Self {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&v.0);
        U512(limbs)
    }

    /// Truncates to the low 256 bits.
    pub const fn low_u256(&self) -> U256 {
        U256([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 512, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for (i, limb) in self.0.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// Computes `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        self.div_rem(m).1
    }

    /// Divides by `m`, returning `(quotient, remainder)`, using word-level
    /// long division (Knuth, TAOCP vol. 2, 4.3.1, Algorithm D). Each step
    /// consumes one 64-bit limb of the dividend, so a full 512/256 division
    /// takes at most five quotient digits instead of 512 bit iterations.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn div_rem(&self, m: &U256) -> (U512, U256) {
        assert!(!m.is_zero(), "division by zero");
        let n = m.bits().div_ceil(64);
        // Single-limb divisors reduce to schoolbook short division.
        if n == 1 {
            let d = m.0[0] as u128;
            let mut q = [0u64; 8];
            let mut rem = 0u64;
            for i in (0..8).rev() {
                let cur = ((rem as u128) << 64) | self.0[i] as u128;
                q[i] = (cur / d) as u64;
                rem = (cur % d) as u64;
            }
            return (U512(q), U256::from_u64(rem));
        }
        let ulen = self.bits().div_ceil(64);
        if ulen < n {
            // Fewer dividend limbs than divisor limbs: self < m.
            return (U512::ZERO, self.low_u256());
        }
        // Normalize so the divisor's top limb has its high bit set; this
        // bounds the per-digit quotient estimate to within 2 of the truth.
        let s = m.0[n - 1].leading_zeros();
        let mut v = [0u64; 4];
        for (i, vi) in v.iter_mut().enumerate().take(n) {
            *vi = m.0[i] << s;
            if s > 0 && i > 0 {
                *vi |= m.0[i - 1] >> (64 - s);
            }
        }
        let mut un = [0u64; 9];
        for (i, ui) in un.iter_mut().enumerate().take(ulen) {
            *ui = self.0[i] << s;
            if s > 0 && i > 0 {
                *ui |= self.0[i - 1] >> (64 - s);
            }
        }
        if s > 0 {
            un[ulen] = self.0[ulen - 1] >> (64 - s);
        }
        let mut q = [0u64; 8];
        let vtop = v[n - 1] as u128;
        let vnext = v[n - 2] as u128; // n >= 2 here
        for j in (0..=ulen - n).rev() {
            // Estimate the quotient digit from the top two remainder limbs,
            // then correct it (at most twice) against the third limb.
            let numer = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numer / vtop;
            let mut rhat = numer % vtop;
            while qhat >> 64 != 0 || qhat * vnext > (rhat << 64) | un[j + n - 2] as u128 {
                qhat -= 1;
                rhat += vtop;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from un[j..=j+n].
            let mut borrow = 0u64;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let (d1, b1) = un[j + i].overflowing_sub(p as u64);
                let (d2, b2) = d1.overflowing_sub(borrow);
                un[j + i] = d2;
                borrow = (b1 || b2) as u64;
            }
            let (d1, b1) = un[j + n].overflowing_sub(carry as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            un[j + n] = d2;
            if b1 || b2 {
                // Rare (~2/2^64): qhat was one too large; add the divisor
                // back and decrement.
                qhat -= 1;
                let mut c = false;
                for i in 0..n {
                    let (s1, c1) = un[j + i].overflowing_add(v[i]);
                    let (s2, c2) = s1.overflowing_add(c as u64);
                    un[j + i] = s2;
                    c = c1 || c2;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        // Denormalize the remainder.
        let mut r = [0u64; 4];
        for i in 0..n {
            r[i] = un[i] >> s;
            if s > 0 {
                r[i] |= un[i + 1] << (64 - s);
            }
        }
        (U512(q), U256(r))
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{:x})", self)
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for limb in self.0.iter().rev() {
            if started {
                write!(f, "{:016x}", limb)?;
            } else if *limb != 0 {
                write!(f, "{:x}", limb)?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for limb in self.0.iter().rev() {
            write!(f, "{:016x}", limb)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_roundtrip() {
        assert_eq!(U256::from_u64(0).limbs(), [0, 0, 0, 0]);
        assert_eq!(U256::from_u64(42).limbs(), [42, 0, 0, 0]);
    }

    #[test]
    fn hex_roundtrip() {
        let v = U256::from_hex("deadbeef").unwrap();
        assert_eq!(v, U256::from_u64(0xdead_beef));
        assert_eq!(format!("{:x}", v), "deadbeef");
        let big =
            U256::from_hex("b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f")
                .unwrap();
        assert_eq!(
            format!("{:x}", big),
            "b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f"
        );
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("xyz").is_none());
        assert!(U256::from_hex(&"f".repeat(65)).is_none());
        // 65 significant digits overflow even when the low ones are zero.
        assert!(U256::from_hex(&format!("1{}", "0".repeat(64))).is_none());
    }

    #[test]
    fn hex_accepts_leading_zeros_and_full_width() {
        // Leading zeros don't count against the width limit.
        let padded = format!("{}ff", "0".repeat(64));
        assert_eq!(U256::from_hex(&padded), Some(U256::from_u64(0xff)));
        // A 0x-prefixed maximal value parses to MAX.
        let max = format!("0x{}", "f".repeat(64));
        assert_eq!(U256::from_hex(&max), Some(U256::MAX));
        assert_eq!(U256::from_hex(&"0".repeat(100)), Some(U256::ZERO));
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f10").unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(U256::from_be_bytes(&bytes), v);
        assert_eq!(bytes[31], 0x10);
        assert_eq!(bytes[16], 0x01);
    }

    #[test]
    fn add_with_carry() {
        let (v, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(v, U256::ZERO);
        let (v, carry) = U256::from_u64(u64::MAX).overflowing_add(&U256::ONE);
        assert!(!carry);
        assert_eq!(v.limbs(), [0, 1, 0, 0]);
    }

    #[test]
    fn sub_with_borrow() {
        let (v, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(v, U256::MAX);
        let a = U256::from_limbs([0, 1, 0, 0]);
        let (v, borrow) = a.overflowing_sub(&U256::ONE);
        assert!(!borrow);
        assert_eq!(v, U256::from_u64(u64::MAX));
    }

    #[test]
    fn checked_ops() {
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
        assert_eq!(U256::ZERO.checked_sub(&U256::ONE), None);
        assert_eq!(
            U256::from_u64(5).checked_sub(&U256::from_u64(3)),
            Some(U256::from_u64(2))
        );
    }

    #[test]
    fn ordering() {
        assert!(U256::from_u64(1) < U256::from_u64(2));
        assert!(
            U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0])
        );
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::from_u64(0x80).bits(), 8);
        assert_eq!(U256::MAX.bits(), 256);
        assert!(U256::from_u64(4).bit(2));
        assert!(!U256::from_u64(4).bit(1));
    }

    #[test]
    fn full_mul_small() {
        let p = U256::from_u64(1 << 32).full_mul(&U256::from_u64(1 << 32));
        assert_eq!(p.0[1], 1);
        assert_eq!(p.0[0], 0);
        let p = U256::MAX.full_mul(&U256::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(p.0[0], 1);
        assert_eq!(p.0[4], u64::MAX - 1);
        assert_eq!(p.0[7], u64::MAX);
    }

    #[test]
    fn rem_512() {
        let m = U256::from_u64(97);
        let big = U256::from_u64(12345).full_mul(&U256::from_u64(67890));
        assert_eq!(big.rem(&m), U256::from_u64((12345u64 * 67890) % 97));
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = U256::from_u64(100).div_rem(&U256::from_u64(7));
        assert_eq!(q, U256::from_u64(14));
        assert_eq!(r, U256::from_u64(2));
        let (q, r) = U256::from_u64(3).div_rem(&U256::from_u64(7));
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::from_u64(3));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_rem_by_zero_panics() {
        let _ = U256::ONE.div_rem(&U256::ZERO);
    }

    /// A deterministic value mixer for exercising the division paths on
    /// varied limb patterns without pulling in an RNG.
    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn knuth_division_reconstructs_dividend() {
        for t in 0..100u64 {
            let a = U256::from_limbs([mix(t), mix(t + 10), mix(t + 20), mix(t + 30)]);
            let b = U256::from_limbs([mix(t + 40), mix(t + 50), 0, 0]);
            let m = U256::from_limbs([mix(t + 60), mix(t + 70), mix(t + 80) % 3, 0]);
            if m.is_zero() {
                continue;
            }
            let prod = a.full_mul(&b);
            let (q, r) = prod.div_rem(&m);
            assert!(r < m);
            // q * m + r == prod, limb by limb (q can be wider than 256 bits,
            // so multiply back in 64x256 chunks).
            let mut acc = [0u64; 8];
            for i in 0..8 {
                let part = U256::from_u64(q.0[i]).full_mul(&m);
                let mut carry = 0u128;
                for j in 0..8 - i {
                    let cur = acc[i + j] as u128 + part.0[j] as u128 + carry;
                    acc[i + j] = cur as u64;
                    carry = cur >> 64;
                }
            }
            let mut carry = 0u128;
            for (j, limb) in acc.iter_mut().enumerate() {
                let cur = *limb as u128 + if j < 4 { r.0[j] as u128 } else { 0 } + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            assert_eq!(U512(acc), prod, "t={t}");
        }
    }

    #[test]
    fn division_edge_cases() {
        // Dividend smaller than divisor.
        let small = U512::from_u256(&U256::from_u64(5));
        let (q, r) = small.div_rem(&U256::MAX);
        assert_eq!(q, U512::ZERO);
        assert_eq!(r, U256::from_u64(5));
        // Self-division.
        let (q, r) = U256::MAX.div_rem(&U256::MAX);
        assert_eq!(q, U256::ONE);
        assert_eq!(r, U256::ZERO);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", U256::ZERO).is_empty());
        assert!(!format!("{:?}", U512::ZERO).is_empty());
    }
}
