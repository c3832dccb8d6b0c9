//! Best-effort secret zeroization and constant-time comparison.
//!
//! These are the runtime counterparts of the `monatt-lint` rules: the
//! `secret_hygiene` rule requires every key-material type to route its
//! `Drop` through [`zeroize_bytes`]/[`zeroize_u32s`]/[`zeroize_u64s`],
//! and the `const_time` rule requires tag/digest comparisons to go
//! through [`ct_eq`].
//!
//! Zeroization is *best effort*: the buffer is overwritten with zeros and
//! the write is pinned with [`std::hint::black_box`] plus a compiler
//! fence so the optimizer cannot prove the store dead and elide it. This
//! does not scrub copies the compiler may have spilled elsewhere — the
//! same caveat applies to every zeroization crate without OS support —
//! but it removes key bytes from the place they verifiably lived.

use std::sync::atomic::{compiler_fence, Ordering};

/// Overwrites `bytes` with zeros in a way the optimizer must not elide.
pub fn zeroize_bytes(bytes: &mut [u8]) {
    bytes.fill(0);
    std::hint::black_box(&*bytes);
    compiler_fence(Ordering::SeqCst);
}

/// Overwrites `words` with zeros in a way the optimizer must not elide.
pub fn zeroize_u32s(words: &mut [u32]) {
    words.fill(0);
    std::hint::black_box(&*words);
    compiler_fence(Ordering::SeqCst);
}

/// Overwrites `words` with zeros in a way the optimizer must not elide.
pub fn zeroize_u64s(words: &mut [u64]) {
    words.fill(0);
    std::hint::black_box(&*words);
    compiler_fence(Ordering::SeqCst);
}

/// Compares two byte slices in time independent of where they differ.
///
/// Differing lengths return `false` immediately — the length of a tag or
/// digest is public. This is the only comparison the `const_time` lint
/// rule permits on tag/MAC/digest material.
///
/// # Examples
///
/// ```
/// use monatt_crypto::zeroize::ct_eq;
///
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"abcd"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// A fixed-size byte buffer that zeroizes itself on drop.
///
/// Use it for transient key material (session secrets, derived key
/// blocks) that lives on the stack between derivation and installation
/// into a keyed type.
pub struct Zeroizing<const N: usize>(pub [u8; N]);

impl<const N: usize> Zeroizing<N> {
    /// Wraps `bytes`, taking responsibility for scrubbing them.
    pub fn new(bytes: [u8; N]) -> Self {
        Zeroizing(bytes)
    }
}

impl<const N: usize> std::ops::Deref for Zeroizing<N> {
    type Target = [u8; N];
    fn deref(&self) -> &[u8; N] {
        &self.0
    }
}

impl<const N: usize> std::ops::DerefMut for Zeroizing<N> {
    fn deref_mut(&mut self) -> &mut [u8; N] {
        &mut self.0
    }
}

impl<const N: usize> Drop for Zeroizing<N> {
    fn drop(&mut self) {
        zeroize_bytes(&mut self.0);
    }
}

impl<const N: usize> std::fmt::Debug for Zeroizing<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Zeroizing<{N}>(REDACTED)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroize_clears_bytes() {
        let mut buf = [0xAAu8; 64];
        zeroize_bytes(&mut buf);
        assert_eq!(buf, [0u8; 64]);
        let mut words = [u64::MAX; 8];
        zeroize_u64s(&mut words);
        assert_eq!(words, [0u64; 8]);
        let mut words = [u32::MAX; 8];
        zeroize_u32s(&mut words);
        assert_eq!(words, [0u32; 8]);
    }

    #[test]
    fn ct_eq_matches_semantics_of_eq() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn zeroizing_redacts_debug() {
        let z = Zeroizing::new([7u8; 16]);
        let s = format!("{z:?}");
        assert!(!s.contains('7'));
        assert!(s.contains("REDACTED"));
    }

    #[test]
    fn zeroizing_derefs() {
        let mut z = Zeroizing::new([1u8; 4]);
        z[0] = 9;
        assert_eq!(*z, [9, 1, 1, 1]);
    }
}
