//! AES-128 CTR on the x86 AES instructions.
//!
//! Same function as the portable `Aes128::ctr_xor`, so the same bytes:
//! `aesenc` is one FIPS-197 round (SubBytes, ShiftRows, MixColumns,
//! AddRoundKey) and `aesenclast` the final one, under the round keys
//! `Aes128::new` expanded. No table is indexed. The differential tests in
//! `aes.rs` hold the two paths to each other.

use std::arch::x86_64::*;
use std::sync::atomic::{compiler_fence, Ordering};

/// Proof that the running CPU has the instructions [`ctr_xor`] is
/// compiled for; the only way to reach it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AesNi(());

impl AesNi {
    /// Returns the token if the CPU supports AES-NI.
    #[inline]
    pub(crate) fn detect() -> Option<AesNi> {
        is_x86_feature_detected!("aes").then_some(AesNi(()))
    }

    /// XORs the CTR keystream of `nonce` into `data`, counter block
    /// `nonce || counter` (big-endian counter from 0), as the portable
    /// path does.
    #[inline]
    pub(crate) fn ctr_xor(self, round_keys: &[u32; 44], nonce: &[u8; 12], data: &mut [u8]) {
        // SAFETY: an `AesNi` exists only where `detect` found the
        // feature `ctr_xor` enables.
        unsafe { ctr_xor(round_keys, nonce, data) }
    }
}

/// Counter blocks per iteration: four independent `aesenc` chains keep
/// the unit busy through each instruction's latency.
const LANES: usize = 4;

/// XORs the CTR keystream of `nonce` into `data`.
///
/// # Safety
///
/// Outside a function with the same target features, the caller must
/// know the CPU supports them: holding an [`AesNi`] is that knowledge.
#[target_feature(enable = "aes,sse2")]
fn ctr_xor(round_keys: &[u32; 44], nonce: &[u8; 12], data: &mut [u8]) {
    // A round key's bytes in memory order are its big-endian column
    // words; a lane loads little-endian, so each word is byte-swapped.
    let mut keys = [_mm_setzero_si128(); 11];
    for (key, w) in keys.iter_mut().zip(round_keys.as_chunks::<4>().0) {
        let [w0, w1, w2, w3] = w.map(|x| x.swap_bytes() as i32);
        *key = _mm_set_epi32(w3, w2, w1, w0);
    }
    let words = nonce.as_chunks::<4>().0;
    let nonce: [i32; 3] = std::array::from_fn(|i| i32::from_le_bytes(words[i]));
    let (quads, rest) = data.as_chunks_mut::<{ 16 * LANES }>();
    let mut counter = 0u32;
    for quad in quads {
        xor_keystream(&keys, nonce, counter, quad);
        counter = counter.wrapping_add(LANES as u32);
    }
    if !rest.is_empty() {
        let mut tail = [0u8; 16 * LANES];
        tail[..rest.len()].copy_from_slice(rest);
        xor_keystream(&keys, nonce, counter, &mut tail);
        rest.copy_from_slice(&tail[..rest.len()]);
    }
    // Scrub the stack copy of the key schedule, as `Aes128`'s `Drop`
    // scrubs the struct.
    keys = [_mm_setzero_si128(); 11];
    std::hint::black_box(&keys);
    compiler_fence(Ordering::SeqCst);
}

/// XORs the keystream of counters `counter .. counter + LANES` into
/// `chunk`.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn xor_keystream(
    keys: &[__m128i; 11],
    nonce: [i32; 3],
    counter: u32,
    chunk: &mut [u8; 16 * LANES],
) {
    let [n0, n1, n2] = nonce;
    let mut blocks = [_mm_setzero_si128(); LANES];
    for (i, block) in blocks.iter_mut().enumerate() {
        let ctr = counter.wrapping_add(i as u32).swap_bytes() as i32;
        *block = _mm_xor_si128(_mm_set_epi32(ctr, n2, n1, n0), keys[0]);
    }
    for key in &keys[1..10] {
        for block in &mut blocks {
            *block = _mm_aesenc_si128(*block, *key);
        }
    }
    for (bytes, block) in chunk.as_chunks_mut::<16>().0.iter_mut().zip(blocks) {
        let keystream = _mm_aesenclast_si128(block, keys[10]);
        let ptr: *mut __m128i = bytes.as_mut_ptr().cast();
        // SAFETY: `ptr` addresses the 16 bytes of `bytes`; both accesses
        // are unaligned.
        unsafe { _mm_storeu_si128(ptr, _mm_xor_si128(_mm_loadu_si128(ptr), keystream)) };
    }
}
