//! The SHA-256 compression function on the x86 SHA extensions.
//!
//! Same function as the portable rounds in [`mod@crate::sha256`], so the
//! same bytes: `sha256rnds2` runs two rounds over the state held as the
//! register pair (A, B, E, F) / (C, D, G, H), `sha256msg1`/`sha256msg2`
//! extend the message schedule four words at a time, and the round
//! constants are the portable path's `K`. The differential tests in
//! `sha256.rs` hold the two paths to each other.

use std::arch::x86_64::*;

use crate::sha256::K;

/// Proof that the running CPU has the instructions [`compress`] is
/// compiled for; the only way to reach it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// Returns the token if the CPU supports SHA and SSE4.1.
    #[inline]
    pub(crate) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")).then_some(ShaNi(()))
    }

    /// Runs the compression function over each block in turn.
    #[inline]
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: a `ShaNi` exists only where `detect` found every
        // feature `compress` enables.
        unsafe { compress(state, blocks) }
    }
}

/// Four rounds starting at round `i`, whose message words are `w`.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let k = _mm_set_epi32(
        K[i + 3] as i32,
        K[i + 2] as i32,
        K[i + 1] as i32,
        K[i] as i32,
    );
    let wk = _mm_add_epi32(w, k);
    // Each `sha256rnds2` returns the new (A, B, E, F); the old one is
    // the new (C, D, G, H).
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// The next four schedule words from the previous sixteen, oldest first.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    // W[t−16] + σ0(W[t−15]) + W[t−7], then σ1(W[t−2]) with its carries
    // between the four lanes.
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(partial, w3)
}

/// Runs the compression function over each block in turn.
///
/// # Safety
///
/// Outside a function with the same target features, the caller must
/// know the CPU supports them: holding a [`ShaNi`] is that knowledge.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Big-endian message words: reverse the bytes of each lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [_mm_setzero_si128(); 4];
        for (j, lane) in w.iter_mut().enumerate() {
            // SAFETY: `16 * j + 16 <= 64`, so the unaligned 16-byte load
            // stays inside `block`.
            let bytes = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * j).cast()) };
            *lane = _mm_shuffle_epi8(bytes, bswap);
        }
        let [mut w0, mut w1, mut w2, mut w3] = w;
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 4);
        rounds4(&mut abef, &mut cdgh, w2, 8);
        rounds4(&mut abef, &mut cdgh, w3, 12);
        for i in (16..64).step_by(16) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 4);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 8);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 12);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|x| x as u32);
}
