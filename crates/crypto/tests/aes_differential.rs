//! The shipped AES-128 runs on round tables. These tests hold it to the
//! NIST CTR known answers and, on random keys and blocks, to the
//! byte-wise FIPS-197 rounds in `support::aes_ref` (whose S-box is
//! derived, not tabulated). The FIPS-197 Appendix B / C.1 block vectors
//! are unit tests in `src/aes.rs`.

mod support;

use monatt_crypto::aes::Aes128;
use support::aes_ref::{ctr_xor_ref, encrypt_block_ref};
use support::SplitMix64;

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// SP 800-38A F.5.1 (CTR-AES128.Encrypt). The standard's counter block
/// starts at `f0f1…feff` and carries into the third byte from the end,
/// which `ctr_xor`'s zero-based 32-bit counter cannot express, so the
/// four counter blocks go through `encrypt_block` and the XOR is done
/// here.
#[test]
fn sp800_38a_f51_ctr_vectors() {
    let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
    let cases = [
        (
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
            "6bc1bee22e409f96e93d7e117393172a",
            "874d6191b620e3261bef6864990db6ce",
        ),
        (
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdff00",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "9806f66b7970fdff8617187bb9fffdff",
        ),
        (
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdff01",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "5ae4df3edbd5d35e5b4f09020db03eab",
        ),
        (
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdff02",
            "f69f2445df4f9b17ad2b417be66c3710",
            "1e031dda2fbe03d1792170a0f3009cee",
        ),
    ];
    let cipher = Aes128::new(&key);
    for (counter, plaintext, ciphertext) in cases {
        let counter: [u8; 16] = hex(counter).try_into().unwrap();
        let keystream = cipher.encrypt_block(&counter);
        let got: Vec<u8> = hex(plaintext)
            .iter()
            .zip(keystream)
            .map(|(p, k)| p ^ k)
            .collect();
        assert_eq!(got, hex(ciphertext));
        assert_eq!(keystream, encrypt_block_ref(&key, &counter));
    }
}

#[test]
fn table_rounds_match_byte_wise_rounds_on_random_blocks() {
    let mut rng = SplitMix64(0xAE5);
    for _ in 0..300 {
        let (mut key, mut block) = ([0u8; 16], [0u8; 16]);
        rng.fill(&mut key);
        rng.fill(&mut block);
        assert_eq!(
            Aes128::new(&key).encrypt_block(&block),
            encrypt_block_ref(&key, &block),
            "key {key:02x?} block {block:02x?}"
        );
    }
    // Every byte value in every state position, under a fixed key.
    let key = [0x5a; 16];
    let cipher = Aes128::new(&key);
    for value in 0..=255u8 {
        for position in 0..16 {
            let mut block = [0u8; 16];
            block[position] = value;
            assert_eq!(
                cipher.encrypt_block(&block),
                encrypt_block_ref(&key, &block)
            );
        }
    }
}

#[test]
fn ctr_keystream_matches_byte_wise_ctr_at_every_length() {
    let mut rng = SplitMix64(0xC7);
    let (mut key, mut nonce) = ([0u8; 16], [0u8; 12]);
    rng.fill(&mut key);
    rng.fill(&mut nonce);
    let cipher = Aes128::new(&key);
    // 0..=80 covers empty, partial, exact and multi-block tails; 358 is
    // the largest Figure-3 record; 4200 crosses counter byte 0 → 1.
    for len in (0..=80).chain([358, 4200]) {
        let mut data = vec![0u8; len];
        rng.fill(&mut data);
        let mut expect = data.clone();
        ctr_xor_ref(&key, &nonce, &mut expect);
        cipher.ctr_xor(&nonce, &mut data);
        assert_eq!(data, expect, "len {len}");
    }
}
