//! Byte-wise AES-128 straight from FIPS 197: SubBytes, ShiftRows,
//! MixColumns and AddRoundKey as separate passes over a 16-byte state,
//! with the S-box *derived* (inverse in GF(2^8), then the affine map)
//! rather than tabulated, so it also checks the table the shipped
//! cipher builds its round tables from.

use std::sync::OnceLock;

/// Multiplication in GF(2^8) modulo `x^8 + x^4 + x^3 + x + 1`.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = (a << 1) ^ (((a >> 7) & 1) * 0x1b);
        b >>= 1;
    }
    acc
}

/// The S-box by definition (FIPS 197 §5.1.1): the multiplicative
/// inverse (0 maps to 0), then the affine transformation. Derived once
/// per test binary.
fn sbox(x: u8) -> u8 {
    static TABLE: OnceLock<[u8; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u8; 256];
        for (x, entry) in table.iter_mut().enumerate() {
            // x^254 = x^-1 in GF(2^8)*, and 0^254 = 0.
            let mut inv = 1u8;
            for _ in 0..254 {
                inv = gf_mul(inv, x as u8);
            }
            *entry = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
        }
        table
    })[x as usize]
}

fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i].copy_from_slice(&key[i * 4..(i + 1) * 4]);
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for b in &mut temp {
                *b = sbox(*b);
            }
            temp[0] ^= rcon;
            rcon = gf_mul(rcon, 2);
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for r in 0..11 {
        for c in 0..4 {
            round_keys[r][c * 4..(c + 1) * 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = sbox(*b);
    }
}

/// State is column-major: `state[4*c + r]` is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        for r in 0..4 {
            state[4 * c + r] = gf_mul(col[r], 2)
                ^ gf_mul(col[(r + 1) % 4], 3)
                ^ col[(r + 2) % 4]
                ^ col[(r + 3) % 4];
        }
    }
}

/// Encrypts one block under `key`.
pub fn encrypt_block_ref(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
    let round_keys = expand_key(key);
    let mut state = *block;
    add_round_key(&mut state, &round_keys[0]);
    for rk in &round_keys[1..10] {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, rk);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &round_keys[10]);
    state
}

/// XORs the CTR keystream into `data`: counter block
/// `nonce (12 bytes) || block index (4 bytes, big-endian)` from zero.
pub fn ctr_xor_ref(key: &[u8; 16], nonce: &[u8; 12], data: &mut [u8]) {
    for (block_idx, chunk) in data.chunks_mut(16).enumerate() {
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(nonce);
        counter_block[12..].copy_from_slice(&(block_idx as u32).to_be_bytes());
        let keystream = encrypt_block_ref(key, &counter_block);
        for (b, k) in chunk.iter_mut().zip(keystream) {
            *b ^= k;
        }
    }
}
