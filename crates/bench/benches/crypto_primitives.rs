//! Criterion benchmarks of the cryptographic substrate: the per-operation
//! costs behind the attestation protocol's latency model.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::group::Group;
use monatt_crypto::modmath::{mod_exp, mod_mul, mod_sub};
use monatt_crypto::schnorr::SigningKey;
use monatt_crypto::sha256::sha256;
use monatt_crypto::{EphemeralSecret, SealKey};

/// Kernels of the modular-arithmetic hot path. The seed implementation
/// (binary long division) these replaced is a test oracle now; its
/// historical numbers are in DESIGN.md §7.
fn bench_modmath(c: &mut Criterion) {
    let grp = Group::default_group();
    let mut rng = Drbg::from_seed(9);
    let a = rng.next_u256_in_group(&grp.p);
    let b = rng.next_u256_in_group(&grp.p);
    let e = rng.next_u256_in_group(&grp.q);
    c.bench_function("mod_mul_montgomery", |bch| {
        bch.iter(|| mod_mul(std::hint::black_box(&a), &b, &grp.p))
    });
    c.bench_function("mod_exp_montgomery_w4", |bch| {
        bch.iter(|| mod_exp(std::hint::black_box(&a), &e, &grp.p))
    });
    c.bench_function("pow_g_fixed_window", |bch| {
        bch.iter(|| grp.pow_g(std::hint::black_box(&e)))
    });
}

/// The two shapes of Schnorr verification's double exponentiation:
/// two separate ladders (seed) vs. one shared Shamir chain (current).
fn bench_double_exp(c: &mut Criterion) {
    let grp = Group::default_group();
    let mut rng = Drbg::from_seed(10);
    let pk = grp.pow_g(&rng.next_u256_in_group(&grp.q));
    let s = rng.next_u256_in_group(&grp.q);
    let neg_e = mod_sub(&grp.q, &rng.next_u256_in_group(&grp.q), &grp.q);
    c.bench_function("verify_core_two_ladders", |bch| {
        bch.iter(|| grp.mul(&grp.pow_g(std::hint::black_box(&s)), &grp.pow(&pk, &neg_e)))
    });
    c.bench_function("schnorr_verify_shamir", |bch| {
        bch.iter(|| grp.pow_double(&grp.g, std::hint::black_box(&s), &pk, &neg_e))
    });
}

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let mut rng = Drbg::from_seed(1);
    let key = SigningKey::generate(&mut rng);
    let msg = b"attestation report for vid-42";
    let sig = key.sign(msg);
    c.bench_function("schnorr_sign", |b| {
        b.iter(|| key.sign(std::hint::black_box(msg)))
    });
    c.bench_function("schnorr_verify", |b| {
        b.iter(|| {
            key.verifying_key()
                .verify(std::hint::black_box(msg), &sig)
                .unwrap()
        })
    });
}

fn bench_dh(c: &mut Criterion) {
    let mut rng = Drbg::from_seed(2);
    let alice = EphemeralSecret::generate(&mut rng);
    let bob = EphemeralSecret::generate(&mut rng);
    c.bench_function("dh_agree", |b| {
        b.iter(|| {
            alice
                .agree(std::hint::black_box(&bob.public_share()), b"bench")
                .unwrap()
        })
    });
}

fn bench_seal(c: &mut Criterion) {
    let key = SealKey::derive(&[7u8; 32], b"bench");
    let payload = vec![0u8; 1024];
    let nonce = [1u8; 12];
    let sealed = key.seal(&nonce, b"", &payload);
    c.bench_function("seal_1KiB", |b| {
        b.iter(|| key.seal(&nonce, b"", std::hint::black_box(&payload)))
    });
    c.bench_function("open_1KiB", |b| {
        b.iter(|| {
            key.open(&nonce, b"", std::hint::black_box(&sealed))
                .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_modmath,
    bench_double_exp,
    bench_sha256,
    bench_schnorr,
    bench_dh,
    bench_seal
);
criterion_main!(benches);
