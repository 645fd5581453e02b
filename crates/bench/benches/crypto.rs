//! Criterion benches of the from-scratch crypto substrate — the cost base
//! behind the AES-engine and MicroBlaze latency models.
// The criterion_group! macro expands to undocumented glue functions,
// which the workspace-level missing_docs deny would otherwise reject.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use guardnn_crypto::aes::Aes128;
use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::{AesCtr, CounterBlock};
use guardnn_crypto::dh::{DhGroup, DhKeyPair};
use guardnn_crypto::rng::TrngModel;
use guardnn_crypto::schnorr::SigningKey;
use guardnn_crypto::sha256::Sha256;
use std::hint::black_box;

fn bench_aes(c: &mut Criterion) {
    let cipher = Aes128::new(&[7u8; 16]);
    let block = [0x5Au8; 16];
    let mut g = c.benchmark_group("aes128");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("encrypt_block", |b| {
        b.iter(|| cipher.encrypt_block(black_box(&block)))
    });
    g.finish();
}

fn bench_ctr(c: &mut Criterion) {
    let ctr = AesCtr::new(&[9u8; 16]);
    let mut chunk = vec![0xA5u8; 512];
    let mut g = c.benchmark_group("aes_ctr");
    g.throughput(Throughput::Bytes(512));
    g.bench_function("chunk_512B", |b| {
        b.iter(|| ctr.apply_range(black_box(0x1000), black_box(3), &mut chunk))
    });
    g.bench_function("pad", |b| {
        b.iter(|| ctr.pad(black_box(CounterBlock::new(0x40, 9))))
    });
    g.finish();
}

fn bench_cmac(c: &mut Criterion) {
    let cmac = Cmac::new(&[3u8; 16]);
    let chunk = vec![0x11u8; 512];
    let mut g = c.benchmark_group("cmac");
    g.throughput(Throughput::Bytes(512));
    g.bench_function("chunk_512B", |b| b.iter(|| cmac.compute(black_box(&chunk))));
    g.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0x42u8; 4096];
    let mut g = c.benchmark_group("sha256");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("digest_4KiB", |b| {
        b.iter(|| Sha256::digest(black_box(&data)))
    });
    g.finish();
}

fn bench_pubkey(c: &mut Criterion) {
    let group = DhGroup::oakley768();
    let mut rng = TrngModel::from_seed(1);
    let alice = DhKeyPair::generate(&group, &mut rng);
    let bob = DhKeyPair::generate(&group, &mut rng);
    let sk = SigningKey::generate(&group, &mut rng);
    let sig = sk.sign(b"report", &mut rng);

    let mut g = c.benchmark_group("pubkey_768");
    g.sample_size(10);
    g.bench_function("dh_keygen", |b| {
        b.iter(|| DhKeyPair::generate(black_box(&group), &mut rng))
    });
    g.bench_function("dh_shared_secret", |b| {
        b.iter(|| alice.shared_secret(black_box(bob.public_key())))
    });
    g.bench_function("schnorr_sign", |b| {
        b.iter(|| sk.sign(black_box(b"report"), &mut rng))
    });
    g.bench_function("schnorr_verify", |b| {
        b.iter(|| sk.verifying_key().verify(black_box(b"report"), &sig))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_ctr,
    bench_cmac,
    bench_sha256,
    bench_pubkey
);
criterion_main!(benches);
