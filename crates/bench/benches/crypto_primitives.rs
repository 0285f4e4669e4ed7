//! Criterion microbenchmarks of the cryptographic substrate — the
//! software analogues of the Shield's engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shef_crypto::aes::Aes;
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};
use shef_crypto::ctr::{ctr_xor, ChunkIv};
use shef_crypto::ed25519::SigningKey;
use shef_crypto::hmac::hmac_sha256;
use shef_crypto::pmac::pmac;
use shef_crypto::sha2::Sha256;
use shef_crypto::x25519;

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    let aes128 = Aes::new_128(&[7u8; 16]);
    let aes256 = Aes::new_256(&[7u8; 32]);
    let block = [0x5au8; 16];
    group.bench_function("aes128_block", |b| b.iter(|| aes128.encrypt_block(&block)));
    group.bench_function("aes256_block", |b| b.iter(|| aes256.encrypt_block(&block)));
    // The bitsliced core's native unit: four independent blocks per call.
    let mut blocks = [block; 4];
    group.throughput(Throughput::Bytes(64));
    group.bench_function("aes128_4blocks", |b| {
        b.iter(|| {
            aes128.encrypt4(&mut blocks);
            blocks[0][0]
        })
    });
    // 64 bytes is one 4-block batch: the affine_gather chunk size.
    for size in [64usize, 512, 4096] {
        let mut buf = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("ctr", size), &size, |b, _| {
            b.iter(|| ctr_xor(&aes128, &ChunkIv::for_chunk([1; 8], 0), &mut buf))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    for size in [512usize, 4096] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
        group.bench_with_input(BenchmarkId::new("hmac_sha256", size), &data, |b, d| {
            b.iter(|| hmac_sha256(b"key", d))
        });
        let aes = Aes::new_128(&[7u8; 16]);
        group.bench_with_input(BenchmarkId::new("pmac", size), &data, |b, d| {
            b.iter(|| pmac(&aes, d))
        });
        group.bench_with_input(BenchmarkId::new("ghash", size), &data, |b, d| {
            b.iter(|| shef_crypto::ghash::ghash(&[0x25u8; 16], b"", d))
        });
    }
    group.finish();
}

fn bench_authenc(c: &mut Criterion) {
    let mut group = c.benchmark_group("authenc");
    for (name, alg) in [
        ("ctr_hmac", MacAlgorithm::HmacSha256),
        ("ctr_pmac", MacAlgorithm::PmacAes),
        ("ctr_gcm", MacAlgorithm::AesGcm),
    ] {
        let mut key = AuthEncKey::from_bytes([9u8; 32], alg);
        let data = vec![0x11u8; 4096];
        group.throughput(Throughput::Bytes(4096));
        group.bench_function(format!("{name}_seal_4k"), |b| {
            b.iter(|| key.seal(&data, b"chunk"))
        });
    }
    group.finish();
}

fn bench_asymmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("asymmetric");
    let key = SigningKey::from_seed(&[3u8; 32]);
    let msg = vec![0x42u8; 256];
    let sig = key.sign(&msg);
    group.bench_function("ed25519_sign", |b| b.iter(|| key.sign(&msg)));
    group.bench_function("ed25519_verify", |b| {
        b.iter(|| key.verifying_key().verify(&msg, &sig).unwrap())
    });
    let secret = [0x77u8; 32];
    let peer = x25519::public_key(&[0x88u8; 32]);
    group.bench_function("x25519_dh", |b| {
        b.iter(|| x25519::shared_secret(&secret, &peer))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_hashes,
    bench_authenc,
    bench_asymmetric
);
criterion_main!(benches);
