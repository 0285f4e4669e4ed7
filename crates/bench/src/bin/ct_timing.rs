//! Constant-time evidence for the Shield's host crypto, dudect style
//! (Reparaz, Balasch & Verbauwhede, "Dude, is my code constant time?",
//! DATE 2017).
//!
//! For each target, every sample runs the operation on either a *fixed*
//! secret or a fresh *random* one (the class is itself drawn at random),
//! and a Welch t-test compares the two timing distributions. A large |t|
//! (the usual dudect threshold is 4.5) means the time depends on the
//! secret. The targets are the 4-block bitsliced AES (secret plaintext),
//! the GF(2^128) multiply under GHASH (secret operand) and the tag
//! compare `ct::eq` (secret tag). A positive control — the standard
//! slice `==`, which stops at the first differing byte — shows the
//! harness can see a leak on this host.
//!
//! The result is report-only: wall-clock timing is noisy on shared
//! hosts, so this binary exits 0 whatever |t| it finds (2 only on a bad
//! command line) and nothing gates on its output.
//!
//! ```sh
//! cargo run --release -p shef-bench --bin ct_timing -- [--samples N]
//! ```

use std::hint::black_box;
use std::time::Instant;

use shef_crypto::aes::{Aes, Blocks4};
use shef_crypto::ct;
use shef_crypto::ghash::gf128_mul;

/// Operation calls timed together as one sample, to rise above the
/// timer's resolution.
const CALLS_PER_SAMPLE: usize = 8;
/// Samples above this pooled percentile are dropped as preemption noise.
const CROP_PERCENTILE: f64 = 0.90;
/// dudect's threshold for "timing leak likely".
const T_THRESHOLD: f64 = 4.5;

/// SplitMix64: fast, seedable input generation (not timed).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }
}

/// Sample count, mean and variance of the samples at or below `limit`.
fn moments(samples: &[f64], limit: f64) -> (f64, f64, f64) {
    let kept: Vec<f64> = samples.iter().copied().filter(|&x| x <= limit).collect();
    let n = kept.len() as f64;
    let mean = kept.iter().sum::<f64>() / n;
    let var = kept.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (n, mean, var)
}

/// Welch's t statistic of fixed vs random, after cropping both classes
/// at the pooled `CROP_PERCENTILE`; returns `(|t|, mean fixed, mean random)`.
fn welch_t(fixed: &[f64], random: &[f64]) -> (f64, f64, f64) {
    let mut pooled: Vec<f64> = fixed.iter().chain(random).copied().collect();
    pooled.sort_by(f64::total_cmp);
    let limit = pooled[((pooled.len() - 1) as f64 * CROP_PERCENTILE) as usize];
    let (n0, m0, v0) = moments(fixed, limit);
    let (n1, m1, v1) = moments(random, limit);
    let t = (m0 - m1) / (v0 / n0 + v1 / n1).sqrt();
    (t.abs(), m0, m1)
}

/// Runs the fixed-vs-random experiment. `prepare(rng, fixed)` builds one
/// input outside the timed region; `op` is the timed operation.
fn measure<I>(
    samples: usize,
    seed: u64,
    mut prepare: impl FnMut(&mut Rng, bool) -> I,
    mut op: impl FnMut(&I),
) -> (f64, f64, f64) {
    let mut rng = Rng(seed);
    let mut fixed = Vec::with_capacity(samples);
    let mut random = Vec::with_capacity(samples);
    // Warm caches and branch predictors before recording.
    for _ in 0..samples / 10 {
        let input = prepare(&mut rng, false);
        op(&input);
    }
    for _ in 0..samples {
        let is_fixed = rng.next_u64() & 1 == 0;
        let input = prepare(&mut rng, is_fixed);
        let start = Instant::now();
        for _ in 0..CALLS_PER_SAMPLE {
            op(black_box(&input));
        }
        let ns = start.elapsed().as_nanos() as f64 / CALLS_PER_SAMPLE as f64;
        if is_fixed {
            fixed.push(ns);
        } else {
            random.push(ns);
        }
    }
    welch_t(&fixed, &random)
}

fn parse_samples() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => 20_000,
        [flag, n] if flag == "--samples" => match n.parse() {
            Ok(n) if n >= 100 => n,
            _ => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("usage: ct_timing [--samples N]   (N >= 100, default 20000)");
    std::process::exit(2)
}

fn main() {
    let samples = parse_samples();
    let mut key_rng = Rng(0x5eed);
    let aes = Aes::new_128(&key_rng.array());
    let h = u128::from_be_bytes(key_rng.array());
    let expected_tag: [u8; 16] = key_rng.array();
    let control_buf: Vec<u8> = (0..4096).map(|i| i as u8).collect();

    let rows: [(&str, (f64, f64, f64)); 4] = [
        (
            "aes128_encrypt4 (secret plaintext)",
            measure(
                samples,
                1,
                |rng, fixed| -> Blocks4 {
                    if fixed {
                        [[0u8; 16]; 4]
                    } else {
                        core::array::from_fn(|_| rng.array())
                    }
                },
                |blocks| {
                    let mut b = *blocks;
                    aes.encrypt4(&mut b);
                    black_box(b);
                },
            ),
        ),
        (
            "gf128_mul (secret operand)",
            measure(
                samples,
                2,
                |rng, fixed| {
                    if fixed {
                        0u128
                    } else {
                        u128::from_be_bytes(rng.array())
                    }
                },
                |x| {
                    black_box(gf128_mul(*x, h));
                },
            ),
        ),
        (
            "ct::eq (secret 16-byte tag)",
            measure(
                samples,
                3,
                |rng, fixed| if fixed { expected_tag } else { rng.array() },
                |tag| {
                    black_box(ct::eq(tag, &expected_tag));
                },
            ),
        ),
        (
            "control: slice == (early exit, 4 KiB)",
            measure(
                samples,
                4,
                |rng, fixed| {
                    let mut buf = control_buf.clone();
                    if !fixed {
                        buf[0] ^= 1 | rng.next_u64() as u8;
                    }
                    buf
                },
                |buf| {
                    black_box(buf.as_slice() == control_buf.as_slice());
                },
            ),
        ),
    ];

    println!("# ct_timing: dudect-style fixed-vs-random Welch t-test (report-only)");
    println!(
        "# {samples} samples per target, {CALLS_PER_SAMPLE} calls per sample, \
         cropped at the pooled p{:.0}; |t| > {T_THRESHOLD} suggests a timing leak",
        CROP_PERCENTILE * 100.0
    );
    println!(
        "{:<40} {:>8} {:>14} {:>15}",
        "target", "|t|", "fixed_ns/call", "random_ns/call"
    );
    for (name, (t, m_fixed, m_random)) in rows {
        println!("{name:<40} {t:>8.2} {m_fixed:>14.1} {m_random:>15.1}");
    }
}
