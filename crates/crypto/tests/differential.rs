//! Differential tests of the constant-time, multi-block primitives
//! against independent, deliberately naive oracles kept here:
//!
//! * a byte-wise FIPS-197 textbook AES (S-box tables, `gf_mul`
//!   MixColumns), one block at a time;
//! * a serial PMAC over the concatenated message, one block per AES call;
//! * the bit-serial GF(2^128) multiply of SP 800-38D Algorithm 1.
//!
//! The oracles are variable-time and exist only as test references.

use shef_crypto::aes::{Aes, Blocks4};
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};
use shef_crypto::ctr::{ctr_xor, ChunkIv};
use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ghash::gf128_mul;
use shef_crypto::hmac::{hmac_sha256_multi, HmacSha256Key};
use shef_crypto::pmac::{pmac, pmac_multi};
use shef_crypto::CryptoError;

/// Byte-wise FIPS-197 AES: the textbook algorithm, table-driven.
mod reference {
    const SBOX: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
        0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
        0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
        0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
        0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
        0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
        0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
        0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
        0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
        0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
        0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
        0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
        0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
        0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
        0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
        0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
        0x16,
    ];

    const INV_SBOX: [u8; 256] = {
        let mut inv = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            inv[SBOX[i] as usize] = i as u8;
            i += 1;
        }
        inv
    };

    const RCON: [u8; 15] = [
        0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
    ];

    /// Multiplication in GF(2^8) with the AES polynomial 0x11b.
    pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        p
    }

    pub struct RefAes {
        round_keys: Vec<[u8; 16]>,
    }

    impl RefAes {
        pub fn new(key: &[u8]) -> Self {
            let nk = key.len() / 4;
            let rounds = nk + 6;
            let total_words = 4 * (rounds + 1);
            let mut w: Vec<[u8; 4]> = key.chunks_exact(4).map(|c| c.try_into().unwrap()).collect();
            for i in nk..total_words {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / nk - 1];
                } else if nk > 6 && i % nk == 4 {
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                }
                let prev = w[i - nk];
                w.push(core::array::from_fn(|j| prev[j] ^ temp[j]));
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|ws| core::array::from_fn(|i| ws[i / 4][i % 4]))
                .collect();
            RefAes { round_keys }
        }

        fn rounds(&self) -> usize {
            self.round_keys.len() - 1
        }

        pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let rounds = self.rounds();
            let mut state = *block;
            xor_in_place(&mut state, &self.round_keys[0]);
            for round in 1..rounds {
                sub_bytes(&mut state, &SBOX);
                shift_rows(&mut state);
                mix_columns(&mut state, [2, 3, 1, 1]);
                xor_in_place(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state, &SBOX);
            shift_rows(&mut state);
            xor_in_place(&mut state, &self.round_keys[rounds]);
            state
        }

        pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
            let rounds = self.rounds();
            let mut state = *block;
            xor_in_place(&mut state, &self.round_keys[rounds]);
            inv_shift_rows(&mut state);
            sub_bytes(&mut state, &INV_SBOX);
            for round in (1..rounds).rev() {
                xor_in_place(&mut state, &self.round_keys[round]);
                mix_columns(&mut state, [14, 11, 13, 9]);
                inv_shift_rows(&mut state);
                sub_bytes(&mut state, &INV_SBOX);
            }
            xor_in_place(&mut state, &self.round_keys[0]);
            state
        }
    }

    fn xor_in_place(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16], table: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = table[*b as usize];
        }
    }

    // Column-major state as in FIPS 197: byte i is row i%4, col i/4.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[row + 4 * col] = s[row + 4 * ((col + row) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[row + 4 * ((col + row) % 4)] = s[row + 4 * col];
            }
        }
    }

    /// Multiplies each column by the circulant matrix whose first row is
    /// `m` (MixColumns: `[2, 3, 1, 1]`; its inverse: `[14, 11, 13, 9]`).
    fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
        for col in state.chunks_exact_mut(4) {
            let c = [col[0], col[1], col[2], col[3]];
            for (row, out) in col.iter_mut().enumerate() {
                *out = (0..4).fold(0, |acc, k| acc ^ gf_mul(c[k], m[(k + 4 - row) % 4]));
            }
        }
    }

    /// Serial PMAC over the concatenated message: the construction of
    /// `shef_crypto::pmac`, one block per AES call.
    pub fn serial_pmac(aes: &RefAes, data: &[u8]) -> [u8; 16] {
        fn dbl(block: &[u8; 16]) -> [u8; 16] {
            let v = u128::from_be_bytes(*block);
            let out = (v << 1) ^ if v >> 127 == 1 { 0x87 } else { 0 };
            out.to_be_bytes()
        }
        fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
            core::array::from_fn(|i| a[i] ^ b[i])
        }
        let l = aes.encrypt_block(&[0u8; 16]);
        let n_full = data.len() / 16;
        let rem = data.len() % 16;
        let last_full_is_final = rem == 0 && n_full > 0;
        let parallel = if last_full_is_final {
            n_full - 1
        } else {
            n_full
        };
        let mut sigma = [0u8; 16];
        let mut mask = dbl(&l);
        for i in 0..parallel {
            let block: [u8; 16] = data[i * 16..(i + 1) * 16].try_into().unwrap();
            sigma = xor16(&sigma, &aes.encrypt_block(&xor16(&block, &mask)));
            mask = dbl(&mask);
        }
        if last_full_is_final {
            let block: [u8; 16] = data[(n_full - 1) * 16..].try_into().unwrap();
            sigma = xor16(&xor16(&sigma, &block), &dbl(&dbl(&l)));
        } else {
            let mut block = [0u8; 16];
            block[..rem].copy_from_slice(&data[n_full * 16..]);
            block[rem] = 0x80;
            sigma = xor16(&xor16(&sigma, &block), &dbl(&dbl(&dbl(&l))));
        }
        aes.encrypt_block(&sigma)
    }

    /// SP 800-38D Algorithm 1, bit by bit (branches on the operand).
    pub fn gf128_mul_serial(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }
}

use reference::{gf128_mul_serial, serial_pmac, RefAes};

fn drbg(label: &[u8]) -> HmacDrbg {
    HmacDrbg::from_seed(&[b"shef differential tests/".as_slice(), label].concat())
}

fn random<const N: usize>(rng: &mut HmacDrbg) -> [u8; N] {
    rng.generate_array()
}

/// Reference CTR keystream for the Shield's `IV || be32(block index)`.
fn ref_ctr(aes: &RefAes, iv: &ChunkIv, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut counter = [0u8; 16];
        counter[..12].copy_from_slice(&iv.0);
        counter[12..].copy_from_slice(&(i as u32).to_be_bytes());
        let ks = aes.encrypt_block(&counter);
        for (d, k) in chunk.iter_mut().zip(ks) {
            *d ^= k;
        }
    }
}

#[test]
fn gf_mul_known_values() {
    use reference::gf_mul;
    assert_eq!(gf_mul(0x57, 0x83), 0xc1);
    assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    assert_eq!(gf_mul(1, 0xab), 0xab);
    assert_eq!(gf_mul(0, 0xab), 0);
}

#[test]
fn reference_aes_matches_fips197() {
    // The oracle itself is pinned to FIPS 197 Appendix C.1 / C.3.
    let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
    let key128: [u8; 16] = core::array::from_fn(|i| i as u8);
    let key256: [u8; 32] = core::array::from_fn(|i| i as u8);
    let ct128 = RefAes::new(&key128).encrypt_block(&pt);
    let ct256 = RefAes::new(&key256).encrypt_block(&pt);
    assert_eq!(
        shef_crypto::to_hex(&ct128),
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    );
    assert_eq!(
        shef_crypto::to_hex(&ct256),
        "8ea2b7ca516745bfeafc49904b496089"
    );
    assert_eq!(RefAes::new(&key128).decrypt_block(&ct128), pt);
}

#[test]
fn bitsliced_aes_4_blocks_match_reference_both_key_sizes() {
    let mut rng = drbg(b"aes4");
    for trial in 0..64 {
        let key: Vec<u8> = if trial % 2 == 0 {
            random::<16>(&mut rng).to_vec()
        } else {
            random::<32>(&mut rng).to_vec()
        };
        let aes = Aes::new(&key);
        let oracle = RefAes::new(&key);
        let plain: Blocks4 = core::array::from_fn(|_| random(&mut rng));
        let mut blocks = plain;
        aes.encrypt4(&mut blocks);
        for (ct, pt) in blocks.iter().zip(&plain) {
            assert_eq!(*ct, oracle.encrypt_block(pt), "encrypt, key {}", key.len());
        }
        let cipher = blocks;
        aes.decrypt4(&mut blocks);
        assert_eq!(blocks, plain);
        for ct in &cipher {
            assert_eq!(
                aes.decrypt_block(ct),
                oracle.decrypt_block(ct),
                "decrypt, key {}",
                key.len()
            );
        }
    }
}

#[test]
fn sbox_circuit_matches_table_on_every_byte() {
    // All 256 byte values, 64 per call, through the AES-128 first round
    // with an all-zero key: reference and bitsliced must agree, which
    // pins every S-box output bit.
    let aes = Aes::new_128(&[0u8; 16]);
    let oracle = RefAes::new(&[0u8; 16]);
    for base in (0..256).step_by(64) {
        let mut blocks: Blocks4 =
            core::array::from_fn(|i| core::array::from_fn(|j| (base + i * 16 + j) as u8));
        let inputs = blocks;
        aes.encrypt4(&mut blocks);
        for (ct, pt) in blocks.iter().zip(&inputs) {
            assert_eq!(*ct, oracle.encrypt_block(pt));
        }
    }
}

#[test]
fn ctr_matches_reference_at_every_length_to_300() {
    let mut rng = drbg(b"ctr");
    for key_len in [16usize, 32] {
        let mut key = vec![0u8; key_len];
        rng.fill_bytes(&mut key);
        let aes = Aes::new(&key);
        let oracle = RefAes::new(&key);
        let iv = ChunkIv(random(&mut rng));
        for len in 0..=300 {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut expected = data.clone();
            ref_ctr(&oracle, &iv, &mut expected);
            ctr_xor(&aes, &iv, &mut data);
            assert_eq!(data, expected, "key {key_len}, len {len}");
        }
    }
}

#[test]
fn pmac_matches_serial_reference_at_lengths_to_200() {
    let mut rng = drbg(b"pmac");
    let key: [u8; 16] = random(&mut rng);
    let aes = Aes::new_128(&key);
    let oracle = RefAes::new(&key);
    for len in 0..=200 {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let expected = serial_pmac(&oracle, &data);
        assert_eq!(pmac(&aes, &data), expected, "len {len}");
        // Uneven splits, including empty parts and parts that straddle
        // block boundaries.
        let a = len / 3;
        let b = (2 * len) / 3;
        let parts: [&[u8]; 5] = [&data[..a], &[], &data[a..b], &data[b..], &[]];
        assert_eq!(pmac_multi(&aes, &parts), expected, "len {len} split");
    }
}

#[test]
fn gf128_mul_matches_bit_serial_reference() {
    let mut rng = drbg(b"gf128");
    let edge = [0u128, 1, 1 << 127, u128::MAX, 0xe1 << 120];
    for &x in &edge {
        for &y in &edge {
            assert_eq!(gf128_mul(x, y), gf128_mul_serial(x, y));
        }
    }
    for _ in 0..500 {
        let x = u128::from_be_bytes(random(&mut rng));
        let y = u128::from_be_bytes(random(&mut rng));
        assert_eq!(gf128_mul(x, y), gf128_mul_serial(x, y));
    }
}

#[test]
fn hmac_key_matches_one_shot_hmac() {
    let mut rng = drbg(b"hmac");
    for key_len in [0usize, 1, 32, 63, 64, 65, 100, 200] {
        let mut key = vec![0u8; key_len];
        rng.fill_bytes(&mut key);
        let k = HmacSha256Key::new(&key);
        for len in [0usize, 1, 55, 56, 64, 119, 120, 4096] {
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            let (a, b) = msg.split_at(len / 2);
            assert_eq!(k.mac_multi(&[&msg]), hmac_sha256_multi(&key, &[&msg]));
            assert_eq!(k.mac_multi(&[a, b]), hmac_sha256_multi(&key, &[a, b]));
        }
    }
}

#[test]
fn open_in_place_with_bad_tag_leaves_ciphertext() {
    for alg in [
        MacAlgorithm::HmacSha256,
        MacAlgorithm::PmacAes,
        MacAlgorithm::AesGcm,
    ] {
        let key = AuthEncKey::from_bytes([0x42; 32], alg);
        let iv = ChunkIv([9; 12]);
        let mut buf = b"plaintext spanning more than four AES blocks, 70 bytes in all!!".to_vec();
        let plaintext = buf.clone();
        let tag = key.seal_in_place(b"ad", iv, &mut buf);
        let ciphertext = buf.clone();
        let mut bad = tag;
        bad[15] ^= 1;
        assert_eq!(
            key.open_in_place(b"ad", iv, &mut buf, &bad),
            Err(CryptoError::TagMismatch)
        );
        assert_eq!(buf, ciphertext, "{alg}: buffer must still be ciphertext");
        assert_eq!(
            key.open_in_place(b"other ad", iv, &mut buf, &tag),
            Err(CryptoError::TagMismatch)
        );
        assert_eq!(buf, ciphertext, "{alg}: wrong AD must not decrypt");
        key.open_in_place(b"ad", iv, &mut buf, &tag).unwrap();
        assert_eq!(buf, plaintext);
    }
}
