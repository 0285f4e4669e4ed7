//! AES-128 / AES-256 block cipher (FIPS 197), bitsliced and constant-time.
//!
//! The Shield's AES engine (§5.2.2) "contains an internal 256-byte lookup
//! table for the S-box" which can be "duplicated up to 16 times per
//! engine, reducing the AES latency through parallel lookups at the cost
//! of higher resource consumption". [`SBoxParallelism`] models that
//! duplication factor for the FPGA engine's timing and area in
//! `shef-core`; it says nothing about how this host code runs.
//!
//! The host code is table-free. It follows the 64-bit bitsliced layout
//! of BearSSL's `aes_ct64` (T. Pornin), the same family of technique as
//! fixslicing (Adomnicai & Peyrin, "Fixslicing AES-like Ciphers", TCHES
//! 2021): four blocks are transposed into eight `u64` words, one word
//! per bit of every state byte, and each round runs on all four blocks
//! at once. SubBytes is the Boyar–Peralta S-box circuit ("A new
//! combinational logic minimization technique with applications to
//! cryptology", SEA 2010) evaluated with AND/XOR on those words, so no
//! memory access or branch depends on the key or the data — the host
//! counterpart of §5.2's requirement that "the timing of Shield
//! cryptographic engines does not depend on any confidential
//! information". Decryption reuses the same circuit: the inverse S-box
//! is the inverse affine map on both sides of the forward S-box, and the
//! inverse linear layers are MixColumns³ and ShiftRows³.
//!
//! [`Aes::encrypt4`] is the core operation; callers with independent
//! blocks (CTR, PMAC, GCM) feed it four at a time, and
//! [`Aes::encrypt_block`]/[`Aes::decrypt_block`] are thin wrappers.
//!
//! # Example
//!
//! ```
//! use shef_crypto::aes::{Aes, AesKeySize};
//!
//! let aes = Aes::new_128(&[0u8; 16]);
//! let ct = aes.encrypt_block(&[0u8; 16]);
//! assert_eq!(aes.decrypt_block(&ct), [0u8; 16]);
//! assert_eq!(aes.key_size(), AesKeySize::Aes128);
//!
//! let mut four = [[1u8; 16], [2; 16], [3; 16], [4; 16]];
//! aes.encrypt4(&mut four);
//! assert_eq!(four[0], aes.encrypt_block(&[1u8; 16]));
//! ```

/// Bytes in one AES block.
pub const AES_BLOCK_LEN: usize = 16;

/// Blocks processed by one call of the bitsliced core ([`Aes::encrypt4`]).
pub(crate) const AES_PARALLEL_BLOCKS: usize = 4;

/// Four AES blocks: the unit the bitsliced core works on.
pub type Blocks4 = [[u8; AES_BLOCK_LEN]; AES_PARALLEL_BLOCKS];

/// Round constants, indexed by the (public) key-schedule step.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Round keys for the largest variant (AES-256: 14 rounds + 1).
const MAX_ROUND_KEYS: usize = 15;

/// AES key size, selectable per Shield engine set at bitstream compile time
/// ("users are also able to configure the AES key size (128 or 256 bits)
/// during bitstream compilation", §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AesKeySize {
    /// 128-bit key, 10 rounds.
    #[default]
    Aes128,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl AesKeySize {
    /// Key length in bytes.
    #[must_use]
    pub fn key_len(self) -> usize {
        match self {
            AesKeySize::Aes128 => 16,
            AesKeySize::Aes256 => 32,
        }
    }

    /// Number of cipher rounds (excluding the initial AddRoundKey).
    #[must_use]
    pub fn rounds(self) -> usize {
        match self {
            AesKeySize::Aes128 => 10,
            AesKeySize::Aes256 => 14,
        }
    }
}

impl core::fmt::Display for AesKeySize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AesKeySize::Aes128 => write!(f, "AES-128"),
            AesKeySize::Aes256 => write!(f, "AES-256"),
        }
    }
}

/// S-box duplication factor inside one Shield AES engine.
///
/// The Shield performs the 16 S-box lookups of an AES round through
/// `factor` parallel copies of the lookup table, so one round takes
/// `16 / factor` cycles (§5.2.2 and Table 1, "AES-4x"/"AES-16x").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SBoxParallelism {
    /// One S-box: 16 lookups per round are serial.
    X1,
    /// Two parallel S-boxes.
    X2,
    /// Four parallel S-boxes (the paper's "AES/4x").
    X4,
    /// Eight parallel S-boxes.
    X8,
    /// Sixteen parallel S-boxes (the paper's "AES/16x").
    X16,
}

impl SBoxParallelism {
    /// Duplication factor as an integer.
    #[must_use]
    pub fn factor(self) -> u32 {
        match self {
            SBoxParallelism::X1 => 1,
            SBoxParallelism::X2 => 2,
            SBoxParallelism::X4 => 4,
            SBoxParallelism::X8 => 8,
            SBoxParallelism::X16 => 16,
        }
    }

    /// Cycles for one AES round: 16 S-box lookups through `factor` tables.
    #[must_use]
    pub fn cycles_per_round(self) -> u64 {
        (16 / self.factor()) as u64
    }
}

impl core::fmt::Display for SBoxParallelism {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x", self.factor())
    }
}

/// An AES cipher instance with an expanded, bitsliced key schedule.
///
/// Each round key is stored transposed into the bitsliced layout and
/// compressed from eight words to two; AddRoundKey expands it back on
/// the fly. A whole schedule is 240 bytes, held inline.
#[derive(Clone)]
pub struct Aes {
    round_keys: [CompressedRoundKey; MAX_ROUND_KEYS],
    key_size: AesKeySize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes")
            .field("key_size", &self.key_size)
            .finish_non_exhaustive()
    }
}

impl Aes {
    /// Creates an AES-128 instance.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, AesKeySize::Aes128)
    }

    /// Creates an AES-256 instance.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, AesKeySize::Aes256)
    }

    /// Creates an instance from a key slice whose length selects the variant.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16 or 32.
    pub fn new(key: &[u8]) -> Self {
        match key.len() {
            16 => Self::new_128(key.try_into().expect("16-byte key")),
            32 => Self::new_256(key.try_into().expect("32-byte key")),
            n => panic!("AES key must be 16 or 32 bytes, got {n}"),
        }
    }

    /// The key size this instance was constructed with.
    #[must_use]
    pub fn key_size(&self) -> AesKeySize {
        self.key_size
    }

    /// FIPS 197 key expansion on little-endian words, with SubWord on the
    /// bitsliced S-box circuit.
    fn expand(key: &[u8], key_size: AesKeySize) -> Self {
        let nk = key.len() / 4; // words in key: 4 or 8
        let rounds = key_size.rounds();
        let total_words = 4 * (rounds + 1);
        let mut w = [0u32; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / nk - 1]);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u64; 2]; MAX_ROUND_KEYS];
        for (rk, words) in round_keys.iter_mut().zip(w[..total_words].chunks_exact(4)) {
            let words: [u32; 4] = words.try_into().expect("4 words per round key");
            *rk = compress_round_key(&bitslice_words([words; AES_PARALLEL_BLOCKS]));
        }
        Aes {
            round_keys,
            key_size,
        }
    }

    /// Encrypts four independent blocks in place — the bitsliced core.
    pub fn encrypt4(&self, blocks: &mut Blocks4) {
        let rounds = self.key_size.rounds();
        let mut q = load(blocks);
        add_round_key(&mut q, &self.round_keys[0]);
        for rk in &self.round_keys[1..rounds] {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, rk);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, &self.round_keys[rounds]);
        store(q, blocks);
    }

    /// Decrypts four independent blocks in place.
    pub fn decrypt4(&self, blocks: &mut Blocks4) {
        let rounds = self.key_size.rounds();
        let mut q = load(blocks);
        add_round_key(&mut q, &self.round_keys[rounds]);
        for rk in self.round_keys[1..rounds].iter().rev() {
            inv_shift_rows(&mut q);
            inv_sub_bytes(&mut q);
            add_round_key(&mut q, rk);
            inv_mix_columns(&mut q);
        }
        inv_shift_rows(&mut q);
        inv_sub_bytes(&mut q);
        add_round_key(&mut q, &self.round_keys[0]);
        store(q, blocks);
    }

    /// Encrypts one 16-byte block (one slot of [`Aes::encrypt4`]).
    #[must_use]
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut blocks = [*block, [0; 16], [0; 16], [0; 16]];
        self.encrypt4(&mut blocks);
        blocks[0]
    }

    /// Decrypts one 16-byte block (one slot of [`Aes::decrypt4`]).
    #[must_use]
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut blocks = [*block, [0; 16], [0; 16], [0; 16]];
        self.decrypt4(&mut blocks);
        blocks[0]
    }
}

// ---------------------------------------------------------------------
// Bitsliced layout. After `load`, bit `b` of every state byte of all four
// blocks lives in word `q[b]`; within a word, the 64 bits cover the 16
// bytes of 4 blocks. The packing (interleave + 8x8 transpose) and the
// ShiftRows/MixColumns word permutations follow BearSSL `aes_ct64`.
// ---------------------------------------------------------------------

/// Swaps the `ch` bits of `q[i]` with the `cl` bits of `q[j]`, `s` apart.
fn swap_bits(q: &mut [u64; 8], i: usize, j: usize, cl: u64, s: u32) {
    let (a, b) = (q[i], q[j]);
    let ch = !cl;
    q[i] = (a & cl) | ((b & cl) << s);
    q[j] = ((a & ch) >> s) | (b & ch);
}

/// 8x8 bit-matrix transpose across the eight words (an involution).
fn ortho(q: &mut [u64; 8]) {
    const M1: u64 = 0x5555_5555_5555_5555;
    const M2: u64 = 0x3333_3333_3333_3333;
    const M4: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    for i in (0..8).step_by(2) {
        swap_bits(q, i, i + 1, M1, 1);
    }
    for (i, j) in [(0, 2), (1, 3), (4, 6), (5, 7)] {
        swap_bits(q, i, j, M2, 2);
    }
    for i in 0..4 {
        swap_bits(q, i, i + 4, M4, 4);
    }
}

/// Spreads one block's four little-endian words over two words so that
/// `ortho` can transpose them.
fn interleave_in(w: [u32; 4]) -> (u64, u64) {
    let spread = |x: u32| {
        let mut x = u64::from(x);
        x |= x << 16;
        x &= 0x0000_ffff_0000_ffff;
        x |= x << 8;
        x & 0x00ff_00ff_00ff_00ff
    };
    let [x0, x1, x2, x3] = w.map(spread);
    (x0 | (x2 << 8), x1 | (x3 << 8))
}

/// Inverse of [`interleave_in`].
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let gather = |x: u64| {
        let mut x = x & 0x00ff_00ff_00ff_00ff;
        x |= x >> 8;
        x &= 0x0000_ffff_0000_ffff;
        (x as u32) | ((x >> 16) as u32)
    };
    [gather(q0), gather(q1), gather(q0 >> 8), gather(q1 >> 8)]
}

fn bitslice_words(words: [[u32; 4]; AES_PARALLEL_BLOCKS]) -> [u64; 8] {
    let mut q = [0u64; 8];
    for (i, w) in words.into_iter().enumerate() {
        (q[i], q[i + 4]) = interleave_in(w);
    }
    ortho(&mut q);
    q
}

fn load(blocks: &Blocks4) -> [u64; 8] {
    bitslice_words(blocks.map(|b| {
        core::array::from_fn(|j| u32::from_le_bytes(b[4 * j..4 * j + 4].try_into().expect("word")))
    }))
}

fn store(mut q: [u64; 8], blocks: &mut Blocks4) {
    ortho(&mut q);
    for (i, block) in blocks.iter_mut().enumerate() {
        let w = interleave_out(q[i], q[i + 4]);
        for (bytes, word) in block.chunks_exact_mut(4).zip(w) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
    }
}

/// A bitsliced round key in two words: bits 0–3 of every key byte in the
/// first, bits 4–7 in the second.
type CompressedRoundKey = [u64; 2];

/// In each bit-plane word, a byte position owns one nibble whose four
/// bits are the four block slots. A round key is the same in every slot,
/// so one bit per nibble suffices: plane `b` keeps only slot `b % 4`, and
/// four planes share a word (BearSSL `br_aes_ct64_keysched`).
fn compress_round_key(q: &[u64; 8]) -> CompressedRoundKey {
    let pick = |p: &[u64]| {
        (p[0] & 0x1111_1111_1111_1111)
            | (p[1] & 0x2222_2222_2222_2222)
            | (p[2] & 0x4444_4444_4444_4444)
            | (p[3] & 0x8888_8888_8888_8888)
    };
    [pick(&q[..4]), pick(&q[4..])]
}

/// XORs a round key into the state, copying each kept slot bit back
/// across its nibble (`bit * 0xf`).
fn add_round_key(q: &mut [u64; 8], rk: &CompressedRoundKey) {
    for (planes, &packed) in q.chunks_exact_mut(4).zip(rk) {
        for (b, x) in planes.iter_mut().enumerate() {
            *x ^= ((packed >> b) & 0x1111_1111_1111_1111) * 0xf;
        }
    }
}

/// SubWord of the key schedule: one word through the S-box circuit.
fn sub_word(x: u32) -> u32 {
    let mut q = [0u64; 8];
    q[0] = u64::from(x);
    ortho(&mut q);
    sub_bytes(&mut q);
    ortho(&mut q);
    q[0] as u32
}

/// The AES S-box on all 128 bytes at once: the Boyar–Peralta circuit
/// (113 gates: 32 AND, 81 XOR/XNOR). `x0` is the high bit of each byte.
fn sub_bytes(q: &mut [u64; 8]) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section: inversion in GF(2^8) via GF(2^4).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// `y ↦ A⁻¹(y ⊕ 0x63)`, the inverse of the S-box's affine output map.
/// It takes the S-box to field inversion: `inv(x) = f(S(x))`.
fn inv_affine(q: &mut [u64; 8]) {
    let [q0, q1, q2, q3, q4, q5, q6, q7] = *q;
    let (q0, q1, q5, q6) = (!q0, !q1, !q5, !q6);
    *q = [
        q2 ^ q5 ^ q7,
        q3 ^ q6 ^ q0,
        q4 ^ q7 ^ q1,
        q5 ^ q0 ^ q2,
        q6 ^ q1 ^ q3,
        q7 ^ q2 ^ q4,
        q0 ^ q3 ^ q5,
        q1 ^ q4 ^ q6,
    ];
}

/// `S⁻¹ = f ∘ S ∘ f` with `f` = [`inv_affine`]: the forward circuit in an
/// affine sandwich.
fn inv_sub_bytes(q: &mut [u64; 8]) {
    inv_affine(q);
    sub_bytes(q);
    inv_affine(q);
}

fn shift_rows(q: &mut [u64; 8]) {
    for x in q.iter_mut() {
        let v = *x;
        *x = (v & 0x0000_0000_0000_ffff)
            | ((v & 0x0000_0000_fff0_0000) >> 4)
            | ((v & 0x0000_0000_000f_0000) << 12)
            | ((v & 0x0000_ff00_0000_0000) >> 8)
            | ((v & 0x0000_00ff_0000_0000) << 8)
            | ((v & 0xf000_0000_0000_0000) >> 12)
            | ((v & 0x0fff_0000_0000_0000) << 4);
    }
}

/// ShiftRows has order 4, so its inverse is ShiftRows³.
fn inv_shift_rows(q: &mut [u64; 8]) {
    for _ in 0..3 {
        shift_rows(q);
    }
}

fn mix_columns(q: &mut [u64; 8]) {
    let rotr32 = |x: u64| x.rotate_left(32);
    let [q0, q1, q2, q3, q4, q5, q6, q7] = *q;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = q.map(|x| x.rotate_right(16));
    *q = [
        q7 ^ r7 ^ r0 ^ rotr32(q0 ^ r0),
        q0 ^ r0 ^ q7 ^ r7 ^ r1 ^ rotr32(q1 ^ r1),
        q1 ^ r1 ^ r2 ^ rotr32(q2 ^ r2),
        q2 ^ r2 ^ q7 ^ r7 ^ r3 ^ rotr32(q3 ^ r3),
        q3 ^ r3 ^ q7 ^ r7 ^ r4 ^ rotr32(q4 ^ r4),
        q4 ^ r4 ^ r5 ^ rotr32(q5 ^ r5),
        q5 ^ r5 ^ r6 ^ rotr32(q6 ^ r6),
        q6 ^ r6 ^ r7 ^ rotr32(q7 ^ r7),
    ];
}

/// The MixColumns matrix has order 4 over GF(2^8), so its inverse is
/// MixColumns³.
fn inv_mix_columns(q: &mut [u64; 8]) {
    for _ in 0..3 {
        mix_columns(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_hex;

    #[test]
    fn fips197_aes128_example() {
        // FIPS 197 Appendix C.1
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(crate::to_hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn fips197_aes256_example() {
        // FIPS 197 Appendix C.3
        let key: [u8; 32] =
            from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .unwrap()
                .try_into()
                .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(crate::to_hex(&ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    #[test]
    fn nist_aes128_ecb_kat() {
        // SP 800-38A F.1.1, first block
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        assert_eq!(
            crate::to_hex(&aes.encrypt_block(&pt)),
            "3ad77bb40d7a3660a89ecaf32466ef97"
        );
    }

    #[test]
    fn encrypt_decrypt_round_trip_random() {
        // Deterministic pseudo-random coverage of both key sizes.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let mut key = [0u8; 32];
            for chunk in key.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let mut pt = [0u8; 16];
            for chunk in pt.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let aes128 = Aes::new_128(&key[..16].try_into().unwrap());
            assert_eq!(aes128.decrypt_block(&aes128.encrypt_block(&pt)), pt);
            let aes256 = Aes::new_256(&key);
            assert_eq!(aes256.decrypt_block(&aes256.encrypt_block(&pt)), pt);
        }
    }

    #[test]
    fn layout_round_trips_and_ortho_is_an_involution() {
        let blocks: Blocks4 =
            core::array::from_fn(|i| core::array::from_fn(|j| (i * 16 + j) as u8));
        let mut out = [[0u8; 16]; 4];
        store(load(&blocks), &mut out);
        assert_eq!(out, blocks);
        let mut q = [0x0123_4567_89ab_cdefu64, 1, 2, 3, 4, 5, 6, u64::MAX];
        let original = q;
        ortho(&mut q);
        ortho(&mut q);
        assert_eq!(q, original);
    }

    #[test]
    fn sbox_circuit_known_values() {
        // FIPS 197 Figure 7 spot checks, through the bitsliced circuit.
        for (x, s) in [(0x00u8, 0x63u8), (0x01, 0x7c), (0x53, 0xed), (0xff, 0x16)] {
            let word = u32::from_le_bytes([x, x, x, x]);
            assert_eq!(
                sub_word(word),
                u32::from_le_bytes([s, s, s, s]),
                "S({x:#04x})"
            );
        }
    }

    #[test]
    fn sbox_parallelism_cycles() {
        assert_eq!(SBoxParallelism::X4.cycles_per_round(), 4);
        assert_eq!(SBoxParallelism::X16.cycles_per_round(), 1);
        assert_eq!(SBoxParallelism::X1.cycles_per_round(), 16);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new_128(&[0xaa; 16]);
        let dbg = format!("{aes:?}");
        assert!(
            !dbg.contains("aa"),
            "debug output must not contain key bytes: {dbg}"
        );
    }
}
