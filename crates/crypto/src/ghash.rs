//! GHASH — the universal hash underlying AES-GCM.
//!
//! The Shield's cryptographic engines are deliberately swappable:
//! "Since the engines expose a simple valid/ready interface, IP Vendors
//! can simply substitute a new cryptographic engine in their place"
//! (§5.2.2). GHASH is the natural third option next to HMAC and PMAC —
//! a single pipelined GF(2^128) multiplier sustains one 16-byte block
//! per cycle in hardware, and precomputed powers of `H` let multiple
//! multipliers share one message, so it is within-chunk parallel like
//! PMAC but with a cheaper per-block operation.
//!
//! The implementation follows NIST SP 800-38D: blocks are elements of
//! GF(2^128) under the "reflected" convention (the first bit of the
//! block is the coefficient of x⁰), multiplication reduces modulo
//! x¹²⁸ + x⁷ + x² + x + 1, and `GHASH_H(A, C)` processes the padded
//! associated data, the padded ciphertext, and a final length block.
//! The multiply is constant-time ([`gf128_mul`]): masked 64-bit integer
//! multiplies, with no branch on the hashed data or on `H`.
//!
//! # Example
//!
//! ```
//! use shef_crypto::ghash::ghash;
//!
//! // H is normally E_K(0^128); any 16-byte subkey works for hashing.
//! let h = [0x25u8; 16];
//! let tag = ghash(&h, b"associated data", b"ciphertext bytes");
//! assert_eq!(tag.len(), 16);
//! ```

/// Length in bytes of a GHASH output block.
pub const GHASH_LEN: usize = 16;

/// Carry-less 64x64 -> 64-bit multiply (low half), constant-time.
///
/// Each operand is split into four interleaved bit classes (every
/// fourth bit), so the integer products never carry into a bit that is
/// kept: after masking, each class of the result holds exactly the XOR
/// of its partial products. This is BearSSL's `bmul64`.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = 0x2222_2222_2222_2222;
    const M2: u64 = 0x4444_4444_4444_4444;
    const M3: u64 = 0x8888_8888_8888_8888;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// Multiplies two elements of GF(2^128) in GCM's bit-reflected
/// representation (the product Algorithm 1 of SP 800-38D defines).
///
/// Constant-time, after BearSSL's `ghash_ctmul64`: a Karatsuba
/// carry-less 128x128 multiply from `bmul64` (the high halves come
/// from the same multiplier on bit-reversed operands), then reduction
/// modulo x¹²⁸ + x⁷ + x² + x + 1 with shifts and XORs only. No branch or
/// memory index depends on either operand.
#[must_use]
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    let (x1, x0) = ((x >> 64) as u64, x as u64);
    let (y1, y0) = ((y >> 64) as u64, y as u64);
    let (x0r, x1r) = (x0.reverse_bits(), x1.reverse_bits());
    let (y0r, y1r) = (y0.reverse_bits(), y1.reverse_bits());
    let (x2, x2r) = (x0 ^ x1, x0r ^ x1r);
    let (y2, y2r) = (y0 ^ y1, y0r ^ y1r);

    let z0 = bmul64(x0, y0);
    let z1 = bmul64(x1, y1);
    let z2 = bmul64(x2, y2) ^ z0 ^ z1;
    let z0h = bmul64(x0r, y0r);
    let z1h = bmul64(x1r, y1r);
    let z2h = bmul64(x2r, y2r) ^ z0h ^ z1h;
    let z0h = z0h.reverse_bits() >> 1;
    let z1h = z1h.reverse_bits() >> 1;
    let z2h = z2h.reverse_bits() >> 1;

    // 256-bit product v3:v2:v1:v0, shifted left one bit for the
    // reflected convention, then reduced.
    let (mut v0, mut v1, mut v2, mut v3) = (z0, z0h ^ z2, z1 ^ z2h, z1h);
    v3 = (v3 << 1) | (v2 >> 63);
    v2 = (v2 << 1) | (v1 >> 63);
    v1 = (v1 << 1) | (v0 >> 63);
    v0 <<= 1;
    v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
    v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
    v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
    v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
    (u128::from(v3) << 64) | u128::from(v2)
}

fn block_to_u128(block: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..block.len()].copy_from_slice(block);
    u128::from_be_bytes(buf)
}

/// Incremental GHASH state: `Y ← (Y ⊕ X_i) · H` per 16-byte block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ghash {
    h: u128,
    y: u128,
}

impl Ghash {
    /// Starts a GHASH computation under hash subkey `h` (`E_K(0¹²⁸)` in
    /// GCM).
    #[must_use]
    pub fn new(h: &[u8; GHASH_LEN]) -> Self {
        Ghash {
            h: u128::from_be_bytes(*h),
            y: 0,
        }
    }

    /// Absorbs `data`, zero-padding its final partial block (the GCM
    /// padding rule for both the AAD and ciphertext segments).
    pub fn update_padded(&mut self, data: &[u8]) {
        for block in data.chunks(GHASH_LEN) {
            self.y = gf128_mul(self.y ^ block_to_u128(block), self.h);
        }
    }

    /// Absorbs the final `[len(A)]₆₄ ‖ [len(C)]₆₄` length block (bit
    /// lengths, as the spec requires).
    pub fn update_lengths(&mut self, aad_bytes: usize, ct_bytes: usize) {
        let block = ((aad_bytes as u128 * 8) << 64) | (ct_bytes as u128 * 8);
        self.y = gf128_mul(self.y ^ block, self.h);
    }

    /// The current hash value.
    #[must_use]
    pub fn finalize(&self) -> [u8; GHASH_LEN] {
        self.y.to_be_bytes()
    }
}

/// One-shot `GHASH_H(A, C)` over associated data and ciphertext.
#[must_use]
pub fn ghash(h: &[u8; GHASH_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; GHASH_LEN] {
    let mut state = Ghash::new(h);
    state.update_padded(aad);
    state.update_padded(ciphertext);
    state.update_lengths(aad.len(), ciphertext.len());
    state.finalize()
}

/// GF(2^128)-multiply operations needed to GHASH `len` bytes plus one
/// length block — the quantity the Shield timing model charges.
#[must_use]
pub fn blocks_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(GHASH_LEN as u64) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_hex;

    fn h16(s: &str) -> [u8; 16] {
        from_hex(s)
            .expect("valid hex")
            .try_into()
            .expect("16-byte hex")
    }

    #[test]
    fn gf_mul_identity_and_zero() {
        // The multiplicative identity in the reflected representation is
        // x⁰, i.e. the block 0x80 00 … 00.
        let one = 0x80u128 << 120;
        let a = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(gf128_mul(a, one), a);
        assert_eq!(gf128_mul(one, a), a);
        assert_eq!(gf128_mul(a, 0), 0);
        assert_eq!(gf128_mul(0, a), 0);
    }

    #[test]
    fn gf_mul_commutes() {
        let a = 0xdead_beef_0000_0000_1234_5678_9abc_def0u128;
        let b = 0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100u128;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }

    #[test]
    fn gf_mul_distributes() {
        let a = 0x1111_2222_3333_4444_5555_6666_7777_8888u128;
        let b = 0x9999_aaaa_bbbb_cccc_dddd_eeee_ffff_0000u128;
        let c = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128;
        assert_eq!(
            gf128_mul(a, b ^ c),
            gf128_mul(a, b) ^ gf128_mul(a, c),
            "multiplication distributes over XOR"
        );
    }

    #[test]
    fn nist_test_case_1_hash_of_empty() {
        // SP 800-38D validation: K = 0^128 → H = 66e94bd4ef8a2c3b884cfa59ca342b2e,
        // GHASH of empty AAD/CT is 0 (only the zero length block, times H,
        // starting from 0 — the all-zero length block keeps Y at 0).
        let h = h16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        assert_eq!(ghash(&h, b"", b""), [0u8; 16]);
    }

    #[test]
    fn nist_test_case_2_ghash_value() {
        // GCM Test Case 2 intermediate: GHASH_H(ø, 0388dace60b6a392f328c2b971b2fe78)
        // = f38cbb1ad69223dcc3457ae5b6b0f885.
        let h = h16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let ct = from_hex("0388dace60b6a392f328c2b971b2fe78").expect("valid hex");
        assert_eq!(ghash(&h, b"", &ct), h16("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn padding_is_not_ambiguous() {
        let h = [0x5au8; 16];
        // A 15-byte ciphertext and the same with an explicit zero byte
        // hash differently (the length block disambiguates).
        let a = ghash(&h, b"", &[0xaa; 15]);
        let mut padded = [0u8; 16];
        padded[..15].copy_from_slice(&[0xaa; 15]);
        let b = ghash(&h, b"", &padded);
        assert_ne!(a, b);
        // Moving a byte across the AAD/CT boundary also changes the hash.
        let c = ghash(&h, &[0xaa; 1], &[0xaa; 14]);
        assert_ne!(a, c);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let h = [9u8; 16];
        let aad = b"some associated data over a block";
        let ct = b"ciphertext spanning multiple sixteen byte blocks here";
        let mut inc = Ghash::new(&h);
        inc.update_padded(aad);
        inc.update_padded(ct);
        inc.update_lengths(aad.len(), ct.len());
        assert_eq!(inc.finalize(), ghash(&h, aad, ct));
    }

    #[test]
    fn timing_block_count() {
        assert_eq!(blocks_for_len(0), 1);
        assert_eq!(blocks_for_len(16), 2);
        assert_eq!(blocks_for_len(17), 3);
        assert_eq!(blocks_for_len(4096), 257);
    }
}
