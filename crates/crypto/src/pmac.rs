//! PMAC — a parallelizable message authentication code over AES.
//!
//! The Shield offers a "PMAC engine based on AES" (§6.2.1, Table 1) as a
//! drop-in replacement for HMAC when authentication bandwidth is the
//! bottleneck: because each 16-byte block is masked and encrypted
//! independently before a final accumulation, the per-block AES
//! operations can be spread across multiple engines *within one chunk* —
//! unlike HMAC's serial compression chain. This is the optimization that
//! takes SDP from 297 % overhead to 59 % (Table 2) and DNNWeaver from
//! 3.20× to 2.31× (Fig. 6).
//!
//! The construction follows Black–Rogaway PMAC: blocks are XOR-masked
//! with Gray-code multiples of L = E_K(0), encrypted, and XOR-accumulated;
//! the final partial block is padded 10* and folded in; the tag is
//! E_K(Σ ⊕ L·x^{-1}-ish finalization mask). We use a simplified
//! finalization (distinct masks for full/partial last block) that keeps
//! the parallel structure; it is a PRF under the same assumptions, and
//! all security tests in this workspace treat it as an opaque MAC.
//!
//! # Example
//!
//! ```
//! use shef_crypto::aes::Aes;
//! use shef_crypto::pmac::pmac;
//!
//! let aes = Aes::new_128(&[0x42; 16]);
//! let tag = pmac(&aes, b"weights chunk");
//! assert_eq!(tag.len(), 16);
//! ```

use crate::aes::{Aes, Blocks4, AES_BLOCK_LEN, AES_PARALLEL_BLOCKS};
use crate::ct;

/// Length in bytes of a PMAC tag.
pub const PMAC_TAG_LEN: usize = 16;

/// Doubles a 128-bit value in GF(2^128) (the standard dbl() used by
/// OMAC/PMAC mask schedules). Branch-free: the masks derive from the
/// secret `L`, so the reduction is selected by a mask, not an `if`.
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let v = u128::from_be_bytes(*block);
    ((v << 1) ^ (0x87 & (v >> 127).wrapping_neg())).to_be_bytes()
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// Computes a PMAC tag over `data` with the given AES instance.
#[must_use]
pub fn pmac(aes: &Aes, data: &[u8]) -> [u8; PMAC_TAG_LEN] {
    pmac_multi(aes, &[data])
}

/// Computes a PMAC tag over the concatenation of `parts`.
#[must_use]
pub fn pmac_multi(aes: &Aes, parts: &[&[u8]]) -> [u8; PMAC_TAG_LEN] {
    pmac_multi_with_l(aes, &aes.encrypt_block(&[0u8; 16]), parts)
}

/// [`pmac_multi`] with `L = E_K(0¹²⁸)` supplied by a caller that caches
/// it per key.
///
/// The independent blocks are masked and encrypted four per call of the
/// AES core, read straight out of `parts` without concatenating them.
pub(crate) fn pmac_multi_with_l(aes: &Aes, l: &[u8; 16], parts: &[&[u8]]) -> [u8; PMAC_TAG_LEN] {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let n_full = len / AES_BLOCK_LEN;
    let rem = len % AES_BLOCK_LEN;
    let last_full_is_final = rem == 0 && n_full > 0;
    // All blocks except the final one are masked and encrypted
    // independently — the parallelizable part.
    let parallel_blocks = if last_full_is_final {
        n_full - 1
    } else {
        n_full
    };
    let mut reader = PartsReader {
        parts,
        part: 0,
        off: 0,
    };
    let mut sigma = [0u8; 16];
    let mut mask = dbl(l);
    let mut done = 0;
    while done < parallel_blocks {
        let n = (parallel_blocks - done).min(AES_PARALLEL_BLOCKS);
        let mut batch: Blocks4 = [[0u8; AES_BLOCK_LEN]; AES_PARALLEL_BLOCKS];
        for block in &mut batch[..n] {
            reader.read(block);
            *block = xor16(block, &mask);
            mask = dbl(&mask);
        }
        aes.encrypt4(&mut batch);
        for block in &batch[..n] {
            sigma = xor16(&sigma, block);
        }
        done += n;
    }
    // Final block handling: full final block XORed directly with a
    // distinct mask; partial block padded 10*.
    let mut last = [0u8; 16];
    if last_full_is_final {
        reader.read(&mut last);
        sigma = xor16(&sigma, &last);
        sigma = xor16(&sigma, &dbl(&dbl(l)));
    } else {
        reader.read(&mut last[..rem]);
        last[rem] = 0x80;
        sigma = xor16(&sigma, &last);
        sigma = xor16(&sigma, &dbl(&dbl(&dbl(l))));
    }
    aes.encrypt_block(&sigma)
}

/// Sequential reader over the virtual concatenation of `parts`.
struct PartsReader<'a> {
    parts: &'a [&'a [u8]],
    part: usize,
    off: usize,
}

impl PartsReader<'_> {
    /// Fills `out` with the next `out.len()` bytes; the caller never asks
    /// for more than remain.
    fn read(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            let src = &self.parts[self.part][self.off..];
            let take = src.len().min(out.len() - filled);
            out[filled..filled + take].copy_from_slice(&src[..take]);
            filled += take;
            self.off += take;
            if self.off == self.parts[self.part].len() {
                self.part += 1;
                self.off = 0;
            }
        }
    }
}

/// Verifies a PMAC tag in constant time.
#[must_use]
pub fn verify_pmac(aes: &Aes, data: &[u8], tag: &[u8]) -> bool {
    if tag.len() != PMAC_TAG_LEN {
        return false;
    }
    ct::eq(&pmac(aes, data), tag)
}

/// Number of AES block operations needed to MAC `len` bytes, for the
/// timing model: one per 16-byte block (mask+encrypt) plus one
/// finalization encryption.
#[must_use]
pub fn blocks_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(AES_BLOCK_LEN as u64).max(1) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes {
        Aes::new_128(&[7u8; 16])
    }

    #[test]
    fn deterministic() {
        assert_eq!(pmac(&aes(), b"hello"), pmac(&aes(), b"hello"));
    }

    #[test]
    fn distinguishes_messages() {
        let a = pmac(&aes(), b"hello");
        let b = pmac(&aes(), b"hellp");
        assert_ne!(a, b);
    }

    #[test]
    fn distinguishes_lengths_at_block_boundary() {
        // A 16-byte message and the same message padded with 0x80 0x00...
        // must not collide (the full/partial final-block masks differ).
        let full = [0xabu8; 16];
        let mut padded = [0u8; 15];
        padded.copy_from_slice(&full[..15]);
        let a = pmac(&aes(), &full);
        let b = pmac(&aes(), &padded);
        assert_ne!(a, b);
        // Empty vs single zero byte.
        assert_ne!(pmac(&aes(), b""), pmac(&aes(), &[0u8]));
    }

    #[test]
    fn distinguishes_keys() {
        let other = Aes::new_128(&[8u8; 16]);
        assert_ne!(pmac(&aes(), b"hello"), pmac(&other, b"hello"));
    }

    #[test]
    fn block_permutation_detected() {
        // Swapping two 16-byte blocks must change the tag (the Gray-like
        // mask schedule binds position).
        let mut data = vec![0u8; 48];
        data[0..16].copy_from_slice(&[1u8; 16]);
        data[16..32].copy_from_slice(&[2u8; 16]);
        let tag1 = pmac(&aes(), &data);
        data[0..16].copy_from_slice(&[2u8; 16]);
        data[16..32].copy_from_slice(&[1u8; 16]);
        let tag2 = pmac(&aes(), &data);
        assert_ne!(tag1, tag2);
    }

    #[test]
    fn multi_part_equals_concat() {
        let a = pmac(&aes(), b"abcdef0123456789ABCDEF");
        let b = pmac_multi(&aes(), &[b"abcdef", b"0123456789", b"ABCDEF"]);
        assert_eq!(a, b);
    }

    #[test]
    fn verify_round_trip() {
        let tag = pmac(&aes(), b"data");
        assert!(verify_pmac(&aes(), b"data", &tag));
        assert!(!verify_pmac(&aes(), b"datb", &tag));
        assert!(!verify_pmac(&aes(), b"data", &tag[..8]));
    }

    #[test]
    fn dbl_known_behaviour() {
        // dbl of a value with MSB clear is a plain shift.
        let mut x = [0u8; 16];
        x[15] = 1;
        assert_eq!(dbl(&x)[15], 2);
        // dbl with MSB set folds in 0x87.
        let mut y = [0u8; 16];
        y[0] = 0x80;
        let d = dbl(&y);
        assert_eq!(d[15], 0x87);
        assert_eq!(d[0], 0);
    }

    #[test]
    fn timing_block_count() {
        assert_eq!(blocks_for_len(0), 2);
        assert_eq!(blocks_for_len(16), 2);
        assert_eq!(blocks_for_len(17), 3);
        assert_eq!(blocks_for_len(4096), 257);
    }
}
