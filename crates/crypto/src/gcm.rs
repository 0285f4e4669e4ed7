//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! A complete GCM implementation built from this crate's [`Aes`] block
//! cipher and [`ghash`](crate::ghash) universal hash, validated against
//! the NIST/McGrew–Viega test vectors. The Shield consumes GCM through
//! [`MacAlgorithm::AesGcm`](crate::authenc::MacAlgorithm), which reuses
//! the GHASH engine for tag computation over the Shield's AES-CTR
//! ciphertexts; this module is the spec-exact standalone mode (used by
//! the attestation transport and available to accelerator logic).
//!
//! # Example
//!
//! ```
//! use shef_crypto::gcm::AesGcm;
//!
//! let gcm = AesGcm::new(&[0x42u8; 16]);
//! let (ct, tag) = gcm.seal(&[0u8; 12], b"header", b"payload");
//! let pt = gcm.open(&[0u8; 12], b"header", &ct, &tag).unwrap();
//! assert_eq!(pt, b"payload");
//! ```

use crate::aes::Aes;
use crate::ctr::ctr_xor_from;
use crate::ghash::{Ghash, GHASH_LEN};
use crate::{ct, CryptoError};

/// GCM nonce length this implementation supports (the recommended
/// 96-bit IV; other lengths take the GHASH-derived J0 path, which the
/// Shield never uses).
pub const GCM_IV_LEN: usize = 12;
/// GCM tag length (full 128-bit tags).
pub const GCM_TAG_LEN: usize = 16;

/// An AES-GCM key: the block cipher plus its derived hash subkey.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    h: [u8; GHASH_LEN],
}

impl core::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AesGcm").finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Creates a GCM instance for a 16- or 32-byte AES key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not 16 or 32 bytes (see [`Aes::new`]).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let aes = Aes::new(key);
        let h = aes.encrypt_block(&[0u8; 16]);
        AesGcm { aes, h }
    }

    /// The pre-counter block J0 for a 96-bit IV: `IV ‖ 0³¹ ‖ 1`.
    fn j0(iv: &[u8; GCM_IV_LEN]) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..GCM_IV_LEN].copy_from_slice(iv);
        block[15] = 1;
        block
    }

    /// GCTR keystream application starting from `inc32(J0)`: the CTR
    /// loop with the counter word starting at 2, four blocks per call.
    fn gctr(&self, iv: &[u8; GCM_IV_LEN], data: &mut [u8]) {
        ctr_xor_from(&self.aes, iv, 2, data);
    }

    /// `E_K(J0) ⊕ GHASH_H(aad, ciphertext)`; also the tag of
    /// [`MacAlgorithm::AesGcm`](crate::authenc::MacAlgorithm) over the
    /// Shield's CTR ciphertext.
    pub(crate) fn tag(
        &self,
        iv: &[u8; GCM_IV_LEN],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> [u8; GCM_TAG_LEN] {
        let mut hash = Ghash::new(&self.h);
        hash.update_padded(aad);
        hash.update_padded(ciphertext);
        hash.update_lengths(aad.len(), ciphertext.len());
        let s = hash.finalize();
        let mask = self.aes.encrypt_block(&Self::j0(iv));
        let mut tag = [0u8; GCM_TAG_LEN];
        for i in 0..GCM_TAG_LEN {
            tag[i] = s[i] ^ mask[i];
        }
        tag
    }

    /// Encrypts `plaintext` and authenticates it together with `aad`.
    ///
    /// Reusing an IV under the same key voids all GCM guarantees, as in
    /// hardware; callers derive IVs from counters.
    #[must_use]
    pub fn seal(
        &self,
        iv: &[u8; GCM_IV_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; GCM_TAG_LEN]) {
        let mut ct = plaintext.to_vec();
        self.gctr(iv, &mut ct);
        let tag = self.tag(iv, aad, &ct);
        (ct, tag)
    }

    /// Verifies the tag and decrypts. No plaintext is released on
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if authentication fails.
    pub fn open(
        &self,
        iv: &[u8; GCM_IV_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; GCM_TAG_LEN],
    ) -> Result<Vec<u8>, CryptoError> {
        let expected = self.tag(iv, aad, ciphertext);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::TagMismatch);
        }
        let mut pt = ciphertext.to_vec();
        self.gctr(iv, &mut pt);
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_hex, to_hex};

    fn iv12(s: &str) -> [u8; 12] {
        from_hex(s)
            .expect("valid hex")
            .try_into()
            .expect("12-byte hex")
    }

    /// McGrew–Viega GCM spec test cases 1–4 (AES-128) and 13–14
    /// (AES-256), as adopted by NIST for algorithm validation.
    #[test]
    fn nist_case_1_empty() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.seal(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_case_2_single_zero_block() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let (ct, tag) = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn nist_case_3_four_blocks_no_aad() {
        let key = from_hex("feffe9928665731c6d6a8f9467308308").expect("valid hex");
        let gcm = AesGcm::new(&key);
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        )
        .expect("valid hex");
        let (ct, tag) = gcm.seal(&iv12("cafebabefacedbaddecaf888"), b"", &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    }

    #[test]
    fn nist_case_4_with_aad() {
        let key = from_hex("feffe9928665731c6d6a8f9467308308").expect("valid hex");
        let gcm = AesGcm::new(&key);
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        )
        .expect("valid hex");
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2").expect("valid hex");
        let (ct, tag) = gcm.seal(&iv12("cafebabefacedbaddecaf888"), &aad, &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    #[test]
    fn nist_case_13_aes256_empty() {
        let gcm = AesGcm::new(&[0u8; 32]);
        let (_, tag) = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(to_hex(&tag), "530f8afbc74536b9a963b4f1c4cb738b");
    }

    #[test]
    fn nist_case_14_aes256_zero_block() {
        let gcm = AesGcm::new(&[0u8; 32]);
        let (ct, tag) = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(to_hex(&ct), "cea7403d4d606b6e074ec5d3baf39d18");
        assert_eq!(to_hex(&tag), "d0d1c8a799996bf0265b98b5d48ab919");
    }

    #[test]
    fn round_trip_with_aad() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal(&[1u8; 12], b"register-0x10", b"command payload");
        assert_eq!(
            gcm.open(&[1u8; 12], b"register-0x10", &ct, &tag).unwrap(),
            b"command payload"
        );
    }

    #[test]
    fn tamper_detected() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (mut ct, tag) = gcm.seal(&[1u8; 12], b"ad", b"payload");
        ct[0] ^= 1;
        assert_eq!(
            gcm.open(&[1u8; 12], b"ad", &ct, &tag),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn wrong_aad_detected() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal(&[1u8; 12], b"addr-0", b"payload");
        assert!(gcm.open(&[1u8; 12], b"addr-1", &ct, &tag).is_err());
    }

    #[test]
    fn wrong_iv_detected() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal(&[1u8; 12], b"ad", b"payload");
        assert!(gcm.open(&[2u8; 12], b"ad", &ct, &tag).is_err());
    }

    #[test]
    fn distinct_ivs_distinct_ciphertexts() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (a, _) = gcm.seal(&[1u8; 12], b"", b"same plaintext");
        let (b, _) = gcm.seal(&[2u8; 12], b"", b"same plaintext");
        assert_ne!(a, b);
    }
}
