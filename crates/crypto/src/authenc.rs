//! Authenticated encryption: AES-CTR with encrypt-then-MAC.
//!
//! This is the Shield's core mechanism (§5.1): "Cryptographic modules
//! that provide authenticated encryption are at the core of the Shield.
//! We use AES-CTR + HMAC modules as default" — with PMAC as the
//! configurable alternative (§6.2.4). Each sealed message carries a
//! 12-byte IV and a 16-byte truncated tag, matching the Shield's DRAM
//! layout ("each chunk is authenticated via a 16-byte MAC tag in
//! encrypt-then-MAC mode", §5.2.2).
//!
//! The MAC covers `associated_data || iv || ciphertext`, binding each
//! chunk to its address/region — the defence against splicing attacks.

use crate::aes::{Aes, AesKeySize};
use crate::ctr::{ctr_xor, ChunkIv, IV_LEN};
use crate::gcm::AesGcm;
use crate::hkdf;
use crate::hmac::HmacSha256Key;
use crate::pmac::pmac_multi_with_l;
use crate::{ct, CryptoError};

/// Tag length stored alongside each chunk.
pub const TAG_LEN: usize = 16;

/// Which MAC engine authenticates the ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacAlgorithm {
    /// SHA-256 HMAC — the Shield default. Sequential within a chunk.
    #[default]
    HmacSha256,
    /// AES-based PMAC — parallelizable within a chunk.
    PmacAes,
    /// GHASH in a GCM-style composition — parallelizable within a chunk
    /// with a cheaper per-block operation than PMAC (§5.2.2's "simply
    /// substitute a new cryptographic engine" path).
    AesGcm,
}

impl core::fmt::Display for MacAlgorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MacAlgorithm::HmacSha256 => write!(f, "HMAC"),
            MacAlgorithm::PmacAes => write!(f, "PMAC"),
            MacAlgorithm::AesGcm => write!(f, "GCM"),
        }
    }
}

/// A sealed (encrypted and authenticated) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Per-message initialization vector.
    pub iv: [u8; IV_LEN],
    /// AES-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// Truncated encrypt-then-MAC tag.
    pub tag: [u8; TAG_LEN],
}

impl Sealed {
    /// Serializes to `iv || tag || ciphertext` for transport.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(IV_LEN + TAG_LEN + self.ciphertext.len());
        out.extend_from_slice(&self.iv);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the `to_bytes` wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `bytes` is too short to
    /// contain the IV and tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < IV_LEN + TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let iv: [u8; IV_LEN] = bytes[..IV_LEN].try_into().expect("iv slice");
        let tag: [u8; TAG_LEN] = bytes[IV_LEN..IV_LEN + TAG_LEN]
            .try_into()
            .expect("tag slice");
        Ok(Sealed {
            iv,
            tag,
            ciphertext: bytes[IV_LEN + TAG_LEN..].to_vec(),
        })
    }
}

/// A symmetric authenticated-encryption key.
///
/// Internally derives independent encryption and MAC subkeys from the
/// master key via HKDF, as a hardware Shield would provision separate
/// keys into its AES and MAC engines. Everything that depends only on
/// the key is computed once here: the bitsliced AES schedules, the HMAC
/// pad midstates, and PMAC's `L` / GHASH's `H` (both `E_K(0¹²⁸)` under
/// the MAC-AES key).
#[derive(Clone)]
pub struct AuthEncKey {
    enc: Aes,
    mac: MacEngine,
    seal_counter: u64,
    master: [u8; 32],
}

/// The provisioned MAC engine, one variant per [`MacAlgorithm`].
#[derive(Clone)]
enum MacEngine {
    Hmac(HmacSha256Key),
    Pmac { aes: Aes, l: [u8; 16] },
    Gcm(AesGcm),
}

impl core::fmt::Debug for AuthEncKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AuthEncKey")
            .field("algorithm", &self.algorithm())
            .finish_non_exhaustive()
    }
}

impl AuthEncKey {
    /// Builds a key whose AES engines use AES-128 (Shield default).
    #[must_use]
    pub fn from_bytes(master: [u8; 32], algorithm: MacAlgorithm) -> Self {
        Self::with_key_size(master, algorithm, AesKeySize::Aes128)
    }

    /// Builds a key selecting the AES variant, mirroring the Shield's
    /// compile-time key-size parameter.
    #[must_use]
    pub fn with_key_size(master: [u8; 32], algorithm: MacAlgorithm, key_size: AesKeySize) -> Self {
        let enc_key = hkdf::derive(&[], &master, b"shef.authenc.enc", key_size.key_len());
        let mac_key = hkdf::derive_key32(&[], &master, b"shef.authenc.mac");
        let mac_aes_key = &mac_key[..16];
        let mac = match algorithm {
            MacAlgorithm::HmacSha256 => MacEngine::Hmac(HmacSha256Key::new(&mac_key)),
            MacAlgorithm::PmacAes => {
                let aes = Aes::new(mac_aes_key);
                let l = aes.encrypt_block(&[0u8; 16]);
                MacEngine::Pmac { aes, l }
            }
            MacAlgorithm::AesGcm => MacEngine::Gcm(AesGcm::new(mac_aes_key)),
        };
        AuthEncKey {
            enc: Aes::new(&enc_key),
            mac,
            seal_counter: 0,
            master,
        }
    }

    /// The MAC algorithm in use.
    #[must_use]
    pub fn algorithm(&self) -> MacAlgorithm {
        match self.mac {
            MacEngine::Hmac(_) => MacAlgorithm::HmacSha256,
            MacEngine::Pmac { .. } => MacAlgorithm::PmacAes,
            MacEngine::Gcm(_) => MacAlgorithm::AesGcm,
        }
    }

    /// Raw master key bytes (needed when a key must be provisioned into a
    /// remote Shield, e.g. the Data Encryption Key inside a Load Key).
    #[must_use]
    pub fn master_bytes(&self) -> [u8; 32] {
        self.master
    }

    /// Seals `plaintext`, binding it to `associated_data`, with an
    /// automatically chosen fresh IV.
    pub fn seal(&mut self, plaintext: &[u8], associated_data: &[u8]) -> Sealed {
        let mut iv = [0u8; IV_LEN];
        iv[..8].copy_from_slice(&self.seal_counter.to_be_bytes());
        iv[8..].copy_from_slice(&0xa5a5_5a5au32.to_be_bytes());
        self.seal_counter += 1;
        self.seal_with_iv(plaintext, associated_data, ChunkIv(iv))
    }

    /// Seals with a caller-chosen IV. The Shield uses this form: chunk
    /// IVs are derived from region nonce, chunk index and write epoch.
    ///
    /// Reusing an IV for two different plaintexts under the same key
    /// voids confidentiality, exactly as in hardware; the Shield's
    /// counter discipline prevents it.
    #[must_use]
    pub fn seal_with_iv(&self, plaintext: &[u8], associated_data: &[u8], iv: ChunkIv) -> Sealed {
        let mut ciphertext = plaintext.to_vec();
        let tag = self.seal_in_place(associated_data, iv, &mut ciphertext);
        Sealed {
            iv: iv.0,
            ciphertext,
            tag,
        }
    }

    /// Encrypts `buf` in place under `iv` and returns the tag over
    /// `associated_data || iv || ciphertext` — [`Self::seal_with_iv`]
    /// without the copy.
    #[must_use]
    pub fn seal_in_place(
        &self,
        associated_data: &[u8],
        iv: ChunkIv,
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        ctr_xor(&self.enc, &iv, buf);
        self.compute_tag(associated_data, &iv.0, buf)
    }

    /// Opens a sealed message, verifying its tag against
    /// `associated_data`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if authentication fails; no
    /// plaintext is released in that case.
    pub fn open(&self, sealed: &Sealed, associated_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = sealed.ciphertext.clone();
        self.open_in_place(
            associated_data,
            ChunkIv(sealed.iv),
            &mut plaintext,
            &sealed.tag,
        )?;
        Ok(plaintext)
    }

    /// Verifies `tag` over `associated_data || iv || buf`, then decrypts
    /// `buf` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if authentication fails; `buf`
    /// is left holding the untouched ciphertext, so no plaintext is
    /// released.
    pub fn open_in_place(
        &self,
        associated_data: &[u8],
        iv: ChunkIv,
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), CryptoError> {
        let expected = self.compute_tag(associated_data, &iv.0, buf);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::TagMismatch);
        }
        ctr_xor(&self.enc, &iv, buf);
        Ok(())
    }

    /// Computes the 16-byte tag over `ad || iv || ciphertext`.
    #[must_use]
    pub fn compute_tag(&self, ad: &[u8], iv: &[u8; IV_LEN], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        match &self.mac {
            MacEngine::Hmac(key) => {
                let full = key.mac_multi(&[ad, iv, ciphertext]);
                full[..TAG_LEN].try_into().expect("truncate to 16")
            }
            MacEngine::Pmac { aes, l } => {
                // Length-prefix the associated data so (ad, ct) boundaries
                // are unambiguous.
                let len = (ad.len() as u64).to_be_bytes();
                pmac_multi_with_l(aes, l, &[&len, ad, iv, ciphertext])
            }
            // GCM tag composition over the already-produced CTR
            // ciphertext: T = E_K(J0(iv)) ⊕ GHASH_H(ad, ct), with
            // H = E_K(0^128) from the dedicated MAC-AES engine.
            MacEngine::Gcm(gcm) => gcm.tag(iv, ad, ciphertext),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(alg: MacAlgorithm) -> AuthEncKey {
        AuthEncKey::from_bytes([0x5au8; 32], alg)
    }

    #[test]
    fn round_trip_hmac() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn round_trip_pmac() {
        let mut k = key(MacAlgorithm::PmacAes);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn round_trip_gcm() {
        let mut k = key(MacAlgorithm::AesGcm);
        let sealed = k.seal(b"secret payload", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), b"secret payload");
    }

    #[test]
    fn mac_algorithms_produce_distinct_tags() {
        // Same key material, same message: the three engines must not
        // collide (they are independent PRFs over the same inputs).
        let iv = crate::ctr::ChunkIv([3u8; 12]);
        let tags: Vec<[u8; TAG_LEN]> = [
            MacAlgorithm::HmacSha256,
            MacAlgorithm::PmacAes,
            MacAlgorithm::AesGcm,
        ]
        .into_iter()
        .map(|alg| {
            AuthEncKey::from_bytes([0x5au8; 32], alg)
                .seal_with_iv(b"payload", b"ad", iv)
                .tag
        })
        .collect();
        assert_ne!(tags[0], tags[1]);
        assert_ne!(tags[0], tags[2]);
        assert_ne!(tags[1], tags[2]);
    }

    #[test]
    fn rejects_ciphertext_tampering() {
        for alg in [
            MacAlgorithm::HmacSha256,
            MacAlgorithm::PmacAes,
            MacAlgorithm::AesGcm,
        ] {
            let mut k = key(alg);
            let mut sealed = k.seal(b"payload", b"ad");
            sealed.ciphertext[0] ^= 1;
            assert_eq!(k.open(&sealed, b"ad"), Err(CryptoError::TagMismatch));
        }
    }

    #[test]
    fn rejects_wrong_associated_data() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"payload", b"address-0x1000");
        assert_eq!(
            k.open(&sealed, b"address-0x2000"),
            Err(CryptoError::TagMismatch),
            "splicing to a different address must fail"
        );
    }

    #[test]
    fn rejects_iv_tampering() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let mut sealed = k.seal(b"payload", b"ad");
        sealed.iv[0] ^= 1;
        assert_eq!(k.open(&sealed, b"ad"), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn distinct_ivs_for_sequential_seals() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let a = k.seal(b"same", b"");
        let b = k.seal(b"same", b"");
        assert_ne!(a.iv, b.iv);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn wire_format_round_trip() {
        let mut k = key(MacAlgorithm::PmacAes);
        let sealed = k.seal(b"wire", b"meta");
        let parsed = Sealed::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        assert_eq!(k.open(&parsed, b"meta").unwrap(), b"wire");
        assert!(Sealed::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    fn empty_plaintext() {
        let mut k = key(MacAlgorithm::HmacSha256);
        let sealed = k.seal(b"", b"ad");
        assert_eq!(k.open(&sealed, b"ad").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn aes256_variant_works() {
        let mut k =
            AuthEncKey::with_key_size([1u8; 32], MacAlgorithm::HmacSha256, AesKeySize::Aes256);
        let sealed = k.seal(b"data", b"");
        assert_eq!(k.open(&sealed, b"").unwrap(), b"data");
        // Different key size yields different ciphertext for same master.
        let k128 = AuthEncKey::from_bytes([1u8; 32], MacAlgorithm::HmacSha256);
        let sealed128 = k128.seal_with_iv(b"data", b"", crate::ctr::ChunkIv(sealed.iv));
        assert_ne!(sealed.ciphertext, sealed128.ciphertext);
    }

    #[test]
    fn keys_with_different_masters_incompatible() {
        let mut k1 = key(MacAlgorithm::HmacSha256);
        let k2 = AuthEncKey::from_bytes([0xa5u8; 32], MacAlgorithm::HmacSha256);
        let sealed = k1.seal(b"x", b"");
        assert!(k2.open(&sealed, b"").is_err());
    }
}
