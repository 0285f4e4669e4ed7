//! The on-DRAM chunk format shared by the Shield and the Data Owner's
//! client-side encryption.
//!
//! Every `C_mem`-byte chunk of a protected region is stored as:
//!
//! * **ciphertext** at its natural address (AES-CTR, IV derived from the
//!   region nonce, chunk index and write epoch);
//! * a **16-byte MAC tag** in the region's tag-arena slot, computed in
//!   encrypt-then-MAC mode over `(region, index, epoch) || IV ||
//!   ciphertext`.
//!
//! Binding the index defeats *splicing* (copying ciphertext between
//! addresses), binding the region defeats cross-region splices, and
//! binding the epoch (backed by on-chip counters) defeats *replay*
//! (§5.2.1/§5.2.2).

use shef_crypto::authenc::{AuthEncKey, TAG_LEN};
use shef_crypto::ctr::ChunkIv;

use crate::ShefError;

/// Bytes of MAC tag stored per chunk.
pub const CHUNK_TAG_LEN: usize = TAG_LEN;

/// Domain label opening every chunk's associated data.
const CHUNK_AD_LABEL: &[u8] = b"shef.chunk.v1";

/// Bytes of chunk AD besides the region name: two u64 length prefixes,
/// the label, the u32 index and the u64 epoch.
const CHUNK_AD_FIXED_LEN: usize = 8 + CHUNK_AD_LABEL.len() + 8 + 4 + 8;

/// Chunk AD up to this many bytes (region names up to 87 bytes) is built
/// on the stack on the seal/open path; longer names take the heap.
const CHUNK_AD_STACK_LEN: usize = 128;

/// Associated data binding a chunk to its identity and version, in the
/// crate's wire encoding: `"shef.chunk.v1"` and `region_name`, each
/// prefixed by its u64 length, then `chunk_idx` (u32) and `epoch` (u64),
/// all little-endian.
#[must_use]
pub fn chunk_ad(region_name: &str, chunk_idx: u32, epoch: u64) -> Vec<u8> {
    let mut ad = vec![0u8; CHUNK_AD_FIXED_LEN + region_name.len()];
    write_chunk_ad(&mut ad, region_name, chunk_idx, epoch);
    ad
}

/// Writes the [`chunk_ad`] bytes into `out`, which is exactly their
/// length.
fn write_chunk_ad(out: &mut [u8], region_name: &str, chunk_idx: u32, epoch: u64) {
    let name = region_name.as_bytes();
    let fields: [&[u8]; 6] = [
        &(CHUNK_AD_LABEL.len() as u64).to_le_bytes(),
        CHUNK_AD_LABEL,
        &(name.len() as u64).to_le_bytes(),
        name,
        &chunk_idx.to_le_bytes(),
        &epoch.to_le_bytes(),
    ];
    let mut at = 0;
    for field in fields {
        out[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    debug_assert_eq!(at, out.len());
}

/// Runs `f` on the chunk's associated data, built in a stack buffer
/// unless the region name is unusually long.
fn with_chunk_ad<R>(
    region_name: &str,
    chunk_idx: u32,
    epoch: u64,
    f: impl FnOnce(&[u8]) -> R,
) -> R {
    let len = CHUNK_AD_FIXED_LEN + region_name.len();
    if len <= CHUNK_AD_STACK_LEN {
        let mut buf = [0u8; CHUNK_AD_STACK_LEN];
        write_chunk_ad(&mut buf[..len], region_name, chunk_idx, epoch);
        f(&buf[..len])
    } else {
        f(&chunk_ad(region_name, chunk_idx, epoch))
    }
}

/// The IV for a chunk at a given write epoch.
#[must_use]
pub fn chunk_iv(region_nonce: [u8; 8], chunk_idx: u32, epoch: u64) -> ChunkIv {
    if epoch == 0 {
        ChunkIv::for_chunk(region_nonce, chunk_idx)
    } else {
        ChunkIv::for_chunk_epoch(region_nonce, chunk_idx, epoch)
    }
}

/// Encrypts and MACs one chunk; returns `(ciphertext, tag)`.
#[must_use]
pub fn seal_chunk(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunk_idx: u32,
    epoch: u64,
    plaintext: &[u8],
) -> (Vec<u8>, [u8; CHUNK_TAG_LEN]) {
    let iv = chunk_iv(region_nonce, chunk_idx, epoch);
    let mut ciphertext = plaintext.to_vec();
    let tag = with_chunk_ad(region_name, chunk_idx, epoch, |ad| {
        key.seal_in_place(ad, iv, &mut ciphertext)
    });
    (ciphertext, tag)
}

/// Verifies and decrypts one chunk, copying the ciphertext once.
///
/// # Errors
///
/// Returns [`ShefError::IntegrityViolation`] if the tag does not match —
/// the Shield's spoof/splice/replay detection path.
pub fn open_chunk(
    key: &AuthEncKey,
    region_nonce: [u8; 8],
    region_name: &str,
    chunk_idx: u32,
    epoch: u64,
    ciphertext: &[u8],
    tag: &[u8; CHUNK_TAG_LEN],
) -> Result<Vec<u8>, ShefError> {
    let iv = chunk_iv(region_nonce, chunk_idx, epoch);
    let mut plaintext = ciphertext.to_vec();
    with_chunk_ad(region_name, chunk_idx, epoch, |ad| {
        key.open_in_place(ad, iv, &mut plaintext, tag)
    })
    .map_err(|_| {
        ShefError::IntegrityViolation(format!(
            "chunk {chunk_idx} of region '{region_name}' failed authentication at epoch {epoch}"
        ))
    })?;
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_crypto::authenc::MacAlgorithm;

    fn key() -> AuthEncKey {
        AuthEncKey::from_bytes([7u8; 32], MacAlgorithm::HmacSha256)
    }

    #[test]
    fn seal_open_round_trip() {
        let k = key();
        let (ct, tag) = seal_chunk(&k, [1; 8], "weights", 5, 0, b"chunk payload");
        let pt = open_chunk(&k, [1; 8], "weights", 5, 0, &ct, &tag).unwrap();
        assert_eq!(pt, b"chunk payload");
    }

    #[test]
    fn spoofing_detected() {
        let k = key();
        let (mut ct, tag) = seal_chunk(&k, [1; 8], "r", 0, 0, &[0xaa; 64]);
        ct[10] ^= 1;
        assert!(matches!(
            open_chunk(&k, [1; 8], "r", 0, 0, &ct, &tag),
            Err(ShefError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn splicing_detected() {
        // Chunk 3's ciphertext presented as chunk 4 must fail.
        let k = key();
        let (ct, tag) = seal_chunk(&k, [1; 8], "r", 3, 0, &[0xbb; 64]);
        assert!(open_chunk(&k, [1; 8], "r", 4, 0, &ct, &tag).is_err());
        // Cross-region splice must fail too.
        assert!(open_chunk(&k, [1; 8], "other", 3, 0, &ct, &tag).is_err());
    }

    #[test]
    fn replay_detected_via_epoch() {
        // Old-epoch ciphertext presented at a newer epoch must fail.
        let k = key();
        let (ct0, tag0) = seal_chunk(&k, [1; 8], "r", 0, 0, &[0xcc; 64]);
        assert!(open_chunk(&k, [1; 8], "r", 0, 1, &ct0, &tag0).is_err());
        // And the fresh epoch verifies.
        let (ct1, tag1) = seal_chunk(&k, [1; 8], "r", 0, 1, &[0xdd; 64]);
        assert_eq!(
            open_chunk(&k, [1; 8], "r", 0, 1, &ct1, &tag1).unwrap(),
            vec![0xdd; 64]
        );
    }

    #[test]
    fn epochs_change_keystream() {
        let k = key();
        let (ct0, _) = seal_chunk(&k, [1; 8], "r", 0, 1, &[0; 64]);
        let (ct1, _) = seal_chunk(&k, [1; 8], "r", 0, 2, &[0; 64]);
        assert_ne!(ct0, ct1);
    }

    #[test]
    fn chunk_ad_matches_the_wire_encoding() {
        // The hand-built AD is the `Writer` encoding, byte for byte,
        // including names past the stack buffer.
        let long = "r".repeat(200);
        for name in [
            "",
            "weights",
            "a-region-name-of-moderate-length",
            long.as_str(),
        ] {
            for (idx, epoch) in [(0, 0), (7, 1), (u32::MAX, u64::MAX)] {
                let mut w = crate::wire::Writer::new();
                w.put_str("shef.chunk.v1");
                w.put_str(name);
                w.put_u32(idx);
                w.put_u64(epoch);
                let expected = w.finish();
                assert_eq!(chunk_ad(name, idx, epoch), expected);
                with_chunk_ad(name, idx, epoch, |ad| assert_eq!(ad, expected));
            }
        }
    }

    #[test]
    fn seal_chunk_equals_seal_with_chunk_ad() {
        let k = key();
        let long = "n".repeat(100);
        for name in ["w", long.as_str()] {
            let (ct, tag) = seal_chunk(&k, [3; 8], name, 2, 5, b"payload bytes");
            let sealed = k.seal_with_iv(
                b"payload bytes",
                &chunk_ad(name, 2, 5),
                chunk_iv([3; 8], 2, 5),
            );
            assert_eq!((ct, tag), (sealed.ciphertext, sealed.tag));
        }
    }

    #[test]
    fn pmac_variant_interoperates() {
        let k = AuthEncKey::from_bytes([7u8; 32], MacAlgorithm::PmacAes);
        let (ct, tag) = seal_chunk(&k, [2; 8], "w", 9, 3, b"pmac chunk");
        assert_eq!(
            open_chunk(&k, [2; 8], "w", 9, 3, &ct, &tag).unwrap(),
            b"pmac chunk"
        );
    }
}
