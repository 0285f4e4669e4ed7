//! Fuzz-style property tests over every parser on the shared wire
//! codec: corrupted or truncated attestation messages, certificates and
//! bitstreams must be rejected cleanly (errors, never panics or silent
//! acceptance).

use std::sync::OnceLock;

use proptest::prelude::*;
use shef::attest::{
    AkCert, AttestationEnvironment, AttestationRoot, AttestationTicket, BitstreamKeyTicket,
    DeviceCert, ManufacturerCa, Quote, SealedKey,
};
use shef::core::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use shef::core::boot::secure_boot;
use shef::core::shield::{EngineSetConfig, LoadKey, MemRange, ShieldConfig};
use shef::core::workflow::TestBench;
use shef::fpga::board::image_names;

/// The attestation report a booted Security Kernel sends its IP Vendor
/// (a quote over the kernel and the staged bitstream), built once.
fn kernel_report() -> &'static Quote {
    static REPORT: OnceLock<Quote> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut bench = TestBench::new("protocol-fuzz");
        let mut board = bench.fresh_board(b"die-fuzz").unwrap();
        let product = bench
            .vendor
            .package_accelerator("fuzz", sample_bitstream().shield_config, vec![1, 2, 3])
            .unwrap();
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            product.encrypted_bitstream.0.clone(),
        );
        let mut kernel = secure_boot(&mut board).unwrap();
        let challenge = bench.vendor.challenge();
        kernel.quote(&board, &challenge).unwrap()
    })
}

fn sample_bitstream() -> Bitstream {
    Bitstream {
        accel_id: "fuzz".into(),
        shield_config: ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
            .build()
            .unwrap(),
        shield_key_seed: [7u8; 32],
        logic: vec![1, 2, 3, 4],
    }
}

/// Honest attestation messages (quote, DEK ticket, sealed key,
/// Bitstream-Key ticket), built once.
fn honest_messages() -> &'static [Vec<u8>; 4] {
    static MESSAGES: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    MESSAGES.get_or_init(|| {
        let mut env = AttestationEnvironment::new(b"protocol-fuzz").unwrap();
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).unwrap();
        let ticket = env
            .verifier_mut()
            .verify_and_provision(&quote, "fuzz-tenant", [0x5Au8; 32])
            .unwrap();
        let challenge = env.verifier_mut().challenge();
        let quote_bk = env.kernel_mut().quote(&challenge).unwrap();
        let bk_ticket = env
            .verifier_mut()
            .verify_and_release(&quote_bk, "fuzz-accel", [0xA5u8; 32])
            .unwrap();
        [
            quote.to_bytes(),
            ticket.to_bytes(),
            ticket.sealed_key().to_bytes(),
            bk_ticket.to_bytes(),
        ]
    })
}

/// Parses `bytes` as message kind `kind` (0 quote, 1 DEK ticket, 2
/// sealed key, 3 Bitstream-Key ticket) and re-encodes it: `None` if
/// the parse failed.
fn reparse(kind: usize, bytes: &[u8]) -> Option<Vec<u8>> {
    match kind {
        0 => Quote::from_bytes(bytes).ok().map(|m| m.to_bytes()),
        1 => AttestationTicket::from_bytes(bytes)
            .ok()
            .map(|m| m.to_bytes()),
        2 => SealedKey::from_bytes(bytes).ok().map(|m| m.to_bytes()),
        _ => BitstreamKeyTicket::from_bytes(bytes)
            .ok()
            .map(|m| m.to_bytes()),
    }
}

proptest! {
    #[test]
    fn truncated_attestation_messages_are_rejected(kind in 0usize..4, cut in any::<u16>()) {
        let bytes = &honest_messages()[kind];
        let cut = cut as usize % bytes.len();
        prop_assert!(reparse(kind, &bytes[..cut]).is_none(), "truncation at {} parsed", cut);
        // Trailing garbage is rejected just like a missing tail.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(reparse(kind, &long).is_none());
    }

    #[test]
    fn bit_flipped_attestation_messages_never_roundtrip(
        kind in 0usize..4,
        pos in any::<u16>(),
        bit in 0u8..8,
    ) {
        let bytes = &honest_messages()[kind];
        let mut flipped = bytes.clone();
        let idx = pos as usize % flipped.len();
        flipped[idx] ^= 1 << bit;
        // Either the flip breaks the layout, or it parses to a message
        // whose canonical encoding is the flipped bytes — never back to
        // the honest one.
        if let Some(reencoded) = reparse(kind, &flipped) {
            prop_assert_eq!(&reencoded, &flipped);
            prop_assert_ne!(&reencoded, bytes);
        }
    }

    #[test]
    fn random_bytes_never_parse_as_attestation_messages(
        kind in 0usize..4,
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Parsing is total; anything that does parse is canonical.
        if let Some(reencoded) = reparse(kind, &bytes) {
            prop_assert_eq!(reencoded, bytes);
        }
    }

    #[test]
    fn corrupted_reports_never_panic_or_roundtrip(pos in any::<u16>(), xor in 1u8..=255) {
        let report = kernel_report();
        let mut corrupted = report.to_bytes();
        let idx = pos as usize % corrupted.len();
        corrupted[idx] ^= xor;
        match Quote::from_bytes(&corrupted) {
            // Either it fails to parse…
            Err(_) => {}
            // …or it parses to a *different* report whose signature no
            // longer verifies. It must never equal the original.
            Ok(parsed) => {
                prop_assert_ne!(&parsed, report);
                prop_assert!(parsed.verify_signature().is_err());
            }
        }
    }

    #[test]
    fn truncated_reports_are_rejected(cut in any::<u16>()) {
        let bytes = kernel_report().to_bytes();
        let cut = cut as usize % bytes.len();
        prop_assert!(Quote::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_encrypted_bitstreams_are_rejected(idx in 0usize..256, xor in 1u8..=255) {
        let key = BitstreamKey([9u8; 32]);
        let enc = EncryptedBitstream::seal(&sample_bitstream(), &key);
        prop_assume!(idx < enc.0.len());
        let mut corrupted = enc.clone();
        corrupted.0[idx] ^= xor;
        prop_assert!(corrupted.open(&key).is_err());
    }

    #[test]
    fn random_bytes_never_parse_as_certificates(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Parsing may succeed structurally only if lengths happen to
        // line up, but verification against a real CA (device cert) or
        // a real device identity (AK cert) must always fail.
        let ca = ManufacturerCa::from_seed(b"fuzz-ca");
        let device = ca.certify_device(b"die-fuzz", &AttestationRoot::from_device_key(&[2u8; 32]));
        if let Ok(cert) = DeviceCert::from_bytes(&bytes) {
            prop_assert!(cert.verify(&ca.root_public()).is_err());
        }
        if let Ok(cert) = AkCert::from_bytes(&bytes) {
            prop_assert!(cert.verify(&device.device_public).is_err());
        }
    }

    #[test]
    fn garbage_load_keys_fail_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        match LoadKey::from_bytes(&bytes) {
            Err(_) => {}
            Ok(lk) => {
                // Structurally valid garbage must still fail provisioning.
                let config = ShieldConfig::builder()
                    .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
                    .build()
                    .unwrap();
                let mut shield = shef::core::shield::Shield::new(
                    config,
                    shef::crypto::ecies::EciesKeyPair::from_seed(b"fuzz-target"),
                )
                .unwrap();
                prop_assert!(shield.provision_load_key(&lk).is_err());
            }
        }
    }

    #[test]
    fn bitstream_parse_total_on_random_input(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // from_bytes is total: returns Ok or Err, never panics.
        let _ = Bitstream::from_bytes(&bytes);
    }

    #[test]
    fn corrupted_merkle_configs_never_silently_roundtrip(idx in 0usize..200, xor in 1u8..=255) {
        // A bitstream carrying a Merkle-protected region: any byte flip
        // in the serialized config either fails to parse or parses to a
        // different config (caught by the bitstream hash upstream).
        let es = EngineSetConfig {
            chunk_size: 64,
            merkle: Some(shef::core::shield::MerkleConfig { arity: 8, node_cache_bytes: 4096 }),
            ..EngineSetConfig::default()
        };
        let cfg = ShieldConfig::builder()
            .region("fmap", MemRange::new(0, 1 << 20), es)
            .build()
            .unwrap();
        let bytes = cfg.to_bytes();
        prop_assume!(idx < bytes.len());
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= xor;
        match ShieldConfig::from_bytes(&corrupted) {
            Err(_) => {}
            Ok(parsed) => prop_assert_ne!(parsed, cfg),
        }
    }

    #[test]
    fn stream_frames_reject_garbage_and_corruption(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        idx in 0usize..200,
        xor in 1u8..=255,
    ) {
        use shef::core::shield::{DataEncryptionKey, StreamEndpoint, StreamFrame};
        use shef::crypto::authenc::MacAlgorithm;

        // Random bytes: parsing is total.
        let _ = StreamFrame::from_bytes(&bytes);

        // A real frame with one byte flipped must never be accepted.
        let dek = DataEncryptionKey::from_bytes([0x13u8; 32]);
        let mut client = StreamEndpoint::client_side(&dek, "fuzz", MacAlgorithm::HmacSha256);
        let mut shield = StreamEndpoint::shield_side(&dek, "fuzz", MacAlgorithm::HmacSha256);
        let wire = client.send(b"fuzz payload").to_bytes();
        prop_assume!(idx < wire.len());
        let mut corrupted = wire.clone();
        corrupted[idx] ^= xor;
        if let Ok(frame) = StreamFrame::from_bytes(&corrupted) {
            prop_assert!(shield.recv(&frame).is_err());
        }
    }
}
