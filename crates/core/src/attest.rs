//! The remote attestation protocol of Fig. 3.
//!
//! Three parties, two untrusted hops:
//!
//! ```text
//! Data Owner ──TLS──▶ IP Vendor ──(untrusted host)──▶ Security Kernel
//! ```
//!
//! 1. The IP Vendor issues a fresh nonce `n` and an ephemeral
//!    Verification Key, forwarded to the Security Kernel.
//! 2. The kernel hashes the staged encrypted bitstream, derives
//!    `SessionKey = DHKE(VerifKey, AttestKey)`, certifies it
//!    (σ_SessionKey), assembles the attestation report
//!    `α = (n, H(Enc(Accel)), AttestKey_pub, H(SecKrnl), σ_SecKrnl)` and
//!    signs it (σ_α).
//! 3. The vendor validates the chain: device CA ✓, kernel hash in the
//!    public registry ✓, nonce fresh ✓, bitstream hash correct ✓,
//!    session-key certificate ✓ — then releases the Bitstream Encryption
//!    Key over the session channel.
//! 4. The kernel decrypts and loads the accelerator via partial
//!    reconfiguration; the Data Owner receives the public Shield
//!    Encryption Key and builds Load Keys.
//!
//! This is the IP Vendor's key release. It shares its trust base with
//! the Data Owner's DEK release in `shef_attest`: the same
//! [`ManufacturerCa`](shef_attest::ManufacturerCa) certificates, the
//! same [`MeasurementRegistry`], the same wire codec, and the same typed
//! [`AttestError`]s. Like a DEK ticket, a session releases one key: the
//! kernel drops the session key once the sealed Bitstream Key opens.

use shef_attest::{AttestError, DeviceCert, Measurement, MeasurementRegistry};
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, Sealed};
use shef_crypto::ecies::EciesKeyPair;
use shef_crypto::ed25519::{Signature, VerifyingKey};
use shef_crypto::hkdf;
use shef_crypto::sha2::Sha256;
use shef_crypto::wire::{Reader, Writer};
use shef_fpga::board::{image_names, Board};

use crate::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use crate::boot::{self, seckrnl_cert_message, slots};
use crate::ShefError;

/// Associated data for the Bitstream-Key hand-off message.
const BITSTREAM_KEY_AD: &[u8] = b"shef.attest.bitstream-key.v1";

/// The vendor's challenge: nonce + ephemeral Verification Key (Fig. 3
/// step 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationChallenge {
    /// Anti-replay nonce.
    pub nonce: [u8; 32],
    /// X25519 public half of the vendor's ephemeral Verification Key.
    pub verif_public: [u8; 32],
}

/// The attestation report α.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// Echoed challenge nonce.
    pub nonce: [u8; 32],
    /// `H(Enc_BitstrKey(Accelerator))` — hash of the staged encrypted
    /// bitstream.
    pub enc_bitstream_hash: [u8; 32],
    /// Attestation signing public key.
    pub attest_sign_public: VerifyingKey,
    /// Attestation Diffie–Hellman public key.
    pub attest_dh_public: [u8; 32],
    /// Measured Security Kernel hash.
    pub kernel_hash: [u8; 32],
    /// Device certificate σ_SecKrnl from secure boot.
    pub sigma_seckrnl: Signature,
}

impl AttestationReport {
    /// Canonical signing bytes of α.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("shef.attest.alpha.v1");
        w.put_fixed(&self.nonce);
        w.put_fixed(&self.enc_bitstream_hash);
        w.put_fixed(&self.attest_sign_public.0);
        w.put_fixed(&self.attest_dh_public);
        w.put_fixed(&self.kernel_hash);
        w.put_fixed(&self.sigma_seckrnl.0);
        w.finish()
    }

    /// Parses the canonical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Malformed`] on bad layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShefError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_str()?;
        if tag != "shef.attest.alpha.v1" {
            return Err(ShefError::Malformed("bad report tag".into()));
        }
        let report = AttestationReport {
            nonce: r.get_fixed::<32>()?,
            enc_bitstream_hash: r.get_fixed::<32>()?,
            attest_sign_public: VerifyingKey(r.get_fixed::<32>()?),
            attest_dh_public: r.get_fixed::<32>()?,
            kernel_hash: r.get_fixed::<32>()?,
            sigma_seckrnl: Signature(r.get_fixed::<64>()?),
        };
        r.finish()?;
        Ok(report)
    }
}

/// The kernel's full response: (α, σ_α, σ_SessionKey).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationResponse {
    /// The report α.
    pub report: AttestationReport,
    /// Signature over α with the attestation key.
    pub sigma_alpha: Signature,
    /// Certificate over the derived session key (MITM defence).
    pub sigma_session: Signature,
}

/// Derives the symmetric session key from a raw X25519 shared secret and
/// the transcript identifiers.
#[must_use]
pub fn derive_session_key(
    shared: &[u8; 32],
    nonce: &[u8; 32],
    attest_dh_public: &[u8; 32],
    verif_public: &[u8; 32],
) -> AuthEncKey {
    let mut ikm = Vec::with_capacity(128);
    ikm.extend_from_slice(shared);
    ikm.extend_from_slice(nonce);
    ikm.extend_from_slice(attest_dh_public);
    ikm.extend_from_slice(verif_public);
    let master = hkdf::derive_key32(b"shef.attest.session", &ikm, b"session-key");
    AuthEncKey::from_bytes(master, MacAlgorithm::HmacSha256)
}

/// Message over which σ_SessionKey is computed (a hash commitment to the
/// session key plus the nonce; revealing it leaks nothing about the key).
#[must_use]
pub fn session_cert_message(session_master: &[u8; 32], nonce: &[u8; 32]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.attest.session-cert.v1");
    w.put_fixed(&Sha256::digest(session_master));
    w.put_fixed(nonce);
    w.finish()
}

/// Security-Kernel side: handles a challenge relayed by the untrusted
/// host (Fig. 3 steps 3–4).
///
/// # Errors
///
/// * [`ShefError::BootFailed`] if secure boot has not run.
/// * [`ShefError::Fpga`] if no encrypted bitstream is staged.
pub fn kernel_handle_challenge(
    board: &mut Board,
    challenge: &AttestationChallenge,
) -> Result<AttestationResponse, ShefError> {
    let (sign_key, dh_key) = boot::kernel_attestation_keys(board)?;
    let kernel_hash: [u8; 32] = board
        .device
        .sk_processor
        .private_memory()
        .load(slots::KERNEL_HASH)
        .ok_or_else(|| ShefError::BootFailed("kernel hash missing".into()))?
        .try_into()
        .map_err(|_| ShefError::BootFailed("corrupt kernel hash".into()))?;
    let sigma_seckrnl_bytes = board
        .device
        .sk_processor
        .private_memory()
        .load(slots::SIGMA_SECKRNL)
        .ok_or_else(|| ShefError::BootFailed("σ_SecKrnl missing".into()))?
        .to_vec();
    let sigma_seckrnl = Signature::from_bytes(&sigma_seckrnl_bytes)?;

    // Hash the staged encrypted accelerator bitstream.
    let enc_bitstream = board
        .boot_medium
        .load(image_names::ACCELERATOR_BITSTREAM)?
        .to_vec();
    let enc_bitstream_hash = Sha256::digest(&enc_bitstream);

    // Session key: DHKE(VerifKey_pub, AttestKey_priv).
    let shared = dh_key.diffie_hellman(&shef_crypto::ecies::EciesPublicKey(challenge.verif_public));
    let session = derive_session_key(
        &shared,
        &challenge.nonce,
        &dh_key.public_key().0,
        &challenge.verif_public,
    );
    let sigma_session = sign_key.sign(&session_cert_message(
        &session.master_bytes(),
        &challenge.nonce,
    ));

    // Persist session state in private memory for the key hand-off.
    let mem = board.device.sk_processor.private_memory();
    mem.store(slots::SESSION_KEY, session.master_bytes().to_vec());
    mem.store(slots::SESSION_NONCE, challenge.nonce.to_vec());

    let report = AttestationReport {
        nonce: challenge.nonce,
        enc_bitstream_hash,
        attest_sign_public: sign_key.verifying_key(),
        attest_dh_public: dh_key.public_key().0,
        kernel_hash,
        sigma_seckrnl,
    };
    let sigma_alpha = sign_key.sign(&report.to_bytes());
    Ok(AttestationResponse {
        report,
        sigma_alpha,
        sigma_session,
    })
}

/// Everything the IP Vendor needs to validate a response.
#[derive(Debug, Clone)]
pub struct VendorVerification<'a> {
    /// The Manufacturer CA root the vendor pins.
    pub ca_root: VerifyingKey,
    /// The device certificate for the board under attestation.
    pub device_cert: &'a DeviceCert,
    /// The public registry of audited kernel hashes.
    pub known_kernels: &'a MeasurementRegistry,
    /// The nonce the vendor issued.
    pub expected_nonce: [u8; 32],
    /// The vendor's ephemeral Verification Key (private half).
    pub verif_key: &'a EciesKeyPair,
    /// Hash of the encrypted bitstream the vendor distributed.
    pub expected_bitstream_hash: [u8; 32],
}

/// IP Vendor side: validates the device certificate and (α, σ_α,
/// σ_SessionKey), then derives the session key (Fig. 3 step 5).
///
/// # Errors
///
/// The first failed check, as a typed [`AttestError`]:
/// [`AttestError::CertChain`] for the device certificate,
/// [`AttestError::BadSignature`] for σ_SecKrnl, σ_α and σ_SessionKey,
/// [`AttestError::UnknownMeasurement`] for a kernel hash missing from
/// the registry or a wrong staged-bitstream hash, and
/// [`AttestError::UnknownNonce`] for a nonce the vendor did not issue.
pub fn vendor_verify(
    v: &VendorVerification<'_>,
    response: &AttestationResponse,
) -> Result<AuthEncKey, AttestError> {
    let report = &response.report;
    // 0. The device key is certified by the pinned Manufacturer CA.
    v.device_cert.verify(&v.ca_root)?;
    // 1. σ_SecKrnl proves a genuine device booted this kernel+keys.
    let msg = seckrnl_cert_message(
        &report.kernel_hash,
        &report.attest_sign_public,
        &report.attest_dh_public,
    );
    v.device_cert
        .device_public
        .verify(&msg, &report.sigma_seckrnl)
        .map_err(|_| AttestError::BadSignature("σ_SecKrnl not signed by device key".into()))?;
    // 2. The kernel is an audited build.
    v.known_kernels.require(&Measurement(report.kernel_hash))?;
    // 3. σ_α under the attestation key.
    report
        .attest_sign_public
        .verify(&report.to_bytes(), &response.sigma_alpha)
        .map_err(|_| AttestError::BadSignature("σ_α invalid".into()))?;
    // 4. Nonce freshness.
    if report.nonce != v.expected_nonce {
        return Err(AttestError::UnknownNonce);
    }
    // 5. Correct bitstream staged.
    if report.enc_bitstream_hash != v.expected_bitstream_hash {
        return Err(AttestError::UnknownMeasurement(shef_crypto::to_hex(
            &report.enc_bitstream_hash,
        )));
    }
    // 6. Session key agreement + certificate.
    let shared = v
        .verif_key
        .diffie_hellman(&shef_crypto::ecies::EciesPublicKey(report.attest_dh_public));
    let session = derive_session_key(
        &shared,
        &report.nonce,
        &report.attest_dh_public,
        &v.verif_key.public_key().0,
    );
    report
        .attest_sign_public
        .verify(
            &session_cert_message(&session.master_bytes(), &report.nonce),
            &response.sigma_session,
        )
        .map_err(|_| AttestError::BadSignature("σ_SessionKey invalid".into()))?;
    Ok(session)
}

/// IP Vendor side: seals the Bitstream Encryption Key over the session
/// channel (Fig. 3 step 6).
#[must_use]
pub fn vendor_seal_bitstream_key(session: &mut AuthEncKey, key: &BitstreamKey) -> Sealed {
    session.seal(&key.0, BITSTREAM_KEY_AD)
}

/// Security-Kernel side: receives the sealed Bitstream Key, decrypts the
/// staged bitstream and loads it into the PR region.
///
/// Returns the plaintext [`Bitstream`] — in hardware this never leaves
/// the fabric; callers instantiate the Shield from it.
///
/// Sessions are one-shot: once the sealed key opens, the session key and
/// nonce leave private memory, so the same hand-off cannot be replayed.
/// A sealed key that fails to open leaves the session in place — a MITM
/// injection cannot burn the honest vendor's release.
///
/// # Errors
///
/// * [`ShefError::ProtocolViolation`] without an open session (no
///   challenge yet, or its key was already released).
/// * [`ShefError::Crypto`] if the sealed key fails authentication.
/// * [`ShefError::Fpga`] if the Shell is not resident.
pub fn kernel_receive_bitstream_key(
    board: &mut Board,
    sealed_key: &Sealed,
) -> Result<Bitstream, ShefError> {
    let mem = board.device.sk_processor.private_memory();
    let master: [u8; 32] = mem
        .load(slots::SESSION_KEY)
        .ok_or_else(|| ShefError::ProtocolViolation("no attestation session established".into()))?
        .try_into()
        .map_err(|_| ShefError::ProtocolViolation("corrupt session key".into()))?;
    let session = AuthEncKey::from_bytes(master, MacAlgorithm::HmacSha256);
    let key_bytes = session.open(sealed_key, BITSTREAM_KEY_AD)?;
    mem.take(slots::SESSION_KEY);
    mem.take(slots::SESSION_NONCE);
    let key = BitstreamKey(
        key_bytes
            .try_into()
            .map_err(|_| ShefError::Malformed("bitstream key must be 32 bytes".into()))?,
    );
    let enc = EncryptedBitstream(
        board
            .boot_medium
            .load(image_names::ACCELERATOR_BITSTREAM)?
            .to_vec(),
    );
    let bitstream = enc.open(&key)?;
    // Partial reconfiguration, mediated by the Security Kernel.
    board.device.fabric.load_partial(bitstream.to_bytes())?;
    Ok(bitstream)
}

/// Security-Kernel runtime duty: poll the tamper monitors; on any event,
/// halt the kernel, clear the PR region and report.
///
/// # Errors
///
/// Returns [`ShefError::TamperDetected`] describing the first event.
pub fn kernel_check_monitors(board: &mut Board) -> Result<(), ShefError> {
    let events = board.device.ports.take_events();
    if let Some(event) = events.first() {
        board.device.fabric.clear_partial();
        board.device.sk_processor.halt();
        return Err(ShefError::TamperDetected(format!(
            "{} access: {}",
            event.port, event.description
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::{EngineSetConfig, MemRange, ShieldConfig};
    use shef_attest::ManufacturerCa;
    use shef_crypto::ed25519::SigningKey;
    use shef_fpga::keystore::KeyProtection;
    use shef_fpga::spb::seal_firmware;

    const DIE: &[u8] = b"die-attest";

    struct Fixture {
        board: Board,
        ca: ManufacturerCa,
        device_cert: DeviceCert,
        registry: MeasurementRegistry,
        enc_bitstream: EncryptedBitstream,
        bitstream_key: BitstreamKey,
    }

    fn fixture() -> Fixture {
        let mut board = Board::new(DIE);
        let device_aes = [0x31u8; 32];
        board
            .device
            .keystore
            .burn_aes_key(device_aes, KeyProtection::PufWrapped)
            .unwrap();
        let fw = crate::boot::FirmwarePayload {
            device_key_seed: [0x32u8; 32],
        };
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&device_aes, &fw.to_bytes()),
        );
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, b"audited kernel".to_vec());

        let bitstream = Bitstream {
            accel_id: "test-accel".into(),
            shield_config: ShieldConfig::builder()
                .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
                .build()
                .unwrap(),
            shield_key_seed: [0x33u8; 32],
            logic: vec![1, 2, 3],
        };
        let bitstream_key = BitstreamKey([0x34u8; 32]);
        let enc_bitstream = EncryptedBitstream::seal(&bitstream, &bitstream_key);
        board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, enc_bitstream.0.clone());

        let report = crate::boot::secure_boot(&mut board).unwrap();
        let mut registry = MeasurementRegistry::new();
        registry.publish(Measurement(report.kernel_hash));
        // CSP loads the shell before accelerator loading.
        board
            .device
            .fabric
            .load_shell("f1-shell", b"shell bits")
            .unwrap();

        let ca = ManufacturerCa::from_seed(b"attest-tests");
        let device_cert = ca.certify_device_key(DIE, fw.device_signing_key().verifying_key());
        Fixture {
            board,
            ca,
            device_cert,
            registry,
            enc_bitstream,
            bitstream_key,
        }
    }

    fn challenge(verif: &EciesKeyPair) -> AttestationChallenge {
        AttestationChallenge {
            nonce: [0xA5u8; 32],
            verif_public: verif.public_key().0,
        }
    }

    /// The honest vendor's view of the fixture; tests override a field.
    fn verification<'a>(fx: &'a Fixture, verif: &'a EciesKeyPair) -> VendorVerification<'a> {
        VendorVerification {
            ca_root: fx.ca.root_public(),
            device_cert: &fx.device_cert,
            known_kernels: &fx.registry,
            expected_nonce: challenge(verif).nonce,
            verif_key: verif,
            expected_bitstream_hash: fx.enc_bitstream.hash(),
        }
    }

    /// Runs challenge → response → verification → sealed key hand-off.
    fn honest_release(fx: &mut Fixture, verif: &EciesKeyPair) -> Sealed {
        let response = kernel_handle_challenge(&mut fx.board, &challenge(verif)).unwrap();
        let mut session = vendor_verify(&verification(fx, verif), &response).unwrap();
        vendor_seal_bitstream_key(&mut session, &fx.bitstream_key)
    }

    #[test]
    fn full_attestation_flow() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor-ephemeral");
        let sealed = honest_release(&mut fx, &verif);
        let bitstream = kernel_receive_bitstream_key(&mut fx.board, &sealed).unwrap();
        assert_eq!(bitstream.accel_id, "test-accel");
        assert!(fx.board.device.fabric.partial().is_some());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        let verification = VendorVerification {
            expected_nonce: [0u8; 32], // vendor expected a different nonce
            ..verification(&fx, &verif)
        };
        let err = vendor_verify(&verification, &response).unwrap_err();
        assert_eq!(err, AttestError::UnknownNonce);
    }

    #[test]
    fn unknown_kernel_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        let empty_registry = MeasurementRegistry::new();
        let verification = VendorVerification {
            known_kernels: &empty_registry,
            ..verification(&fx, &verif)
        };
        let err = vendor_verify(&verification, &response).unwrap_err();
        assert_eq!(
            err,
            AttestError::UnknownMeasurement(shef_crypto::to_hex(&response.report.kernel_hash))
        );
    }

    #[test]
    fn swapped_bitstream_rejected() {
        let mut fx = fixture();
        // Adversary stages a different encrypted bitstream.
        fx.board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, vec![0xEE; 500]);
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        let err = vendor_verify(&verification(&fx, &verif), &response).unwrap_err();
        assert_eq!(
            err,
            AttestError::UnknownMeasurement(shef_crypto::to_hex(&Sha256::digest(&[0xEE; 500])))
        );
    }

    #[test]
    fn forged_device_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        // Vendor checks against a genuine certificate for a different
        // device key: σ_SecKrnl does not verify under it.
        let other_device = SigningKey::from_seed(&[0x99u8; 32]).verifying_key();
        let other_cert = fx.ca.certify_device_key(DIE, other_device);
        let verification = VendorVerification {
            device_cert: &other_cert,
            ..verification(&fx, &verif)
        };
        let err = vendor_verify(&verification, &response).unwrap_err();
        assert!(matches!(err, AttestError::BadSignature(m) if m.contains("σ_SecKrnl")));
    }

    #[test]
    fn rogue_ca_device_cert_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        // Same die and device key, certified by a CA the vendor does
        // not pin.
        let rogue = ManufacturerCa::from_seed(b"rogue-maker");
        let rogue_cert = rogue.certify_device_key(DIE, fx.device_cert.device_public);
        let verification = VendorVerification {
            device_cert: &rogue_cert,
            ..verification(&fx, &verif)
        };
        let err = vendor_verify(&verification, &response).unwrap_err();
        assert!(matches!(err, AttestError::CertChain(_)));
    }

    #[test]
    fn tampered_report_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let mut response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        response.report.enc_bitstream_hash[0] ^= 1;
        let verification = VendorVerification {
            expected_bitstream_hash: response.report.enc_bitstream_hash,
            ..verification(&fx, &verif)
        };
        // σ_α no longer covers the mutated report.
        let err = vendor_verify(&verification, &response).unwrap_err();
        assert!(matches!(err, AttestError::BadSignature(m) if m.contains("σ_α")));
    }

    #[test]
    fn bitstream_key_hand_off_requires_session() {
        let mut fx = fixture();
        // No challenge issued: hand-off must fail.
        let mut rogue_session = AuthEncKey::from_bytes([0u8; 32], MacAlgorithm::HmacSha256);
        let sealed = vendor_seal_bitstream_key(&mut rogue_session, &fx.bitstream_key);
        let err = kernel_receive_bitstream_key(&mut fx.board, &sealed).unwrap_err();
        assert!(matches!(err, ShefError::ProtocolViolation(_)));
    }

    #[test]
    fn bitstream_key_hand_off_is_one_shot() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let sealed = honest_release(&mut fx, &verif);
        kernel_receive_bitstream_key(&mut fx.board, &sealed).unwrap();
        // The session left private memory with the first release.
        let err = kernel_receive_bitstream_key(&mut fx.board, &sealed).unwrap_err();
        assert!(matches!(err, ShefError::ProtocolViolation(_)));
        let mem = fx.board.device.sk_processor.private_memory();
        assert!(mem.load(slots::SESSION_KEY).is_none());
        assert!(mem.load(slots::SESSION_NONCE).is_none());
    }

    #[test]
    fn wrong_session_key_rejected() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let honest = honest_release(&mut fx, &verif);
        // A MITM that never learned the session key tries to inject its
        // own bitstream key.
        let mut mitm_session = AuthEncKey::from_bytes([0xBBu8; 32], MacAlgorithm::HmacSha256);
        let sealed = vendor_seal_bitstream_key(&mut mitm_session, &BitstreamKey([0xCC; 32]));
        let err = kernel_receive_bitstream_key(&mut fx.board, &sealed).unwrap_err();
        assert!(matches!(err, ShefError::Crypto(_)));
        // The failed open did not burn the session: the honest key
        // still redeems.
        let bitstream = kernel_receive_bitstream_key(&mut fx.board, &honest).unwrap();
        assert_eq!(bitstream.accel_id, "test-accel");
    }

    #[test]
    fn monitor_trip_halts_kernel() {
        let mut fx = fixture();
        fx.board
            .device
            .ports
            .adversarial_access(shef_fpga::ports::DebugPort::Jtag, "probe");
        let err = kernel_check_monitors(&mut fx.board).unwrap_err();
        assert!(matches!(err, ShefError::TamperDetected(_)));
        assert!(!fx.board.device.sk_processor.is_running());
        assert!(fx.board.device.fabric.partial().is_none());
    }

    #[test]
    fn clean_monitors_pass() {
        let mut fx = fixture();
        kernel_check_monitors(&mut fx.board).unwrap();
        assert!(fx.board.device.sk_processor.is_running());
    }

    #[test]
    fn report_serialization_round_trip() {
        let mut fx = fixture();
        let verif = EciesKeyPair::from_seed(b"vendor");
        let response = kernel_handle_challenge(&mut fx.board, &challenge(&verif)).unwrap();
        let parsed = AttestationReport::from_bytes(&response.report.to_bytes()).unwrap();
        assert_eq!(parsed, response.report);
    }
}
