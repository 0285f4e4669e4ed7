//! The Security Kernel's side of the remote attestation protocol of
//! Fig. 3, on a booted board.
//!
//! Three parties, two untrusted hops:
//!
//! ```text
//! Data Owner ──TLS──▶ IP Vendor ──(untrusted host)──▶ Security Kernel
//! ```
//!
//! The handshake is `shef_attest`'s one protocol; the IP Vendor's
//! release of the Bitstream Encryption Key is its second ticket kind
//! ([`BitstreamKeyTicket`]):
//!
//! 1. The IP Vendor's [`RemoteVerifier`](shef_attest::RemoteVerifier)
//!    issues a [`Challenge`]: a fresh nonce and an ephemeral key-exchange
//!    key, relayed to the kernel by the host.
//! 2. The kernel, which measured its own binary and the staged encrypted
//!    bitstream at [`secure_boot`](crate::boot::secure_boot), answers
//!    with a [`Quote`] ([`BootedKernel::quote`]): the measurement, the
//!    nonce, the Manufacturer's device certificate and the device-signed
//!    Attestation-Key certificate (the paper's σ_SecKrnl), signed by the
//!    Attestation Key (σ_α).
//! 3. The vendor checks the nonce, the certificate chain, the signature
//!    and the measurement against its registry of audited kernel ×
//!    product measurements, then seals the Bitstream Key to the session
//!    and returns a [`BitstreamKeyTicket`].
//! 4. The kernel redeems the ticket, decrypts the bitstream it measured
//!    and loads it by partial reconfiguration
//!    ([`BootedKernel::load_accelerator`]); the Data Owner then builds
//!    Load Keys from the public Shield Encryption Key.
//!
//! A session releases one key; a failed unseal leaves it open, so a
//! man-in-the-middle cannot burn the honest release.

use shef_attest::{BitstreamKeyTicket, Challenge, Quote};
use shef_fpga::board::Board;

use crate::bitstream::{Bitstream, BitstreamKey};
use crate::boot::BootedKernel;
use crate::ShefError;

impl BootedKernel {
    /// Answers a challenge relayed by the untrusted host (Fig. 3 steps
    /// 3–4), opening the session the vendor's ticket will name.
    ///
    /// # Errors
    ///
    /// [`ShefError::BootFailed`] if the board no longer runs this boot.
    pub fn quote(&mut self, board: &Board, challenge: &Challenge) -> Result<Quote, ShefError> {
        self.ensure_running(board)?;
        Ok(self.kernel.quote(challenge)?)
    }

    /// Redeems the vendor's Bitstream-Key ticket, decrypts the
    /// accelerator bitstream this kernel measured at boot and loads it
    /// into the PR region.
    ///
    /// Returns the plaintext [`Bitstream`] — in hardware this never
    /// leaves the fabric; callers instantiate the Shield from it.
    ///
    /// # Errors
    ///
    /// * [`ShefError::BootFailed`] if the board no longer runs this boot.
    /// * [`ShefError::AttestationFailed`] if the ticket names no open
    ///   session or its sealed key fails to open.
    /// * [`ShefError::Crypto`] if the released key does not decrypt the
    ///   measured bitstream.
    /// * [`ShefError::Fpga`] if the Shell is not resident.
    pub fn load_accelerator(
        &mut self,
        board: &mut Board,
        ticket: &BitstreamKeyTicket,
    ) -> Result<Bitstream, ShefError> {
        self.ensure_running(board)?;
        let key = BitstreamKey(self.kernel.redeem_bitstream_key(ticket)?);
        let bitstream = self.accelerator.open(&key)?;
        // Partial reconfiguration, mediated by the Security Kernel.
        board.device.fabric.load_partial(bitstream.to_bytes())?;
        Ok(bitstream)
    }
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
    use crate::bitstream::EncryptedBitstream;
    use crate::boot::{deployment_measurement, secure_boot};
    use crate::shield::{EngineSetConfig, MemRange, ShieldConfig};
    use shef_attest::{AttestError, AttestationRoot, ManufacturerCa, RemoteVerifier};
    use shef_fpga::board::image_names;
    use shef_fpga::keystore::KeyProtection;
    use shef_fpga::spb::seal_firmware;

    const KERNEL: &[u8] = b"audited kernel";
    const ACCEL_ID: &str = "test-accel";

    struct Fixture {
        board: Board,
        kernel: BootedKernel,
        vendor: RemoteVerifier,
        bitstream_key: BitstreamKey,
    }

    fn encrypted_bitstream(key: &BitstreamKey) -> EncryptedBitstream {
        let bitstream = Bitstream {
            accel_id: ACCEL_ID.into(),
            shield_config: ShieldConfig::builder()
                .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
                .build()
                .unwrap(),
            shield_key_seed: [0x33u8; 32],
            logic: vec![1, 2, 3],
        };
        EncryptedBitstream::seal(&bitstream, key)
    }

    /// A board of `ca`'s making, booted with `kernel` and `staged` on
    /// its boot medium, facing a vendor that audited [`KERNEL`] and
    /// publishes the honest bitstream.
    fn fixture_with(ca: &ManufacturerCa, die: &[u8], kernel: &[u8], staged: &[u8]) -> Fixture {
        let mut board = Board::new(die);
        let device_aes = [0x31u8; 32];
        board
            .device
            .keystore
            .burn_aes_key(device_aes, KeyProtection::PufWrapped)
            .unwrap();
        let cert = ca.certify_device(die, &AttestationRoot::from_device_key(&device_aes));
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&device_aes, &cert.to_bytes()),
        );
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, kernel.to_vec());
        board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, staged.to_vec());
        let booted = secure_boot(&mut board).unwrap();
        // CSP loads the shell before accelerator loading.
        board
            .device
            .fabric
            .load_shell("f1-shell", b"shell bits")
            .unwrap();

        let bitstream_key = BitstreamKey([0x34u8; 32]);
        let honest = encrypted_bitstream(&bitstream_key);
        let mut vendor =
            RemoteVerifier::from_seed(b"attest-tests.vendor", vendor_ca().root_public());
        vendor.publish_measurement(deployment_measurement(KERNEL, &honest.0));
        Fixture {
            board,
            kernel: booted,
            vendor,
            bitstream_key,
        }
    }

    fn vendor_ca() -> ManufacturerCa {
        ManufacturerCa::from_seed(b"attest-tests")
    }

    fn fixture() -> Fixture {
        let staged = encrypted_bitstream(&BitstreamKey([0x34u8; 32]));
        fixture_with(&vendor_ca(), b"die-attest", KERNEL, &staged.0)
    }

    fn quote(fx: &mut Fixture) -> Quote {
        let challenge = fx.vendor.challenge();
        fx.kernel.quote(&fx.board, &challenge).unwrap()
    }

    /// The vendor's verdict on `quote`.
    fn release(fx: &mut Fixture, quote: &Quote) -> Result<BitstreamKeyTicket, AttestError> {
        fx.vendor
            .verify_and_release(quote, ACCEL_ID, fx.bitstream_key.0)
    }

    /// Runs challenge → quote → verification → sealed key release.
    fn honest_release(fx: &mut Fixture) -> BitstreamKeyTicket {
        let quote = quote(fx);
        release(fx, &quote).unwrap()
    }

    #[test]
    fn full_attestation_flow() {
        let mut fx = fixture();
        let ticket = honest_release(&mut fx);
        let bitstream = fx.kernel.load_accelerator(&mut fx.board, &ticket).unwrap();
        assert_eq!(bitstream.accel_id, ACCEL_ID);
        assert!(fx.board.device.fabric.partial().is_some());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let mut fx = fixture();
        // A quote answering a challenge this vendor never issued.
        let mut stranger = RemoteVerifier::from_seed(b"stranger", vendor_ca().root_public());
        let foreign = fx.kernel.quote(&fx.board, &stranger.challenge()).unwrap();
        assert_eq!(release(&mut fx, &foreign), Err(AttestError::UnknownNonce));
        // A genuine quote replayed after its release.
        let quote = quote(&mut fx);
        release(&mut fx, &quote).unwrap();
        assert_eq!(release(&mut fx, &quote), Err(AttestError::ReplayedNonce));
    }

    #[test]
    fn unknown_kernel_rejected() {
        let staged = encrypted_bitstream(&BitstreamKey([0x34u8; 32]));
        let mut fx = fixture_with(&vendor_ca(), b"die-attest", b"unaudited kernel", &staged.0);
        let quote = quote(&mut fx);
        assert_eq!(
            release(&mut fx, &quote),
            Err(AttestError::UnknownMeasurement(
                deployment_measurement(b"unaudited kernel", &staged.0).to_hex()
            ))
        );
    }

    #[test]
    fn swapped_bitstream_rejected() {
        // Adversary stages a different encrypted bitstream.
        let mut fx = fixture_with(&vendor_ca(), b"die-attest", KERNEL, &[0xEE; 500]);
        let quote = quote(&mut fx);
        assert_eq!(
            release(&mut fx, &quote),
            Err(AttestError::UnknownMeasurement(
                deployment_measurement(KERNEL, &[0xEE; 500]).to_hex()
            ))
        );
    }

    #[test]
    fn forged_device_rejected() {
        let mut fx = fixture();
        let mut quote = quote(&mut fx);
        // The host swaps in a genuine certificate for another device:
        // the kernel's AK certificate does not verify under its key.
        quote.device_cert = vendor_ca().certify_device(
            b"die-attest",
            &AttestationRoot::from_device_key(&[0x99u8; 32]),
        );
        assert!(matches!(
            release(&mut fx, &quote),
            Err(AttestError::CertChain(m)) if m.contains("attestation-key")
        ));
    }

    #[test]
    fn rogue_ca_device_cert_rejected() {
        // Same kernel and bitstream on a device certified by a CA the
        // vendor does not pin.
        let staged = encrypted_bitstream(&BitstreamKey([0x34u8; 32]));
        let rogue = ManufacturerCa::from_seed(b"rogue-maker");
        let mut fx = fixture_with(&rogue, b"die-attest", KERNEL, &staged.0);
        let quote = quote(&mut fx);
        assert!(matches!(
            release(&mut fx, &quote),
            Err(AttestError::CertChain(m)) if m.contains("device certificate")
        ));
    }

    #[test]
    fn tampered_report_rejected() {
        let mut fx = fixture();
        let mut quote = quote(&mut fx);
        quote.signature.0[0] ^= 1;
        // σ_α no longer covers the quote; the nonce stays outstanding,
        // so the honest quote still releases afterwards.
        assert!(matches!(
            release(&mut fx, &quote),
            Err(AttestError::BadSignature(_))
        ));
        quote.signature.0[0] ^= 1;
        release(&mut fx, &quote).unwrap();
    }

    #[test]
    fn bitstream_key_hand_off_requires_session() {
        let mut fx = fixture();
        // A genuine ticket, but for another device's session.
        let staged = encrypted_bitstream(&fx.bitstream_key);
        let mut other = fixture_with(&vendor_ca(), b"die-other", KERNEL, &staged.0);
        let ticket = honest_release(&mut other);
        assert_eq!(
            fx.kernel
                .load_accelerator(&mut fx.board, &ticket)
                .unwrap_err(),
            ShefError::AttestationFailed(AttestError::UnknownSession)
        );
        assert!(fx.board.device.fabric.partial().is_none());
    }

    #[test]
    fn bitstream_key_hand_off_is_one_shot() {
        let mut fx = fixture();
        let ticket = honest_release(&mut fx);
        fx.kernel.load_accelerator(&mut fx.board, &ticket).unwrap();
        // The session closed with the first release.
        assert_eq!(
            fx.kernel
                .load_accelerator(&mut fx.board, &ticket)
                .unwrap_err(),
            ShefError::AttestationFailed(AttestError::UnknownSession)
        );
    }

    #[test]
    fn wrong_session_key_rejected() {
        let mut fx = fixture();
        let honest = honest_release(&mut fx);
        // A MITM that never learned the session secret rewrites the
        // sealed key.
        let mut bytes = honest.to_bytes();
        let sealed = honest.sealed_key().to_bytes();
        let at = bytes
            .windows(sealed.len())
            .position(|w| w == sealed)
            .unwrap();
        bytes[at + 8] ^= 0xCC;
        let mitm = BitstreamKeyTicket::from_bytes(&bytes).unwrap();
        assert!(matches!(
            fx.kernel.load_accelerator(&mut fx.board, &mitm),
            Err(ShefError::AttestationFailed(AttestError::SealTamper(_)))
        ));
        // The failed open did not burn the session: the honest key
        // still redeems.
        let bitstream = fx.kernel.load_accelerator(&mut fx.board, &honest).unwrap();
        assert_eq!(bitstream.accel_id, ACCEL_ID);
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
        // A halted kernel attests nothing.
        let challenge = fx.vendor.challenge();
        assert!(matches!(
            fx.kernel.quote(&fx.board, &challenge),
            Err(ShefError::BootFailed(_))
        ));
    }

    #[test]
    fn clean_monitors_pass() {
        let mut fx = fixture();
        kernel_check_monitors(&mut fx.board).unwrap();
        assert!(fx.board.device.sk_processor.is_running());
    }

    #[test]
    fn report_serialization_round_trip() {
        // The kernel's attestation report is its quote.
        let mut fx = fixture();
        let quote = quote(&mut fx);
        let parsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(parsed, quote);
        assert_eq!(parsed.measurement, fx.kernel.report().measurement);
        assert_eq!(&parsed.device_cert, fx.kernel.kernel.device_cert());
    }
}
