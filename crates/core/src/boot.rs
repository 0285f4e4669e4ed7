//! The ShEF secure boot chain (§3 steps 6–7, §4 "Secure Boot").
//!
//! ```text
//! BootROM ──decrypts──▶ SPB firmware ──measures──▶ Security Kernel
//!    │                        │                          │
//!    └─ AES device key        └─ private device key      └─ Attestation Key
//!       (e-fuses)                (inside encrypted fw)      bound to (device, H(SecKrnl))
//! ```
//!
//! The SPB firmware "reads the Security Kernel out of the boot medium and
//! hashes it … signs the hash with the private device key \[and\] uses the
//! resulting value to seed a key generator to produce a unique asymmetric
//! Attestation Key pair", then certifies it with
//! `σ_SecKrnl = Sign_DeviceKey(H(SecKrnl), AttestKey_pub)`.
//!
//! Because our signatures are deterministic Ed25519, the derived
//! Attestation Key is a pure function of (device key, kernel binary):
//! re-booting the same kernel on the same device reproduces the same
//! identity, exactly as the paper intends.

use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::EciesKeyPair;
use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::sha2::{Sha256, Sha512};
use shef_crypto::wire::{Reader, Writer};
use shef_fpga::board::{image_names, Board};
use shef_fpga::processor::KernelImage;

use crate::ShefError;

/// Private-memory slot names used by the Security Kernel.
pub mod slots {
    /// Seed of the attestation signing key.
    pub const ATTEST_SIGN_SEED: &str = "attest-sign-seed";
    /// Seed of the attestation Diffie–Hellman key.
    pub const ATTEST_DH_SEED: &str = "attest-dh-seed";
    /// σ_SecKrnl certificate bytes.
    pub const SIGMA_SECKRNL: &str = "sigma-seckrnl";
    /// Measured kernel hash.
    pub const KERNEL_HASH: &str = "kernel-hash";
    /// Established attestation session key (after a challenge).
    pub const SESSION_KEY: &str = "session-key";
    /// Nonce of the in-flight attestation session.
    pub const SESSION_NONCE: &str = "session-nonce";
}

/// The payload the Manufacturer seals inside the SPB firmware: the
/// asymmetric private device key (§3 step 2).
#[derive(Clone)]
pub struct FirmwarePayload {
    /// Seed of the device signing key.
    pub device_key_seed: [u8; 32],
}

impl core::fmt::Debug for FirmwarePayload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FirmwarePayload").finish_non_exhaustive()
    }
}

impl FirmwarePayload {
    /// Serializes for sealing.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("shef.firmware.v1");
        w.put_fixed(&self.device_key_seed);
        w.finish()
    }

    /// Parses a decrypted firmware payload.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Malformed`] on bad layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShefError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_str()?;
        if tag != "shef.firmware.v1" {
            return Err(ShefError::Malformed("bad firmware payload tag".into()));
        }
        let device_key_seed = r.get_fixed::<32>()?;
        r.finish()?;
        Ok(FirmwarePayload { device_key_seed })
    }

    /// The device signing key held by this firmware.
    #[must_use]
    pub fn device_signing_key(&self) -> SigningKey {
        SigningKey::from_seed(&self.device_key_seed)
    }
}

/// Message over which σ_SecKrnl is computed.
#[must_use]
pub fn seckrnl_cert_message(
    kernel_hash: &[u8; 32],
    attest_sign_public: &VerifyingKey,
    attest_dh_public: &[u8; 32],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.sigma-seckrnl.v1");
    w.put_fixed(kernel_hash);
    w.put_fixed(&attest_sign_public.0);
    w.put_fixed(attest_dh_public);
    w.finish()
}

/// Public outcome of a successful secure boot.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// SHA-256 of the Security Kernel binary.
    pub kernel_hash: [u8; 32],
    /// The attestation signing public key.
    pub attest_sign_public: VerifyingKey,
    /// The attestation Diffie–Hellman public key.
    pub attest_dh_public: [u8; 32],
    /// Device certificate over the kernel hash and attestation keys.
    pub sigma_seckrnl: Signature,
    /// Modelled boot latency.
    pub timing: BootTiming,
}

/// Boot-phase latency model, calibrated to the paper's Ultra96
/// measurement: "the boot process, from power-on to bitstream loading,
/// completes in 5.1 seconds" (§6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootTiming {
    /// BootROM execution + firmware decryption (ms).
    pub bootrom_ms: f64,
    /// Security Kernel read + hash (ms).
    pub measure_kernel_ms: f64,
    /// Attestation key derivation + certificate (ms).
    pub key_derivation_ms: f64,
    /// Kernel load onto the dedicated core + monitor arming (ms).
    pub kernel_start_ms: f64,
    /// Shell static-region configuration (ms).
    pub shell_load_ms: f64,
}

impl BootTiming {
    /// The Ultra96 calibration from §6.1.
    #[must_use]
    pub fn ultra96() -> Self {
        BootTiming {
            bootrom_ms: 900.0,
            measure_kernel_ms: 650.0,
            key_derivation_ms: 250.0,
            kernel_start_ms: 300.0,
            shell_load_ms: 3_000.0,
        }
    }

    /// Total boot latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.bootrom_ms
            + self.measure_kernel_ms
            + self.key_derivation_ms
            + self.kernel_start_ms
            + self.shell_load_ms
    }
}

/// Derives the attestation keys from a device signature over the kernel
/// hash, per §4: the signature seeds a key generator.
#[must_use]
pub fn derive_attestation_keys(
    device_key: &SigningKey,
    kernel_hash: &[u8; 32],
) -> (SigningKey, EciesKeyPair) {
    let mut msg = b"shef.attest-seed.v1".to_vec();
    msg.extend_from_slice(kernel_hash);
    let sig = device_key.sign(&msg);
    let digest = Sha512::digest(&sig.0);
    let sign_seed: [u8; 32] = digest[..32].try_into().expect("lower half");
    let mut dh_drbg = HmacDrbg::from_seed(&digest);
    dh_drbg.reseed(b"shef.attest.dh");
    let sign_key = SigningKey::from_seed(&sign_seed);
    let dh_key = EciesKeyPair::generate(&mut dh_drbg);
    (sign_key, dh_key)
}

/// Executes the full secure boot chain on a board.
///
/// On success the Security Kernel is running on the dedicated processor
/// with the attestation keys in its private memory, and the tamper
/// monitors are armed.
///
/// # Errors
///
/// * [`ShefError::Fpga`] if BootROM rejects the firmware or images are
///   missing.
/// * [`ShefError::Malformed`] if the firmware payload is corrupt.
pub fn secure_boot(board: &mut Board) -> Result<BootReport, ShefError> {
    // 1. BootROM: decrypt + authenticate the SPB firmware.
    let enc_fw = board.boot_medium.load(image_names::SPB_FIRMWARE)?.to_vec();
    let payload_bytes = board
        .device
        .spb
        .boot_rom(&mut board.device.keystore, &enc_fw)?;
    let firmware = FirmwarePayload::from_bytes(&payload_bytes)?;
    let device_key = firmware.device_signing_key();

    // 2. Firmware measures the Security Kernel.
    let kernel = board
        .boot_medium
        .load(image_names::SECURITY_KERNEL)?
        .to_vec();
    let kernel_hash = Sha256::digest(&kernel);

    // 3. Attestation keys bound to (device, kernel).
    let (attest_sign, attest_dh) = derive_attestation_keys(&device_key, &kernel_hash);
    let attest_sign_public = attest_sign.verifying_key();
    let attest_dh_public = attest_dh.public_key().0;
    let sigma_seckrnl = device_key.sign(&seckrnl_cert_message(
        &kernel_hash,
        &attest_sign_public,
        &attest_dh_public,
    ));

    // 4. Load the kernel onto the dedicated processor; hand it the keys
    //    through on-chip shared memory. The kernel never sees the device
    //    key itself.
    board.device.sk_processor.load_kernel(KernelImage {
        binary: kernel,
        hash: kernel_hash,
    });
    let mem = board.device.sk_processor.private_memory();
    // Reconstruct seeds the same way derive_attestation_keys did: store
    // the generator inputs rather than raw secrets where possible.
    mem.store(
        slots::ATTEST_SIGN_SEED,
        attest_sign_seed_bytes(&device_key, &kernel_hash).to_vec(),
    );
    mem.store(
        slots::ATTEST_DH_SEED,
        attest_dh_seed_bytes(&device_key, &kernel_hash).to_vec(),
    );
    mem.store(slots::SIGMA_SECKRNL, sigma_seckrnl.0.to_vec());
    mem.store(slots::KERNEL_HASH, kernel_hash.to_vec());

    // 5. The kernel starts its continuous monitors.
    board.device.ports.arm_monitors();

    Ok(BootReport {
        kernel_hash,
        attest_sign_public,
        attest_dh_public,
        sigma_seckrnl,
        timing: BootTiming::ultra96(),
    })
}

/// Seed bytes for the attestation signing key (shared derivation between
/// the firmware and the kernel's private-memory copy).
fn attest_sign_seed_bytes(device_key: &SigningKey, kernel_hash: &[u8; 32]) -> [u8; 32] {
    let mut msg = b"shef.attest-seed.v1".to_vec();
    msg.extend_from_slice(kernel_hash);
    let sig = device_key.sign(&msg);
    let digest = Sha512::digest(&sig.0);
    digest[..32].try_into().expect("lower half")
}

/// Seed bytes for the attestation DH key.
fn attest_dh_seed_bytes(device_key: &SigningKey, kernel_hash: &[u8; 32]) -> [u8; 64] {
    let mut msg = b"shef.attest-seed.v1".to_vec();
    msg.extend_from_slice(kernel_hash);
    let sig = device_key.sign(&msg);
    Sha512::digest(&sig.0)
}

/// Reconstructs the Security Kernel's attestation keys from private
/// memory (what kernel code does at runtime).
///
/// # Errors
///
/// Returns [`ShefError::BootFailed`] if the kernel was not booted.
pub fn kernel_attestation_keys(board: &mut Board) -> Result<(SigningKey, EciesKeyPair), ShefError> {
    let mem = board.device.sk_processor.private_memory();
    let sign_seed = mem
        .load(slots::ATTEST_SIGN_SEED)
        .ok_or_else(|| ShefError::BootFailed("attestation keys not provisioned".into()))?;
    let sign_seed: [u8; 32] = sign_seed
        .try_into()
        .map_err(|_| ShefError::BootFailed("corrupt attestation seed".into()))?;
    let dh_seed = mem
        .load(slots::ATTEST_DH_SEED)
        .ok_or_else(|| ShefError::BootFailed("attestation DH seed missing".into()))?
        .to_vec();
    let sign_key = SigningKey::from_seed(&sign_seed);
    let mut dh_drbg = HmacDrbg::from_seed(&dh_seed);
    dh_drbg.reseed(b"shef.attest.dh");
    let dh_key = EciesKeyPair::generate(&mut dh_drbg);
    Ok((sign_key, dh_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_fpga::keystore::KeyProtection;
    use shef_fpga::spb::seal_firmware;

    fn provisioned_board() -> Board {
        let mut board = Board::new(b"die-boot-test");
        let device_aes = [0x10u8; 32];
        board
            .device
            .keystore
            .burn_aes_key(device_aes, KeyProtection::PufWrapped)
            .unwrap();
        let fw = FirmwarePayload {
            device_key_seed: [0x20u8; 32],
        };
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&device_aes, &fw.to_bytes()),
        );
        board.boot_medium.store(
            image_names::SECURITY_KERNEL,
            b"shef security kernel v1".to_vec(),
        );
        board
    }

    #[test]
    fn boot_succeeds_on_provisioned_board() {
        let mut board = provisioned_board();
        let report = secure_boot(&mut board).unwrap();
        assert!(board.device.sk_processor.is_running());
        assert!(board.device.ports.monitors_armed());
        assert_eq!(
            report.kernel_hash,
            Sha256::digest(b"shef security kernel v1")
        );
    }

    #[test]
    fn attestation_key_bound_to_kernel_binary() {
        let mut board = provisioned_board();
        let report1 = secure_boot(&mut board).unwrap();
        // Same device, same kernel → same identity on re-boot.
        board.device.power_cycle();
        let report2 = secure_boot(&mut board).unwrap();
        assert_eq!(report1.attest_sign_public, report2.attest_sign_public);
        // Different kernel → different identity.
        board.device.power_cycle();
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, b"EVIL kernel".to_vec());
        let report3 = secure_boot(&mut board).unwrap();
        assert_ne!(report1.attest_sign_public, report3.attest_sign_public);
        assert_ne!(report1.kernel_hash, report3.kernel_hash);
    }

    #[test]
    fn sigma_seckrnl_verifies_under_device_key() {
        let mut board = provisioned_board();
        let report = secure_boot(&mut board).unwrap();
        let device_public = SigningKey::from_seed(&[0x20u8; 32]).verifying_key();
        let msg = seckrnl_cert_message(
            &report.kernel_hash,
            &report.attest_sign_public,
            &report.attest_dh_public,
        );
        device_public.verify(&msg, &report.sigma_seckrnl).unwrap();
    }

    #[test]
    fn kernel_keys_recoverable_from_private_memory() {
        let mut board = provisioned_board();
        let report = secure_boot(&mut board).unwrap();
        let (sign, dh) = kernel_attestation_keys(&mut board).unwrap();
        assert_eq!(sign.verifying_key(), report.attest_sign_public);
        assert_eq!(dh.public_key().0, report.attest_dh_public);
    }

    #[test]
    fn boot_fails_with_wrong_device_key_firmware() {
        let mut board = provisioned_board();
        // Replace firmware with one sealed under a different AES key.
        let fw = FirmwarePayload {
            device_key_seed: [0x20u8; 32],
        };
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0xEEu8; 32], &fw.to_bytes()),
        );
        assert!(secure_boot(&mut board).is_err());
        assert!(!board.device.sk_processor.is_running());
    }

    #[test]
    fn boot_fails_without_kernel_image() {
        let mut board = Board::new(b"die-2");
        board
            .device
            .keystore
            .burn_aes_key([0x10u8; 32], KeyProtection::EFuse)
            .unwrap();
        let fw = FirmwarePayload {
            device_key_seed: [0x20u8; 32],
        };
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0x10u8; 32], &fw.to_bytes()),
        );
        assert!(matches!(
            secure_boot(&mut board),
            Err(ShefError::Fpga(shef_fpga::FpgaError::MissingImage(_)))
        ));
    }

    #[test]
    fn unbooted_board_has_no_attestation_keys() {
        let mut board = provisioned_board();
        assert!(matches!(
            kernel_attestation_keys(&mut board),
            Err(ShefError::BootFailed(_))
        ));
    }

    #[test]
    fn boot_timing_matches_paper() {
        let t = BootTiming::ultra96();
        assert!(
            (t.total_ms() - 5_100.0).abs() < 1.0,
            "total {}",
            t.total_ms()
        );
    }

    #[test]
    fn firmware_payload_round_trip() {
        let fw = FirmwarePayload {
            device_key_seed: [7u8; 32],
        };
        let parsed = FirmwarePayload::from_bytes(&fw.to_bytes()).unwrap();
        assert_eq!(parsed.device_key_seed, fw.device_key_seed);
        assert!(FirmwarePayload::from_bytes(b"junk").is_err());
    }
}
