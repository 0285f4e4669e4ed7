//! The ShEF secure boot chain (§3 steps 6–7, §4 "Secure Boot").
//!
//! ```text
//! BootROM ──decrypts──▶ SPB firmware ──boots──▶ Security Kernel
//!    │                        │                        │
//!    └─ AES device key        └─ device certificate    └─ Attestation Key
//!       (e-fuses) → root         (Manufacturer-signed)    HKDF(root ‖ measurement)
//! ```
//!
//! BootROM decrypts the Manufacturer's SPB firmware with the e-fuse
//! device key and derives the
//! [`AttestationRoot`](shef_attest::AttestationRoot) from that key
//! before locking the key store
//! ([`shef_fpga::spb::Spb::boot_rom_measured`]).
//! The firmware payload is the device's certificate from the
//! Manufacturer CA. The Security Kernel ([`shef_attest::SecurityKernel`])
//! starts from the root and that certificate, then measures the
//! Security Kernel binary and the staged encrypted accelerator
//! bitstream into its chain; its Attestation Key is derived from root ‖
//! measurement. Because the derivation is deterministic, re-booting the
//! same kernel and bitstream on the same device reproduces the same
//! identity, exactly as the paper intends, while an unaudited kernel or
//! a swapped bitstream yields a measurement no vendor has published.

use std::sync::atomic::{AtomicU64, Ordering};

use shef_attest::{DeviceCert, Measurement, MeasurementChain, SecurityKernel};
use shef_crypto::ed25519::VerifyingKey;
use shef_crypto::sha2::Sha256;
use shef_fpga::board::{image_names, Board};
use shef_fpga::processor::KernelImage;

use crate::bitstream::EncryptedBitstream;
use crate::ShefError;

/// Private-memory slot holding the boot this kernel instance belongs
/// to; a power cycle, halt or re-boot clears or replaces it.
const BOOT_EPOCH_SLOT: &str = "boot-epoch";

/// Source of boot epochs: every [`secure_boot`] gets a fresh one.
static BOOT_EPOCHS: AtomicU64 = AtomicU64::new(0);

/// The measurement a Security Kernel reports after booting `kernel`
/// with `accelerator` staged: the chain over both images, in boot
/// order. IP Vendors publish it for each audited kernel and product.
#[must_use]
pub fn deployment_measurement(kernel: &[u8], accelerator: &[u8]) -> Measurement {
    let mut chain = MeasurementChain::new();
    chain.extend(image_names::SECURITY_KERNEL, kernel);
    chain.extend(image_names::ACCELERATOR_BITSTREAM, accelerator);
    chain.current()
}

/// Public outcome of a successful secure boot.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// SHA-256 of the Security Kernel binary.
    pub kernel_hash: [u8; 32],
    /// The kernel's measurement (see [`deployment_measurement`]).
    pub measurement: Measurement,
    /// The quote-signing half of the Attestation Key.
    pub ak_public: VerifyingKey,
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

/// The Security Kernel of one boot of one board: the `shef-attest`
/// kernel model plus the encrypted accelerator it measured. It serves
/// only while the board's processor still runs that boot — after a
/// power cycle, a tamper halt or another [`secure_boot`] every call
/// fails with [`ShefError::BootFailed`]. Its attestation duties live in
/// [`crate::attest`].
pub struct BootedKernel {
    pub(crate) kernel: SecurityKernel,
    pub(crate) accelerator: EncryptedBitstream,
    report: BootReport,
    epoch: u64,
}

impl core::fmt::Debug for BootedKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BootedKernel")
            .field("kernel", &self.kernel)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl BootedKernel {
    /// The public boot outcome.
    #[must_use]
    pub fn report(&self) -> &BootReport {
        &self.report
    }

    /// Fails unless `board`'s processor is still running this boot.
    pub(crate) fn ensure_running(&self, board: &Board) -> Result<(), ShefError> {
        let processor = &board.device.sk_processor;
        let epoch = processor.private_memory_ref().load(BOOT_EPOCH_SLOT);
        if processor.is_running() && epoch == Some(&self.epoch.to_le_bytes()[..]) {
            Ok(())
        } else {
            Err(ShefError::BootFailed(
                "the Security Kernel of this boot is no longer running".into(),
            ))
        }
    }
}

/// Executes the full secure boot chain on a board whose encrypted
/// accelerator bitstream is already staged.
///
/// On success the Security Kernel is running on the dedicated processor
/// and the tamper monitors are armed; the returned [`BootedKernel`]
/// quotes and receives the Bitstream Key ([`crate::attest`]).
///
/// # Errors
///
/// * [`ShefError::Fpga`] if BootROM rejects the firmware or images are
///   missing.
/// * [`ShefError::AttestationFailed`] if the firmware payload is not a
///   device certificate for the identity this device derives.
pub fn secure_boot(board: &mut Board) -> Result<BootedKernel, ShefError> {
    // 1. BootROM: decrypt + authenticate the SPB firmware, derive the
    //    attestation root, lock the key store.
    let enc_fw = board.boot_medium.load(image_names::SPB_FIRMWARE)?.to_vec();
    let (firmware, root) = board
        .device
        .spb
        .boot_rom_measured(&mut board.device.keystore, &enc_fw)?;
    let device_cert = DeviceCert::from_bytes(&firmware)?;

    // 2. Read the images to measure.
    let binary = board
        .boot_medium
        .load(image_names::SECURITY_KERNEL)?
        .to_vec();
    let accelerator = EncryptedBitstream(
        board
            .boot_medium
            .load(image_names::ACCELERATOR_BITSTREAM)?
            .to_vec(),
    );

    // 3. The kernel starts from the root and its certificate and
    //    measures both images; its Attestation Key follows.
    let mut kernel = SecurityKernel::new(root, board.device.die_serial(), device_cert)?;
    kernel.measure(image_names::SECURITY_KERNEL, &binary);
    kernel.measure(image_names::ACCELERATOR_BITSTREAM, &accelerator.0);
    let kernel_hash = Sha256::digest(&binary);
    let report = BootReport {
        kernel_hash,
        measurement: kernel.measurement()?,
        ak_public: kernel.ak_cert()?.ak_public,
        timing: BootTiming::ultra96(),
    };

    // 4. Load the kernel onto the dedicated processor and mark this
    //    boot in its private memory.
    let epoch = BOOT_EPOCHS.fetch_add(1, Ordering::Relaxed);
    let processor = &mut board.device.sk_processor;
    processor.load_kernel(KernelImage {
        binary,
        hash: kernel_hash,
    });
    processor
        .private_memory()
        .store(BOOT_EPOCH_SLOT, epoch.to_le_bytes().to_vec());

    // 5. The kernel starts its continuous monitors.
    board.device.ports.arm_monitors();

    Ok(BootedKernel {
        kernel,
        accelerator,
        report,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_attest::{AttestError, AttestationRoot, ManufacturerCa};
    use shef_fpga::keystore::KeyProtection;
    use shef_fpga::spb::seal_firmware;

    const DIE: &[u8] = b"die-boot-test";
    const KERNEL: &[u8] = b"shef security kernel v1";
    const ACCEL: &[u8] = b"staged encrypted accelerator";

    fn ca() -> ManufacturerCa {
        ManufacturerCa::from_seed(b"boot-tests")
    }

    fn device_cert() -> DeviceCert {
        ca().certify_device(DIE, &AttestationRoot::from_device_key(&[0x10u8; 32]))
    }

    fn provisioned_board() -> Board {
        let mut board = Board::new(DIE);
        let device_aes = [0x10u8; 32];
        board
            .device
            .keystore
            .burn_aes_key(device_aes, KeyProtection::PufWrapped)
            .unwrap();
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&device_aes, &device_cert().to_bytes()),
        );
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, KERNEL.to_vec());
        board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, ACCEL.to_vec());
        board
    }

    #[test]
    fn boot_succeeds_on_provisioned_board() {
        let mut board = provisioned_board();
        let report = secure_boot(&mut board).unwrap().report().clone();
        assert!(board.device.sk_processor.is_running());
        assert!(board.device.ports.monitors_armed());
        assert_eq!(report.kernel_hash, Sha256::digest(KERNEL));
        assert_eq!(report.measurement, deployment_measurement(KERNEL, ACCEL));
    }

    #[test]
    fn attestation_key_bound_to_kernel_binary() {
        let mut board = provisioned_board();
        let report1 = secure_boot(&mut board).unwrap().report().clone();
        // Same device, same kernel → same identity on re-boot.
        board.device.power_cycle();
        let report2 = secure_boot(&mut board).unwrap().report().clone();
        assert_eq!(report1.ak_public, report2.ak_public);
        // Different kernel → different identity.
        board.device.power_cycle();
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, b"EVIL kernel".to_vec());
        let report3 = secure_boot(&mut board).unwrap().report().clone();
        assert_ne!(report1.ak_public, report3.ak_public);
        assert_ne!(report1.kernel_hash, report3.kernel_hash);
        assert_ne!(report1.measurement, report3.measurement);
    }

    #[test]
    fn sigma_seckrnl_verifies_under_device_key() {
        // The paper's σ_SecKrnl — the device key's signature over the
        // kernel measurement and the Attestation Key — is the kernel's
        // AK certificate, checked under the Manufacturer-certified
        // device key.
        let mut board = provisioned_board();
        let kernel = secure_boot(&mut board).unwrap();
        let ak_cert = kernel.kernel.ak_cert().unwrap();
        let device_cert = kernel.kernel.device_cert();
        device_cert.verify(&ca().root_public()).unwrap();
        ak_cert.verify(&device_cert.device_public).unwrap();
        assert_eq!(ak_cert.measurement, deployment_measurement(KERNEL, ACCEL));
    }

    #[test]
    fn boot_fails_with_wrong_device_key_firmware() {
        let mut board = provisioned_board();
        // Replace firmware with one sealed under a different AES key.
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0xEEu8; 32], &device_cert().to_bytes()),
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
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0x10u8; 32], &device_cert().to_bytes()),
        );
        assert!(matches!(
            secure_boot(&mut board),
            Err(ShefError::Fpga(shef_fpga::FpgaError::MissingImage(_)))
        ));
    }

    #[test]
    fn unbooted_board_has_no_attestation_keys() {
        let mut board = provisioned_board();
        let kernel = secure_boot(&mut board).unwrap();
        kernel.ensure_running(&board).unwrap();
        // A power cycle ends the boot, and a new boot does not revive
        // the old kernel instance.
        board.device.power_cycle();
        assert!(matches!(
            kernel.ensure_running(&board),
            Err(ShefError::BootFailed(_))
        ));
        let again = secure_boot(&mut board).unwrap();
        again.ensure_running(&board).unwrap();
        assert!(matches!(
            kernel.ensure_running(&board),
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
        // The sealed firmware carries the device certificate the
        // kernel boots with.
        let mut board = provisioned_board();
        let kernel = secure_boot(&mut board).unwrap();
        assert_eq!(kernel.kernel.device_cert(), &device_cert());
        // A payload that is not a certificate fails the boot, and so
        // does a genuine certificate for another device.
        for payload in [
            b"junk".to_vec(),
            ca().certify_device(DIE, &AttestationRoot::from_device_key(&[0x99u8; 32]))
                .to_bytes(),
        ] {
            let mut board = provisioned_board();
            board.boot_medium.store(
                image_names::SPB_FIRMWARE,
                seal_firmware(&[0x10u8; 32], &payload),
            );
            assert!(matches!(
                secure_boot(&mut board),
                Err(ShefError::AttestationFailed(
                    AttestError::Malformed(_) | AttestError::CertChain(_)
                ))
            ));
        }
    }
}
