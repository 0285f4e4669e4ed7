//! One-call fixture wiring the whole honest attestation stack.
//!
//! [`AttestationEnvironment`] performs, deterministically from a seed,
//! everything that happens *before* a tenant shows up: the Manufacturer
//! burns an AES device key into the key store and certifies the
//! device's attestation identity; the SPB boots the measured Security
//! Kernel via [`shef_fpga::spb::Spb::boot_rom_measured`]; the kernel
//! measures a Shield bitstream; and a [`RemoteVerifier`] is stood up
//! pinning the Manufacturer root with the bitstream's measurement
//! published as known-good.
//!
//! From there, [`AttestationEnvironment::onboard`] runs one complete
//! attestation round (challenge → quote → verify → sealed DEK →
//! redeem) and hands back the [`AttestedTenant`] that services demand.
//! Tests that need to attack the protocol mid-flight use
//! [`AttestationEnvironment::kernel_mut`] /
//! [`AttestationEnvironment::verifier_mut`] to drive the steps
//! individually.
//!
//! # Example
//!
//! ```
//! use shef_attest::AttestationEnvironment;
//!
//! let mut env = AttestationEnvironment::new(b"env-doc")?;
//! let grant = env.onboard("tenant0", [7u8; 32])?;
//! assert_eq!(grant.tenant(), "tenant0");
//! // Redeeming consumed the session; the ticket cannot be re-redeemed.
//! assert!(env.kernel_mut().redeem(grant.ticket()).is_err());
//! # Ok::<(), shef_attest::AttestError>(())
//! ```

use shef_crypto::ed25519::VerifyingKey;
use shef_crypto::hkdf;
use shef_fpga::keystore::{KeyProtection, KeyStore};
use shef_fpga::spb::{seal_firmware, Spb};
use shef_telemetry::Telemetry;

use crate::identity::ManufacturerCa;
use crate::kernel::SecurityKernel;
use crate::measure::Measurement;
use crate::ticket::AttestedTenant;
use crate::verifier::RemoteVerifier;
use crate::AttestError;

/// The mock Shield bitstream a default environment measures and
/// publishes as known-good.
pub const DEMO_BITSTREAM: &[u8] = b"shef demo shield bitstream v1";

/// Chain label under which environments measure the Shield bitstream.
pub const BITSTREAM_LABEL: &str = "shield-bitstream";

/// A booted device + verifier pair (see the module docs).
#[derive(Debug)]
pub struct AttestationEnvironment {
    kernel: SecurityKernel,
    verifier: RemoteVerifier,
}

impl AttestationEnvironment {
    /// Builds the honest fixture around [`DEMO_BITSTREAM`].
    ///
    /// # Errors
    ///
    /// Propagates secure-boot or certification failures as
    /// [`AttestError`]; cannot fail for an honest seed.
    pub fn new(seed: &[u8]) -> Result<Self, AttestError> {
        Self::with_bitstream(seed, DEMO_BITSTREAM)
    }

    /// Builds the fixture measuring `bitstream` instead of the demo
    /// image (its measurement is published as known-good).
    ///
    /// # Errors
    ///
    /// Propagates secure-boot or certification failures as
    /// [`AttestError`].
    pub fn with_bitstream(seed: &[u8], bitstream: &[u8]) -> Result<Self, AttestError> {
        // Manufacturing: burn the device key, certify the identity the
        // device will derive from it.
        let device_key = hkdf::derive_key32(b"shef.attest.env.device-key.v1", seed, b"");
        let die_serial = hkdf::derive_key32(b"shef.attest.env.die-serial.v1", seed, b"");
        let ca = ManufacturerCa::from_seed(seed);
        let mut keystore = KeyStore::new(&die_serial);
        keystore
            .burn_aes_key(device_key, KeyProtection::PufWrapped)
            .map_err(|e| AttestError::State(format!("device provisioning failed: {e}")))?;

        // Secure boot: BootROM authenticates the firmware, locks the
        // key store, and hands the kernel its attestation root.
        let firmware = seal_firmware(&device_key, b"shef security kernel firmware");
        let mut spb = Spb::new();
        let (_payload, root) = spb
            .boot_rom_measured(&mut keystore, &firmware)
            .map_err(|e| AttestError::State(format!("secure boot failed: {e}")))?;

        // The Manufacturer derives the same root offline to certify.
        let device_cert = ca.certify_device(&die_serial, &root);
        let mut kernel = SecurityKernel::new(root, &die_serial, device_cert)?;
        kernel.measure(BITSTREAM_LABEL, bitstream);

        // The Data Owner's verifier pins the Manufacturer root and
        // publishes the audited bitstream measurement.
        let mut verifier = RemoteVerifier::from_seed(seed, ca.root_public());
        verifier.publish_measurement(kernel.measurement()?);
        Ok(AttestationEnvironment { kernel, verifier })
    }

    /// Runs one full attestation round for `tenant`, sealing `dek` to
    /// the enclave and redeeming the resulting ticket on-device.
    ///
    /// # Errors
    ///
    /// Propagates any protocol failure as its typed [`AttestError`];
    /// cannot fail while kernel and verifier are the honest pair built
    /// by the constructor.
    pub fn onboard(&mut self, tenant: &str, dek: [u8; 32]) -> Result<AttestedTenant, AttestError> {
        let challenge = self.verifier.challenge();
        let quote = self.kernel.quote(&challenge)?;
        let ticket = self.verifier.verify_and_provision(&quote, tenant, dek)?;
        self.kernel.redeem(&ticket)
    }

    /// The verifier's ticket-signing public key — what a service pins
    /// as its trusted verifier.
    #[must_use]
    pub fn verifier_public(&self) -> VerifyingKey {
        self.verifier.public_key()
    }

    /// The measurement the environment's kernel currently attests to.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::State`] only if the kernel was reset out
    /// from under the fixture.
    pub fn measurement(&self) -> Result<Measurement, AttestError> {
        self.kernel.measurement()
    }

    /// The device-side kernel (mutable, for driving protocol steps or
    /// attacks individually).
    pub fn kernel_mut(&mut self) -> &mut SecurityKernel {
        &mut self.kernel
    }

    /// The device-side kernel.
    #[must_use]
    pub fn kernel(&self) -> &SecurityKernel {
        &self.kernel
    }

    /// The Data Owner's verifier (mutable).
    pub fn verifier_mut(&mut self) -> &mut RemoteVerifier {
        &mut self.verifier
    }

    /// The Data Owner's verifier.
    #[must_use]
    pub fn verifier(&self) -> &RemoteVerifier {
        &self.verifier
    }

    /// Registers `shield.attest.*` counters for both protocol ends.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.kernel.attach_telemetry(telemetry);
        self.verifier.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onboard_is_deterministic_per_seed() {
        let mut a = AttestationEnvironment::new(b"det").unwrap();
        let mut b = AttestationEnvironment::new(b"det").unwrap();
        let ga = a.onboard("alice", [3u8; 32]).unwrap();
        let gb = b.onboard("alice", [3u8; 32]).unwrap();
        assert_eq!(ga.ticket(), gb.ticket());
        assert_eq!(ga.data_key(), gb.data_key());
    }

    #[test]
    fn different_seeds_yield_different_verifiers() {
        let a = AttestationEnvironment::new(b"seed-a").unwrap();
        let b = AttestationEnvironment::new(b"seed-b").unwrap();
        assert_ne!(a.verifier_public(), b.verifier_public());
    }

    #[test]
    fn onboard_telemetry_counts_one_round() {
        let tele = Telemetry::new();
        let mut env = AttestationEnvironment::new(b"tele").unwrap();
        env.attach_telemetry(&tele);
        env.onboard("alice", [1u8; 32]).unwrap();
        let report = tele.report();
        assert_eq!(report.counters["shield.attest.verifier.challenges"], 1);
        assert_eq!(report.counters["shield.attest.verifier.verified"], 1);
        assert_eq!(report.counters["shield.attest.kernel.quotes"], 1);
        assert_eq!(report.counters["shield.attest.kernel.redeemed"], 1);
    }
}
