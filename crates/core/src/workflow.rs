//! The four parties of Fig. 2 and the eleven-step ShEF lifecycle.
//!
//! * [`Manufacturer`] — fabricates devices, burns keys, runs the CA.
//! * [`Csp`] — racks boards, loads the Shell, sells instances.
//! * [`IpVendor`] — develops shielded accelerators, distributes
//!   encrypted bitstreams, and releases their keys through a
//!   [`RemoteVerifier`].
//! * [`DataOwner`] — rents an instance, orchestrates boot + attestation,
//!   provisions keys and data, runs the accelerator.
//!
//! The lifecycle is exercised end-to-end by `tests/end_to_end.rs` and the
//! `quickstart` example.

use std::collections::BTreeMap;

use shef_attest::{
    AttestationRoot, BitstreamKeyTicket, Challenge, DeviceCert, ManufacturerCa, Measurement, Quote,
    RemoteVerifier,
};
use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::EciesPublicKey;
use shef_crypto::ed25519::VerifyingKey;
use shef_fpga::board::{image_names, Board};
use shef_fpga::keystore::KeyProtection;
use shef_fpga::spb::seal_firmware;

use crate::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use crate::boot::{deployment_measurement, secure_boot, BootedKernel};
use crate::shield::{DataEncryptionKey, LoadKey, Shield, ShieldConfig};
use crate::ShefError;

/// The canonical open-source Security Kernel binary used across the
/// workspace. Vendors audit it and publish its measurements.
pub const SECURITY_KERNEL_BINARY: &[u8] = b"shef-security-kernel v1.0 (open source)";

/// The FPGA Manufacturer: provisions devices and operates the root CA
/// (a [`ManufacturerCa`]).
pub struct Manufacturer {
    ca: ManufacturerCa,
    /// The published device directory: die serial → certificate.
    certs: BTreeMap<Vec<u8>, DeviceCert>,
    rng: HmacDrbg,
}

impl core::fmt::Debug for Manufacturer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Manufacturer")
            .field("ca", &self.ca)
            .field("devices", &self.certs.len())
            .finish_non_exhaustive()
    }
}

impl Manufacturer {
    /// Creates a manufacturer with a deterministic CA root.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca_seed = rng.generate_array::<32>();
        Manufacturer {
            ca: ManufacturerCa::from_seed(&ca_seed),
            certs: BTreeMap::new(),
            rng,
        }
    }

    /// The CA root key all parties pin.
    #[must_use]
    pub fn ca_root(&self) -> VerifyingKey {
        self.ca.root_public()
    }

    /// Looks up the published certificate of a device by die serial.
    #[must_use]
    pub fn device_cert(&self, die_serial: &[u8]) -> Option<&DeviceCert> {
        self.certs.get(die_serial)
    }

    /// Fig. 2 steps 1–2: burns the AES device key, certifies the
    /// attestation identity the device derives from it, and ships that
    /// certificate as the AES-sealed SPB firmware.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Fpga`] if the device was already provisioned.
    pub fn provision_device(&mut self, board: &mut Board) -> Result<(), ShefError> {
        let aes_key = self.rng.generate_array::<32>();
        board
            .device
            .keystore
            .burn_aes_key(aes_key, KeyProtection::PufWrapped)?;
        let die_serial = board.device.die_serial().to_vec();
        let cert = self
            .ca
            .certify_device(&die_serial, &AttestationRoot::from_device_key(&aes_key));
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&aes_key, &cert.to_bytes()),
        );
        self.certs.insert(die_serial, cert);
        Ok(())
    }
}

/// The Cloud Service Provider: owns boards and the Shell.
#[derive(Debug, Default)]
pub struct Csp {
    shell_version: String,
}

impl Csp {
    /// Creates a CSP deploying the given Shell version.
    #[must_use]
    pub fn new(shell_version: &str) -> Self {
        Csp {
            shell_version: shell_version.to_owned(),
        }
    }

    /// Racks a provisioned board: stages the Security Kernel and loads
    /// the Shell static region (done through the Security Kernel in the
    /// real flow; the CSP "can fully control and audit the Shell loading
    /// process", §3).
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Fpga`] if the Shell is already resident.
    pub fn rack_board(&self, board: &mut Board) -> Result<(), ShefError> {
        board.boot_medium.store(
            image_names::SECURITY_KERNEL,
            SECURITY_KERNEL_BINARY.to_vec(),
        );
        board
            .device
            .fabric
            .load_shell(&self.shell_version, b"aws-f1-shell-logic")?;
        Ok(())
    }
}

/// A packaged accelerator product on the vendor's marketplace page.
#[derive(Debug, Clone)]
pub struct AcceleratorProduct {
    /// Marketplace identifier.
    pub accel_id: String,
    /// The encrypted partial bitstream customers download.
    pub encrypted_bitstream: EncryptedBitstream,
    /// Public Shield Encryption Key for Load-Key construction.
    pub shield_public: EciesPublicKey,
}

/// The IP Vendor: develops accelerators and releases their Bitstream
/// Keys to attested Security Kernels.
pub struct IpVendor {
    name: String,
    rng: HmacDrbg,
    verifier: RemoteVerifier,
    audited_kernels: Vec<Vec<u8>>,
    /// Deployment measurement → (product, its Bitstream Key).
    releases: BTreeMap<Measurement, (String, BitstreamKey)>,
}

impl core::fmt::Debug for IpVendor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IpVendor")
            .field("name", &self.name)
            .field("releases", &self.releases.len())
            .finish_non_exhaustive()
    }
}

impl IpVendor {
    /// Creates a vendor trusting the given CA root and the Security
    /// Kernel binaries it audited (§3: "a public list of ShEF Security
    /// Kernel … hashes").
    #[must_use]
    pub fn new(name: &str, ca_root: VerifyingKey, audited_kernels: &[&[u8]]) -> Self {
        IpVendor {
            name: name.to_owned(),
            rng: HmacDrbg::from_seed(format!("shef.vendor.{name}").as_bytes()),
            verifier: RemoteVerifier::from_seed(
                format!("shef.vendor.{name}.verifier").as_bytes(),
                ca_root,
            ),
            audited_kernels: audited_kernels.iter().map(|k| k.to_vec()).collect(),
            releases: BTreeMap::new(),
        }
    }

    /// Vendor name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fig. 2 steps 3–4: wraps accelerator logic with a Shield config,
    /// provisions the Shield Encryption Key and Bitstream Encryption
    /// Key, and publishes the encrypted bitstream — together with the
    /// measurement each audited kernel reports when booted with it.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] for bad Shield configs.
    pub fn package_accelerator(
        &mut self,
        accel_id: &str,
        shield_config: ShieldConfig,
        logic: Vec<u8>,
    ) -> Result<AcceleratorProduct, ShefError> {
        shield_config.validate()?;
        let shield_key_seed = self.rng.generate_array::<32>();
        let bitstream_key = BitstreamKey(self.rng.generate_array::<32>());
        let bitstream = Bitstream {
            accel_id: accel_id.to_owned(),
            shield_config,
            shield_key_seed,
            logic,
        };
        let product = AcceleratorProduct {
            accel_id: accel_id.to_owned(),
            encrypted_bitstream: EncryptedBitstream::seal(&bitstream, &bitstream_key),
            shield_public: bitstream.shield_keypair().public_key(),
        };
        for kernel in &self.audited_kernels {
            let measurement = deployment_measurement(kernel, &product.encrypted_bitstream.0);
            self.verifier.publish_measurement(measurement);
            self.releases
                .insert(measurement, (accel_id.to_owned(), bitstream_key.clone()));
        }
        Ok(product)
    }

    /// Fig. 3 steps 1–2: a fresh challenge for the Security Kernel.
    pub fn challenge(&mut self) -> Challenge {
        self.verifier.challenge()
    }

    /// Fig. 3 steps 5–6: verifies the kernel's quote and seals the
    /// Bitstream Key of the product it measured to the attested
    /// session. Each challenge releases at most one key.
    ///
    /// # Errors
    ///
    /// [`ShefError::AttestationFailed`] with the typed
    /// [`shef_attest::AttestError`] of the first failed check;
    /// [`shef_attest::AttestError::UnknownMeasurement`] when the quoted
    /// measurement is no audited kernel booted with one of this vendor's
    /// products.
    pub fn release_bitstream_key(
        &mut self,
        quote: &Quote,
    ) -> Result<BitstreamKeyTicket, ShefError> {
        let Some((accel_id, key)) = self.releases.get(&quote.measurement) else {
            return Err(
                shef_attest::AttestError::UnknownMeasurement(quote.measurement.to_hex()).into(),
            );
        };
        Ok(self.verifier.verify_and_release(quote, accel_id, key.0)?)
    }
}

/// A fully attested, programmed FPGA instance, ready for data.
pub struct ProgrammedInstance {
    /// The board (host + device).
    pub board: Board,
    /// The Shield instantiated in the PR region.
    pub shield: Shield,
    /// The accelerator id carried by the loaded bitstream.
    pub accel_id: String,
    /// Opaque accelerator logic payload from the bitstream.
    pub logic: Vec<u8>,
    /// The Security Kernel of this boot (its report is the audit
    /// record).
    pub kernel: BootedKernel,
}

impl core::fmt::Debug for ProgrammedInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProgrammedInstance")
            .field("accel_id", &self.accel_id)
            .finish_non_exhaustive()
    }
}

/// The Data Owner: orchestrates the end-to-end flow.
pub struct DataOwner {
    rng: HmacDrbg,
}

impl core::fmt::Debug for DataOwner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DataOwner").finish_non_exhaustive()
    }
}

impl DataOwner {
    /// Creates a data owner with deterministic key material.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        DataOwner {
            rng: HmacDrbg::from_seed(seed),
        }
    }

    /// Fig. 2 steps 5–10: rents the board, stages the vendor's encrypted
    /// bitstream, triggers secure boot, relays challenge → quote →
    /// ticket → redeem between the IP Vendor and the Security Kernel,
    /// and lets the kernel load the accelerator. Returns the programmed
    /// instance.
    ///
    /// # Errors
    ///
    /// Propagates boot, attestation, and fabric errors; fails if the
    /// loaded design does not match the requested product.
    pub fn deploy(
        &mut self,
        mut board: Board,
        vendor: &mut IpVendor,
        product: &AcceleratorProduct,
    ) -> Result<(ProgrammedInstance, DataEncryptionKey), ShefError> {
        // Stage the encrypted bitstream on the instance.
        board.boot_medium.store(
            image_names::ACCELERATOR_BITSTREAM,
            product.encrypted_bitstream.0.clone(),
        );
        // Secure boot measures the kernel and the staged bitstream.
        let mut kernel = secure_boot(&mut board)?;
        // Attestation: the Data Owner relays messages over untrusted
        // channels; contents are signed/sealed end to end.
        let challenge = vendor.challenge();
        let quote = kernel.quote(&board, &challenge)?;
        let ticket = vendor.release_bitstream_key(&quote)?;
        // Kernel redeems the key, decrypts + loads the accelerator.
        let bitstream = kernel.load_accelerator(&mut board, &ticket)?;
        if bitstream.accel_id != product.accel_id {
            return Err(ShefError::ProtocolViolation(
                "bitstream/product mismatch".into(),
            ));
        }
        // Shield comes alive inside the PR region.
        let shield = Shield::new(bitstream.shield_config.clone(), bitstream.shield_keypair())?;
        debug_assert_eq!(shield.public_key(), product.shield_public);
        // Data Owner generates the Data Encryption Key and provisions it
        // through the Load Key.
        let dek = DataEncryptionKey::from_bytes(self.rng.generate_array::<32>());
        let load_key = dek.to_load_key(&product.shield_public);
        let mut instance = ProgrammedInstance {
            board,
            shield,
            accel_id: bitstream.accel_id,
            logic: bitstream.logic,
            kernel,
        };
        instance.shield.provision_load_key(&load_key)?;
        Ok((instance, dek))
    }

    /// Generates a standalone Data Encryption Key (multi-Shield setups).
    #[must_use]
    pub fn generate_data_key(&mut self) -> DataEncryptionKey {
        DataEncryptionKey::from_bytes(self.rng.generate_array::<32>())
    }

    /// Builds a Load Key for an additional Shield module.
    #[must_use]
    pub fn build_load_key(
        &self,
        dek: &DataEncryptionKey,
        shield_public: &EciesPublicKey,
    ) -> LoadKey {
        dek.to_load_key(shield_public)
    }
}

/// Convenience: the complete environment for tests and examples.
pub struct TestBench {
    /// The manufacturer and CA.
    pub manufacturer: Manufacturer,
    /// The CSP.
    pub csp: Csp,
    /// The vendor, auditing [`SECURITY_KERNEL_BINARY`].
    pub vendor: IpVendor,
    /// The data owner.
    pub data_owner: DataOwner,
}

impl core::fmt::Debug for TestBench {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TestBench").finish_non_exhaustive()
    }
}

impl TestBench {
    /// Builds the standard four-party environment.
    #[must_use]
    pub fn new(scenario: &str) -> Self {
        let manufacturer = Manufacturer::new(format!("manufacturer.{scenario}").as_bytes());
        let vendor = IpVendor::new(
            "acme-accel",
            manufacturer.ca_root(),
            &[SECURITY_KERNEL_BINARY],
        );
        TestBench {
            manufacturer,
            csp: Csp::new("aws-f1-shell-v1.4"),
            vendor,
            data_owner: DataOwner::new(format!("data-owner.{scenario}").as_bytes()),
        }
    }

    /// Provisions and racks a fresh board.
    ///
    /// # Errors
    ///
    /// Propagates provisioning errors.
    pub fn fresh_board(&mut self, die_serial: &[u8]) -> Result<Board, ShefError> {
        let mut board = Board::new(die_serial);
        self.manufacturer.provision_device(&mut board)?;
        self.csp.rack_board(&mut board)?;
        Ok(board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::{EngineSetConfig, MemRange, WorkerPool};

    fn shield_config() -> ShieldConfig {
        ShieldConfig::builder()
            .region(
                "data",
                MemRange::new(0, 1 << 20),
                EngineSetConfig {
                    zero_fill_writes: true,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap()
    }

    #[test]
    fn full_lifecycle() {
        let mut bench = TestBench::new("lifecycle");
        let board = bench.fresh_board(b"die-001").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![0xAA; 64])
            .unwrap();
        let (instance, _dek) = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &product)
            .unwrap();
        assert_eq!(instance.accel_id, "demo");
        assert!(instance.shield.is_provisioned());
        assert!(instance.board.device.ports.monitors_armed());
    }

    #[test]
    fn manufacturer_directory_lists_provisioned_devices() {
        let mut bench = TestBench::new("directory");
        bench.fresh_board(b"die-7").unwrap();
        let cert = bench.manufacturer.device_cert(b"die-7").unwrap();
        assert_eq!(cert.die_serial, b"die-7");
        cert.verify(&bench.manufacturer.ca_root()).unwrap();
        assert!(bench.manufacturer.device_cert(b"die-8").is_none());
    }

    #[test]
    fn unprovisioned_device_cannot_deploy() {
        let mut bench = TestBench::new("unprov");
        // Board with no manufacturer provisioning.
        let mut board = Board::new(b"grey-market-die");
        bench.csp.rack_board(&mut board).unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let err = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &product)
            .unwrap_err();
        // Boot fails at the key store: nothing burned.
        assert!(matches!(err, ShefError::Fpga(_)));
    }

    #[test]
    fn device_from_other_manufacturer_rejected() {
        let mut bench = TestBench::new("two-makers");
        // A second manufacturer provisions the board, but the vendor
        // trusts only the first CA.
        let mut rogue = Manufacturer::new(b"rogue-maker");
        let mut board = Board::new(b"die-rogue");
        rogue.provision_device(&mut board).unwrap();
        bench.csp.rack_board(&mut board).unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let err = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &product)
            .unwrap_err();
        assert!(matches!(
            err,
            ShefError::AttestationFailed(shef_attest::AttestError::CertChain(_))
        ));
    }

    #[test]
    fn vendor_products_are_isolated() {
        let mut bench = TestBench::new("multi-product");
        let p1 = bench
            .vendor
            .package_accelerator("p1", shield_config(), vec![1])
            .unwrap();
        let p2 = bench
            .vendor
            .package_accelerator("p2", shield_config(), vec![2])
            .unwrap();
        assert_ne!(p1.shield_public, p2.shield_public);
        assert_ne!(p1.encrypted_bitstream.hash(), p2.encrypted_bitstream.hash());
        // Each product's measurement releases only its own key.
        assert_eq!(bench.vendor.releases.len(), 2);
        let m1 = deployment_measurement(SECURITY_KERNEL_BINARY, &p1.encrypted_bitstream.0);
        assert_eq!(bench.vendor.releases[&m1].0, "p1");
    }

    #[test]
    fn deployed_instance_runs_shielded_io() {
        let pool = WorkerPool::new(1);
        use crate::shield::client;
        use shef_fpga::clock::CostLedger;

        let mut bench = TestBench::new("io");
        let board = bench.fresh_board(b"die-io").unwrap();
        let product = bench
            .vendor
            .package_accelerator("demo", shield_config(), vec![])
            .unwrap();
        let (mut instance, dek) = bench
            .data_owner
            .deploy(board, &mut bench.vendor, &product)
            .unwrap();

        // Data Owner provisions encrypted input via host DMA.
        let region = instance.shield.config().regions[0].clone();
        let input = vec![0x5Au8; 4096];
        let enc = client::encrypt_region(&dek, &region, &input, 0);
        let mut ledger = CostLedger::new();
        let tag_base = instance.shield.config().tag_base(0);
        instance
            .board
            .host
            .dma_to_device(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                0,
                &enc.ciphertext,
            )
            .unwrap();
        instance
            .board
            .host
            .dma_to_device(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                tag_base,
                &enc.tags,
            )
            .unwrap();
        // Accelerator reads plaintext through the Shield.
        let got = instance
            .shield
            .read(
                &mut instance.board.shell,
                &mut instance.board.device.dram,
                &mut ledger,
                0,
                4096,
                crate::shield::AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, input);
    }
}
