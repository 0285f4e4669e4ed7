//! Device identity: the Manufacturer CA and the two-link certificate
//! chain carried by every quote.
//!
//! The chain a verifier walks is
//!
//! ```text
//!   Manufacturer root (Ed25519, offline)
//!        └── DeviceCert: binds die serial → device identity key
//!                 └── AkCert: binds measurement → Attestation Key
//!                     (issued *by the device* at measure time)
//! ```
//!
//! The device identity key is not stored anywhere: it is re-derived on
//! every boot from the [`AttestationRoot`] and the die serial, so it
//! exists only inside the measured Security Kernel. The Manufacturer,
//! knowing the device key it burned, performs the same derivation
//! offline to certify the identity without ever talking to the device
//! ([`ManufacturerCa::certify_device`]).
//!
//! # Example
//!
//! ```
//! use shef_attest::identity::{device_identity, ManufacturerCa};
//! use shef_attest::AttestationRoot;
//!
//! let ca = ManufacturerCa::from_seed(b"example-ca");
//! let root = AttestationRoot::from_device_key(&[7u8; 32]);
//! let cert = ca.certify_device(b"die-0001", &root);
//! cert.verify(&ca.root_public())?;
//! // The on-device derivation matches the certified key.
//! assert_eq!(device_identity(&root, b"die-0001").verifying_key(), cert.device_public);
//! # Ok::<(), shef_attest::AttestError>(())
//! ```

use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::hkdf;
use shef_crypto::wire::{Reader, Writer};
use shef_fpga::spb::AttestationRoot;

use crate::measure::Measurement;
use crate::AttestError;

/// Message tag for device certificates.
const DEVICE_CERT_TAG: &[u8] = b"shef.attest.device-cert.v1";
/// Message tag for Attestation-Key certificates.
const AK_CERT_TAG: &[u8] = b"shef.attest.ak-cert.v1";
/// HKDF label for the device identity signing seed.
const DEVICE_ID_LABEL: &[u8] = b"shef.attest.device-id.v1";

/// Derives the device identity signing key from the attestation root
/// and the die serial (deterministic; run identically by the Security
/// Kernel on-device and by the Manufacturer offline).
#[must_use]
pub fn device_identity(root: &AttestationRoot, die_serial: &[u8]) -> SigningKey {
    let seed = hkdf::derive_key32(DEVICE_ID_LABEL, &root.to_bytes(), die_serial);
    SigningKey::from_seed(&seed)
}

/// The Manufacturer's offline certificate authority.
pub struct ManufacturerCa {
    signing: SigningKey,
}

impl core::fmt::Debug for ManufacturerCa {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ManufacturerCa")
            .field("root_public", &self.signing.verifying_key())
            .finish_non_exhaustive()
    }
}

impl ManufacturerCa {
    /// Deterministically creates a CA from seed material.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let seed32 = hkdf::derive_key32(b"shef.attest.ca.v1", seed, b"root");
        ManufacturerCa {
            signing: SigningKey::from_seed(&seed32),
        }
    }

    /// The root verification key verifiers pin.
    #[must_use]
    pub fn root_public(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Certifies a device: derives its identity key from the root it
    /// burned (see [`device_identity`]) and signs the binding
    /// die serial → identity key.
    #[must_use]
    pub fn certify_device(&self, die_serial: &[u8], root: &AttestationRoot) -> DeviceCert {
        let device_public = device_identity(root, die_serial).verifying_key();
        let message = DeviceCert::message(die_serial, &device_public);
        DeviceCert {
            die_serial: die_serial.to_vec(),
            device_public,
            signature: self.signing.sign(&message),
        }
    }
}

/// A Manufacturer-signed binding of a die serial to the device's
/// attestation identity key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceCert {
    /// The device's die serial (the key store's identity).
    pub die_serial: Vec<u8>,
    /// The device identity verification key.
    pub device_public: VerifyingKey,
    /// Manufacturer root signature over the binding.
    pub signature: Signature,
}

impl DeviceCert {
    fn message(die_serial: &[u8], device_public: &VerifyingKey) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(DEVICE_CERT_TAG);
        w.put_bytes(die_serial);
        w.put_fixed(&device_public.0);
        w.finish()
    }

    /// Verifies the Manufacturer signature.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::CertChain`] if the signature does not
    /// verify under `root`.
    pub fn verify(&self, root: &VerifyingKey) -> Result<(), AttestError> {
        let message = Self::message(&self.die_serial, &self.device_public);
        root.verify(&message, &self.signature)
            .map_err(|_| AttestError::CertChain("device certificate signature invalid".into()))
    }

    /// Canonical wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.die_serial);
        w.put_fixed(&self.device_public.0);
        w.put_fixed(&self.signature.0);
        w.finish()
    }

    /// Parses the [`DeviceCert::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let die_serial = r.get_bytes()?.to_vec();
        let device_public = VerifyingKey(r.get_fixed()?);
        let signature = Signature(r.get_fixed()?);
        r.finish()?;
        Ok(DeviceCert {
            die_serial,
            device_public,
            signature,
        })
    }
}

/// A device-signed binding of a measurement to the Attestation Key
/// derived under it (signing + key-exchange halves). Issued by the
/// Security Kernel itself when it measures a bitstream: only a kernel
/// holding the attestation root can produce the device signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AkCert {
    /// Measurement under which the Attestation Key was derived.
    pub measurement: Measurement,
    /// Ed25519 quote-signing half of the Attestation Key.
    pub ak_public: VerifyingKey,
    /// X25519 key-exchange half of the Attestation Key.
    pub kem_public: [u8; 32],
    /// Device identity signature over the binding.
    pub signature: Signature,
}

impl AkCert {
    fn message(
        measurement: &Measurement,
        ak_public: &VerifyingKey,
        kem_public: &[u8; 32],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(AK_CERT_TAG);
        w.put_fixed(&measurement.0);
        w.put_fixed(&ak_public.0);
        w.put_fixed(kem_public);
        w.finish()
    }

    /// Issues the certificate (Security Kernel side).
    #[must_use]
    pub fn issue(
        identity: &SigningKey,
        measurement: Measurement,
        ak_public: VerifyingKey,
        kem_public: [u8; 32],
    ) -> Self {
        let message = Self::message(&measurement, &ak_public, &kem_public);
        AkCert {
            measurement,
            ak_public,
            kem_public,
            signature: identity.sign(&message),
        }
    }

    /// Verifies the device signature.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::CertChain`] if the signature does not
    /// verify under `device_public`.
    pub fn verify(&self, device_public: &VerifyingKey) -> Result<(), AttestError> {
        let message = Self::message(&self.measurement, &self.ak_public, &self.kem_public);
        device_public
            .verify(&message, &self.signature)
            .map_err(|_| AttestError::CertChain("attestation-key certificate invalid".into()))
    }

    /// Canonical wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_fixed(&self.measurement.0);
        w.put_fixed(&self.ak_public.0);
        w.put_fixed(&self.kem_public);
        w.put_fixed(&self.signature.0);
        w.finish()
    }

    /// Parses the [`AkCert::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let measurement = Measurement(r.get_fixed()?);
        let ak_public = VerifyingKey(r.get_fixed()?);
        let kem_public = r.get_fixed()?;
        let signature = Signature(r.get_fixed()?);
        r.finish()?;
        Ok(AkCert {
            measurement,
            ak_public,
            kem_public,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_cert_round_trip_and_verify() {
        let ca = ManufacturerCa::from_seed(b"ca");
        let root = AttestationRoot::from_device_key(&[1u8; 32]);
        let cert = ca.certify_device(b"die-7", &root);
        cert.verify(&ca.root_public()).unwrap();
        let parsed = DeviceCert::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn device_cert_from_other_ca_rejected() {
        let ca = ManufacturerCa::from_seed(b"ca");
        let rogue = ManufacturerCa::from_seed(b"rogue");
        let root = AttestationRoot::from_device_key(&[1u8; 32]);
        let cert = rogue.certify_device(b"die-7", &root);
        assert!(matches!(
            cert.verify(&ca.root_public()),
            Err(AttestError::CertChain(_))
        ));
    }

    #[test]
    fn tampered_serial_breaks_cert() {
        let ca = ManufacturerCa::from_seed(b"ca");
        let root = AttestationRoot::from_device_key(&[1u8; 32]);
        let mut cert = ca.certify_device(b"die-7", &root);
        cert.die_serial = b"die-8".to_vec();
        assert!(cert.verify(&ca.root_public()).is_err());
    }
}
