//! SHA-256 measurement chain and the known-good registry.
//!
//! Measurement here is TPM-style *extension*: the chain state is a
//! SHA-256 digest, and each measured image folds in as
//! `state ← SHA-256(state ‖ SHA-256(label ‖ image))`. Extension is
//! order-sensitive and one-way, so a kernel cannot "unmeasure" a
//! bitstream it already loaded. The chain itself is device-independent
//! (the same bitstream measures to the same digest on every device,
//! which is what lets a fleet share one known-good registry); the
//! *binding* to the SPB-burned device key happens one layer up, where
//! the Attestation Key is derived from root ‖ measurement
//! (see [`crate::SecurityKernel`]).
//!
//! # Example
//!
//! ```
//! use shef_attest::MeasurementChain;
//!
//! let mut a = MeasurementChain::new();
//! a.extend("shield-bitstream", b"bitstream image");
//! let mut b = MeasurementChain::new();
//! b.extend("shield-bitstream", b"bitstream image");
//! assert_eq!(a.current(), b.current());   // deterministic
//! b.extend("shield-bitstream", b"more");
//! assert_ne!(a.current(), b.current());   // extension is one-way
//! ```

use shef_crypto::sha2::Sha256;
use shef_crypto::wire::Writer;

use crate::AttestError;

/// Domain-separation label hashed into the chain's initial state.
const CHAIN_LABEL: &[u8] = b"shef.attest.measure.v1";

/// A finalized SHA-256 measurement (the chain state at quote time).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Measurement(pub [u8; 32]);

impl core::fmt::Debug for Measurement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Measurement({})", self.to_hex())
    }
}

impl Measurement {
    /// Lowercase hex digest, as reported in errors and registries.
    #[must_use]
    pub fn to_hex(&self) -> String {
        shef_crypto::to_hex(&self.0)
    }
}

/// An extend-only SHA-256 measurement chain (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementChain {
    state: [u8; 32],
}

impl Default for MeasurementChain {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasurementChain {
    /// A fresh chain: `state = SHA-256("shef.attest.measure.v1")`.
    #[must_use]
    pub fn new() -> Self {
        MeasurementChain {
            state: Sha256::digest(CHAIN_LABEL),
        }
    }

    /// Extends the chain with a labelled image:
    /// `state ← SHA-256(state ‖ SHA-256(label ‖ image))`.
    pub fn extend(&mut self, label: &str, image: &[u8]) {
        let mut leaf = Writer::with_capacity(8 + label.len() + image.len());
        leaf.put_str(label);
        leaf.put_fixed(image);
        let leaf_digest = Sha256::digest(&leaf.finish());
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(&leaf_digest);
        self.state = h.finalize();
    }

    /// The current chain state as a [`Measurement`].
    #[must_use]
    pub fn current(&self) -> Measurement {
        Measurement(self.state)
    }
}

/// The public registry of audited measurements a verifier accepts.
///
/// Every [`crate::RemoteVerifier`] holds one: the Data Owner's
/// publishes the Shield bitstream measurements it audited, and the IP
/// Vendor's publishes the measurement of each Security Kernel it
/// trusts (§3: "a public list of ShEF Security Kernel … hashes") booted
/// with each of its accelerators. A measurement not published here
/// fails verification with [`AttestError::UnknownMeasurement`].
#[derive(Debug, Clone, Default)]
pub struct MeasurementRegistry {
    known: std::collections::BTreeSet<[u8; 32]>,
}

impl MeasurementRegistry {
    /// An empty registry (rejects everything).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a known-good measurement.
    pub fn publish(&mut self, measurement: Measurement) {
        self.known.insert(measurement.0);
    }

    /// Whether a measurement is known good.
    #[must_use]
    pub fn is_known(&self, measurement: &Measurement) -> bool {
        self.known.contains(&measurement.0)
    }

    /// Checks membership, surfacing the offending digest on failure.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::UnknownMeasurement`] when absent.
    pub fn require(&self, measurement: &Measurement) -> Result<(), AttestError> {
        if self.is_known(measurement) {
            Ok(())
        } else {
            Err(AttestError::UnknownMeasurement(measurement.to_hex()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sensitive_extension() {
        let mut ab = MeasurementChain::new();
        ab.extend("x", b"a");
        ab.extend("x", b"b");
        let mut ba = MeasurementChain::new();
        ba.extend("x", b"b");
        ba.extend("x", b"a");
        assert_ne!(ab.current(), ba.current());
    }

    #[test]
    fn label_is_domain_separating() {
        let mut l1 = MeasurementChain::new();
        l1.extend("kernel", b"image");
        let mut l2 = MeasurementChain::new();
        l2.extend("bitstream", b"image");
        assert_ne!(l1.current(), l2.current());
    }

    #[test]
    fn registry_rejects_unknown() {
        let mut chain = MeasurementChain::new();
        chain.extend("shield-bitstream", b"good");
        let good = chain.current();
        let mut registry = MeasurementRegistry::new();
        registry.publish(good);
        assert!(registry.require(&good).is_ok());
        let mut other = MeasurementChain::new();
        other.extend("shield-bitstream", b"evil");
        assert!(matches!(
            registry.require(&other.current()),
            Err(AttestError::UnknownMeasurement(_))
        ));
    }
}
