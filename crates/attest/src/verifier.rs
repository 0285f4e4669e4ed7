//! The remote verifier: challenges, quote verification, and sealed key
//! release.
//!
//! The verifier is the off-device end of the protocol. The Data Owner
//! runs one to release tenant DEKs ([`RemoteVerifier::verify_and_provision`]),
//! the IP Vendor runs one to release Bitstream Keys
//! ([`RemoteVerifier::verify_and_release`]); both kinds share every
//! check below. Per attestation round it runs this state machine, keyed
//! by the challenge nonce:
//!
//! ```text
//!              challenge()           verify_and_{provision,release}(quote)
//!  ┌───────┐ ──────────────▶ ┌─────────────┐ ────────────────────────▶ ┌──────────┐
//!  │ Fresh │                 │ Outstanding │   all five checks pass    │ Consumed │
//!  └───────┘                 └─────────────┘                           └──────────┘
//!                               ▲       │                                   │
//!                               └───────┘                                   │ same nonce again
//!                        any check fails: the nonce                        ▼
//!                        STAYS outstanding (a forgery             AttestError::ReplayedNonce
//!                        cannot burn the honest session)
//! ```
//!
//! Checks run in a fixed order so each attack maps to one typed error:
//! nonce freshness ([`AttestError::UnknownNonce`] /
//! [`AttestError::ReplayedNonce`]), challenge binding, certificate
//! chain ([`AttestError::CertChain`]), quote signature
//! ([`AttestError::BadSignature`]), and finally measurement registry
//! membership ([`AttestError::UnknownMeasurement`]).
//!
//! # Example
//!
//! ```
//! use shef_attest::{AttestationEnvironment, RemoteVerifier};
//!
//! // The environment wires a verifier to a booted kernel; the raw
//! // protocol steps are still available individually:
//! let mut env = AttestationEnvironment::new(b"verifier-doc")?;
//! let challenge = env.verifier_mut().challenge();
//! let quote = env.kernel_mut().quote(&challenge)?;
//! let ticket = env
//!     .verifier_mut()
//!     .verify_and_provision(&quote, "alice", [9u8; 32])?;
//! let grant = env.kernel_mut().redeem(&ticket)?;
//! assert_eq!(grant.data_key(), [9u8; 32]);
//! # Ok::<(), shef_attest::AttestError>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};

use shef_crypto::drbg::HmacDrbg;
use shef_crypto::ecies::{EciesKeyPair, EciesPublicKey};
use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::hkdf;
use shef_crypto::sha2::Sha256;
use shef_crypto::wire::{Reader, Writer};
use shef_telemetry::{Counter, Telemetry};

use crate::identity::{AkCert, DeviceCert};
use crate::measure::{Measurement, MeasurementRegistry};
use crate::ticket::{
    AttestationTicket, BitstreamKey, BitstreamKeyTicket, DataKey, SealedKey, SessionSecret, Ticket,
    TicketKind,
};
use crate::AttestError;

/// Message tag signed by the Attestation Key over a quote.
const QUOTE_TAG: &[u8] = b"shef.attest.quote.v1";
/// HKDF label for the verifier's long-term ticket-signing key.
const VERIFIER_KEY_LABEL: &[u8] = b"shef.attest.verifier.v1";

/// A verifier challenge: a fresh nonce plus the verifier's ephemeral
/// X25519 public key for this session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge {
    /// Freshness nonce; also the session id everywhere downstream.
    pub nonce: [u8; 32],
    /// Verifier's ephemeral key-exchange public key.
    pub verifier_kem: [u8; 32],
}

/// A Security-Kernel quote: the measurement and session binding, the
/// device and Attestation-Key certificates, and the AK signature over
/// all of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The measurement the kernel attests to.
    pub measurement: Measurement,
    /// Echo of the challenge nonce.
    pub nonce: [u8; 32],
    /// Echo of the verifier's ephemeral key-exchange public key.
    pub verifier_kem: [u8; 32],
    /// The quote-signing half of the AK.
    pub ak_public: VerifyingKey,
    /// The key-exchange half of the AK.
    pub kem_public: [u8; 32],
    /// Manufacturer-issued device certificate.
    pub device_cert: DeviceCert,
    /// Device-issued Attestation-Key certificate.
    pub ak_cert: AkCert,
    /// AK signature over the quote message.
    pub signature: Signature,
}

impl Quote {
    fn message(
        measurement: &Measurement,
        nonce: &[u8; 32],
        verifier_kem: &[u8; 32],
        ak_public: &VerifyingKey,
        kem_public: &[u8; 32],
        device_cert: &DeviceCert,
        ak_cert: &AkCert,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(QUOTE_TAG);
        w.put_fixed(&measurement.0);
        w.put_fixed(nonce);
        w.put_fixed(verifier_kem);
        w.put_fixed(&ak_public.0);
        w.put_fixed(kem_public);
        w.put_fixed(&Sha256::digest(&device_cert.to_bytes()));
        w.put_fixed(&Sha256::digest(&ak_cert.to_bytes()));
        w.finish()
    }

    /// Signs a quote (Security Kernel side).
    pub(crate) fn sign(
        ak: &SigningKey,
        measurement: Measurement,
        challenge: &Challenge,
        kem_public: [u8; 32],
        device_cert: DeviceCert,
        ak_cert: AkCert,
    ) -> Self {
        let ak_public = ak.verifying_key();
        let message = Self::message(
            &measurement,
            &challenge.nonce,
            &challenge.verifier_kem,
            &ak_public,
            &kem_public,
            &device_cert,
            &ak_cert,
        );
        Quote {
            measurement,
            nonce: challenge.nonce,
            verifier_kem: challenge.verifier_kem,
            ak_public,
            kem_public,
            device_cert,
            ak_cert,
            signature: ak.sign(&message),
        }
    }

    /// Verifies the AK signature (one of the five checks the verifier
    /// runs; exposed so tests can probe it in isolation).
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::BadSignature`] if the signature does not
    /// verify under the quote's own `ak_public`.
    pub fn verify_signature(&self) -> Result<(), AttestError> {
        let message = Self::message(
            &self.measurement,
            &self.nonce,
            &self.verifier_kem,
            &self.ak_public,
            &self.kem_public,
            &self.device_cert,
            &self.ak_cert,
        );
        self.ak_public
            .verify(&message, &self.signature)
            .map_err(|_| AttestError::BadSignature("quote signature invalid".into()))
    }

    /// Canonical wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_fixed(&self.measurement.0);
        w.put_fixed(&self.nonce);
        w.put_fixed(&self.verifier_kem);
        w.put_fixed(&self.ak_public.0);
        w.put_fixed(&self.kem_public);
        w.put_bytes(&self.device_cert.to_bytes());
        w.put_bytes(&self.ak_cert.to_bytes());
        w.put_fixed(&self.signature.0);
        w.finish()
    }

    /// Parses the [`Quote::to_bytes`] encoding. Parsing does not
    /// authenticate — the verifier's checks do.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let measurement = Measurement(r.get_fixed()?);
        let nonce = r.get_fixed()?;
        let verifier_kem = r.get_fixed()?;
        let ak_public = VerifyingKey(r.get_fixed()?);
        let kem_public = r.get_fixed()?;
        let device_cert = DeviceCert::from_bytes(r.get_bytes()?)?;
        let ak_cert = AkCert::from_bytes(r.get_bytes()?)?;
        let signature = Signature(r.get_fixed()?);
        r.finish()?;
        Ok(Quote {
            measurement,
            nonce,
            verifier_kem,
            ak_public,
            kem_public,
            device_cert,
            ak_cert,
            signature,
        })
    }
}

/// Counters the verifier bumps when a registry is attached.
struct VerifierTelemetry {
    challenges: Counter,
    verified: Counter,
    rejected: Counter,
}

/// A remote verifier (the Data Owner's or the IP Vendor's). See the
/// module docs for the session state machine and check order.
pub struct RemoteVerifier {
    signing: SigningKey,
    manufacturer_root: VerifyingKey,
    registry: MeasurementRegistry,
    drbg: HmacDrbg,
    /// Nonce → the ephemeral key pair issued with it. Entries leave
    /// this map only through successful verification.
    outstanding: BTreeMap<[u8; 32], EciesKeyPair>,
    /// Nonces consumed by successful verifications (replay blocklist).
    consumed: BTreeSet<[u8; 32]>,
    tele: Option<VerifierTelemetry>,
}

impl core::fmt::Debug for RemoteVerifier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RemoteVerifier")
            .field("public_key", &self.signing.verifying_key())
            .field("outstanding", &self.outstanding.len())
            .field("consumed", &self.consumed.len())
            .finish_non_exhaustive()
    }
}

impl RemoteVerifier {
    /// Creates a verifier that pins `manufacturer_root` and derives its
    /// long-term ticket-signing key and nonce DRBG from `seed`.
    #[must_use]
    pub fn from_seed(seed: &[u8], manufacturer_root: VerifyingKey) -> Self {
        let signing_seed = hkdf::derive_key32(VERIFIER_KEY_LABEL, seed, b"ticket-signing");
        RemoteVerifier {
            signing: SigningKey::from_seed(&signing_seed),
            manufacturer_root,
            registry: MeasurementRegistry::new(),
            drbg: HmacDrbg::from_seed(seed),
            outstanding: BTreeMap::new(),
            consumed: BTreeSet::new(),
            tele: None,
        }
    }

    /// Registers `shield.attest.verifier.*` counters on `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = Some(VerifierTelemetry {
            challenges: telemetry.counter("shield.attest.verifier.challenges"),
            verified: telemetry.counter("shield.attest.verifier.verified"),
            rejected: telemetry.counter("shield.attest.verifier.rejected"),
        });
    }

    /// The verifier's ticket-signing public key — what services pin as
    /// their trusted verifier.
    #[must_use]
    pub fn public_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Publishes a known-good measurement to the registry.
    pub fn publish_measurement(&mut self, measurement: Measurement) {
        self.registry.publish(measurement);
    }

    /// Read access to the known-good registry.
    #[must_use]
    pub fn registry(&self) -> &MeasurementRegistry {
        &self.registry
    }

    /// Issues a fresh challenge: a DRBG nonce and a session-ephemeral
    /// X25519 key. The nonce becomes *outstanding* until a quote
    /// verifies against it.
    pub fn challenge(&mut self) -> Challenge {
        let nonce = self.drbg.generate_array::<32>();
        let ephemeral = EciesKeyPair::generate(&mut self.drbg);
        let verifier_kem = ephemeral.public_key().0;
        self.outstanding.insert(nonce, ephemeral);
        if let Some(t) = &self.tele {
            t.challenges.inc();
        }
        Challenge {
            nonce,
            verifier_kem,
        }
    }

    fn check_quote(&self, quote: &Quote) -> Result<(), AttestError> {
        // 1. Nonce freshness. Consumed beats unknown so a replayed
        //    genuine transcript is named as a replay, not a forgery.
        if self.consumed.contains(&quote.nonce) {
            return Err(AttestError::ReplayedNonce);
        }
        let Some(ephemeral) = self.outstanding.get(&quote.nonce) else {
            return Err(AttestError::UnknownNonce);
        };
        // 2. Challenge binding: the quote must echo the ephemeral key we
        //    issued with this nonce, or the session key would be
        //    attacker-influenced.
        if quote.verifier_kem != ephemeral.public_key().0 {
            return Err(AttestError::Malformed(
                "quote echoes a different verifier key than the challenge".into(),
            ));
        }
        // 3. Certificate chain, root first.
        quote.device_cert.verify(&self.manufacturer_root)?;
        quote.ak_cert.verify(&quote.device_cert.device_public)?;
        // 4. The certified AK must be the one the quote claims to use.
        if quote.ak_cert.measurement != quote.measurement
            || quote.ak_cert.ak_public != quote.ak_public
            || quote.ak_cert.kem_public != quote.kem_public
        {
            return Err(AttestError::CertChain(
                "attestation-key certificate does not match the quote".into(),
            ));
        }
        // 5. Quote signature, then measurement policy.
        quote.verify_signature()?;
        self.registry.require(&quote.measurement)
    }

    /// Runs the full verification (see module docs for the order) and,
    /// on success, consumes the nonce, seals `dek` to the enclave
    /// session, and issues a signed [`AttestationTicket`] bound to
    /// `tenant`.
    ///
    /// On failure the nonce **stays outstanding**: an attacker-supplied
    /// quote cannot invalidate the honest kernel's pending session.
    ///
    /// # Errors
    ///
    /// Each check failure maps to its own [`AttestError`] variant —
    /// [`AttestError::ReplayedNonce`], [`AttestError::UnknownNonce`],
    /// [`AttestError::Malformed`], [`AttestError::CertChain`],
    /// [`AttestError::BadSignature`] or
    /// [`AttestError::UnknownMeasurement`].
    pub fn verify_and_provision(
        &mut self,
        quote: &Quote,
        tenant: &str,
        dek: [u8; 32],
    ) -> Result<AttestationTicket, AttestError> {
        self.verify_and_seal::<DataKey>(quote, tenant, dek)
    }

    /// [`RemoteVerifier::verify_and_provision`] for the IP Vendor's
    /// key: the same checks, then `bitstream_key` is sealed to the
    /// session under the Bitstream-Key tags and the ticket is bound to
    /// the accelerator `product`.
    ///
    /// # Errors
    ///
    /// As [`RemoteVerifier::verify_and_provision`].
    pub fn verify_and_release(
        &mut self,
        quote: &Quote,
        product: &str,
        bitstream_key: [u8; 32],
    ) -> Result<BitstreamKeyTicket, AttestError> {
        self.verify_and_seal::<BitstreamKey>(quote, product, bitstream_key)
    }

    fn verify_and_seal<K: TicketKind>(
        &mut self,
        quote: &Quote,
        subject: &str,
        key: [u8; 32],
    ) -> Result<Ticket<K>, AttestError> {
        if let Err(e) = self.check_quote(quote) {
            if let Some(t) = &self.tele {
                t.rejected.inc();
            }
            return Err(e);
        }
        // All checks passed: consume the nonce and seal.
        let ephemeral = self
            .outstanding
            .remove(&quote.nonce)
            .expect("check_quote verified the nonce is outstanding");
        self.consumed.insert(quote.nonce);
        let session = SessionSecret::new(
            ephemeral.diffie_hellman(&EciesPublicKey(quote.kem_public)),
            &quote.nonce,
            &quote.verifier_kem,
            &quote.kem_public,
            &quote.measurement,
        );
        let sealed =
            SealedKey::seal::<K>(&session, subject, &quote.measurement, &quote.nonce, &key);
        if let Some(t) = &self.tele {
            t.verified.inc();
        }
        Ok(Ticket::issue(
            &self.signing,
            subject,
            quote.measurement,
            quote.nonce,
            sealed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::AttestationEnvironment;

    #[test]
    fn quote_wire_round_trip() {
        let mut env = AttestationEnvironment::new(b"verifier-tests").unwrap();
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).unwrap();
        let parsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(parsed, quote);
        parsed.verify_signature().unwrap();
    }

    #[test]
    fn unknown_nonce_rejected_and_session_preserved() {
        let mut env = AttestationEnvironment::new(b"verifier-tests").unwrap();
        let challenge = env.verifier_mut().challenge();
        let mut quote = env.kernel_mut().quote(&challenge).unwrap();
        quote.nonce = [0xEE; 32];
        assert_eq!(
            env.verifier_mut()
                .verify_and_provision(&quote, "alice", [1u8; 32])
                .unwrap_err(),
            AttestError::UnknownNonce
        );
        // The honest quote still verifies afterwards.
        let honest = env.kernel_mut().quote(&challenge).unwrap();
        env.verifier_mut()
            .verify_and_provision(&honest, "alice", [1u8; 32])
            .unwrap();
    }

    #[test]
    fn consumed_nonce_rejected_as_replay() {
        let mut env = AttestationEnvironment::new(b"verifier-tests").unwrap();
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).unwrap();
        env.verifier_mut()
            .verify_and_provision(&quote, "alice", [1u8; 32])
            .unwrap();
        assert_eq!(
            env.verifier_mut()
                .verify_and_provision(&quote, "alice", [1u8; 32])
                .unwrap_err(),
            AttestError::ReplayedNonce
        );
    }

    #[test]
    fn unpublished_measurement_rejected() {
        let mut env =
            AttestationEnvironment::with_bitstream(b"verifier-tests", b"unaudited image").unwrap();
        // Re-measure something the verifier never published.
        env.kernel_mut().measure("rogue", b"rogue image");
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).unwrap();
        assert!(matches!(
            env.verifier_mut()
                .verify_and_provision(&quote, "alice", [1u8; 32]),
            Err(AttestError::UnknownMeasurement(_))
        ));
    }
}
