//! Sealed DEK provisioning and the verifier-issued admission ticket.
//!
//! After a quote verifies, the verifier and the Security Kernel share
//! an authenticated session key (X25519 between the verifier's
//! per-challenge ephemeral key and the kernel's certified
//! key-exchange key, expanded over the session transcript). The
//! verifier seals the tenant's Data Encryption Key under that key with
//! AES-GCM — associated data binds the tenant name, the measurement
//! and the session nonce, so a sealed blob cannot be re-used for a
//! different tenant, bitstream or session — and issues an
//! [`AttestationTicket`] signed with its long-term key.
//!
//! Ticket life cycle:
//!
//! ```text
//!  Issued ──(SecurityKernel::redeem: GCM open ok)──▶ Redeemed(AttestedTenant)
//!    │                                                   │
//!    │ tampered / spliced sealed DEK                     │ presented to
//!    ▼                                                   ▼
//!  SealTamper (typed reject)              ShieldService::register_tenant
//! ```
//!
//! Redemption is one-shot per kernel session; the service additionally
//! rejects a ticket it has already admitted.

use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::gcm::{AesGcm, GCM_IV_LEN, GCM_TAG_LEN};
use shef_crypto::hkdf;
use shef_crypto::sha2::Sha256;
use shef_crypto::wire::{Reader, Writer};

use crate::measure::Measurement;
use crate::AttestError;

/// Message tag signed by the verifier over a ticket.
const TICKET_TAG: &[u8] = b"shef.attest.ticket.v1";
/// HKDF label for session-key expansion.
const SESSION_LABEL: &[u8] = b"shef.attest.session.v1";
/// Associated-data tag binding sealed DEKs to their session.
const DEK_AD_TAG: &[u8] = b"shef.attest.dek.v1";
/// Label for deriving the GCM IV from the session nonce.
const DEK_IV_LABEL: &[u8] = b"shef.attest.dek-iv.v1";

/// Derives the shared session key from the X25519 secret and the
/// session transcript (nonce, both key-exchange publics, measurement).
/// Run identically by the verifier and the kernel.
pub(crate) fn session_key(
    shared: &[u8; 32],
    nonce: &[u8; 32],
    verifier_kem: &[u8; 32],
    kernel_kem: &[u8; 32],
    measurement: &Measurement,
) -> [u8; 32] {
    let mut transcript = Sha256::new();
    transcript.update(nonce);
    transcript.update(verifier_kem);
    transcript.update(kernel_kem);
    transcript.update(&measurement.0);
    hkdf::derive_key32(SESSION_LABEL, shared, &transcript.finalize())
}

/// The associated data a sealed DEK is bound to.
fn dek_ad(tenant: &str, measurement: &Measurement, nonce: &[u8; 32]) -> Vec<u8> {
    let mut ad = Writer::new();
    ad.put_bytes(DEK_AD_TAG);
    ad.put_str(tenant);
    ad.put_fixed(&measurement.0);
    ad.put_fixed(nonce);
    ad.finish()
}

/// The GCM IV for a session (the session key is one-shot, but the IV is
/// still derived, not constant, to keep the encoding honest).
fn dek_iv(nonce: &[u8; 32]) -> [u8; GCM_IV_LEN] {
    let mut h = Sha256::new();
    h.update(DEK_IV_LABEL);
    h.update(nonce);
    let digest = h.finalize();
    let mut iv = [0u8; GCM_IV_LEN];
    iv.copy_from_slice(&digest[..GCM_IV_LEN]);
    iv
}

/// A tenant DEK sealed (AES-GCM) to one attestation session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedDek {
    /// GCM ciphertext of the 32-byte DEK.
    pub ciphertext: Vec<u8>,
    /// GCM authentication tag.
    pub tag: [u8; GCM_TAG_LEN],
}

impl SealedDek {
    /// Seals `dek` under the session key (verifier side).
    pub(crate) fn seal(
        key: &[u8; 32],
        tenant: &str,
        measurement: &Measurement,
        nonce: &[u8; 32],
        dek: &[u8; 32],
    ) -> Self {
        let gcm = AesGcm::new(key);
        let (ciphertext, tag) = gcm.seal(&dek_iv(nonce), &dek_ad(tenant, measurement, nonce), dek);
        SealedDek { ciphertext, tag }
    }

    /// Opens the seal (kernel side). Any mismatch in key, tenant name,
    /// measurement or nonce fails the tag check.
    pub(crate) fn open(
        &self,
        key: &[u8; 32],
        tenant: &str,
        measurement: &Measurement,
        nonce: &[u8; 32],
    ) -> Result<[u8; 32], AttestError> {
        let gcm = AesGcm::new(key);
        let plain = gcm
            .open(
                &dek_iv(nonce),
                &dek_ad(tenant, measurement, nonce),
                &self.ciphertext,
                &self.tag,
            )
            .map_err(|e| AttestError::SealTamper(e.to_string()))?;
        plain
            .try_into()
            .map_err(|_| AttestError::SealTamper("sealed DEK is not 32 bytes".into()))
    }

    /// Canonical wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.ciphertext);
        w.put_fixed(&self.tag);
        w.finish()
    }

    /// Parses the [`SealedDek::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let ciphertext = r.get_bytes()?.to_vec();
        let tag = r.get_fixed()?;
        r.finish()?;
        Ok(SealedDek { ciphertext, tag })
    }
}

/// The verifier-issued admission credential: tenant binding,
/// measurement, session id, the sealed DEK, and the verifier's
/// signature over all of it. `ShieldService::register_tenant` accepts
/// only tenants carrying a valid ticket (wrapped in an
/// [`AttestedTenant`] by on-device redemption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationTicket {
    tenant: String,
    measurement: Measurement,
    session: [u8; 32],
    sealed_dek: SealedDek,
    verifier_public: VerifyingKey,
    signature: Signature,
}

impl AttestationTicket {
    fn message(
        tenant: &str,
        measurement: &Measurement,
        session: &[u8; 32],
        sealed_dek: &SealedDek,
        verifier_public: &VerifyingKey,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(TICKET_TAG);
        w.put_str(tenant);
        w.put_fixed(&measurement.0);
        w.put_fixed(session);
        w.put_fixed(&Sha256::digest(&sealed_dek.to_bytes()));
        w.put_fixed(&verifier_public.0);
        w.finish()
    }

    /// Issues a ticket (verifier side).
    pub(crate) fn issue(
        signing: &SigningKey,
        tenant: &str,
        measurement: Measurement,
        session: [u8; 32],
        sealed_dek: SealedDek,
    ) -> Self {
        let verifier_public = signing.verifying_key();
        let message = Self::message(
            tenant,
            &measurement,
            &session,
            &sealed_dek,
            &verifier_public,
        );
        AttestationTicket {
            tenant: tenant.to_owned(),
            measurement,
            session,
            sealed_dek,
            verifier_public,
            signature: signing.sign(&message),
        }
    }

    /// The tenant name the ticket is bound to.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The measurement the session attested.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The session id (the challenge nonce).
    #[must_use]
    pub fn session(&self) -> [u8; 32] {
        self.session
    }

    /// The sealed DEK blob.
    #[must_use]
    pub fn sealed_dek(&self) -> &SealedDek {
        &self.sealed_dek
    }

    /// The issuing verifier's public key.
    #[must_use]
    pub fn verifier_public(&self) -> VerifyingKey {
        self.verifier_public
    }

    /// Checks the ticket for service admission: issued by `trusted`,
    /// bound to `tenant`, and signature-valid.
    ///
    /// # Errors
    ///
    /// * [`AttestError::BadSignature`] — issuer is not the trusted
    ///   verifier, or the signature does not verify.
    /// * [`AttestError::WrongTenant`] — bound to a different name.
    pub fn verify(&self, trusted: &VerifyingKey, tenant: &str) -> Result<(), AttestError> {
        if self.verifier_public != *trusted {
            return Err(AttestError::BadSignature(
                "ticket issued by an untrusted verifier".into(),
            ));
        }
        if self.tenant != tenant {
            return Err(AttestError::WrongTenant {
                expected: tenant.to_owned(),
                got: self.tenant.clone(),
            });
        }
        let message = Self::message(
            &self.tenant,
            &self.measurement,
            &self.session,
            &self.sealed_dek,
            &self.verifier_public,
        );
        trusted
            .verify(&message, &self.signature)
            .map_err(|_| AttestError::BadSignature("ticket signature invalid".into()))
    }

    /// Canonical wire encoding (what the untrusted host forwards).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.tenant);
        w.put_fixed(&self.measurement.0);
        w.put_fixed(&self.session);
        w.put_bytes(&self.sealed_dek.to_bytes());
        w.put_fixed(&self.verifier_public.0);
        w.put_fixed(&self.signature.0);
        w.finish()
    }

    /// Parses the [`AttestationTicket::to_bytes`] encoding. Parsing
    /// does not authenticate: call [`AttestationTicket::verify`] (or
    /// redeem on-device) before trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation or non-UTF-8
    /// tenant names.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let tenant = r.get_str()?.to_owned();
        let measurement = Measurement(r.get_fixed()?);
        let session = r.get_fixed()?;
        let sealed_dek = SealedDek::from_bytes(r.get_bytes()?)?;
        let verifier_public = VerifyingKey(r.get_fixed()?);
        let signature = Signature(r.get_fixed()?);
        r.finish()?;
        Ok(AttestationTicket {
            tenant,
            measurement,
            session,
            sealed_dek,
            verifier_public,
            signature,
        })
    }
}

/// A redeemed ticket: the admission credential plus the unsealed DEK.
/// The only constructor is [`crate::SecurityKernel::redeem`] — holding
/// an `AttestedTenant` proves a full attestation round completed on
/// this kernel, which is what makes `register_tenant`'s requirement
/// structural rather than policed.
#[derive(Clone)]
pub struct AttestedTenant {
    ticket: AttestationTicket,
    dek: [u8; 32],
}

impl core::fmt::Debug for AttestedTenant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AttestedTenant")
            .field("tenant", &self.ticket.tenant())
            .field("session", &shef_crypto::to_hex(&self.ticket.session()[..8]))
            .finish_non_exhaustive()
    }
}

impl AttestedTenant {
    pub(crate) fn new(ticket: AttestationTicket, dek: [u8; 32]) -> Self {
        AttestedTenant { ticket, dek }
    }

    /// The underlying verifier-issued ticket.
    #[must_use]
    pub fn ticket(&self) -> &AttestationTicket {
        &self.ticket
    }

    /// The tenant name the credential is bound to.
    #[must_use]
    pub fn tenant(&self) -> &str {
        self.ticket.tenant()
    }

    /// The unsealed Data Encryption Key. Enclave-internal: this
    /// accessor models the hand-off from the Security Kernel to the
    /// Shield's key storage and must never cross the host boundary.
    #[must_use]
    pub fn data_key(&self) -> [u8; 32] {
        self.dek
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement() -> Measurement {
        let mut chain = crate::MeasurementChain::new();
        chain.extend("shield-bitstream", b"image");
        chain.current()
    }

    #[test]
    fn sealed_dek_round_trip_binds_context() {
        let key = [9u8; 32];
        let nonce = [3u8; 32];
        let m = measurement();
        let sealed = SealedDek::seal(&key, "alice", &m, &nonce, &[0x42u8; 32]);
        assert_eq!(
            sealed.open(&key, "alice", &m, &nonce).unwrap(),
            [0x42u8; 32]
        );
        // Any context change breaks the AD binding.
        assert!(sealed.open(&key, "bob", &m, &nonce).is_err());
        assert!(sealed.open(&key, "alice", &m, &[4u8; 32]).is_err());
        assert!(sealed.open(&[8u8; 32], "alice", &m, &nonce).is_err());
    }

    #[test]
    fn ticket_verify_and_wire_round_trip() {
        let signing = SigningKey::from_seed(&[7u8; 32]);
        let m = measurement();
        let sealed = SealedDek::seal(&[9u8; 32], "alice", &m, &[3u8; 32], &[0x42u8; 32]);
        let ticket = AttestationTicket::issue(&signing, "alice", m, [3u8; 32], sealed);
        ticket.verify(&signing.verifying_key(), "alice").unwrap();
        assert!(matches!(
            ticket.verify(&signing.verifying_key(), "bob"),
            Err(AttestError::WrongTenant { .. })
        ));
        let rogue = SigningKey::from_seed(&[8u8; 32]);
        assert!(matches!(
            ticket.verify(&rogue.verifying_key(), "alice"),
            Err(AttestError::BadSignature(_))
        ));
        let parsed = AttestationTicket::from_bytes(&ticket.to_bytes()).unwrap();
        assert_eq!(parsed, ticket);
        parsed.verify(&signing.verifying_key(), "alice").unwrap();
    }

    #[test]
    fn tampered_ticket_bytes_fail_verification() {
        let signing = SigningKey::from_seed(&[7u8; 32]);
        let m = measurement();
        let sealed = SealedDek::seal(&[9u8; 32], "alice", &m, &[3u8; 32], &[0x42u8; 32]);
        let ticket = AttestationTicket::issue(&signing, "alice", m, [3u8; 32], sealed);
        let mut bytes = ticket.to_bytes();
        // Flip a byte inside the sealed-DEK ciphertext region.
        let idx = bytes.len() - 100;
        bytes[idx] ^= 1;
        let parsed = AttestationTicket::from_bytes(&bytes).unwrap();
        assert!(parsed.verify(&signing.verifying_key(), "alice").is_err());
    }
}
