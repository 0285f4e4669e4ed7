//! Sealed key release and the verifier-issued ticket.
//!
//! After a quote verifies, the verifier and the Security Kernel share
//! an authenticated session secret (X25519 between the verifier's
//! per-challenge ephemeral key and the kernel's certified
//! key-exchange key, bound to the session transcript). The verifier
//! seals one 32-byte key under it with AES-GCM — associated data binds
//! the ticket's subject, the measurement and the session nonce, so a
//! sealed blob cannot be re-used for a different subject, bitstream or
//! session — and issues a [`Ticket`] signed with its long-term key.
//!
//! Two kinds of key ride the same quote and session machinery:
//!
//! * [`DataKey`] — a Data Owner's DEK for one tenant
//!   ([`AttestationTicket`]), redeemed on-device into an
//!   [`AttestedTenant`] by [`crate::SecurityKernel::redeem`];
//! * [`BitstreamKey`] — an IP Vendor's Bitstream Encryption Key for one
//!   accelerator product ([`BitstreamKeyTicket`]), redeemed on-device
//!   into the plain key by
//!   [`crate::SecurityKernel::redeem_bitstream_key`].
//!
//! Each kind expands the session secret, derives the IV, builds the
//! associated data and signs the ticket under its own tags, so a sealed
//! blob or ticket of one kind never opens or verifies as the other.
//!
//! Life cycle of a DEK ticket (a Bitstream-Key ticket redeems into the
//! plain key instead):
//!
//! ```text
//!  Issued ──(SecurityKernel::redeem: GCM open ok)──▶ Redeemed(AttestedTenant)
//!    │                                                   │
//!    │ tampered / spliced sealed key                     │ presented to
//!    ▼                                                   ▼
//!  SealTamper (typed reject)              ShieldService::register_tenant
//! ```
//!
//! Redemption is one-shot per kernel session; the service additionally
//! rejects a ticket it has already admitted.

use core::marker::PhantomData;

use shef_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use shef_crypto::gcm::{AesGcm, GCM_IV_LEN, GCM_TAG_LEN};
use shef_crypto::hkdf;
use shef_crypto::sha2::Sha256;
use shef_crypto::wire::{Reader, Writer};

use crate::measure::Measurement;
use crate::AttestError;

mod private {
    pub trait Sealed {}
    impl Sealed for super::DataKey {}
    impl Sealed for super::BitstreamKey {}
}

/// What a [`Ticket`] releases: the domain-separation tags of one key
/// kind. Implemented only by [`DataKey`] and [`BitstreamKey`].
pub trait TicketKind: private::Sealed {
    /// HKDF label expanding the session secret into this kind's key.
    const SESSION_LABEL: &'static [u8];
    /// Associated-data tag binding a sealed key to its session.
    const AD_TAG: &'static [u8];
    /// Label deriving the GCM IV from the session nonce.
    const IV_LABEL: &'static [u8];
    /// Message tag the verifier signs a ticket under.
    const TICKET_TAG: &'static [u8];
}

/// A Data Owner's Data Encryption Key, released to one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKey {}

impl TicketKind for DataKey {
    const SESSION_LABEL: &'static [u8] = b"shef.attest.session.v1";
    const AD_TAG: &'static [u8] = b"shef.attest.dek.v1";
    const IV_LABEL: &'static [u8] = b"shef.attest.dek-iv.v1";
    const TICKET_TAG: &'static [u8] = b"shef.attest.ticket.v1";
}

/// An IP Vendor's Bitstream Encryption Key, released for one
/// accelerator product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitstreamKey {}

impl TicketKind for BitstreamKey {
    const SESSION_LABEL: &'static [u8] = b"shef.attest.bitstream-key.session.v1";
    const AD_TAG: &'static [u8] = b"shef.attest.bitstream-key.v1";
    const IV_LABEL: &'static [u8] = b"shef.attest.bitstream-key-iv.v1";
    const TICKET_TAG: &'static [u8] = b"shef.attest.bitstream-key.ticket.v1";
}

/// The secret one attestation session shares between verifier and
/// kernel: the X25519 secret plus the digest of the session transcript
/// (nonce, both key-exchange publics, measurement). Each ticket kind
/// expands it under its own label.
#[derive(Clone, Copy)]
pub(crate) struct SessionSecret {
    shared: [u8; 32],
    transcript: [u8; 32],
}

impl SessionSecret {
    /// Binds the X25519 secret to the session transcript. Run
    /// identically by the verifier and the kernel.
    pub(crate) fn new(
        shared: [u8; 32],
        nonce: &[u8; 32],
        verifier_kem: &[u8; 32],
        kernel_kem: &[u8; 32],
        measurement: &Measurement,
    ) -> Self {
        let mut transcript = Sha256::new();
        transcript.update(nonce);
        transcript.update(verifier_kem);
        transcript.update(kernel_kem);
        transcript.update(&measurement.0);
        SessionSecret {
            shared,
            transcript: transcript.finalize(),
        }
    }

    /// The session key of ticket kind `K`.
    pub(crate) fn key<K: TicketKind>(&self) -> [u8; 32] {
        hkdf::derive_key32(K::SESSION_LABEL, &self.shared, &self.transcript)
    }
}

/// The associated data a sealed key is bound to.
fn seal_ad<K: TicketKind>(subject: &str, measurement: &Measurement, nonce: &[u8; 32]) -> Vec<u8> {
    let mut ad = Writer::new();
    ad.put_bytes(K::AD_TAG);
    ad.put_str(subject);
    ad.put_fixed(&measurement.0);
    ad.put_fixed(nonce);
    ad.finish()
}

/// The GCM IV for a session (the session key is one-shot, but the IV is
/// still derived, not constant, to keep the encoding honest).
fn seal_iv<K: TicketKind>(nonce: &[u8; 32]) -> [u8; GCM_IV_LEN] {
    let mut h = Sha256::new();
    h.update(K::IV_LABEL);
    h.update(nonce);
    let digest = h.finalize();
    let mut iv = [0u8; GCM_IV_LEN];
    iv.copy_from_slice(&digest[..GCM_IV_LEN]);
    iv
}

/// A 32-byte key sealed (AES-GCM) to one attestation session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedKey {
    /// GCM ciphertext of the 32-byte key.
    pub ciphertext: Vec<u8>,
    /// GCM authentication tag.
    pub tag: [u8; GCM_TAG_LEN],
}

impl SealedKey {
    /// Seals `key` under the session (verifier side).
    pub(crate) fn seal<K: TicketKind>(
        session: &SessionSecret,
        subject: &str,
        measurement: &Measurement,
        nonce: &[u8; 32],
        key: &[u8; 32],
    ) -> Self {
        let gcm = AesGcm::new(&session.key::<K>());
        let (ciphertext, tag) = gcm.seal(
            &seal_iv::<K>(nonce),
            &seal_ad::<K>(subject, measurement, nonce),
            key,
        );
        SealedKey { ciphertext, tag }
    }

    /// Opens the seal (kernel side). Any mismatch in kind, session,
    /// subject, measurement or nonce fails the tag check.
    pub(crate) fn open<K: TicketKind>(
        &self,
        session: &SessionSecret,
        subject: &str,
        measurement: &Measurement,
        nonce: &[u8; 32],
    ) -> Result<[u8; 32], AttestError> {
        let gcm = AesGcm::new(&session.key::<K>());
        let plain = gcm
            .open(
                &seal_iv::<K>(nonce),
                &seal_ad::<K>(subject, measurement, nonce),
                &self.ciphertext,
                &self.tag,
            )
            .map_err(|e| AttestError::SealTamper(e.to_string()))?;
        plain
            .try_into()
            .map_err(|_| AttestError::SealTamper("sealed key is not 32 bytes".into()))
    }

    /// Canonical wire encoding.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&self.ciphertext);
        w.put_fixed(&self.tag);
        w.finish()
    }

    /// Parses the [`SealedKey::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let ciphertext = r.get_bytes()?.to_vec();
        let tag = r.get_fixed()?;
        r.finish()?;
        Ok(SealedKey { ciphertext, tag })
    }
}

/// The verifier-issued release credential of kind `K`: the subject it
/// is bound to (tenant name or accelerator product), measurement,
/// session id, the sealed key, and the verifier's signature over all
/// of it. Both kinds share one wire layout; only the tags differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ticket<K: TicketKind> {
    subject: String,
    measurement: Measurement,
    session: [u8; 32],
    sealed_key: SealedKey,
    verifier_public: VerifyingKey,
    signature: Signature,
    kind: PhantomData<K>,
}

/// The Data Owner's admission ticket. `ShieldService::register_tenant`
/// accepts only tenants carrying a valid one (wrapped in an
/// [`AttestedTenant`] by on-device redemption).
pub type AttestationTicket = Ticket<DataKey>;

/// The IP Vendor's Bitstream-Key release, redeemed on-device by
/// [`crate::SecurityKernel::redeem_bitstream_key`].
pub type BitstreamKeyTicket = Ticket<BitstreamKey>;

impl<K: TicketKind> Ticket<K> {
    fn message(
        subject: &str,
        measurement: &Measurement,
        session: &[u8; 32],
        sealed_key: &SealedKey,
        verifier_public: &VerifyingKey,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(K::TICKET_TAG);
        w.put_str(subject);
        w.put_fixed(&measurement.0);
        w.put_fixed(session);
        w.put_fixed(&Sha256::digest(&sealed_key.to_bytes()));
        w.put_fixed(&verifier_public.0);
        w.finish()
    }

    /// Issues a ticket (verifier side).
    pub(crate) fn issue(
        signing: &SigningKey,
        subject: &str,
        measurement: Measurement,
        session: [u8; 32],
        sealed_key: SealedKey,
    ) -> Self {
        let verifier_public = signing.verifying_key();
        let message = Self::message(
            subject,
            &measurement,
            &session,
            &sealed_key,
            &verifier_public,
        );
        Ticket {
            subject: subject.to_owned(),
            measurement,
            session,
            sealed_key,
            verifier_public,
            signature: signing.sign(&message),
            kind: PhantomData,
        }
    }

    /// The subject the ticket is bound to: the tenant name of a DEK
    /// ticket, the accelerator product of a Bitstream-Key ticket.
    #[must_use]
    pub fn subject(&self) -> &str {
        &self.subject
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

    /// The sealed key blob.
    #[must_use]
    pub fn sealed_key(&self) -> &SealedKey {
        &self.sealed_key
    }

    /// The issuing verifier's public key.
    #[must_use]
    pub fn verifier_public(&self) -> VerifyingKey {
        self.verifier_public
    }

    /// Checks the ticket: issued by `trusted`, bound to `subject`, and
    /// signature-valid.
    ///
    /// # Errors
    ///
    /// * [`AttestError::BadSignature`] — issuer is not the trusted
    ///   verifier, or the signature does not verify.
    /// * [`AttestError::WrongTenant`] — bound to a different subject.
    pub fn verify(&self, trusted: &VerifyingKey, subject: &str) -> Result<(), AttestError> {
        if self.verifier_public != *trusted {
            return Err(AttestError::BadSignature(
                "ticket issued by an untrusted verifier".into(),
            ));
        }
        if self.subject != subject {
            return Err(AttestError::WrongTenant {
                expected: subject.to_owned(),
                got: self.subject.clone(),
            });
        }
        let message = Self::message(
            &self.subject,
            &self.measurement,
            &self.session,
            &self.sealed_key,
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
        w.put_str(&self.subject);
        w.put_fixed(&self.measurement.0);
        w.put_fixed(&self.session);
        w.put_bytes(&self.sealed_key.to_bytes());
        w.put_fixed(&self.verifier_public.0);
        w.put_fixed(&self.signature.0);
        w.finish()
    }

    /// Parses the [`Ticket::to_bytes`] encoding. Parsing does not
    /// authenticate: call [`Ticket::verify`] (or redeem on-device)
    /// before trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::Malformed`] on truncation or a non-UTF-8
    /// subject.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AttestError> {
        let mut r = Reader::new(bytes);
        let subject = r.get_str()?.to_owned();
        let measurement = Measurement(r.get_fixed()?);
        let session = r.get_fixed()?;
        let sealed_key = SealedKey::from_bytes(r.get_bytes()?)?;
        let verifier_public = VerifyingKey(r.get_fixed()?);
        let signature = Signature(r.get_fixed()?);
        r.finish()?;
        Ok(Ticket {
            subject,
            measurement,
            session,
            sealed_key,
            verifier_public,
            signature,
            kind: PhantomData,
        })
    }
}

impl AttestationTicket {
    /// The tenant name the ticket is bound to.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.subject
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

    fn session(shared: u8) -> SessionSecret {
        SessionSecret::new(
            [shared; 32],
            &[3u8; 32],
            &[4u8; 32],
            &[5u8; 32],
            &measurement(),
        )
    }

    #[test]
    fn sealed_dek_round_trip_binds_context() {
        let key = session(9);
        let nonce = [3u8; 32];
        let m = measurement();
        let sealed = SealedKey::seal::<DataKey>(&key, "alice", &m, &nonce, &[0x42u8; 32]);
        assert_eq!(
            sealed.open::<DataKey>(&key, "alice", &m, &nonce).unwrap(),
            [0x42u8; 32]
        );
        // Any context change breaks the AD binding.
        assert!(sealed.open::<DataKey>(&key, "bob", &m, &nonce).is_err());
        assert!(sealed
            .open::<DataKey>(&key, "alice", &m, &[4u8; 32])
            .is_err());
        assert!(sealed
            .open::<DataKey>(&session(8), "alice", &m, &nonce)
            .is_err());
        // So does the kind: a sealed DEK never opens as a Bitstream Key.
        assert!(sealed
            .open::<BitstreamKey>(&key, "alice", &m, &nonce)
            .is_err());
    }

    #[test]
    fn ticket_verify_and_wire_round_trip() {
        let signing = SigningKey::from_seed(&[7u8; 32]);
        let m = measurement();
        let sealed =
            SealedKey::seal::<DataKey>(&session(9), "alice", &m, &[3u8; 32], &[0x42u8; 32]);
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
        // The same bytes parse as the other kind, but its signature tag
        // differs.
        let other = BitstreamKeyTicket::from_bytes(&ticket.to_bytes()).unwrap();
        assert!(matches!(
            other.verify(&signing.verifying_key(), "alice"),
            Err(AttestError::BadSignature(_))
        ));
    }

    #[test]
    fn tampered_ticket_bytes_fail_verification() {
        let signing = SigningKey::from_seed(&[7u8; 32]);
        let m = measurement();
        let sealed =
            SealedKey::seal::<DataKey>(&session(9), "alice", &m, &[3u8; 32], &[0x42u8; 32]);
        let ticket = AttestationTicket::issue(&signing, "alice", m, [3u8; 32], sealed);
        let mut bytes = ticket.to_bytes();
        // Flip a byte inside the sealed-key ciphertext region.
        let idx = bytes.len() - 100;
        bytes[idx] ^= 1;
        let parsed = AttestationTicket::from_bytes(&bytes).unwrap();
        assert!(parsed.verify(&signing.verifying_key(), "alice").is_err());
    }
}
