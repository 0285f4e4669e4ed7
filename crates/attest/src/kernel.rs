//! The measured Security Kernel: quote issuance and ticket redemption.
//!
//! The kernel is the on-device end of the attestation protocol. The SPB
//! boots it measured and hands it an [`AttestationRoot`]; from there it
//! is a two-state machine:
//!
//! ```text
//!            measure(label, image)
//!   ┌───────┐ ─────────────────────▶ ┌─────────────┐
//!   │ Reset │                        │ Operational │──┐
//!   └───────┘                        └─────────────┘  │ measure
//!       │                               ▲             │ (extends the chain,
//!       │ quote / redeem                └─────────────┘  re-derives the AK)
//!       ▼ → AttestError::State
//!     reject
//! ```
//!
//! What gets measured is the deployment's choice: the DEK flow measures
//! the Shield bitstream, the IP Vendor's flow measures the Security
//! Kernel binary and then the staged encrypted accelerator.
//!
//! In `Operational` the kernel holds an Attestation Key derived from
//! `HKDF(root ‖ measurement)` — device-bound *and* measurement-bound,
//! so a kernel that loaded a different image simply holds a different
//! key and cannot sign convincing quotes for the good one — plus a
//! self-issued [`AkCert`] tying the AK to the measurement under the
//! device identity.
//!
//! Every quote opens one session: the secret it shares with the
//! verifier that sent the challenge. A session is consumed when a
//! matching ticket of either kind is redeemed —
//! [`SecurityKernel::redeem`] (the sole constructor of
//! [`AttestedTenant`]) or [`SecurityKernel::redeem_bitstream_key`].
//! At most [`MAX_OPEN_SESSIONS`] stay open; a quote beyond that evicts
//! the oldest, so a host relaying challenges in a loop cannot grow the
//! table.
//!
//! # Example
//!
//! ```
//! use shef_attest::kernel::{KernelState, SecurityKernel};
//! use shef_attest::{AttestationRoot, ManufacturerCa};
//!
//! let ca = ManufacturerCa::from_seed(b"example-ca");
//! let root = AttestationRoot::from_device_key(&[7u8; 32]);
//! let cert = ca.certify_device(b"die-0001", &root);
//! let mut kernel = SecurityKernel::new(root, b"die-0001", cert)?;
//! assert_eq!(kernel.state(), KernelState::Reset);
//! kernel.measure("shield-bitstream", b"mock shield image");
//! assert_eq!(kernel.state(), KernelState::Operational);
//! # Ok::<(), shef_attest::AttestError>(())
//! ```

use std::collections::VecDeque;

use shef_crypto::ecies::EciesKeyPair;
use shef_crypto::ed25519::SigningKey;
use shef_crypto::hkdf;
use shef_fpga::spb::AttestationRoot;
use shef_telemetry::{Counter, Telemetry};

use crate::identity::{device_identity, AkCert, DeviceCert};
use crate::measure::{Measurement, MeasurementChain};
use crate::ticket::{
    AttestationTicket, AttestedTenant, BitstreamKeyTicket, SessionSecret, Ticket, TicketKind,
};
use crate::verifier::{Challenge, Quote};
use crate::AttestError;

/// HKDF label for the Ed25519 (quote-signing) half of the AK.
const AK_SIGN_LABEL: &[u8] = b"shef.attest.ak.sign.v1";
/// HKDF label for the X25519 (key-exchange) half of the AK.
const AK_KEM_LABEL: &[u8] = b"shef.attest.ak.kem.v1";

/// How many quoted-but-unredeemed sessions a kernel keeps; a quote
/// beyond this evicts the oldest open session.
pub const MAX_OPEN_SESSIONS: usize = 64;

/// Where the kernel state machine currently is (see the module docs for
/// the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelState {
    /// Booted, but nothing measured yet: the kernel holds no
    /// Attestation Key and refuses to quote.
    Reset,
    /// An image has been measured in; the AK exists and
    /// quotes/redemptions are served.
    Operational,
}

/// The Attestation Key material for one measurement (rebuilt on every
/// chain extension).
struct AttestationKey {
    measurement: Measurement,
    sign: SigningKey,
    kem: EciesKeyPair,
    cert: AkCert,
}

/// One quoted session awaiting its ticket.
struct OpenSession {
    nonce: [u8; 32],
    secret: SessionSecret,
    measurement: Measurement,
}

/// Counters the kernel bumps when a registry is attached.
struct KernelTelemetry {
    quotes: Counter,
    redeemed: Counter,
    rejected: Counter,
}

/// The on-device Security Kernel model. See the module docs.
pub struct SecurityKernel {
    root: AttestationRoot,
    device_cert: DeviceCert,
    identity: SigningKey,
    chain: MeasurementChain,
    ak: Option<AttestationKey>,
    /// Open sessions, oldest first. An entry leaves by a successful
    /// redeem, or by eviction once [`MAX_OPEN_SESSIONS`] are open.
    sessions: VecDeque<OpenSession>,
    tele: Option<KernelTelemetry>,
}

impl core::fmt::Debug for SecurityKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecurityKernel")
            .field("state", &self.state())
            .field("die_serial", &self.device_cert.die_serial)
            .field("open_sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl SecurityKernel {
    /// Boots the kernel from the SPB hand-off: the attestation root,
    /// the die serial, and the Manufacturer-issued device certificate.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::CertChain`] if `device_cert` does not
    /// certify the identity key this device actually derives — i.e. the
    /// certificate belongs to some other device or root.
    pub fn new(
        root: AttestationRoot,
        die_serial: &[u8],
        device_cert: DeviceCert,
    ) -> Result<Self, AttestError> {
        let identity = device_identity(&root, die_serial);
        if device_cert.device_public != identity.verifying_key()
            || device_cert.die_serial != die_serial
        {
            return Err(AttestError::CertChain(
                "device certificate does not match this device's derived identity".into(),
            ));
        }
        Ok(SecurityKernel {
            root,
            device_cert,
            identity,
            chain: MeasurementChain::new(),
            ak: None,
            sessions: VecDeque::new(),
            tele: None,
        })
    }

    /// Registers `shield.attest.kernel.*` counters on `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = Some(KernelTelemetry {
            quotes: telemetry.counter("shield.attest.kernel.quotes"),
            redeemed: telemetry.counter("shield.attest.kernel.redeemed"),
            rejected: telemetry.counter("shield.attest.kernel.rejected"),
        });
    }

    /// Current state-machine state.
    #[must_use]
    pub fn state(&self) -> KernelState {
        if self.ak.is_some() {
            KernelState::Operational
        } else {
            KernelState::Reset
        }
    }

    /// The Manufacturer-issued device certificate carried in quotes.
    #[must_use]
    pub fn device_cert(&self) -> &DeviceCert {
        &self.device_cert
    }

    /// Measures a labelled image into the chain and (re)derives the
    /// Attestation Key under the new measurement. Transitions
    /// `Reset → Operational`; calling again extends the chain (a second
    /// image, or a partial-reconfiguration reload) — the old AK (and
    /// any quotes signed with it) stops matching the new measurement.
    pub fn measure(&mut self, label: &str, image: &[u8]) {
        self.chain.extend(label, image);
        let measurement = self.chain.current();
        let sign_seed = hkdf::derive_key32(AK_SIGN_LABEL, &self.root.to_bytes(), &measurement.0);
        let sign = SigningKey::from_seed(&sign_seed);
        let kem_seed = hkdf::derive_key32(AK_KEM_LABEL, &self.root.to_bytes(), &measurement.0);
        let kem = EciesKeyPair::from_seed(&kem_seed);
        let cert = AkCert::issue(
            &self.identity,
            measurement,
            sign.verifying_key(),
            kem.public_key().0,
        );
        self.ak = Some(AttestationKey {
            measurement,
            sign,
            kem,
            cert,
        });
    }

    /// The current measurement.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::State`] in `Reset` (nothing measured).
    pub fn measurement(&self) -> Result<Measurement, AttestError> {
        self.ak
            .as_ref()
            .map(|ak| ak.measurement)
            .ok_or_else(|| AttestError::State("no image has been measured".into()))
    }

    /// The self-issued Attestation-Key certificate.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::State`] in `Reset`.
    pub fn ak_cert(&self) -> Result<&AkCert, AttestError> {
        self.ak
            .as_ref()
            .map(|ak| &ak.cert)
            .ok_or_else(|| AttestError::State("no Attestation Key derived yet".into()))
    }

    /// Answers a verifier challenge with a signed quote, opening a
    /// session keyed by the challenge nonce (replacing any open session
    /// under the same nonce, and evicting the oldest one when
    /// [`MAX_OPEN_SESSIONS`] are already open).
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::State`] in `Reset` — a kernel with no
    /// measured image has nothing to attest.
    pub fn quote(&mut self, challenge: &Challenge) -> Result<Quote, AttestError> {
        let Some(ak) = self.ak.as_ref() else {
            if let Some(t) = &self.tele {
                t.rejected.inc();
            }
            return Err(AttestError::State(
                "cannot quote before an image is measured".into(),
            ));
        };
        let shared = ak
            .kem
            .diffie_hellman(&shef_crypto::ecies::EciesPublicKey(challenge.verifier_kem));
        let secret = SessionSecret::new(
            shared,
            &challenge.nonce,
            &challenge.verifier_kem,
            &ak.kem.public_key().0,
            &ak.measurement,
        );
        self.sessions.retain(|s| s.nonce != challenge.nonce);
        if self.sessions.len() == MAX_OPEN_SESSIONS {
            self.sessions.pop_front();
        }
        self.sessions.push_back(OpenSession {
            nonce: challenge.nonce,
            secret,
            measurement: ak.measurement,
        });
        if let Some(t) = &self.tele {
            t.quotes.inc();
        }
        Ok(Quote::sign(
            &ak.sign,
            ak.measurement,
            challenge,
            ak.kem.public_key().0,
            self.device_cert.clone(),
            ak.cert.clone(),
        ))
    }

    /// Redeems a verifier-issued DEK ticket against the session it
    /// names, unsealing the tenant DEK inside the enclave. This is the
    /// **only** constructor of [`AttestedTenant`]. Sessions are
    /// one-shot: a successful redeem consumes the session, so a second
    /// redeem of the same ticket fails with
    /// [`AttestError::UnknownSession`]. A failed unseal leaves the
    /// session open — a tampered ticket cannot burn the honest party's
    /// session.
    ///
    /// # Errors
    ///
    /// * [`AttestError::UnknownSession`] — the ticket names a nonce with
    ///   no open session (never quoted here, evicted, or already
    ///   redeemed).
    /// * [`AttestError::UnknownMeasurement`] — the ticket's stated
    ///   measurement is not the one this kernel quoted for the session.
    /// * [`AttestError::SealTamper`] — the sealed DEK failed
    ///   authenticated decryption (tampered, spliced from another
    ///   session/tenant/measurement, or sealed as another ticket kind).
    pub fn redeem(&mut self, ticket: &AttestationTicket) -> Result<AttestedTenant, AttestError> {
        let dek = self.redeem_key(ticket)?;
        Ok(AttestedTenant::new(ticket.clone(), dek))
    }

    /// Redeems the IP Vendor's Bitstream-Key ticket into the plain
    /// Bitstream Encryption Key, under the same one-shot session rules
    /// as [`SecurityKernel::redeem`].
    ///
    /// # Errors
    ///
    /// As [`SecurityKernel::redeem`].
    pub fn redeem_bitstream_key(
        &mut self,
        ticket: &BitstreamKeyTicket,
    ) -> Result<[u8; 32], AttestError> {
        self.redeem_key(ticket)
    }

    fn redeem_key<K: TicketKind>(&mut self, ticket: &Ticket<K>) -> Result<[u8; 32], AttestError> {
        let opened = self.open_session(ticket);
        if let Some(t) = &self.tele {
            if opened.is_ok() {
                t.redeemed.inc();
            } else {
                t.rejected.inc();
            }
        }
        opened
    }

    fn open_session<K: TicketKind>(&mut self, ticket: &Ticket<K>) -> Result<[u8; 32], AttestError> {
        let nonce = ticket.session();
        let index = self
            .sessions
            .iter()
            .position(|s| s.nonce == nonce)
            .ok_or(AttestError::UnknownSession)?;
        let session = &self.sessions[index];
        if ticket.measurement() != session.measurement {
            return Err(AttestError::UnknownMeasurement(
                ticket.measurement().to_hex(),
            ));
        }
        let key = ticket.sealed_key().open::<K>(
            &session.secret,
            ticket.subject(),
            &session.measurement,
            &nonce,
        )?;
        self.sessions.remove(index);
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::ManufacturerCa;

    fn kernel() -> SecurityKernel {
        let ca = ManufacturerCa::from_seed(b"kernel-tests");
        let root = AttestationRoot::from_device_key(&[5u8; 32]);
        let cert = ca.certify_device(b"die-1", &root);
        SecurityKernel::new(root, b"die-1", cert).unwrap()
    }

    #[test]
    fn boot_rejects_foreign_device_cert() {
        let ca = ManufacturerCa::from_seed(b"kernel-tests");
        let root = AttestationRoot::from_device_key(&[5u8; 32]);
        let other_root = AttestationRoot::from_device_key(&[6u8; 32]);
        let cert = ca.certify_device(b"die-1", &other_root);
        assert!(matches!(
            SecurityKernel::new(root, b"die-1", cert),
            Err(AttestError::CertChain(_))
        ));
    }

    #[test]
    fn reset_kernel_refuses_to_quote() {
        let mut k = kernel();
        assert_eq!(k.state(), KernelState::Reset);
        let challenge = Challenge {
            nonce: [1u8; 32],
            verifier_kem: [2u8; 32],
        };
        assert!(matches!(k.quote(&challenge), Err(AttestError::State(_))));
    }

    #[test]
    fn reload_changes_measurement_and_ak() {
        let mut k = kernel();
        k.measure("shield", b"image-a");
        let m1 = k.measurement().unwrap();
        let ak1 = k.ak_cert().unwrap().ak_public;
        k.measure("shield", b"image-b");
        let m2 = k.measurement().unwrap();
        let ak2 = k.ak_cert().unwrap().ak_public;
        assert_ne!(m1, m2);
        assert_ne!(ak1, ak2);
    }

    #[test]
    fn ak_cert_verifies_under_device_identity() {
        let mut k = kernel();
        k.measure("shield", b"image");
        let device_public = k.device_cert().device_public;
        k.ak_cert().unwrap().verify(&device_public).unwrap();
    }

    #[test]
    fn bitstream_key_ticket_redeems_into_the_plain_key() {
        let mut env = crate::AttestationEnvironment::new(b"kernel-tests").unwrap();
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).unwrap();
        let ticket = env
            .verifier_mut()
            .verify_and_release(&quote, "accel-1", [0x77u8; 32])
            .unwrap();
        ticket.verify(&env.verifier_public(), "accel-1").unwrap();
        assert_eq!(
            env.kernel_mut().redeem_bitstream_key(&ticket),
            Ok([0x77u8; 32])
        );
        assert_eq!(
            env.kernel_mut().redeem_bitstream_key(&ticket),
            Err(AttestError::UnknownSession)
        );
    }

    #[test]
    fn ticket_kinds_do_not_cross() {
        let mut env = crate::AttestationEnvironment::new(b"kernel-tests").unwrap();
        let ch_dek = env.verifier_mut().challenge();
        let q_dek = env.kernel_mut().quote(&ch_dek).unwrap();
        let dek_ticket = env
            .verifier_mut()
            .verify_and_provision(&q_dek, "alice", [0x11u8; 32])
            .unwrap();
        let ch_bk = env.verifier_mut().challenge();
        let q_bk = env.kernel_mut().quote(&ch_bk).unwrap();
        let bk_ticket = env
            .verifier_mut()
            .verify_and_release(&q_bk, "alice", [0x22u8; 32])
            .unwrap();

        // Both kinds share one wire layout, so each parses as the other;
        // the kind-specific session key and AD tag refuse the unseal.
        let dek_as_bk = BitstreamKeyTicket::from_bytes(&dek_ticket.to_bytes()).unwrap();
        assert!(matches!(
            env.kernel_mut().redeem_bitstream_key(&dek_as_bk),
            Err(AttestError::SealTamper(_))
        ));
        let bk_as_dek = AttestationTicket::from_bytes(&bk_ticket.to_bytes()).unwrap();
        assert!(matches!(
            env.kernel_mut().redeem(&bk_as_dek),
            Err(AttestError::SealTamper(_))
        ));
        assert!(bk_as_dek.verify(&env.verifier_public(), "alice").is_err());

        // The refused cross-kind attempts left both sessions open.
        assert_eq!(
            env.kernel_mut().redeem(&dek_ticket).unwrap().data_key(),
            [0x11u8; 32]
        );
        assert_eq!(
            env.kernel_mut().redeem_bitstream_key(&bk_ticket),
            Ok([0x22u8; 32])
        );
    }

    #[test]
    fn open_sessions_are_capped_oldest_first() {
        let mut env = crate::AttestationEnvironment::new(b"kernel-tests").unwrap();
        let first = env.verifier_mut().challenge();
        let q_first = env.kernel_mut().quote(&first).unwrap();
        let evicted = env
            .verifier_mut()
            .verify_and_provision(&q_first, "victim", [1u8; 32])
            .unwrap();
        // A host relaying challenges in a loop: every quote opens a
        // session nobody redeems.
        for _ in 0..MAX_OPEN_SESSIONS {
            let flood = env.verifier_mut().challenge();
            env.kernel_mut().quote(&flood).unwrap();
        }
        assert_eq!(env.kernel().sessions.len(), MAX_OPEN_SESSIONS);
        let newest = env.verifier_mut().challenge();
        let q_newest = env.kernel_mut().quote(&newest).unwrap();
        let honest = env
            .verifier_mut()
            .verify_and_provision(&q_newest, "alice", [2u8; 32])
            .unwrap();
        assert_eq!(env.kernel().sessions.len(), MAX_OPEN_SESSIONS);
        assert_eq!(
            env.kernel_mut().redeem(&honest).unwrap().data_key(),
            [2u8; 32]
        );
        assert_eq!(
            env.kernel_mut().redeem(&evicted).unwrap_err(),
            AttestError::UnknownSession
        );
    }
}
