//! Remote attestation and key provisioning for ShEF.
//!
//! This crate is the workspace's one attestation protocol: the paper's
//! end-to-end handshake (§4, Fig. 3) by which a remote party convinces
//! itself that a genuine ShEF Security Kernel, running a known-good
//! measured image on a genuine device, is the *only* party able to
//! recover the key it releases. Two keys are released this way, as two
//! [`TicketKind`]s on the same quote and session machinery:
//!
//! * the Data Owner's **Data Encryption Key** ([`AttestationTicket`]),
//!   which admits a tenant to the multi-tenant Shield service in
//!   `shef-core`;
//! * the IP Vendor's **Bitstream Encryption Key**
//!   ([`BitstreamKeyTicket`]), which lets `shef_core::workflow` decrypt
//!   and load the accelerator the kernel measured.
//!
//! # The protocol
//!
//! Four parties, all deterministic models:
//!
//! * the **Manufacturer** ([`ManufacturerCa`]) burns the AES device key
//!   and certifies the device's attestation identity;
//! * the **SPB** (`shef_fpga::spb`) boots the measured Security Kernel
//!   and hands it an [`AttestationRoot`] — an HKDF child of the burned
//!   device key that never leaves the SPB in raw form;
//! * the **Security Kernel** ([`SecurityKernel`]) measures the Shield
//!   bitstream into a SHA-256 [`MeasurementChain`], derives its
//!   Attestation Key from root ‖ measurement, and signs Ed25519
//!   [`Quote`]s;
//! * the **Remote Verifier** ([`RemoteVerifier`]) — the Data Owner's
//!   or the IP Vendor's agent — issues nonce challenges, checks the
//!   certificate chain and the measurement against a known-good
//!   registry, and on success seals its key (AES-GCM) to the enclave
//!   session, issuing a signed ticket.
//!
//! The kernel redeems a DEK ticket ([`SecurityKernel::redeem`]) into an
//! [`AttestedTenant`] — the only constructor of that type — which is
//! what `shef_core::shield::ShieldService::register_tenant` demands:
//! tenant admission is structurally impossible without a completed
//! attestation. A Bitstream-Key ticket redeems
//! ([`SecurityKernel::redeem_bitstream_key`]) into the plain key, never
//! an `AttestedTenant`.
//!
//! ```text
//!  Verifier                          Security Kernel
//!     │  challenge(nonce, g^v)  ───────────▶ │
//!     │                                      │ measure(bitstream)
//!     │ ◀───────  quote = Sign_AK(meas ‖     │ AK = HKDF(root, meas)
//!     │            nonce ‖ g^v ‖ certs)      │ K = HKDF(g^vk, transcript)
//!     │ verify chain, meas ∈ registry,       │
//!     │ σ, nonce fresh; K = HKDF(g^vk, ·)    │
//!     │  ticket{AES-GCM_K(DEK), σ_V} ──────▶ │ redeem → AttestedTenant
//!     │                                      │     └──▶ register_tenant
//! ```
//!
//! # Example
//!
//! The honest flow end to end, spelled out (the one-call fixture for
//! tests and services is [`AttestationEnvironment`]):
//!
//! ```
//! use shef_attest::{AttestationEnvironment, Measurement};
//!
//! let mut env = AttestationEnvironment::new(b"doc-example")?;
//! // The Data Owner picks a DEK and walks challenge → quote →
//! // verification → sealed provisioning → on-device redemption:
//! let grant = env.onboard("alice", [0x42u8; 32])?;
//! assert_eq!(grant.tenant(), "alice");
//! assert_eq!(grant.data_key(), [0x42u8; 32]);
//! // The ticket is verifier-signed and bound to the tenant name.
//! grant.ticket().verify(&env.verifier_public(), "alice")?;
//! assert!(grant.ticket().verify(&env.verifier_public(), "mallory").is_err());
//! # Ok::<(), shef_attest::AttestError>(())
//! ```
//!
//! Every failure mode is a typed [`AttestError`]; the fault-injection
//! campaign in `shef-testkit` drives forged quotes, replayed nonces,
//! wrong-measurement bitstreams and tampered sealed DEKs through these
//! APIs and requires each to surface as a detection, never silently.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod env;
pub mod identity;
pub mod kernel;
pub mod measure;
pub mod ticket;
pub mod verifier;

pub use env::AttestationEnvironment;
pub use identity::{AkCert, DeviceCert, ManufacturerCa};
pub use kernel::{KernelState, SecurityKernel};
pub use measure::{Measurement, MeasurementChain, MeasurementRegistry};
pub use shef_fpga::spb::AttestationRoot;
pub use ticket::{
    AttestationTicket, AttestedTenant, BitstreamKey, BitstreamKeyTicket, DataKey, SealedKey,
    Ticket, TicketKind,
};
pub use verifier::{Challenge, Quote, RemoteVerifier};

/// A typed attestation failure. Every rejection path in the protocol
/// maps to a distinct variant so callers (and the fault campaign) can
/// check *why* a run was refused, not just that it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// A wire encoding failed to parse.
    Malformed(String),
    /// The device or Attestation-Key certificate chain did not verify.
    CertChain(String),
    /// A quote or ticket signature did not verify under the expected
    /// key.
    BadSignature(String),
    /// The quoted measurement is not in the verifier's known-good
    /// registry (hex digest attached).
    UnknownMeasurement(String),
    /// The quote names a nonce this verifier never issued.
    UnknownNonce,
    /// The quote names a nonce that was already consumed by a
    /// successful verification — a replayed transcript.
    ReplayedNonce,
    /// The sealed key failed authenticated decryption: tampered
    /// ciphertext, a blob spliced from another session, or a ticket of
    /// the other kind.
    SealTamper(String),
    /// The ticket names a session this kernel does not hold (never ran,
    /// or already redeemed — tickets are one-shot on-device).
    UnknownSession,
    /// The artifact is bound to a different tenant name.
    WrongTenant {
        /// Name the caller asked for.
        expected: String,
        /// Name the artifact is bound to.
        got: String,
    },
    /// A protocol state-machine violation (e.g. quoting before a
    /// bitstream was measured).
    State(String),
}

impl core::fmt::Display for AttestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttestError::Malformed(m) => write!(f, "malformed attestation message: {m}"),
            AttestError::CertChain(m) => write!(f, "certificate chain rejected: {m}"),
            AttestError::BadSignature(m) => write!(f, "signature verification failed: {m}"),
            AttestError::UnknownMeasurement(hex) => {
                write!(f, "measurement {hex} is not in the known-good registry")
            }
            AttestError::UnknownNonce => write!(f, "quote nonce was never issued"),
            AttestError::ReplayedNonce => {
                write!(f, "quote nonce already consumed (replayed transcript)")
            }
            AttestError::SealTamper(m) => {
                write!(f, "sealed key failed authenticated decryption: {m}")
            }
            AttestError::UnknownSession => {
                write!(
                    f,
                    "no open session for this ticket (unknown or already redeemed)"
                )
            }
            AttestError::WrongTenant { expected, got } => {
                write!(f, "artifact bound to tenant '{got}', expected '{expected}'")
            }
            AttestError::State(m) => write!(f, "protocol state violation: {m}"),
        }
    }
}

impl std::error::Error for AttestError {}

impl From<shef_crypto::wire::WireError> for AttestError {
    fn from(e: shef_crypto::wire::WireError) -> Self {
        AttestError::Malformed(e.0)
    }
}
