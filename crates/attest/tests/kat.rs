//! Known-answer transcript tests: the attestation protocol is fully
//! deterministic, so a fixed environment seed must reproduce the exact
//! same measurement, challenge nonce, quote encoding and ticket
//! encoding on every run, on every machine. A change in any of these
//! constants is a wire-format or derivation change and must be treated
//! as a breaking protocol revision.

use shef_attest::AttestationEnvironment;
use shef_crypto::sha2::Sha256;

const KAT_SEED: &[u8] = b"shef.attest.kat.v1";
const KAT_TENANT: &str = "kat-tenant";
const KAT_DEK: [u8; 32] = [0x2A; 32];

/// SHA-256 of the Shield bitstream measurement chain for the demo
/// bitstream under the KAT seed.
const KAT_MEASUREMENT: &str = "56eefb7735029a8670fce22e2e31c363052c2680ad0232e7ee0dc0f9f0c13b0a";
/// First challenge nonce drawn from the verifier's DRBG.
const KAT_NONCE: &str = "ca6e0644d085769457a33fcc4cec80225897f6b5e71cad4cdb8f073ce5b9f4d9";
/// Verifier's first ephemeral X25519 public key.
const KAT_VERIFIER_KEM: &str = "029c56003a601d54aeed274d76443a62be196d11363e18aebee8c320416c1b44";
/// SHA-256 over the canonical quote encoding.
const KAT_QUOTE_DIGEST: &str = "7a8db824b066a8aa579398852dbe3602872afebfd6258b0b4ca0eb354dbd1026";
/// SHA-256 over the canonical ticket encoding (sealed DEK included).
const KAT_TICKET_DIGEST: &str = "2204d4c3bb30c09cdee83a2fe8a7ed3ea1538f279914456d3d9da71d2fe295ff";

fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write;
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// One full onboarding round under the KAT seed, checked byte-for-byte
/// against the golden transcript at every protocol step.
#[test]
fn fixed_seed_reproduces_the_golden_transcript() {
    let mut env = AttestationEnvironment::new(KAT_SEED).expect("environment");
    assert_eq!(
        env.measurement().expect("operational").to_hex(),
        KAT_MEASUREMENT,
        "bitstream measurement drifted"
    );

    let challenge = env.verifier_mut().challenge();
    assert_eq!(hex(&challenge.nonce), KAT_NONCE, "challenge nonce drifted");
    assert_eq!(
        hex(&challenge.verifier_kem),
        KAT_VERIFIER_KEM,
        "verifier ephemeral key drifted"
    );

    let quote = env.kernel_mut().quote(&challenge).expect("quote");
    assert_eq!(
        hex(&Sha256::digest(&quote.to_bytes())),
        KAT_QUOTE_DIGEST,
        "quote encoding drifted"
    );

    let ticket = env
        .verifier_mut()
        .verify_and_provision(&quote, KAT_TENANT, KAT_DEK)
        .expect("provision");
    assert_eq!(
        hex(&Sha256::digest(&ticket.to_bytes())),
        KAT_TICKET_DIGEST,
        "ticket encoding drifted"
    );

    let grant = env.kernel_mut().redeem(&ticket).expect("redeem");
    assert_eq!(grant.tenant(), KAT_TENANT);
    assert_eq!(grant.data_key(), KAT_DEK, "sealed DEK did not round-trip");
}

/// Two environments built from the KAT seed replay to identical
/// transcripts step by step — determinism holds across instances, not
/// just against frozen constants.
#[test]
fn transcripts_are_reproducible_across_instances() {
    let run = || {
        let mut env = AttestationEnvironment::new(KAT_SEED).expect("environment");
        let challenge = env.verifier_mut().challenge();
        let quote = env.kernel_mut().quote(&challenge).expect("quote");
        let ticket = env
            .verifier_mut()
            .verify_and_provision(&quote, KAT_TENANT, KAT_DEK)
            .expect("provision");
        (quote.to_bytes(), ticket.to_bytes())
    };
    assert_eq!(run(), run(), "same seed must replay the same transcript");
}
