//! Remote attestation, message by message — Fig. 3 on the wire.
//!
//! The quickstart drives the whole lifecycle through one `deploy()`
//! call; this example opens the hood and performs each protocol step of
//! Fig. 3 by hand, printing every value that crosses the untrusted host.
//! The IP Vendor's key release is `shef_attest`'s protocol with its
//! Bitstream-Key ticket kind:
//!
//! 1. TLS-equivalent channel setup (modelled; contents are end-to-end
//!    protected regardless).
//! 2. Vendor → Kernel: challenge = nonce `n` + ephemeral key-exchange
//!    key.
//! 3. Kernel: measured its own binary and the staged encrypted
//!    bitstream at boot; its Attestation Key is HKDF(root ‖ measurement).
//! 4. Kernel → Vendor: quote = (measurement, n, device certificate,
//!    AK certificate — the paper's σ_SecKrnl) signed by the AK (σ_α).
//! 5. Vendor: checks n, the device certificate against the
//!    Manufacturer CA, the AK certificate, σ_α, and the measurement
//!    against its registry of audited kernel × product measurements.
//! 6. Vendor → Kernel: ticket carrying AES-GCM_session(BitstrKey); the
//!    kernel redeems it and loads the accelerator it measured.
//! 7. Shield Encryption Key → Data Owner; Load Key → Shield.
//!
//! It then demonstrates the negative paths: a replayed quote, a tampered
//! quote, and a kernel no vendor audited are all refused, each with its
//! typed reason.
//!
//! Run with: `cargo run --release --example attestation_flow`

use shef::attest::AttestError;
use shef::core::boot::secure_boot;
use shef::core::shield::{EngineSetConfig, MemRange, Shield, ShieldConfig};
use shef::core::workflow::{IpVendor, TestBench};
use shef::core::ShefError;
use shef::crypto::to_hex;
use shef::fpga::board::image_names;

fn hex8(bytes: &[u8]) -> String {
    format!("{}…", &to_hex(bytes)[..16])
}

/// The typed reason the vendor refused, if it refused.
fn refusal<T>(result: Result<T, ShefError>) -> Option<AttestError> {
    match result {
        Err(ShefError::AttestationFailed(e)) => Some(e),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut bench = TestBench::new("attestation-flow");
    let mut board = bench.fresh_board(b"die-attest-042")?;

    // The vendor's product: a Shielded accelerator, encrypted under the
    // Bitstream Encryption Key that attestation will deliver.
    let config = ShieldConfig::builder()
        .region(
            "data",
            MemRange::new(0, 64 * 1024),
            EngineSetConfig::default(),
        )
        .build()?;
    let product = bench.vendor.package_accelerator(
        "attest-demo-v1",
        config.clone(),
        b"<netlist>".to_vec(),
    )?;
    board.boot_medium.store(
        image_names::ACCELERATOR_BITSTREAM,
        product.encrypted_bitstream.0.clone(),
    );

    // Secure boot must precede attestation: the kernel measures itself
    // and the staged bitstream, and derives its Attestation Key.
    let mut kernel = secure_boot(&mut board)?;
    let report = kernel.report();
    println!("[boot]    H(SecKrnl)      = {}", hex8(&report.kernel_hash));
    println!(
        "[boot]    measurement     = {}",
        hex8(&report.measurement.0)
    );
    println!(
        "[boot]    boot time       = {:.1} ms (model)",
        report.timing.total_ms()
    );
    println!();

    // ---- Fig. 3 steps 1–2: challenge.
    let challenge = bench.vendor.challenge();
    println!("[vendor]  n               = {}", hex8(&challenge.nonce));
    println!(
        "[vendor]  VerifKey_pub    = {}",
        hex8(&challenge.verifier_kem)
    );

    // ---- Steps 3–4: the kernel signs a quote. Everything below
    // travels through the untrusted host program.
    let quote = kernel.quote(&board, &challenge)?;
    println!("[kernel]  quote.nonce     = {}", hex8(&quote.nonce));
    println!("[kernel]  measurement     = {}", hex8(&quote.measurement.0));
    println!("[kernel]  AttestKey_pub   = {}", hex8(&quote.ak_public.0));
    println!(
        "[kernel]  device cert     = die {}",
        String::from_utf8_lossy(&quote.device_cert.die_serial)
    );
    println!(
        "[kernel]  σ_SecKrnl       = {}",
        hex8(&quote.ak_cert.signature.0)
    );
    println!("[kernel]  σ_α             = {}", hex8(&quote.signature.0));

    // ---- Steps 5–6: vendor-side verification and sealed release.
    let ticket = bench.vendor.release_bitstream_key(&quote)?;
    println!();
    println!("[vendor]  nonce ✓  device cert ✓  σ_SecKrnl ✓  σ_α ✓  measurement ✓");
    println!(
        "[vendor]  ticket for '{}': sealed BitstrKey = {} bytes",
        ticket.subject(),
        ticket.sealed_key().to_bytes().len()
    );

    // ---- Step 6 (kernel side): redeem, decrypt + load the accelerator.
    let bitstream = kernel.load_accelerator(&mut board, &ticket)?;
    println!(
        "[kernel]  bitstream '{}' decrypted and loaded into PR region",
        bitstream.accel_id
    );

    // ---- Steps 7–8: Shield Encryption Key → Load Key → Shield.
    let mut shield = Shield::new(bitstream.shield_config.clone(), bitstream.shield_keypair())?;
    assert_eq!(shield.public_key(), product.shield_public);
    let dek = bench.data_owner.generate_data_key();
    let load_key = bench
        .data_owner
        .build_load_key(&dek, &product.shield_public);
    shield.provision_load_key(&load_key)?;
    println!("[owner]   LoadKey accepted; Shield provisioned ✓");
    println!();

    // ---- Negative paths: what the protocol must refuse.
    // (a) Replay: the consumed quote again.
    let replay = bench.vendor.release_bitstream_key(&quote);
    assert_eq!(refusal(replay), Some(AttestError::ReplayedNonce));
    println!("[vendor]  replayed quote        → refused ✓ (nonce already consumed)");

    // (b) Tampered quote: one flipped bit in σ_α, on a fresh challenge.
    let fresh = bench.vendor.challenge();
    let mut tampered = kernel.quote(&board, &fresh)?;
    tampered.signature.0[0] ^= 1;
    let bad = bench.vendor.release_bitstream_key(&tampered);
    assert!(matches!(refusal(bad), Some(AttestError::BadSignature(_))));
    println!("[vendor]  tampered quote        → refused ✓ (σ_α invalid)");

    // (c) Unknown kernel: a genuine quote, but to a vendor that audited
    //     no Security Kernel, so no measurement is in its registry.
    let mut paranoid = IpVendor::new("paranoid", bench.manufacturer.ca_root(), &[]);
    paranoid.package_accelerator(&product.accel_id, config, b"<netlist>".to_vec())?;
    let genuine = kernel.quote(&board, &paranoid.challenge())?;
    let miss = paranoid.release_bitstream_key(&genuine);
    assert!(matches!(
        refusal(miss),
        Some(AttestError::UnknownMeasurement(_))
    ));
    println!("[vendor]  unaudited kernel      → refused ✓ (measurement not in registry)");

    println!();
    println!("attestation flow complete: positive path ✓ three negative paths ✓");
    Ok(())
}
