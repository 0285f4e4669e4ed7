//! Remote attestation, message by message — Fig. 3 on the wire.
//!
//! The quickstart drives the whole lifecycle through one `deploy()`
//! call; this example opens the hood and performs each protocol step of
//! Fig. 3 by hand, printing every value that crosses the untrusted host:
//!
//! 1. TLS-equivalent channel setup (modelled; contents are end-to-end
//!    protected regardless).
//! 2. Vendor → Kernel: nonce `n` + ephemeral Verification Key.
//! 3. Kernel: hashes the staged encrypted bitstream, derives the
//!    SessionKey, signs it (σ_SessionKey).
//! 4. Kernel → Vendor: report α = (n, H(Enc(Accel)), AttestKey_pub,
//!    H(SecKrnl), σ_SecKrnl), plus σ_α and σ_SessionKey.
//! 5. Vendor: verifies σ_SecKrnl against the Manufacturer CA, checks
//!    H(SecKrnl) against the public kernel registry, checks the nonce,
//!    the bitstream hash, σ_α, and σ_SessionKey.
//! 6. Vendor → Kernel: Enc_SessionKey(BitstrKey).
//! 7. Shield Encryption Key → Data Owner; Load Key → Shield.
//!
//! It then demonstrates the negative paths: a replayed response, a
//! tampered report, and a kernel hash missing from a vendor's registry
//! are all rejected, each against a fresh vendor session.
//!
//! Run with: `cargo run --release --example attestation_flow`

use shef::attest::MeasurementRegistry;
use shef::core::attest::{kernel_handle_challenge, kernel_receive_bitstream_key};
use shef::core::boot::secure_boot;
use shef::core::shield::{EngineSetConfig, MemRange, Shield, ShieldConfig};
use shef::core::workflow::{IpVendor, TestBench};
use shef::core::ShefError;
use shef::crypto::to_hex;
use shef::fpga::board::image_names;

fn hex8(bytes: &[u8]) -> String {
    format!("{}…", &to_hex(bytes)[..16])
}

/// True if the vendor refused with an attestation error naming `why`.
fn rejected<T>(result: Result<T, ShefError>, why: &str) -> bool {
    matches!(result, Err(ShefError::AttestationFailed(m)) if m.contains(why))
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

    // Secure boot must precede attestation: it provisions the
    // Attestation Key pair bound to (device key, H(SecKrnl)).
    let report = secure_boot(&mut board)?;
    println!("[boot]    H(SecKrnl)      = {}", hex8(&report.kernel_hash));
    println!(
        "[boot]    boot time       = {:.1} ms (model)",
        report.timing.total_ms()
    );
    println!();

    // ---- Fig. 3 steps 1–2: challenge.
    let (challenge, session) = bench.vendor.begin_attestation();
    println!("[vendor]  n               = {}", hex8(&challenge.nonce));
    println!(
        "[vendor]  VerifKey_pub    = {}",
        hex8(&challenge.verif_public)
    );

    // ---- Steps 3–4: the kernel builds and signs the report. Everything
    // below travels through the untrusted host program.
    let response = kernel_handle_challenge(&mut board, &challenge)?;
    println!(
        "[kernel]  α.nonce         = {}",
        hex8(&response.report.nonce)
    );
    println!(
        "[kernel]  α.H(Enc(Accel)) = {}",
        hex8(&response.report.enc_bitstream_hash)
    );
    println!(
        "[kernel]  α.AttestKey_pub = {}",
        hex8(&response.report.attest_sign_public.0)
    );
    println!(
        "[kernel]  α.H(SecKrnl)    = {}",
        hex8(&response.report.kernel_hash)
    );
    println!(
        "[kernel]  σ_SecKrnl       = {}",
        hex8(&response.report.sigma_seckrnl.0)
    );
    println!(
        "[kernel]  σ_α             = {}",
        hex8(&response.sigma_alpha.0)
    );
    println!(
        "[kernel]  σ_SessionKey    = {}",
        hex8(&response.sigma_session.0)
    );

    // ---- Steps 5–6: vendor-side verification chain.
    let device_cert = bench
        .manufacturer
        .device_cert(board.device.die_serial())
        .expect("manufacturer registered the device at production time");
    let (sealed_bitstream_key, shield_public) =
        bench
            .vendor
            .complete_attestation(session, &response, device_cert, &product.accel_id)?;
    println!();
    println!("[vendor]  device cert ✓  kernel registry ✓  nonce ✓  bitstream hash ✓");
    println!(
        "[vendor]  Enc_Session(BitstrKey) = {} bytes",
        sealed_bitstream_key.to_bytes().len()
    );

    // ---- Step 6 (kernel side): decrypt + load the accelerator.
    let bitstream = kernel_receive_bitstream_key(&mut board, &sealed_bitstream_key)?;
    println!(
        "[kernel]  bitstream '{}' decrypted and loaded into PR region",
        bitstream.accel_id
    );

    // ---- Steps 7–8: Shield Encryption Key → Load Key → Shield.
    let mut shield = Shield::new(bitstream.shield_config.clone(), bitstream.shield_keypair())?;
    assert_eq!(shield.public_key(), shield_public);
    let dek = bench.data_owner.generate_data_key();
    let load_key = bench.data_owner.build_load_key(&dek, &shield_public);
    shield.provision_load_key(&load_key)?;
    println!("[owner]   LoadKey accepted; Shield provisioned ✓");
    println!();

    // ---- Negative paths: what the protocol must reject. Each runs
    // against a fresh vendor session: the one above released its key.
    // (a) Replay: an old response against a fresh challenge fails the
    //     nonce check.
    let (_, fresh_session) = bench.vendor.begin_attestation();
    let replay =
        bench
            .vendor
            .complete_attestation(fresh_session, &response, device_cert, &product.accel_id);
    assert!(rejected(replay, "nonce"));
    println!("[vendor]  replayed response     → rejected ✓ (stale nonce)");

    // (b) Tampered report: flipping a bit in H(Enc(Accel)) breaks σ_α.
    let mut tampered = response.clone();
    tampered.report.enc_bitstream_hash[0] ^= 1;
    let (_, fresh_session) = bench.vendor.begin_attestation();
    let bad =
        bench
            .vendor
            .complete_attestation(fresh_session, &tampered, device_cert, &product.accel_id);
    assert!(rejected(bad, "σ_α"));
    println!("[vendor]  tampered α            → rejected ✓ (σ_α invalid)");

    // (c) Unknown kernel: a genuine response, but to a vendor whose
    //     public registry does not list this H(SecKrnl). Every
    //     signature verifies; the registry lookup refuses.
    let mut paranoid = IpVendor::new(
        "paranoid",
        bench.manufacturer.ca_root(),
        MeasurementRegistry::new(),
    );
    paranoid.package_accelerator(&product.accel_id, config, b"<netlist>".to_vec())?;
    let (challenge, session) = paranoid.begin_attestation();
    let genuine = kernel_handle_challenge(&mut board, &challenge)?;
    let miss = paranoid.complete_attestation(session, &genuine, device_cert, &product.accel_id);
    assert!(rejected(miss, "registry"));
    println!("[vendor]  unregistered kernel   → rejected ✓ (registry miss)");

    println!();
    println!("attestation flow complete: positive path ✓ three negative paths ✓");
    Ok(())
}
