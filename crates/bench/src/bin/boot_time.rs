//! Regenerates the **§6.1** end-to-end boot measurement: "the boot
//! process, from power-on to bitstream loading, completes in 5.1
//! seconds … relatively small compared to the commonly-observed 40+
//! second boot time of CSP VM instances, plus the approximate 6.2
//! seconds of bitstream loading time we observe on F1."
//!
//! This runs the *real* secure-boot + attestation + bitstream-load chain
//! on the simulated board and reports the modelled phase latencies.

use shef_bench::{header, kv_row};
use shef_core::shield::{EngineSetConfig, MemRange, ShieldConfig};
use shef_core::workflow::TestBench;

fn main() {
    header("§6.1: end-to-end secure boot timing (Ultra96 model)");

    let mut bench = TestBench::new("boot-bench");
    let board = bench
        .fresh_board(b"die-boot-bench")
        .expect("provisioning succeeds");
    let config = ShieldConfig::builder()
        .region(
            "data",
            MemRange::new(0, 1 << 20),
            EngineSetConfig::default(),
        )
        .build()
        .expect("valid config");
    let product = bench
        .vendor
        .package_accelerator("bitcoin-miner", config, vec![0xB7; 4096])
        .expect("packaging succeeds");
    let (instance, _dek) = bench
        .data_owner
        .deploy(board, &mut bench.vendor, &product)
        .expect("deploy succeeds");

    let t = &instance.kernel.report().timing;
    kv_row(
        "BootROM + firmware decrypt",
        &format!("{:>8.0} ms", t.bootrom_ms),
    );
    kv_row(
        "Security Kernel measurement",
        &format!("{:>8.0} ms", t.measure_kernel_ms),
    );
    kv_row(
        "Attestation key derivation",
        &format!("{:>8.0} ms", t.key_derivation_ms),
    );
    kv_row(
        "Kernel start + monitor arm",
        &format!("{:>8.0} ms", t.kernel_start_ms),
    );
    kv_row(
        "Shell static-region load",
        &format!("{:>8.0} ms", t.shell_load_ms),
    );
    kv_row(
        "TOTAL (power-on to bitstream load)",
        &format!("{:>8.1} s", t.total_ms() / 1000.0),
    );
    println!();
    kv_row("paper measurement", "5.1 s (Ultra96)");
    kv_row("reference: CSP VM boot", "40+ s");
    kv_row("reference: F1 bitstream load", "~6.2 s");
    println!();
    println!(
        "attested accelerator: '{}' loaded and provisioned = {}",
        instance.accel_id,
        instance.shield.is_provisioned()
    );
}
