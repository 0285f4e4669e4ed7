//! Developer utility: prints the full cost-ledger lane breakdown for a
//! given accelerator/profile, to diagnose what the bottleneck model is
//! charging. Not part of the paper's tables.

use shef_accel::harness::{run_baseline, run_shielded_parallel};
use shef_accel::sdp::{SdpEngineConfig, SdpStore};
use shef_accel::CryptoProfile;
use shef_core::shield::WorkerPool;

fn dump(tag: &str, report: &shef_accel::harness::RunReport) {
    println!(
        "--- {tag}: bottleneck={} serial={:?}",
        report.cycles.0,
        report.ledger.serial()
    );
    let mut lanes: Vec<_> = report.ledger.lanes().collect();
    lanes.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (lane, cycles) in lanes.into_iter().take(12) {
        println!("    {lane:<28} {}", cycles.0);
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "sdp2".into());
    match which.as_str() {
        "sdp2" => {
            let engines = SdpEngineConfig::table2_columns()[2].1;
            let mut accel = SdpStore::table2_workload(engines, 77);
            let b = run_baseline(&mut accel).unwrap();
            dump("sdp baseline", &b);
            let mut accel = SdpStore::table2_workload(engines, 77);
            let s = run_shielded_parallel(
                &mut accel,
                &CryptoProfile::AES128_16X,
                42,
                &WorkerPool::new(1),
            )
            .unwrap();
            dump("sdp 4xPMAC shielded", &s);
        }
        other => {
            // Generic: run any named accelerator family added here later.
            eprintln!("unknown target {other}");
        }
    }
}
