//! Lane count must be a pure performance transform: for every
//! accelerator workload in the suite, a shielded run at 2 or 4 lanes has
//! to verify against the golden model (the harness decrypts every output
//! client-side and compares it with the accelerator's reference
//! result), report the same functional engine-set statistics — hits,
//! misses, write-backs and traffic — as a one-lane run, charge the same
//! non-crypto cycles, and conserve each engine set's crypto work across
//! its sub-lanes. Only the modelled makespan may change, and only
//! downward.

use shef_accel::affine::AffineTransform;
use shef_accel::bitcoin::Bitcoin;
use shef_accel::conv::{ConvDims, Convolution};
use shef_accel::digitrec::DigitRecognition;
use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::{run_shielded_parallel, RunReport};
use shef_accel::matmul::MatMul;
use shef_accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_core::shield::{EngineSetStats, WorkerPool};

const SEED: u64 = 42;

/// The functional subset of the stats: everything except the
/// lane-count observability counters, which legitimately differ.
fn functional(s: &EngineSetStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.hits,
        s.misses,
        s.writebacks,
        s.integrity_failures,
        s.bytes_read,
        s.bytes_written,
        s.zero_fills,
    )
}

/// Runs `make()` shielded with a `lanes`-lane pool; the run must verify.
fn run(name: &str, make: &dyn Fn() -> Box<dyn Accelerator>, lanes: usize) -> RunReport {
    let pool = WorkerPool::new(lanes);
    let mut accel = make();
    let report = run_shielded_parallel(accel.as_mut(), &CryptoProfile::AES128_4X, SEED, &pool)
        .unwrap_or_else(|e| panic!("{name}: run at {lanes} lanes failed: {e}"));
    assert!(
        report.outputs_verified,
        "{name}: outputs at {lanes} lanes not verified against the golden model"
    );
    report
}

/// "Serial" is the one-lane pool, which runs every crypto job inline.
fn assert_parallel_matches_serial(name: &str, make: &dyn Fn() -> Box<dyn Accelerator>) {
    let one = run(name, make, 1);
    for lanes in [2usize, 4] {
        let many = run(name, make, lanes);

        // No counter drift: region-by-region functional stats equality.
        assert_eq!(
            one.engine_stats.len(),
            many.engine_stats.len(),
            "{name}: engine-set count drifted"
        );
        for ((r1, s1), (rn, sn)) in one.engine_stats.iter().zip(&many.engine_stats) {
            assert_eq!(r1, rn, "{name}: region order drifted");
            assert_eq!(
                functional(s1),
                functional(sn),
                "{name}: stats drift in region '{r1}' at {lanes} lanes"
            );
        }

        // Every engine set's crypto work is conserved across its
        // sub-lanes; every other lane and the stall term are untouched.
        assert_eq!(one.ledger.serial(), many.ledger.serial(), "{name}: stall");
        for (lane, cycles) in one.ledger.lanes() {
            if lane.starts_with("shield.") {
                assert_eq!(
                    many.ledger.group_total(lane),
                    cycles,
                    "{name}: crypto not conserved on '{lane}' at {lanes} lanes"
                );
            } else {
                assert_eq!(
                    many.ledger.lane(lane),
                    cycles,
                    "{name}: lane '{lane}' drifted at {lanes} lanes"
                );
            }
        }

        // The fan-out may only shrink the modelled time.
        assert!(
            many.cycles <= one.cycles,
            "{name}: {lanes} lanes slower than one ({} > {})",
            many.cycles.0,
            one.cycles.0
        );
    }
}

#[test]
fn vecadd_parallel_is_bit_identical() {
    assert_parallel_matches_serial("vecadd", &|| Box::new(VectorAdd::new(16 * 1024, 3)));
}

#[test]
fn matmul_parallel_is_bit_identical() {
    assert_parallel_matches_serial("matmul", &|| Box::new(MatMul::new(32, 9)));
}

#[test]
fn conv_parallel_is_bit_identical() {
    assert_parallel_matches_serial("conv", &|| Box::new(Convolution::new(ConvDims::small(), 4)));
}

#[test]
fn digitrec_parallel_is_bit_identical() {
    assert_parallel_matches_serial("digitrec", &|| Box::new(DigitRecognition::new(32, 50, 7)));
}

#[test]
fn affine_parallel_is_bit_identical() {
    assert_parallel_matches_serial("affine", &|| Box::new(AffineTransform::new(64, 3)));
}

#[test]
fn dnnweaver_parallel_is_bit_identical() {
    assert_parallel_matches_serial("dnnweaver", &|| Box::new(DnnWeaver::new(1, 5)));
}

#[test]
fn dnnweaver_merkle_parallel_is_bit_identical() {
    assert_parallel_matches_serial("dnnweaver+merkle", &|| {
        Box::new(DnnWeaver::new(1, 5).with_merkle_fmap())
    });
}

#[test]
fn bitcoin_parallel_is_bit_identical() {
    assert_parallel_matches_serial("bitcoin", &|| Box::new(Bitcoin::new(10, 3)));
}

/// The fault-injection view of the same claim: for every fault class,
/// the *detection verdict* must not depend on the lane count. A tampered
/// chunk that is rejected with one lane has to be rejected — with the
/// same taxonomy verdict — when the batch is fanned out over 2 or 4.
#[test]
fn fault_verdicts_are_lane_count_invariant() {
    use shef_testkit::{campaign_plan, run_plan, FaultClass};

    for class in FaultClass::ALL {
        for seed in [3u64, 17, 29] {
            let mut verdicts = Vec::new();
            for lanes in [1usize, 2, 4] {
                let report = run_plan(&campaign_plan(seed, class, lanes));
                assert!(
                    report.is_allowed(),
                    "{} seed {seed} {lanes} lanes: {report:?}",
                    class.as_str()
                );
                verdicts.push(report.verdict);
            }
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "{} seed {seed}: verdict drifted across lane counts: {verdicts:?}",
                class.as_str()
            );
        }
    }
}

#[test]
fn sdp_parallel_is_bit_identical() {
    let engines = SdpEngineConfig::table2_columns()[2].1;
    assert_parallel_matches_serial("sdp", &|| {
        Box::new(SdpStore::new(
            4096,
            2,
            vec![SdpOp::Get(0), SdpOp::Put(1), SdpOp::Get(1)],
            engines,
            1,
        ))
    });
}
