use super::*;
use shef::fpga::clock::CostLedger;
use workload::{Replica, TenantResult};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `"name"` values listed under `key` in BENCHMARK.json.
fn manifest_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad metric name {name}");
    }
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "metric names repeat");
    for (_, name) in SELF_MS {
        assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name} not reported");
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let names = |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_owned()).collect::<Vec<_>>();
    assert_eq!(manifest_names("end_to_end"), names(&END_TO_END));
    assert_eq!(manifest_names("per_layer"), names(&PER_LAYER));
    let workloads: Vec<_> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
    assert_eq!(manifest_names("workloads"), workloads);
}

#[test]
fn result_line_carries_every_metric_and_no_nan() {
    let mut checks = Checks::default();
    checks.op(1, Ok(5));
    let m = BTreeMap::from([("setup_s", 0.5), ("op_ms_p50", f64::NAN)]);
    let line = result_json(true, &checks, &END_TO_END, &m);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    assert!(!line.contains("NaN"));
}

#[test]
fn failed_and_unverified_ops_are_counted() {
    let fp = |verified: bool, admitted_completed| Fingerprint {
        tenants: vec![TenantResult {
            ledger: CostLedger::default(),
            engine_stats: Vec::new(),
            verified,
        }],
        shard_clocks: Vec::new(),
        admitted_completed,
    };
    let mut checks = Checks::default();
    checks.op(1, check(&fp(true, (4, 4)), 0));
    checks.op(2, check(&fp(false, (4, 4)), 0));
    checks.op(3, check(&fp(true, (4, 3)), 0));
    checks.op(4, check(&fp(true, (4, 4)), 1));
    checks.op(5, judge(&Err(ShefError::Malformed("bus error".into()))));
    assert_eq!((checks.attempted, checks.failed), (5, 4));
    assert_eq!(checks.problems.len(), 4);
}

#[test]
fn model_cycles_must_not_depend_on_the_op_seed() {
    let mut checks = Checks::default();
    checks.op(1, Ok(100));
    checks.op(2, Ok(100));
    assert!(checks.problems.is_empty());
    checks.op(3, Ok(101));
    assert_eq!(checks.failed, 0);
    assert_eq!(checks.problems.len(), 1);
}

fn replica(w: &mut Workload, seed: u64) -> Replica {
    w.replica(seed, &mut Tracer::default())
        .expect("replica runs")
}

#[test]
fn seeds_fix_inputs_and_keys_but_not_model_cycles() {
    for kind in Kind::ALL {
        let name = kind.name();
        let mut a = Workload::setup(kind, 1, Size::SMALL).expect("set-up");
        let b = Workload::setup(kind, 1, Size::SMALL).expect("set-up");
        let c = Workload::setup(kind, 2, Size::SMALL).expect("set-up");
        assert_eq!(a.inputs(), b.inputs(), "{name}: same seed, same inputs");
        assert_ne!(a.inputs(), c.inputs(), "{name}: new seed, new inputs");

        let r1 = replica(&mut a, op_seed(1, 0));
        let r1_again = replica(&mut a, op_seed(1, 0));
        let r2 = replica(&mut a, op_seed(2, 0));
        assert_eq!(r1.ciphertext_prefix, r1_again.ciphertext_prefix, "{name}");
        assert_ne!(r1.ciphertext_prefix, r2.ciphertext_prefix, "{name}");
        let cycles = r1.fingerprint.model_cycles();
        assert_eq!(r1_again.fingerprint.model_cycles(), cycles, "{name}");
        assert_eq!(r2.fingerprint.model_cycles(), cycles, "{name}");
    }
}

#[test]
fn traced_replica_matches_the_harness() {
    for kind in Kind::ALL {
        let name = kind.name();
        let mut w = Workload::setup(kind, 3, Size::SMALL).expect("set-up");
        let seed = op_seed(3, 7);
        let harness = w.run_op(seed).expect("harness op");
        let mut tracer = Tracer::default();
        let rep = w.replica(seed, &mut tracer).expect("replica");
        assert!(harness.fingerprint().ok(), "{name}");
        assert_eq!(harness.fingerprint(), rep.fingerprint, "{name}");
        let cycles = rep.fingerprint.model_cycles();
        assert_eq!(harness.model_cycles(), cycles, "{name}");
        let self_sum: u64 = tracer.aggs().values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, tracer.get("op").total_ns, "{name}");
        assert_eq!(tracer.depth(), 0);
    }
}
