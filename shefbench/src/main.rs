//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! shefbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread, closed loop: each op is one call of a
//! public harness entry point on an accelerator built once during
//! set-up, with a fresh op seed. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced ops with traced replicas of
//! the same op and prints the per-layer metrics. The last stdout line is
//! one JSON object; the exit code is non-zero when any check failed.

mod host;
mod refclock;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{ms, HostContext};
use refclock::RefClock;
use shef::core::ShefError;
use trace::Tracer;
use workload::{counter, op_seed, scope_cycles, Fingerprint, Kind, Outcome, Size, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("shield_MBps", "MB/s"),
    ("model_cycles", "cycles"),
    ("model_overhead", "x"),
    ("ok_frac", "ratio"),
    ("peak_rss_MB", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. `*_ms` are self
/// times per op, `*_us` self times per call; counts are per op.
const PER_LAYER: [(&str, &str); 42] = [
    ("chunk.seal_ns", "ns"),
    ("chunk.open_ns", "ns"),
    ("client.encrypt_ms", "ms"),
    ("client.decrypt_ms", "ms"),
    ("shield.provision_ms", "ms"),
    ("shield.read_ms", "ms"),
    ("shield.write_ms", "ms"),
    ("shield.flush_ms", "ms"),
    ("shield.bus_calls", "count"),
    ("shield.us_per_call", "us"),
    ("shield.engine.hit_ratio", "ratio"),
    ("shield.engine.evictions", "count"),
    ("shield.engine.writebacks", "count"),
    ("shield.engine.chunks", "count"),
    ("shield.pool.batches", "count"),
    ("shield.pool.jobs_per_batch", "count"),
    ("shield.pool.lane_share_max", "ratio"),
    ("service.register_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.drain_us", "us"),
    ("service.requests", "count"),
    ("service.rejected", "count"),
    ("attest.env_ms", "ms"),
    ("attest.quote_ms", "ms"),
    ("attest.verify_ms", "ms"),
    ("attest.redeem_ms", "ms"),
    ("fpga.dma_ms", "ms"),
    ("fpga.dram_bytes_read", "bytes"),
    ("fpga.dram_bytes_written", "bytes"),
    ("accel.inputs_ms", "ms"),
    ("accel.kernel_self_ms", "ms"),
    ("accel.verify_ms", "ms"),
    ("model.walk_cycles", "cycles"),
    ("model.crypto_cycles", "cycles"),
    ("model.landing_cycles", "cycles"),
    ("model.dram_cycles", "cycles"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("host.parallelism", "count"),
    ("host.spin_2t_over_1t", "ratio"),
    ("host.slowdown", "x"),
];

/// Spans whose self time is reported per op in ms, keyed by span name.
const SELF_MS: [(&str, &str); 15] = [
    ("client.encrypt", "client.encrypt_ms"),
    ("client.decrypt", "client.decrypt_ms"),
    ("shield.provision", "shield.provision_ms"),
    ("shield.read", "shield.read_ms"),
    ("shield.write", "shield.write_ms"),
    ("shield.flush", "shield.flush_ms"),
    ("service.register", "service.register_ms"),
    ("attest.env", "attest.env_ms"),
    ("attest.quote", "attest.quote_ms"),
    ("attest.verify", "attest.verify_ms"),
    ("attest.redeem", "attest.redeem_ms"),
    ("fpga.dma", "fpga.dma_ms"),
    ("accel.inputs", "accel.inputs_ms"),
    ("accel.run", "accel.kernel_self_ms"),
    ("accel.verify", "accel.verify_ms"),
];

/// Set-up batches per untraced run: one whenever `SETUP_EVERY` of run
/// time has passed, at least `SETUP_REPS` in all. Spreading them over the
/// run lets their median (`setup_s`) see the same host conditions as the
/// ops.
const SETUP_REPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_secs(1);
/// Ops a run makes even if `--seconds` runs out first, so the tail
/// percentile always has samples beyond it.
const MIN_OPS: usize = 2 * stats::TAIL_BEYOND;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Checks accumulated over a run; any failure makes the run incorrect.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    model_cycles: Option<u64>,
}

impl Checks {
    fn problem(&mut self, msg: String) {
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Records one op; `cycles` is `None` when the op failed.
    fn op(&mut self, seed: u64, result: Result<u64, String>) {
        self.attempted += 1;
        match result {
            Ok(cycles) => match self.model_cycles {
                None => self.model_cycles = Some(cycles),
                Some(c) if c != cycles => {
                    self.problem(format!("op seed {seed}: model_cycles {cycles} != {c}"));
                }
                Some(_) => {}
            },
            Err(e) => {
                self.failed += 1;
                self.problem(format!("op seed {seed}: {e}"));
            }
        }
    }
}

/// Times set-ups (see `SETUP_EVERY`). Each timed sample is a batch of
/// `batch` back-to-back set-ups lasting about one op, so that it and the
/// reference samples it is scaled by see the host alike.
struct Setups {
    kind: Kind,
    seed: u64,
    batch: usize,
    /// Per sample: ms per set-up, and the op index it was taken at.
    samples: Vec<(f64, usize)>,
    last: Instant,
}

impl Setups {
    fn one(&self) -> Result<Workload, ShefError> {
        Workload::setup(self.kind, self.seed, Size::FULL)
    }

    /// Times one batch (the workloads it builds are dropped).
    fn batch(&mut self, at_op: usize) -> Result<(), ShefError> {
        let t = Instant::now();
        for _ in 0..self.batch {
            self.one()?;
        }
        self.samples.push((ms(t) / self.batch as f64, at_op));
        self.last = Instant::now();
        Ok(())
    }

    /// Between ops: one more timed batch once due.
    fn tick(&mut self, at_op: usize) -> Result<(), ShefError> {
        if self.last.elapsed() >= SETUP_EVERY {
            self.batch(at_op)?;
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shefbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostContext::measure();
    println!(
        "# host available_parallelism={} spin_1t_ms={:.1} spin_2t_ms={:.1} (2t/1t={:.2}) profile={}",
        host.parallelism,
        host.spin_1t_ms,
        host.spin_2t_ms,
        host.spin_ratio(),
        host::build_profile()
    );

    let mut setups = Setups {
        kind: args.kind,
        seed: args.seed,
        batch: 1,
        samples: Vec::new(),
        last: Instant::now(),
    };
    let t = Instant::now();
    let run = setups.one().and_then(|mut w| {
        let setup_ms = ms(t);
        let mut checks = Checks::default();
        // One warm-up op, checked but not timed. Its length sizes the
        // reference samples and the set-up batches.
        let t = Instant::now();
        let warm = w.run_op(op_seed(args.seed, u64::MAX));
        let warm_ms = ms(t);
        checks.op(u64::MAX, judge(&warm));
        let mut clock = RefClock::sized_for(warm_ms);
        setups.batch = ((warm_ms / setup_ms).round() as usize).clamp(1, 64);
        let metrics = if args.trace {
            traced(&mut w, &args, &host, &mut clock, &mut checks)
        } else {
            untraced(&mut w, &args, &mut clock, &mut setups, &mut checks)?
        };
        Ok((metrics, checks))
    });
    let (metrics, checks) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shefbench: set-up of {} failed: {e}", args.kind.name());
            return ExitCode::from(1);
        }
    };

    let correct = checks.problems.is_empty();
    for p in &checks.problems {
        println!("# FAILED {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(correct, &checks, names, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// An op is good when it returned, its outputs verified, the service
/// lost no admitted request and the harness's cycle figure agrees with
/// its own ledger; then its model cycles are returned.
fn judge(out: &Result<Outcome, ShefError>) -> Result<u64, String> {
    let o = out.as_ref().map_err(ToString::to_string)?;
    check(&o.fingerprint(), o.model_cycles())
}

fn check(fp: &Fingerprint, cycles: u64) -> Result<u64, String> {
    if !fp.ok() {
        Err("outputs failed verification or a request was lost".into())
    } else if fp.model_cycles() != cycles {
        Err(format!(
            "harness cycles {cycles} != ledger bottleneck {}",
            fp.model_cycles()
        ))
    } else {
        Ok(cycles)
    }
}

fn untraced(
    w: &mut Workload,
    args: &Args,
    clock: &mut RefClock,
    setups: &mut Setups,
    checks: &mut Checks,
) -> Result<BTreeMap<&'static str, f64>, ShefError> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    setups.last = start;
    let (mut samples, mut slowdowns, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0u64;
    while start.elapsed() < budget || samples.len() < MIN_OPS {
        setups.tick(samples.len())?;
        let seed = op_seed(args.seed, i);
        // The reference sample goes before the op on even ops and after
        // it on odd ones, so drift hits both alike.
        if i % 2 == 0 {
            slowdowns.push(clock.sample());
        }
        let t = Instant::now();
        let out = w.run_op(seed);
        samples.push(ms(t));
        if i % 2 == 1 {
            slowdowns.push(clock.sample());
        }
        if let Ok(o) = &out {
            bytes.push(o.fingerprint().shield_bytes() as f64);
        }
        checks.op(seed, judge(&out));
        i += 1;
    }
    while setups.samples.len() < SETUP_REPS {
        setups.batch(samples.len() - 1)?;
    }
    // Host time in the units of the reference host (see refclock.rs).
    let speed = refclock::smooth(&slowdowns);
    let norm: Vec<f64> = samples.iter().zip(&speed).map(|(t, f)| t / f).collect();
    let setup_ms: Vec<f64> = setups
        .samples
        .iter()
        .map(|&(t, at)| t / speed[at.min(speed.len() - 1)])
        .collect();
    let tail = stats::tail(&norm).expect("MIN_OPS samples");
    let model_cycles = checks.model_cycles.unwrap_or(0) as f64;
    let p50 = stats::median(&norm);
    // Bytes per op do not vary, so throughput follows the median op.
    let mbps = if bytes.is_empty() {
        0.0
    } else {
        stats::median(&bytes) / 1e3 / p50
    };
    println!(
        "# {}: {} ops in {:.1} s; op_ms_tail is p{} of {} samples",
        w.kind.name(),
        samples.len(),
        start.elapsed().as_secs_f64(),
        tail.percentile,
        tail.samples
    );
    println!(
        "# host slowdown vs the reference host: median {:.3}, min {:.3}, max {:.3}; \
         raw op p50 {:.3} ms, raw set-up {:.3} ms ({} batches of {})",
        stats::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        stats::median(&samples),
        stats::median(&setups.samples.iter().map(|s| s.0).collect::<Vec<_>>()),
        setups.samples.len(),
        setups.batch
    );
    Ok(BTreeMap::from([
        ("setup_s", stats::median(&setup_ms) / 1e3),
        ("op_ms_p50", p50),
        ("op_ms_tail", tail.value),
        ("shield_MBps", mbps),
        ("model_cycles", model_cycles),
        (
            "model_overhead",
            model_cycles / w.baseline_cycles.max(1) as f64,
        ),
        (
            "ok_frac",
            (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
        ),
        ("peak_rss_MB", host::peak_rss_mb()),
    ]))
}

/// Per-op sums of the counters the traced replica reads.
#[derive(Default)]
struct LayerCounts {
    ops: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
    chunks: u64,
    batches: u64,
    lane_jobs: Vec<u64>,
    requests: u64,
    rejected: u64,
    dram_read: u64,
    dram_written: u64,
    walk: u64,
    crypto: u64,
    landing: u64,
    dram_cycles: u64,
}

fn traced(
    w: &mut Workload,
    args: &Args,
    host: &HostContext,
    clock: &mut RefClock,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let (seal_ns, open_ns) = chunk_timing(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let (mut plain_ms, mut traced_ms, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0u64;
    while start.elapsed() < budget || traced_ms.len() < MIN_OPS {
        let seed = op_seed(args.seed, i);
        slowdowns.push(clock.sample());
        // Alternate which side goes first so drift hits both alike.
        let (mut harness, mut replica) = (None, None);
        for side in [i % 2, 1 - i % 2] {
            if side == 0 {
                let t = Instant::now();
                harness = Some(w.run_op(seed));
                plain_ms.push(ms(t));
            } else {
                let before = w.pool_totals();
                let op_ns = tracer.get("op").total_ns;
                let r = w.replica(seed, &mut tracer);
                traced_ms.push((tracer.get("op").total_ns - op_ns) as f64 / 1e6);
                replica = Some(r.map(|r| (r, before, w.pool_totals())));
            }
        }
        let harness = harness.expect("harness side ran");
        let replica = replica.expect("replica side ran");
        checks.op(seed, judge(&harness));
        match (&harness, replica) {
            (Ok(h), Ok((r, (lanes0, batches0), (lanes1, batches1)))) => {
                if h.fingerprint() != r.fingerprint {
                    checks.problem(format!(
                        "op seed {seed}: traced replica disagrees with the harness (ledger, engine stats or verification)"
                    ));
                }
                let mut lane_jobs = r.lane_jobs.clone();
                lane_jobs.extend(lanes1.iter().zip(&lanes0).map(|(a, b)| a - b));
                add_counts(&mut counts, &r, &lane_jobs, r.batches + batches1 - batches0);
            }
            (_, Err(e)) => checks.problem(format!("op seed {seed}: traced replica failed: {e}")),
            (Err(_), Ok(_)) => {} // already counted as a failed op
        }
        i += 1;
    }

    let ops = counts.ops.max(1) as f64;
    let op = tracer.get("op");
    let self_sum: u64 = tracer.aggs().values().map(|a| a.self_ns).sum();
    if self_sum != op.total_ns {
        checks.problem(format!(
            "span self times {self_sum} ns != op time {} ns",
            op.total_ns
        ));
    }
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let per_call_us = |name: &str| {
        let a = tracer.get(name);
        a.self_ns as f64 / 1e3 / a.count.max(1) as f64
    };
    let bus: Vec<_> = ["shield.read", "shield.write", "shield.flush"]
        .iter()
        .map(|n| tracer.get(n))
        .collect();
    let bus_calls: u64 = bus.iter().map(|a| a.count).sum();
    let bus_ns: u64 = bus.iter().map(|a| a.total_ns).sum();
    // Jobs the pool ran on the caller thread (a one-lane pool, or a
    // one-job batch) count as one more lane.
    let threaded: u64 = counts.lane_jobs.iter().sum();
    let inline = counts.chunks.saturating_sub(threaded);
    let lane_max = counts
        .lane_jobs
        .iter()
        .copied()
        .chain([inline])
        .max()
        .unwrap_or(0);
    let plain_p50 = stats::median(&plain_ms);

    let mut m: BTreeMap<&'static str, f64> = SELF_MS
        .iter()
        .map(|(span, name)| (*name, per_op_ms(tracer.get(span).self_ns)))
        .collect();
    m.extend([
        ("chunk.seal_ns", seal_ns),
        ("chunk.open_ns", open_ns),
        ("shield.bus_calls", bus_calls as f64 / ops),
        (
            "shield.us_per_call",
            bus_ns as f64 / 1e3 / bus_calls.max(1) as f64,
        ),
        (
            "shield.engine.hit_ratio",
            counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
        ),
        ("shield.engine.evictions", counts.evictions as f64 / ops),
        ("shield.engine.writebacks", counts.writebacks as f64 / ops),
        ("shield.engine.chunks", counts.chunks as f64 / ops),
        ("shield.pool.batches", counts.batches as f64 / ops),
        (
            "shield.pool.jobs_per_batch",
            counts.chunks as f64 / counts.batches.max(1) as f64,
        ),
        (
            "shield.pool.lane_share_max",
            lane_max as f64 / counts.chunks.max(1) as f64,
        ),
        ("service.submit_us", per_call_us("service.submit")),
        ("service.drain_us", per_call_us("service.drain")),
        ("service.requests", counts.requests as f64 / ops),
        ("service.rejected", counts.rejected as f64 / ops),
        ("fpga.dram_bytes_read", counts.dram_read as f64 / ops),
        ("fpga.dram_bytes_written", counts.dram_written as f64 / ops),
        ("model.walk_cycles", counts.walk as f64 / ops),
        ("model.crypto_cycles", counts.crypto as f64 / ops),
        ("model.landing_cycles", counts.landing as f64 / ops),
        ("model.dram_cycles", counts.dram_cycles as f64 / ops),
        ("trace.op_ms", per_op_ms(op.total_ns)),
        (
            "trace.overhead_pct",
            (stats::median(&traced_ms) / plain_p50 - 1.0) * 100.0,
        ),
        (
            "trace.unattributed_pct",
            op.self_ns as f64 / op.total_ns.max(1) as f64 * 100.0,
        ),
        ("host.parallelism", host.parallelism as f64),
        ("host.spin_2t_over_1t", host.spin_ratio()),
        ("host.slowdown", stats::median(&slowdowns)),
    ]);
    print_breakdown(&tracer, &m, ops, plain_p50, w.kind.name());
    m
}

fn add_counts(c: &mut LayerCounts, r: &workload::Replica, lane_jobs: &[u64], batches: u64) {
    let t = &r.telemetry;
    c.ops += 1;
    for (_, s) in r.fingerprint.tenants.iter().flat_map(|t| &t.engine_stats) {
        c.hits += s.hits;
        c.misses += s.misses;
        c.writebacks += s.writebacks;
        c.chunks += s.parallel_jobs;
    }
    c.evictions += counter(t, "shield.engine.evictions");
    c.batches += batches;
    if c.lane_jobs.len() < lane_jobs.len() {
        c.lane_jobs.resize(lane_jobs.len(), 0);
    }
    for (acc, j) in c.lane_jobs.iter_mut().zip(lane_jobs) {
        *acc += j;
    }
    c.requests += counter(t, "shield.service.admitted");
    c.rejected += counter(t, "shield.service.admission_rejects");
    c.dram_read += counter(t, "fpga.dram.bytes_read");
    c.dram_written += counter(t, "fpga.dram.bytes_written");
    c.walk += scope_cycles(t, "shield.engine.walk");
    c.crypto += scope_cycles(t, "shield.engine.crypto");
    c.landing += scope_cycles(t, "shield.engine.landing");
    c.dram_cycles += r
        .fingerprint
        .tenants
        .iter()
        .map(|t| t.ledger.lane("dram").0)
        .sum::<u64>();
}

/// Human-readable layer table: self ms per op of every span, which sum
/// to the traced op time.
fn print_breakdown(tracer: &Tracer, m: &BTreeMap<&str, f64>, ops: f64, plain_p50: f64, name: &str) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {name}: {} traced ops; untraced p50 {plain_p50:.3} ms; self time per op by span:",
        ops as u64
    );
    for (span, agg) in tracer.aggs() {
        let _ = writeln!(
            out,
            "#   {span:<18} {:>9.3} ms  ({} calls/op)",
            agg.self_ns as f64 / 1e6 / ops,
            agg.count as f64 / ops
        );
    }
    let _ = write!(
        out,
        "#   total              {:>9.3} ms  (unattributed {:.1}%)",
        m["trace.op_ms"], m["trace.unattributed_pct"]
    );
    println!("{out}");
}

/// Times `seal_chunk` / `open_chunk` at the workload's chunk size and
/// MAC: median over rounds of ns per chunk.
fn chunk_timing(w: &Workload, seed: u64) -> (f64, f64) {
    use shef::core::shield::chunk::{open_chunk, seal_chunk};
    use shef::core::shield::DataEncryptionKey;
    const ROUND_BYTES: usize = 512 * 1024;
    const ROUNDS: usize = 5;
    let region = w.first_region();
    let dek = DataEncryptionKey::from_bytes(
        shef::crypto::drbg::HmacDrbg::from_seed(&seed.to_le_bytes()).generate_array::<32>(),
    );
    let (key, nonce) = (dek.region_key(&region), dek.region_nonce(&region));
    let size = region.engine_set.chunk_size;
    let n = (ROUND_BYTES / size).max(16);
    let plain = shef::accel::workload_bytes(seed, size);
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let sealed: Vec<_> = (0..n as u32)
            .map(|i| {
                seal_chunk(
                    &key,
                    nonce,
                    &region.name,
                    i,
                    0,
                    std::hint::black_box(&plain),
                )
            })
            .collect();
        seal.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        for (i, (ct, tag)) in sealed.iter().enumerate() {
            let pt = open_chunk(&key, nonce, &region.name, i as u32, 0, ct, tag);
            std::hint::black_box(pt.expect("a chunk sealed here opens"));
        }
        open.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    (stats::median(&seal), stats::median(&open))
}

fn result_json(
    correct: bool,
    checks: &Checks,
    names: &[(&str, &str)],
    m: &BTreeMap<&str, f64>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted, checks.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = m
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests;
