//! The four workloads: what each builds during set-up, the untraced op
//! (one call of a public harness entry point), and the traced replica
//! that repeats the same harness sequence from outside with a span
//! around every call into a layer.

use shef::accel::affine::AffineTransform;
use shef::accel::harness::{
    run_baseline, run_shielded_parallel, run_shielded_service, RunReport, ServiceRunReport,
};
use shef::accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef::accel::vecadd::VectorAdd;
use shef::accel::{Accelerator, CryptoProfile};
use shef::attest::AttestationEnvironment;
use shef::core::shield::bus::{MemoryBus, ParallelShieldedBus, ACCEL_LANE};
use shef::core::shield::{
    client, AccessMode, DataEncryptionKey, EngineSetStats, RegionConfig, RegisterInterface,
    ServiceConfig, ServiceRequest, Shield, ShieldService, TenantId, WorkerPool,
};
use shef::core::ShefError;
use shef::crypto::drbg::HmacDrbg;
use shef::crypto::ecies::EciesKeyPair;
use shef::fpga::clock::{CostLedger, Cycles};
use shef::fpga::dram::Dram;
use shef::fpga::host::HostCpu;
use shef::fpga::shell::Shell;
use shef::telemetry::Report;

use crate::trace::{TimedBus, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bulk streaming vector add, one inline lane.
    VecaddStream,
    /// SDP storage node, Get/Put mix, two pool lanes.
    SdpGetput,
    /// 64-byte random-access gathers, one inline lane.
    AffineGather,
    /// Attested onboarding of sixteen tenants onto a two-shard service.
    TenantOnboard,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::VecaddStream,
        Kind::SdpGetput,
        Kind::AffineGather,
        Kind::TenantOnboard,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::VecaddStream => "vecadd_stream",
            Kind::SdpGetput => "sdp_getput",
            Kind::AffineGather => "affine_gather",
            Kind::TenantOnboard => "tenant_onboard",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is what the benchmark measures; tests
/// use [`Size::SMALL`] so they stay quick in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Bytes per `VectorAdd` vector in `vecadd_stream`.
    pub vecadd_bytes: usize,
    /// Bytes per SDP file.
    pub sdp_file_bytes: usize,
    /// Affine image side, pixels.
    pub affine_side: usize,
    /// Bytes per tenant vector in `tenant_onboard`.
    pub tenant_bytes: usize,
}

impl Size {
    /// The measured configuration. Every op takes 60-120 ms on a 2-vCPU
    /// host: with ~20 ms ops (a 128×128 image, 4 tenants) a few host
    /// stalls of a fraction of a second decide the p99 tail of a run.
    pub const FULL: Size = Size {
        vecadd_bytes: 256 * 1024,
        sdp_file_bytes: 64 * 1024,
        affine_side: 256,
        tenant_bytes: 4 * 1024,
    };
    /// A scaled-down configuration with the same structure.
    #[cfg(test)]
    pub const SMALL: Size = Size {
        vecadd_bytes: 8 * 1024,
        sdp_file_bytes: 4 * 1024,
        affine_side: 64,
        tenant_bytes: 2 * 1024,
    };
}

const SDP_FILES: usize = 4;
const SDP_OPS: usize = 8;
const TENANTS: usize = 16;

enum Mode {
    /// `run_shielded_parallel` on one accelerator with this pool.
    Parallel(WorkerPool),
    /// `run_shielded_service` with `TENANTS` tenants.
    Service(ServiceConfig),
}

/// A workload after set-up: inputs and golden models built, pool
/// started, baseline measured.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    make: Box<dyn Fn() -> Box<dyn Accelerator>>,
    accel: Box<dyn Accelerator>,
    profile: CryptoProfile,
    mode: Mode,
    /// Modelled cycles of `run_baseline` on the same accelerator.
    pub baseline_cycles: u64,
}

/// Derives the seed of op `index` from the workload seed.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn boxed<A: Accelerator + Clone + 'static>(proto: A) -> Box<dyn Fn() -> Box<dyn Accelerator>> {
    Box::new(move || Box::new(proto.clone()) as Box<dyn Accelerator>)
}

impl Workload {
    /// Set-up: builds the inputs (seeded by `seed`), the pool, runs the
    /// unshielded baseline (which checks the golden model) and, for
    /// `tenant_onboard`, an attestation fixture with one warm-up round.
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Result<Workload, ShefError> {
        let (make, profile, mode) = match kind {
            Kind::VecaddStream => (
                boxed(VectorAdd::new(size.vecadd_bytes, seed)),
                CryptoProfile::AES128_4X,
                Mode::Parallel(WorkerPool::new(1)),
            ),
            Kind::SdpGetput => {
                let engines = SdpEngineConfig::table2_columns()[2].1; // 4xEng/16x/PMAC
                let ops = (0..SDP_OPS)
                    .map(|i| {
                        let file = i % SDP_FILES;
                        if i % 2 == 0 {
                            SdpOp::Get(file)
                        } else {
                            SdpOp::Put(file)
                        }
                    })
                    .collect();
                (
                    boxed(SdpStore::new(
                        size.sdp_file_bytes,
                        SDP_FILES,
                        ops,
                        engines,
                        seed,
                    )),
                    CryptoProfile::AES128_16X_PMAC,
                    Mode::Parallel(WorkerPool::new(2)),
                )
            }
            Kind::AffineGather => (
                boxed(AffineTransform::new(size.affine_side, seed)),
                CryptoProfile::AES128_16X,
                Mode::Parallel(WorkerPool::new(1)),
            ),
            Kind::TenantOnboard => {
                let mut env =
                    AttestationEnvironment::new(format!("bench.fixture.{seed}").as_bytes())?;
                let grant = env.onboard("fixture", [7u8; 32])?;
                if grant.tenant() != "fixture" {
                    return Err(ShefError::ProtocolViolation(
                        "fixture grant misbound".into(),
                    ));
                }
                (
                    boxed(VectorAdd::new(size.tenant_bytes, seed)),
                    CryptoProfile::AES128_4X,
                    Mode::Service(ServiceConfig {
                        shards: 2,
                        lanes_per_shard: 1,
                        ..ServiceConfig::default()
                    }),
                )
            }
        };
        let baseline = run_baseline(make().as_mut())?;
        if !baseline.outputs_verified {
            return Err(ShefError::ProtocolViolation(
                "baseline run does not match the golden model".into(),
            ));
        }
        Ok(Workload {
            kind,
            accel: make(),
            make,
            profile,
            mode,
            baseline_cycles: baseline.cycles.0,
        })
    }

    /// One untraced op: a single harness call with seed `seed`.
    pub fn run_op(&mut self, seed: u64) -> Result<Outcome, ShefError> {
        match &self.mode {
            Mode::Parallel(pool) => {
                run_shielded_parallel(self.accel.as_mut(), &self.profile, seed, pool)
                    .map(Outcome::Run)
            }
            Mode::Service(config) => {
                run_shielded_service(&*self.make, &self.profile, seed, TENANTS, config)
                    .map(Outcome::Service)
            }
        }
    }

    /// The accelerator's plaintext inputs.
    #[cfg(test)]
    pub fn inputs(&self) -> Vec<shef::accel::RegionData> {
        self.accel.inputs()
    }

    /// The first region's configuration under this workload's profile
    /// (chunk size and MAC for the chunk micro-timing).
    pub fn first_region(&self) -> RegionConfig {
        self.accel.shield_config(&self.profile).regions[0].clone()
    }

    /// Jobs per lane and batches of the shared pool so far (parallel
    /// workloads; a service builds its shard pools inside each op).
    pub fn pool_totals(&self) -> (Vec<u64>, u64) {
        match &self.mode {
            Mode::Parallel(pool) => {
                let stats = pool.stats();
                (stats.jobs_per_lane, stats.batches)
            }
            Mode::Service(_) => (Vec::new(), 0),
        }
    }

    /// The traced replica of [`Workload::run_op`] for the same seed.
    pub fn replica(&mut self, seed: u64, t: &mut Tracer) -> Result<Replica, ShefError> {
        let depth = t.depth();
        t.enter("op");
        let out = match &self.mode {
            Mode::Parallel(pool) => {
                replica_parallel(self.accel.as_mut(), &self.profile, seed, pool, t)
            }
            Mode::Service(config) => replica_service(&*self.make, &self.profile, seed, config, t),
        };
        t.unwind(depth);
        out
    }
}

/// What an untraced op returned.
pub enum Outcome {
    /// A `run_shielded_parallel` report.
    Run(RunReport),
    /// A `run_shielded_service` report.
    Service(ServiceRunReport),
}

/// One tenant's (or a single run's) share of a [`Fingerprint`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantResult {
    /// Cost ledger with the DRAM charges merged.
    pub ledger: CostLedger,
    /// Engine-set statistics.
    pub engine_stats: Vec<(String, EngineSetStats)>,
    /// Outputs and result registers matched the golden model.
    pub verified: bool,
}

/// What the replica check compares: cost ledgers, engine statistics and
/// verification results, per tenant, plus the service's scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// One entry per tenant (one for a single run).
    pub tenants: Vec<TenantResult>,
    /// Shard clocks (service only).
    pub shard_clocks: Vec<Cycles>,
    /// Requests admitted and completed (service only).
    pub admitted_completed: (u64, u64),
}

impl Fingerprint {
    /// True when every output verified and no admitted request was lost.
    pub fn ok(&self) -> bool {
        self.tenants.iter().all(|t| t.verified)
            && self.admitted_completed.0 == self.admitted_completed.1
    }

    /// Modelled shielded cycles: the slowest tenant's bottleneck.
    pub fn model_cycles(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.ledger.bottleneck().0)
            .max()
            .unwrap_or(0)
    }

    /// Plaintext bytes through the engine sets.
    pub fn shield_bytes(&self) -> u64 {
        self.tenants
            .iter()
            .flat_map(|t| &t.engine_stats)
            .map(|(_, s)| s.bytes_read + s.bytes_written)
            .sum()
    }
}

impl Outcome {
    /// The fields the replica check compares.
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Outcome::Run(r) => Fingerprint {
                tenants: vec![TenantResult {
                    ledger: r.ledger.clone(),
                    engine_stats: r.engine_stats.clone(),
                    verified: r.outputs_verified,
                }],
                shard_clocks: Vec::new(),
                admitted_completed: (0, 0),
            },
            Outcome::Service(s) => Fingerprint {
                tenants: s
                    .tenants
                    .iter()
                    .map(|t| TenantResult {
                        ledger: t.ledger.clone(),
                        engine_stats: t.engine_stats.clone(),
                        verified: t.outputs_verified,
                    })
                    .collect(),
                shard_clocks: s.shard_clocks.clone(),
                admitted_completed: (s.admitted, s.completed),
            },
        }
    }

    /// The harness's own end-to-end cycle figure: `cycles` for a single
    /// run, the makespan for a service run.
    pub fn model_cycles(&self) -> u64 {
        match self {
            Outcome::Run(r) => r.cycles.0,
            Outcome::Service(s) => s.makespan().0,
        }
    }
}

/// What a traced replica produced.
pub struct Replica {
    /// Compared against the harness's [`Outcome::fingerprint`].
    pub fingerprint: Fingerprint,
    /// Telemetry of the run (engine, DRAM, service instruments).
    pub telemetry: Report,
    /// Jobs per pool lane in this op (service shards only; parallel
    /// workloads read their shared pool before and after).
    pub lane_jobs: Vec<u64>,
    /// Pool batches in this op (service shards only).
    pub batches: u64,
    /// The first 32 bytes of ciphertext of every output region (the
    /// seed-determinism test compares them across op seeds).
    #[cfg_attr(not(test), allow(dead_code))]
    pub ciphertext_prefix: Vec<u8>,
}

fn find_region(shield: &Shield, name: &str) -> Result<(usize, RegionConfig), ShefError> {
    shield
        .config()
        .regions
        .iter()
        .enumerate()
        .find(|(_, r)| r.name == name)
        .map(|(i, r)| (i, r.clone()))
        .ok_or_else(|| ShefError::Malformed(format!("unknown region {name}")))
}

fn seeded_key(label: &str) -> DataEncryptionKey {
    DataEncryptionKey::from_bytes(HmacDrbg::from_seed(label.as_bytes()).generate_array::<32>())
}

/// Stages one tenant's encrypted inputs and sealed registers, as the
/// harness does before launch.
#[allow(clippy::too_many_arguments)]
fn stage_inputs(
    t: &mut Tracer,
    accel: &dyn Accelerator,
    dek: &DataEncryptionKey,
    shield: &mut Shield,
    shell: &mut Shell,
    dram: &mut Dram,
    ledger: &mut CostLedger,
    host: &mut HostCpu,
) -> Result<(), ShefError> {
    for input in t.span("accel.inputs", |_| accel.inputs()) {
        let (index, region) = find_region(shield, &input.region)?;
        let first_chunk = (input.offset / region.engine_set.chunk_size as u64) as u32;
        let enc = t.span("client.encrypt", |_| {
            client::encrypt_region_at(dek, &region, first_chunk, &input.data, 0)
        });
        let tag_base = shield.config().tag_base(index) + u64::from(first_chunk) * 16;
        t.span("fpga.dma", |_| {
            host.dma_to_device(
                shell,
                dram,
                ledger,
                region.range.start + input.offset,
                &enc.ciphertext,
            )?;
            host.dma_to_device_chained(shell, dram, ledger, tag_base, &enc.tags)
        })?;
    }
    t.span("shield.provision", |_| {
        let mut reg_key = dek.register_key();
        for (index, value) in accel.host_pre() {
            let sealed = RegisterInterface::client_seal_value(&mut reg_key, index, value)?;
            shield.host_reg_write(index, &sealed)?;
            ledger.add_serial(Cycles(4 + sealed.to_bytes().len() as u64 / 4));
        }
        Ok::<(), ShefError>(())
    })
}

/// Reads back and verifies one tenant's outputs and result registers,
/// as the harness does after the kernel. Returns whether they verified.
#[allow(clippy::too_many_arguments)]
fn verify_outputs(
    t: &mut Tracer,
    accel: &dyn Accelerator,
    dek: &DataEncryptionKey,
    shield: &mut Shield,
    shell: &mut Shell,
    dram: &mut Dram,
    ledger: &mut CostLedger,
    host: &mut HostCpu,
    prefix: &mut Vec<u8>,
) -> Result<bool, ShefError> {
    let mut verified = true;
    for expected in t.span("accel.verify", |_| accel.expected_outputs()) {
        let (index, region) = find_region(shield, &expected.region)?;
        let first_chunk = (expected.offset / region.engine_set.chunk_size as u64) as u32;
        let len = expected.data.len();
        let tag_base = shield.config().tag_base(index) + u64::from(first_chunk) * 16;
        let (ct, tags) = t.span("fpga.dma", |_| {
            let ct = host.dma_from_device(
                shell,
                dram,
                ledger,
                region.range.start + expected.offset,
                len,
            )?;
            let tag_len = client::tag_bytes_for(len, region.engine_set.chunk_size);
            let tags = host.dma_from_device_chained(shell, dram, ledger, tag_base, tag_len)?;
            Ok::<_, ShefError>((ct, tags))
        })?;
        prefix.extend_from_slice(&ct[..ct.len().min(32)]);
        let plain = t.span("client.decrypt", |_| {
            client::decrypt_region_at(
                dek,
                &region,
                first_chunk,
                &ct,
                &tags,
                &client::uniform_epochs(0),
            )
        })?;
        if t.span("accel.verify", |_| plain != expected.data) {
            verified = false;
        }
    }
    let reg_key = dek.register_key();
    let mut read_reg = |index: usize| -> Result<u64, ShefError> {
        let sealed = shield.host_reg_read(index)?;
        RegisterInterface::client_open_value(&reg_key, index, &sealed)
    };
    if !t.span("accel.verify", |_| accel.host_post(&mut read_reg))? {
        verified = false;
    }
    Ok(verified)
}

/// Mirrors `harness::run_shielded_parallel`.
fn replica_parallel(
    accel: &mut dyn Accelerator,
    profile: &CryptoProfile,
    seed: u64,
    pool: &WorkerPool,
    t: &mut Tracer,
) -> Result<Replica, ShefError> {
    let (mut shield, dek) = t.span("shield.provision", |_| {
        let config = accel.shield_config(profile);
        config.validate()?;
        let keypair = EciesKeyPair::from_seed(format!("harness.shield.{seed}").as_bytes());
        let mut shield = Shield::new(config, keypair)?;
        pool.attach_telemetry(&shield.telemetry().clone());
        let dek = seeded_key(&format!("harness.dek.{seed}"));
        let load_key = dek.to_load_key(&shield.public_key());
        shield.provision_load_key(&load_key)?;
        Ok::<_, ShefError>((shield, dek))
    })?;
    let run_telemetry = shield.telemetry().clone();
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    dram.attach_telemetry(&run_telemetry);
    let mut host = HostCpu::new();
    let mut ledger = CostLedger::new();

    stage_inputs(
        t,
        accel,
        &dek,
        &mut shield,
        &mut shell,
        &mut dram,
        &mut ledger,
        &mut host,
    )?;

    {
        let mut bus = TimedBus {
            inner: ParallelShieldedBus {
                shield: &mut shield,
                shell: &mut shell,
                dram: &mut dram,
                ledger: &mut ledger,
                pool,
            },
            tracer: &mut *t,
        };
        bus.tracer.enter("accel.run");
        let ran = accel.run(&mut bus);
        bus.tracer.exit();
        ran?;
        bus.flush()?;
    }

    let mut prefix = Vec::new();
    let verified = verify_outputs(
        t,
        accel,
        &dek,
        &mut shield,
        &mut shell,
        &mut dram,
        &mut ledger,
        &mut host,
        &mut prefix,
    )?;
    let stats = shield.engine_stats();
    let telemetry = shield.telemetry().report();
    ledger.merge(dram.ledger());
    Ok(Replica {
        fingerprint: Fingerprint {
            tenants: vec![TenantResult {
                ledger,
                engine_stats: stats,
                verified,
            }],
            shard_clocks: Vec::new(),
            admitted_completed: (0, 0),
        },
        telemetry,
        lane_jobs: Vec::new(),
        batches: 0,
        ciphertext_prefix: prefix,
    })
}

/// The service-side bus: each burst is submitted to the admission queue
/// and drained to its completion, as the harness's own adapter does,
/// with `service.submit` / `service.drain` spans inside the bus spans.
struct ServiceBus<'a> {
    service: &'a mut ShieldService,
    tenant: TenantId,
    tracer: &'a mut Tracer,
}

impl ServiceBus<'_> {
    fn roundtrip(
        &mut self,
        span: &'static str,
        request: ServiceRequest,
    ) -> Result<Option<Vec<u8>>, ShefError> {
        self.tracer.enter(span);
        let out = self.roundtrip_inner(request);
        self.tracer.exit();
        out
    }

    fn roundtrip_inner(&mut self, request: ServiceRequest) -> Result<Option<Vec<u8>>, ShefError> {
        let (service, tenant) = (&mut *self.service, self.tenant);
        let id = self
            .tracer
            .span("service.submit", |_| service.submit(tenant, request))?;
        let completions = self.tracer.span("service.drain", |_| service.drain());
        completions
            .into_iter()
            .find(|c| c.request == id)
            .ok_or_else(|| ShefError::ProtocolViolation("service lost an admitted request".into()))?
            .payload
    }
}

impl MemoryBus for ServiceBus<'_> {
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.roundtrip("shield.read", ServiceRequest::Read { addr, len, mode })
            .map(Option::unwrap_or_default)
    }

    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
        let request = ServiceRequest::Write {
            addr,
            data: data.to_vec(),
            mode,
        };
        self.roundtrip("shield.write", request).map(|_| ())
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        self.roundtrip("shield.flush", ServiceRequest::Flush)
            .map(|_| ())
    }

    fn compute(&mut self, cycles: u64) {
        self.service
            .tenant_ledger_mut(self.tenant)
            .add_busy(ACCEL_LANE, Cycles(cycles));
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.service
            .tenant_shield(self.tenant)
            .registers()
            .accel_read(index)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        self.service
            .tenant_shield(self.tenant)
            .registers()
            .accel_write(index, value);
    }
}

/// Mirrors `harness::run_shielded_service`, driving each attestation
/// step separately instead of through `AttestationEnvironment::onboard`.
fn replica_service(
    make: &dyn Fn() -> Box<dyn Accelerator>,
    profile: &CryptoProfile,
    seed: u64,
    config: &ServiceConfig,
    t: &mut Tracer,
) -> Result<Replica, ShefError> {
    let master = seeded_key(&format!("harness.service.master.{seed}"));
    let mut env = t.span("attest.env", |_| {
        AttestationEnvironment::new(format!("harness.service.{seed}").as_bytes())
    })?;
    let mut service = t.span("service.register", |_| {
        ShieldService::new(config.clone(), env.verifier_public())
    })?;
    let run_telemetry = service.telemetry().clone();

    let mut ids = Vec::with_capacity(TENANTS);
    let mut accels = Vec::with_capacity(TENANTS);
    let mut host = HostCpu::new();
    for i in 0..TENANTS {
        let name = format!("tenant{i}");
        let accel = t.span("accel.inputs", |_| make());
        let shield_config = t.span("service.register", |_| {
            let c = accel.shield_config(profile);
            c.validate().map(|()| c)
        })?;
        let dek = master.tenant_key(&name);
        let quote = t.span("attest.quote", |_| {
            let challenge = env.verifier_mut().challenge();
            env.kernel_mut().quote(&challenge)
        })?;
        let ticket = t.span("attest.verify", |_| {
            env.verifier_mut()
                .verify_and_provision(&quote, &name, dek.to_bytes())
        })?;
        let grant = t.span("attest.redeem", |_| env.kernel_mut().redeem(&ticket))?;
        let id = t.span("service.register", |_| {
            service.register_tenant(&name, shield_config, &grant)
        })?;
        let (shield, shell, dram, ledger) = service.tenant_datapath(id);
        stage_inputs(
            t,
            accel.as_ref(),
            &dek,
            shield,
            shell,
            dram,
            ledger,
            &mut host,
        )?;
        ids.push(id);
        accels.push(accel);
    }

    for (id, accel) in ids.iter().zip(accels.iter_mut()) {
        let mut bus = ServiceBus {
            service: &mut service,
            tenant: *id,
            tracer: &mut *t,
        };
        bus.tracer.enter("accel.run");
        let ran = accel.run(&mut bus);
        bus.tracer.exit();
        ran?;
        bus.flush()?;
    }

    let mut prefix = Vec::new();
    let mut tenants = Vec::with_capacity(TENANTS);
    for (i, (id, accel)) in ids.iter().zip(accels.iter()).enumerate() {
        let dek = master.tenant_key(&format!("tenant{i}"));
        let (shield, shell, dram, ledger) = service.tenant_datapath(*id);
        let verified = verify_outputs(
            t,
            accel.as_ref(),
            &dek,
            shield,
            shell,
            dram,
            ledger,
            &mut host,
            &mut prefix,
        )?;
        tenants.push(verified);
    }
    let tenants = ids
        .iter()
        .zip(tenants)
        .map(|(id, verified)| {
            let mut ledger = service.tenant_ledger(*id).clone();
            ledger.merge(service.tenant_dram(*id).ledger());
            TenantResult {
                ledger,
                engine_stats: service.tenant_shield(*id).engine_stats(),
                verified,
            }
        })
        .collect();
    let shards: Vec<_> = (0..service.shard_count())
        .map(|s| service.shard(s))
        .collect();
    let shard_clocks = shards.iter().map(|s| s.clock()).collect();
    let lane_jobs = shards
        .iter()
        .flat_map(|s| s.pool().stats().jobs_per_lane)
        .collect();
    let batches = shards.iter().map(|s| s.pool().stats().batches).sum();
    let telemetry = run_telemetry.report();
    let admitted_completed = (
        counter(&telemetry, "shield.service.admitted"),
        counter(&telemetry, "shield.service.completed"),
    );
    Ok(Replica {
        fingerprint: Fingerprint {
            tenants,
            shard_clocks,
            admitted_completed,
        },
        telemetry,
        lane_jobs,
        batches,
        ciphertext_prefix: prefix,
    })
}

/// The named counter in a telemetry report (0 when absent).
pub fn counter(report: &Report, name: &str) -> u64 {
    report.counters.get(name).copied().unwrap_or(0)
}

/// Total modelled cycles of the named span scope.
pub fn scope_cycles(report: &Report, name: &str) -> u64 {
    report.scopes.get(name).map_or(0, |s| s.total_cycles)
}
