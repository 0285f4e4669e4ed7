//! Engine-set runtime: the per-region datapath of the Shield.
//!
//! One [`EngineSet`] guards one memory region (§5.2.2): it holds the
//! region's AES/MAC engines, an optional on-chip buffer ("a cache with a
//! line size of `C_mem`"), and optional freshness counters. All DRAM
//! traffic flows through the (untrusted, interposable) Shell.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use shef_telemetry::{Counter, Gauge, Histogram, Telemetry};

use shef_crypto::authenc::AuthEncKey;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

use super::chunk::{open_chunk, seal_chunk, CHUNK_TAG_LEN};
use super::config::RegionConfig;
use super::keys::DataEncryptionKey;
use super::merkle::{MerkleStats, MerkleTree};
use super::pool::WorkerPool;
use super::timing::{
    buffer_hit_cost, parallel_batch_cost, ACCEL_PORT_READ_LANE, ACCEL_PORT_WRITE_LANE,
    PORT_READ_LANE, PORT_WRITE_LANE, SHELL_PORT_BYTES_PER_CYCLE,
};
use crate::ShefError;
use shef_fpga::clock::Cycles;

/// How an accelerator consumes an access, for the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Pipelined streaming: the accelerator overlaps crypto with
    /// compute; cost is engine-set occupancy.
    #[default]
    Streaming,
    /// Blocking: the accelerator stalls until the chunk is verified
    /// (DNNWeaver's weight reads, §6.2.4); cost is serial latency.
    Blocking,
}

/// Counters exposed for tests and the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSetStats {
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses (chunk fills from DRAM).
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Integrity failures detected.
    pub integrity_failures: u64,
    /// Plaintext bytes served to the accelerator.
    pub bytes_read: u64,
    /// Plaintext bytes accepted from the accelerator.
    pub bytes_written: u64,
    /// Zero-filled write allocations (streaming-write optimization).
    pub zero_fills: u64,
    /// Batch operations dispatched (one per read, write or flush).
    pub parallel_batches: u64,
    /// Chunk seal/open jobs issued by batch operations.
    pub parallel_jobs: u64,
    /// Lanes used by the most recent batch operation.
    pub lanes: u64,
    /// Most crypto jobs in flight within a single batch (queue-depth
    /// high-water mark of the lane dispatcher).
    pub queue_depth_hwm: u64,
    /// Modelled crypto cycles summed over every batch job — what the
    /// same work would occupy on a one-lane engine set.
    pub lane_cycles_total: u64,
    /// Modelled crypto cycles of the busiest lane, accumulated batch by
    /// batch — the parallel makespan actually charged to the ledger.
    pub lane_cycles_max: u64,
    /// Worker-lane panics observed by the batch datapath, including
    /// panics repeated on the bounded inline retry.
    pub lane_panics: u64,
    /// Panicked crypto jobs that succeeded on the bounded inline retry
    /// (transient faults absorbed without surfacing an error).
    pub recovered_retries: u64,
    /// Victim seals recomputed inline after a job failed its retry —
    /// the guaranteed-drain path that keeps evicted chunks from being
    /// lost to a dead lane.
    pub drained_seals: u64,
    /// Operations rejected because the engine set was poisoned by a
    /// previously detected integrity violation.
    pub contained_rejects: u64,
}

impl EngineSetStats {
    /// Modelled speedup of the lane fan-out over a one-lane engine set:
    /// one-lane-equivalent work divided by the accumulated makespan.
    /// Clamped to 1.0 when no batch work has been dispatched (or the
    /// ratio is otherwise undefined) so callers can feed it straight
    /// into reports without NaN/inf guards.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        if self.lane_cycles_max == 0 {
            return 1.0;
        }
        let speedup = self.lane_cycles_total as f64 / self.lane_cycles_max as f64;
        if speedup.is_finite() {
            speedup
        } else {
            1.0
        }
    }

    /// Fraction of the lanes' aggregate capacity the batch work kept
    /// busy (1.0 = perfectly balanced across lanes). Clamped to 1.0
    /// when no batch work has been dispatched. The denominator is
    /// computed in f64: `lane_cycles_max * lanes` as u64 could overflow
    /// on long campaigns (panic in debug builds, a wrapped — and thus
    /// wildly wrong — utilization in release).
    #[must_use]
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_cycles_max == 0 || self.lanes == 0 {
            return 1.0;
        }
        let util =
            self.lane_cycles_total as f64 / (self.lane_cycles_max as f64 * self.lanes as f64);
        if util.is_finite() {
            util
        } else {
            1.0
        }
    }
}

/// Pre-resolved telemetry handles for one engine set.
///
/// Bound to a private detached registry at construction, so the hot
/// path never branches on "is telemetry attached"; [`EngineSet::attach_telemetry`]
/// rebinds the handles onto a shared registry. Counter names aggregate
/// across regions (every set increments the same `shield.engine.*`
/// instruments), and every value mirrored here is model-derived, so
/// reports stay byte-identical run to run.
#[derive(Debug, Clone)]
struct EngineTelemetry {
    registry: Telemetry,
    hits: Counter,
    misses: Counter,
    writebacks: Counter,
    evictions: Counter,
    integrity_failures: Counter,
    zero_fills: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    contained_rejects: Counter,
    lane_panics: Counter,
    recovered_retries: Counter,
    drained_seals: Counter,
    parallel_batches: Counter,
    parallel_jobs: Counter,
    lanes: Gauge,
    queue_depth_hwm: Gauge,
    batch_jobs: Histogram,
}

impl EngineTelemetry {
    /// Job-count buckets for the per-batch histogram: small batches
    /// dominate register-file traffic, 256 chunks is already a full
    /// working-set sweep.
    const BATCH_JOB_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 256];

    fn bind(t: &Telemetry) -> Self {
        EngineTelemetry {
            registry: t.clone(),
            hits: t.counter("shield.engine.hits"),
            misses: t.counter("shield.engine.misses"),
            writebacks: t.counter("shield.engine.writebacks"),
            evictions: t.counter("shield.engine.evictions"),
            integrity_failures: t.counter("shield.engine.integrity_failures"),
            zero_fills: t.counter("shield.engine.zero_fills"),
            bytes_read: t.counter("shield.engine.bytes_read"),
            bytes_written: t.counter("shield.engine.bytes_written"),
            contained_rejects: t.counter("shield.engine.contained_rejects"),
            lane_panics: t.counter("shield.engine.lane_panics"),
            recovered_retries: t.counter("shield.engine.recovered_retries"),
            drained_seals: t.counter("shield.engine.drained_seals"),
            parallel_batches: t.counter("shield.engine.parallel_batches"),
            parallel_jobs: t.counter("shield.engine.parallel_jobs"),
            lanes: t.gauge("shield.engine.lanes"),
            queue_depth_hwm: t.gauge("shield.engine.queue_depth_hwm"),
            batch_jobs: t.histogram("shield.engine.batch_jobs", &Self::BATCH_JOB_BOUNDS),
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    data: Vec<u8>,
    dirty: bool,
}

/// The runtime state of one engine set.
pub struct EngineSet {
    region: RegionConfig,
    tag_base: u64,
    /// Shared with every crypto batch: a job pays a refcount bump, not a
    /// key-schedule copy.
    key: Arc<AuthEncKey>,
    /// `region.name`, shared the same way for the chunk AD.
    name: Arc<str>,
    nonce: [u8; 8],
    lane: String,
    lines: HashMap<u32, Line>,
    lru: VecDeque<u32>,
    capacity_lines: usize,
    counters: HashMap<u32, u64>,
    merkle: Option<MerkleTree>,
    stats: EngineSetStats,
    tele: EngineTelemetry,
    /// Fail-stop containment: set on the first detected integrity
    /// violation; every access is rejected until explicitly cleared.
    poisoned: bool,
}

impl core::fmt::Debug for EngineSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineSet")
            .field("region", &self.region.name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EngineSet {
    /// Builds the engine set for `region`, deriving its working keys from
    /// the provisioned Data Encryption Key. `merkle_base` is the DRAM
    /// address of the region's tree arena, used only when the engine set
    /// selects the Bonsai-Merkle-Tree replay defence.
    #[must_use]
    pub fn new(
        region: RegionConfig,
        region_index: usize,
        tag_base: u64,
        merkle_base: u64,
        dek: &DataEncryptionKey,
    ) -> Self {
        let key = Arc::new(dek.region_key(&region));
        let name = Arc::from(region.name.as_str());
        let nonce = dek.region_nonce(&region);
        let chunk = region.engine_set.chunk_size;
        let capacity_lines = if region.engine_set.buffer_bytes == 0 {
            // No buffer: a single in-flight chunk register.
            1
        } else {
            (region.engine_set.buffer_bytes / chunk).max(1)
        };
        let lane = format!("shield.{}[{}]", region.name, region_index);
        let merkle = region.engine_set.merkle.map(|cfg| {
            let chunks = region.range.len.div_ceil(chunk as u64);
            MerkleTree::new(
                cfg,
                dek.region_tree_key(&region),
                merkle_base,
                chunks,
                &lane,
            )
        });
        EngineSet {
            lane,
            region,
            tag_base,
            key,
            name,
            nonce,
            lines: HashMap::new(),
            lru: VecDeque::new(),
            capacity_lines,
            counters: HashMap::new(),
            merkle,
            stats: EngineSetStats::default(),
            tele: EngineTelemetry::bind(&Telemetry::new()),
            poisoned: false,
        }
    }

    /// Rebinds this set's `shield.engine.*` instruments onto a shared
    /// registry; until called, the set reports into a private detached
    /// registry. Counters mirrored after this point aggregate with
    /// every other set attached to `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = EngineTelemetry::bind(telemetry);
    }

    /// The protected region.
    #[must_use]
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// Runtime counters.
    #[must_use]
    pub fn stats(&self) -> EngineSetStats {
        self.stats
    }

    /// The cost-ledger lane this set charges.
    #[must_use]
    pub fn lane(&self) -> &str {
        &self.lane
    }

    /// Merkle-tree statistics, when the region uses the Bonsai-Merkle-
    /// Tree replay defence.
    #[must_use]
    pub fn merkle_stats(&self) -> Option<MerkleStats> {
        self.merkle.as_ref().map(MerkleTree::stats)
    }

    /// Drops the tree's verified-node cache (models a power event; test
    /// hook for replay-detection scenarios).
    pub fn clear_merkle_cache(&mut self) {
        if let Some(tree) = &mut self.merkle {
            tree.clear_cache();
        }
    }

    /// Whether the engine set is poisoned: a detected integrity
    /// violation has fail-stopped the datapath.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Plaintext bytes currently resident in the on-chip buffer. The
    /// multi-tenant service reports this as shard occupancy, and the
    /// isolation suite uses it to assert one tenant's working set never
    /// migrates into another tenant's engine sets.
    #[must_use]
    pub fn buffered_bytes(&self) -> u64 {
        self.lines.values().map(|l| l.data.len() as u64).sum()
    }

    /// Clears containment state after a detected integrity violation
    /// and re-opens the datapath. Every buffered line is dropped — its
    /// provenance is suspect once the DRAM image has been tampered with
    /// — but freshness state (counters / tree) is retained, so
    /// untampered DRAM contents still verify on refill.
    pub fn clear_poison(&mut self) {
        self.poisoned = false;
        self.lines.clear();
        self.lru.clear();
    }

    /// Records a detected integrity violation and poisons the set:
    /// detection without containment would let tampered and clean
    /// traffic interleave.
    fn note_integrity_failure(&mut self) {
        self.stats.integrity_failures += 1;
        self.tele.integrity_failures.inc();
        self.poisoned = true;
    }

    /// Entry gate for every datapath operation: a poisoned set rejects
    /// all traffic until [`EngineSet::clear_poison`].
    fn check_operational(&mut self) -> Result<(), ShefError> {
        if self.poisoned {
            self.stats.contained_rejects += 1;
            self.tele.contained_rejects.inc();
            return Err(ShefError::Fault(crate::fault::ShieldFault::Poisoned {
                region: self.region.name.clone(),
            }));
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.region.engine_set.chunk_size
    }

    fn chunk_index(&self, addr: u64) -> u32 {
        ((addr - self.region.range.start) / self.chunk_size() as u64) as u32
    }

    fn chunk_addr(&self, idx: u32) -> u64 {
        self.region.range.start + idx as u64 * self.chunk_size() as u64
    }

    fn chunk_len(&self, idx: u32) -> usize {
        let start = self.chunk_addr(idx);
        (self.region.range.end() - start).min(self.chunk_size() as u64) as usize
    }

    fn tag_addr(&self, idx: u32) -> u64 {
        self.tag_base + idx as u64 * CHUNK_TAG_LEN as u64
    }

    /// Current write epoch of chunk `idx`. On-chip counters answer from
    /// the register file for free; the Merkle baseline walks an
    /// authenticated path of DRAM-resident tree nodes.
    fn current_epoch(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        if self.region.engine_set.counters {
            return Ok(self.counters.get(&idx).copied().unwrap_or(0));
        }
        let Some(tree) = &mut self.merkle else {
            return Ok(0);
        };
        match tree.counter(shell, dram, ledger, idx, mode) {
            Ok(epoch) => Ok(epoch),
            Err(e) => {
                if matches!(e, ShefError::IntegrityViolation(_)) {
                    self.note_integrity_failure();
                }
                Err(e)
            }
        }
    }

    /// Advances the write epoch of chunk `idx`, returning the new value.
    fn advance_epoch(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        if self.region.engine_set.counters {
            let e = self.counters.entry(idx).or_insert(0);
            *e += 1;
            return Ok(*e);
        }
        let Some(tree) = &mut self.merkle else {
            return Ok(0);
        };
        match tree.bump(shell, dram, ledger, idx, mode) {
            Ok(epoch) => Ok(epoch),
            Err(e) => {
                if matches!(e, ShefError::IntegrityViolation(_)) {
                    self.note_integrity_failure();
                }
                Err(e)
            }
        }
    }

    fn touch_lru(&mut self, idx: u32) {
        if let Some(pos) = self.lru.iter().position(|&i| i == idx) {
            self.lru.remove(pos);
        }
        self.lru.push_back(idx);
    }

    // -----------------------------------------------------------------
    // Batch datapath (replicated engine sets, §5.2.2/§6).
    //
    // Every operation is one batch in three phases: a walk over its
    // span (hit/miss decisions, LRU order, epoch sequence), chunk crypto
    // staged during the walk and fanned across a [`WorkerPool`], and a
    // landing loop that merges results in dispatch order. Lane count
    // therefore never changes bytes, statistics or DRAM images; a
    // one-lane pool runs the crypto inline on the caller thread.
    //
    // Two ordering hazards force a staged job to run inline ("materialize"):
    //  * Hazard A — a fill reads a chunk whose evicted predecessor's
    //    seal has not landed in DRAM yet: the seal runs inline first.
    //  * Hazard B — eviction hits a dirty read-modify-write placeholder
    //    whose fill is still in flight: the open runs inline first.
    //
    // On error the batch is drained, not abandoned: victim write-backs
    // always land (their plaintext exists only in the staged job),
    // fills verified before the failure point install as usual, and the
    // earliest failing chunk in dispatch order is reported. Cycle
    // charges cover all staged work — speculation is not free.
    // -----------------------------------------------------------------

    /// Stages a fill: reads ciphertext+tag, resolves the epoch, enqueues
    /// the open, and parks a placeholder line so LRU bookkeeping sees the
    /// chunk as resident. `dirty` pre-marks read-modify-write fills.
    #[allow(clippy::too_many_arguments)]
    fn batch_stage_fill(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        plan: &mut BatchPlan,
        idx: u32,
        mode: AccessMode,
        dirty: bool,
    ) -> Result<(), ShefError> {
        self.stats.misses += 1;
        self.tele.misses.inc();
        let len = self.chunk_len(idx);
        // Hazard A: this chunk was evicted earlier in the batch and its
        // seal has not landed — land it now so the fill reads fresh bytes.
        self.batch_materialize_seal(shell, dram, ledger, plan, idx)?;
        ledger.add_busy(
            PORT_READ_LANE,
            Cycles(((len + CHUNK_TAG_LEN) as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        let ciphertext = shell.mem_read(dram, self.chunk_addr(idx), len)?;
        let tag_bytes = shell.mem_read(dram, self.tag_addr(idx), CHUNK_TAG_LEN)?;
        let tag: [u8; CHUNK_TAG_LEN] = tag_bytes
            .try_into()
            .expect("tag read returns requested length");
        let epoch = self.current_epoch(shell, dram, ledger, idx, mode)?;
        plan.pending_open.insert(idx, plan.jobs.len());
        plan.lens.push(len);
        plan.jobs.push(Some(BatchJob::Open {
            idx,
            epoch,
            ciphertext,
            tag,
        }));
        plan.install.insert(idx);
        self.lines.insert(
            idx,
            Line {
                data: Vec::new(),
                dirty,
            },
        );
        self.touch_lru(idx);
        Ok(())
    }

    /// Evicts LRU lines until one slot is free, deferring victim seals
    /// onto the plan.
    fn batch_evict(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        mode: AccessMode,
        plan: &mut BatchPlan,
    ) -> Result<(), ShefError> {
        while self.lines.len() >= self.capacity_lines {
            let victim = self
                .lru
                .pop_front()
                .expect("lines non-empty implies lru non-empty");
            self.tele.evictions.inc();
            if plan.pending_open.contains_key(&victim) {
                if self.lines.get(&victim).is_some_and(|l| l.dirty) {
                    // Hazard B: the line carries pending write bytes but
                    // its fill is still in flight.
                    self.batch_materialize_open(plan, victim)?;
                } else {
                    // Clean in-flight read fill: nothing to write back.
                    // Cancel the install; the staged open still feeds the
                    // caller's output buffer.
                    plan.pending_open.remove(&victim);
                    plan.install.remove(&victim);
                    self.lines.remove(&victim);
                    continue;
                }
            }
            if self.lines.get(&victim).is_some_and(|l| l.dirty) {
                let data = self.lines[&victim].data.clone();
                let epoch = self.advance_epoch(shell, dram, ledger, victim, mode)?;
                plan.stage_seal(victim, epoch, data);
            }
            self.lines.remove(&victim);
        }
        Ok(())
    }

    /// Runs a staged victim seal inline and lands it in DRAM (Hazard A).
    /// No-op if `idx` has no pending seal. Its crypto cycles stay in the
    /// batch cost model via the length recorded at staging time.
    fn batch_materialize_seal(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        plan: &mut BatchPlan,
        idx: u32,
    ) -> Result<(), ShefError> {
        let Some(pos) = plan.pending_seal.remove(&idx) else {
            return Ok(());
        };
        let Some(BatchJob::Seal { idx, epoch, data }) = plan.jobs[pos].take() else {
            unreachable!("pending_seal points at a staged seal job");
        };
        let (ciphertext, tag) = seal_chunk(&self.key, self.nonce, &self.name, idx, epoch, &data);
        ledger.add_busy(
            PORT_WRITE_LANE,
            Cycles(((ciphertext.len() + tag.len()) as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        shell.mem_write(dram, self.chunk_addr(idx), &ciphertext)?;
        shell.mem_write(dram, self.tag_addr(idx), &tag)?;
        self.stats.writebacks += 1;
        self.tele.writebacks.inc();
        Ok(())
    }

    /// Runs a staged fill open inline and installs the plaintext plus any
    /// pending write bytes (Hazard B).
    fn batch_materialize_open(&mut self, plan: &mut BatchPlan, idx: u32) -> Result<(), ShefError> {
        let Some(pos) = plan.pending_open.remove(&idx) else {
            return Ok(());
        };
        let Some(BatchJob::Open {
            idx,
            epoch,
            ciphertext,
            tag,
        }) = plan.jobs[pos].take()
        else {
            unreachable!("pending_open points at a staged open job");
        };
        plan.install.remove(&idx);
        let plaintext = match open_chunk(
            &self.key,
            self.nonce,
            &self.name,
            idx,
            epoch,
            &ciphertext,
            &tag,
        ) {
            Ok(pt) => pt,
            Err(e) => {
                self.note_integrity_failure();
                self.lines.remove(&idx);
                if let Some(p) = self.lru.iter().position(|&i| i == idx) {
                    self.lru.remove(p);
                }
                return Err(e);
            }
        };
        if let Some(line) = self.lines.get_mut(&idx) {
            line.data = plaintext;
            if let Some((off, bytes)) = plan.apply.remove(&idx) {
                line.data[off..off + bytes.len()].copy_from_slice(&bytes);
            }
        }
        Ok(())
    }

    /// Fans the staged jobs across the pool's lanes with draining
    /// degradation semantics: a panicked job gets one inline retry, and
    /// a job that dies anyway is absorbed — seals are recomputed on the
    /// controller's own engines (the evicted plaintext exists only in
    /// the staged job, so it must never be lost), while opens report a
    /// contained [`crate::fault::ShieldFault::LanePanic`] in dispatch
    /// order. Jobs travel as `Arc`s so the retry copies are refcount
    /// bumps, not chunk memcpys.
    fn run_crypto_jobs(&mut self, pool: &WorkerPool, jobs: Vec<BatchJob>) -> Vec<BatchJobResult> {
        let key = Arc::clone(&self.key);
        let nonce = self.nonce;
        let name = Arc::clone(&self.name);
        let jobs: Vec<Arc<BatchJob>> = jobs.into_iter().map(Arc::new).collect();
        let fallback = jobs.clone();
        let outcome = pool.try_run(jobs, move |_, job| match &*job {
            BatchJob::Seal { idx, epoch, data } => {
                let (ciphertext, tag) = seal_chunk(&key, nonce, &name, *idx, *epoch, data);
                BatchJobResult::Sealed {
                    idx: *idx,
                    ciphertext,
                    tag,
                }
            }
            BatchJob::Open {
                idx,
                epoch,
                ciphertext,
                tag,
            } => BatchJobResult::Opened {
                idx: *idx,
                plaintext: open_chunk(&key, nonce, &name, *idx, *epoch, ciphertext, tag),
            },
        });
        self.stats.lane_panics += outcome.lane_panics;
        self.stats.recovered_retries += outcome.recovered;
        self.tele.lane_panics.add(outcome.lane_panics);
        self.tele.recovered_retries.add(outcome.recovered);
        let mut results = Vec::with_capacity(outcome.results.len());
        for (i, slot) in outcome.results.into_iter().enumerate() {
            match slot {
                Some(r) => results.push(r),
                None => match &*fallback[i] {
                    BatchJob::Seal { idx, epoch, data } => {
                        let (ciphertext, tag) =
                            seal_chunk(&self.key, self.nonce, &self.name, *idx, *epoch, data);
                        self.stats.drained_seals += 1;
                        self.tele.drained_seals.inc();
                        results.push(BatchJobResult::Sealed {
                            idx: *idx,
                            ciphertext,
                            tag,
                        });
                    }
                    BatchJob::Open { idx, .. } => results.push(BatchJobResult::Opened {
                        idx: *idx,
                        plaintext: Err(ShefError::Fault(crate::fault::ShieldFault::LanePanic {
                            job: i,
                        })),
                    }),
                },
            }
        }
        results
    }

    /// Charges one batch's crypto to the ledger under the deterministic
    /// round-robin lane model and updates the parallel counters.
    ///
    /// Streaming cost lands on per-lane sub-lanes `{set}.l{k}` (the
    /// bottleneck model then sees the makespan, i.e. true overlap);
    /// a single lane charges the set's base lane. Blocking cost is the summed serial latency — lane count
    /// cannot hide a stalled accelerator.
    fn charge_crypto_batch(
        &mut self,
        ledger: &mut CostLedger,
        lens: &[usize],
        mode: AccessMode,
        lanes: usize,
    ) {
        let lanes = lanes.max(1);
        let batch = parallel_batch_cost(&self.region.engine_set, lens, lanes);
        match mode {
            AccessMode::Streaming => {
                if lanes == 1 {
                    ledger.add_busy(&self.lane, batch.per_lane[0]);
                } else {
                    for (k, &busy) in batch.per_lane.iter().enumerate() {
                        if busy > Cycles::ZERO {
                            ledger.add_busy(&format!("{}.l{k}", self.lane), busy);
                        }
                    }
                }
            }
            AccessMode::Blocking => ledger.add_serial(batch.serial_latency),
        }
        self.stats.parallel_batches += 1;
        self.stats.parallel_jobs += lens.len() as u64;
        self.stats.lanes = lanes as u64;
        self.stats.queue_depth_hwm = self.stats.queue_depth_hwm.max(lens.len() as u64);
        self.stats.lane_cycles_total += batch.total().0;
        self.stats.lane_cycles_max += batch.makespan().0;
        self.tele.parallel_batches.inc();
        self.tele.parallel_jobs.add(lens.len() as u64);
        self.tele.lanes.set(lanes as u64);
        self.tele.queue_depth_hwm.record_max(lens.len() as u64);
        self.tele.batch_jobs.observe(lens.len() as u64);
    }

    /// Phase 2+3 of a batch operation: runs the staged crypto on the
    /// pool, lands victim write-backs, installs verified fills in
    /// dispatch order, and settles the cost model. Returns opened
    /// plaintexts by chunk for output assembly.
    #[allow(clippy::too_many_arguments)]
    fn batch_execute(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        mode: AccessMode,
        pool: &WorkerPool,
        plan: BatchPlan,
        walk_error: Option<ShefError>,
    ) -> Result<HashMap<u32, Vec<u8>>, ShefError> {
        let BatchPlan {
            jobs,
            lens,
            apply,
            install,
            ..
        } = plan;
        let crypto_start = ledger.total_busy().0;
        let live: Vec<BatchJob> = jobs.into_iter().flatten().collect();
        let results = self.run_crypto_jobs(pool, live);
        // Charge the batch's crypto before the landing loop so the
        // crypto/landing span boundary falls between the two phases.
        // The ledger is purely additive, so charge order is irrelevant
        // to every total; only the logical clock's intermediate reading
        // moves.
        self.charge_crypto_batch(ledger, &lens, mode, pool.lanes());
        let landing_start = ledger.total_busy().0;
        self.tele
            .registry
            .trace("shield.engine.crypto", crypto_start, landing_start);
        let mut first_err: Option<ShefError> = None;
        let mut opened: HashMap<u32, Vec<u8>> = HashMap::new();
        for result in results {
            match result {
                BatchJobResult::Sealed {
                    idx,
                    ciphertext,
                    tag,
                } => {
                    // Victim write-backs always land, even when the batch
                    // fails: the evicted plaintext exists only here.
                    ledger.add_busy(
                        PORT_WRITE_LANE,
                        Cycles(
                            ((ciphertext.len() + tag.len()) as u64)
                                .div_ceil(SHELL_PORT_BYTES_PER_CYCLE),
                        ),
                    );
                    let landed = shell
                        .mem_write(dram, self.chunk_addr(idx), &ciphertext)
                        .and_then(|()| shell.mem_write(dram, self.tag_addr(idx), &tag));
                    match landed {
                        Ok(()) => {
                            self.stats.writebacks += 1;
                            self.tele.writebacks.inc();
                        }
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e.into());
                            }
                        }
                    }
                }
                BatchJobResult::Opened { idx, plaintext } => match plaintext {
                    Ok(pt) => {
                        // Past the first failure an in-order walk would
                        // never have reached this chunk: skip the install.
                        if first_err.is_none() {
                            if install.contains(&idx) {
                                if let Some(line) = self.lines.get_mut(&idx) {
                                    line.data = pt.clone();
                                    if let Some((off, bytes)) = apply.get(&idx) {
                                        line.data[*off..off + bytes.len()].copy_from_slice(bytes);
                                    }
                                }
                            }
                            opened.insert(idx, pt);
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            // A contained lane fault is an infrastructure
                            // failure, not evidence of tampering: it
                            // surfaces but does not poison the set.
                            if !matches!(e, ShefError::Fault(_)) {
                                self.note_integrity_failure();
                            }
                            first_err = Some(e);
                        }
                    }
                },
            }
        }
        self.tele.registry.trace(
            "shield.engine.landing",
            landing_start,
            ledger.total_busy().0,
        );
        if first_err.is_some() || walk_error.is_some() {
            // Drop placeholder lines whose fill never installed.
            for idx in install {
                if !opened.contains_key(&idx) {
                    self.lines.remove(&idx);
                    if let Some(p) = self.lru.iter().position(|&i| i == idx) {
                        self.lru.remove(p);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some(e) = walk_error {
            return Err(e);
        }
        Ok(opened)
    }

    /// Reads `len` plaintext bytes at `addr` (must lie in the region),
    /// fanning chunk opens across `pool`'s lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] for the earliest chunk
    /// in dispatch order that fails authentication.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        len: usize,
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<Vec<u8>, ShefError> {
        debug_assert!(self.region.range.contains_span(addr, len));
        self.check_operational()?;
        enum Segment {
            Ready(Vec<u8>),
            Fill {
                idx: u32,
                offset: usize,
                take: usize,
            },
        }
        let walk_start = ledger.total_busy().0;
        let mut plan = BatchPlan::default();
        let mut segments: Vec<Segment> = Vec::new();
        let mut walk_error = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let idx = self.chunk_index(cur);
            let chunk_start = self.chunk_addr(idx);
            let offset = (cur - chunk_start) as usize;
            let take = ((end - cur) as usize).min(self.chunk_len(idx) - offset);
            let step = if self.lines.contains_key(&idx) {
                self.stats.hits += 1;
                self.tele.hits.inc();
                self.touch_lru(idx);
                let line = &self.lines[&idx];
                segments.push(Segment::Ready(line.data[offset..offset + take].to_vec()));
                Ok(())
            } else {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .and_then(|()| {
                        self.batch_stage_fill(shell, dram, ledger, &mut plan, idx, mode, false)
                    })
                    .map(|()| segments.push(Segment::Fill { idx, offset, take }))
            };
            if let Err(e) = step {
                walk_error = Some(e);
                break;
            }
            ledger.add_busy(ACCEL_PORT_READ_LANE, buffer_hit_cost(take));
            cur += take as u64;
        }
        self.tele
            .registry
            .trace("shield.engine.walk", walk_start, ledger.total_busy().0);
        let opened = self.batch_execute(shell, dram, ledger, mode, pool, plan, walk_error)?;
        let mut out = Vec::with_capacity(len);
        for seg in segments {
            match seg {
                Segment::Ready(bytes) => out.extend_from_slice(&bytes),
                Segment::Fill { idx, offset, take } => {
                    let pt = opened.get(&idx).expect("fill opened on success path");
                    out.extend_from_slice(&pt[offset..offset + take]);
                }
            }
        }
        self.stats.bytes_read += len as u64;
        self.tele.bytes_read.add(len as u64);
        Ok(out)
    }

    /// Writes plaintext bytes at `addr` (must lie in the region).
    /// Read-modify-write fills and victim seals are fanned across
    /// `pool`'s lanes; full-chunk overwrites (and every chunk, with
    /// `zero_fill_writes`) allocate zero-filled lines without a DRAM
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] for the earliest chunk
    /// in dispatch order that fails authentication.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        data: &[u8],
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        debug_assert!(self.region.range.contains_span(addr, data.len()));
        self.check_operational()?;
        let walk_start = ledger.total_busy().0;
        let mut plan = BatchPlan::default();
        let mut walk_error = None;
        let mut cur = addr;
        let end = addr + data.len() as u64;
        let mut src = 0usize;
        while cur < end {
            let idx = self.chunk_index(cur);
            let chunk_start = self.chunk_addr(idx);
            let offset = (cur - chunk_start) as usize;
            let take = ((end - cur) as usize).min(self.chunk_len(idx) - offset);
            let full_overwrite = offset == 0 && take == self.chunk_len(idx);
            let zero_fill = !self.lines.contains_key(&idx)
                && (full_overwrite || self.region.engine_set.zero_fill_writes);
            let step = if self.lines.contains_key(&idx) {
                self.stats.hits += 1;
                self.tele.hits.inc();
                self.touch_lru(idx);
                let line = self.lines.get_mut(&idx).expect("resident");
                line.data[offset..offset + take].copy_from_slice(&data[src..src + take]);
                line.dirty = true;
                Ok(())
            } else if zero_fill {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .map(|()| {
                        self.stats.zero_fills += 1;
                        self.tele.zero_fills.inc();
                        let len = self.chunk_len(idx);
                        let mut buf = vec![0u8; len];
                        buf[offset..offset + take].copy_from_slice(&data[src..src + take]);
                        self.lines.insert(
                            idx,
                            Line {
                                data: buf,
                                dirty: true,
                            },
                        );
                        self.touch_lru(idx);
                    })
            } else {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .and_then(|()| {
                        self.batch_stage_fill(shell, dram, ledger, &mut plan, idx, mode, true)
                    })
                    .map(|()| {
                        plan.apply
                            .insert(idx, (offset, data[src..src + take].to_vec()));
                    })
            };
            if let Err(e) = step {
                walk_error = Some(e);
                break;
            }
            ledger.add_busy(ACCEL_PORT_WRITE_LANE, buffer_hit_cost(take));
            cur += take as u64;
            src += take;
        }
        self.tele
            .registry
            .trace("shield.engine.walk", walk_start, ledger.total_busy().0);
        self.batch_execute(shell, dram, ledger, mode, pool, plan, walk_error)?;
        self.stats.bytes_written += data.len() as u64;
        self.tele.bytes_written.add(data.len() as u64);
        Ok(())
    }

    /// Writes back all dirty lines and clears the buffer. Dirty-line
    /// seals are fanned across `pool`'s lanes; write-backs land in LRU
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates DRAM and epoch errors from write-back traffic; the
    /// buffer is left intact on error.
    pub fn flush(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        self.check_operational()?;
        let walk_start = ledger.total_busy().0;
        let mut plan = BatchPlan::default();
        let mut walk_error = None;
        let indices: Vec<u32> = self.lru.iter().copied().collect();
        for idx in indices {
            if !self.lines.get(&idx).is_some_and(|l| l.dirty) {
                continue;
            }
            match self.advance_epoch(shell, dram, ledger, idx, AccessMode::Streaming) {
                Ok(epoch) => {
                    let data = self.lines[&idx].data.clone();
                    plan.stage_seal(idx, epoch, data);
                    if let Some(l) = self.lines.get_mut(&idx) {
                        l.dirty = false;
                    }
                }
                Err(e) => {
                    walk_error = Some(e);
                    break;
                }
            }
        }
        self.tele
            .registry
            .trace("shield.engine.walk", walk_start, ledger.total_busy().0);
        self.batch_execute(
            shell,
            dram,
            ledger,
            AccessMode::Streaming,
            pool,
            plan,
            walk_error,
        )?;
        self.lines.clear();
        self.lru.clear();
        Ok(())
    }
}

/// A chunk-crypto job staged by a batch walk for pool execution.
enum BatchJob {
    Seal {
        idx: u32,
        epoch: u64,
        data: Vec<u8>,
    },
    Open {
        idx: u32,
        epoch: u64,
        ciphertext: Vec<u8>,
        tag: [u8; CHUNK_TAG_LEN],
    },
}

/// What came back from a lane for one staged job.
enum BatchJobResult {
    Sealed {
        idx: u32,
        ciphertext: Vec<u8>,
        tag: [u8; CHUNK_TAG_LEN],
    },
    Opened {
        idx: u32,
        plaintext: Result<Vec<u8>, ShefError>,
    },
}

/// Bookkeeping for one batch operation.
#[derive(Default)]
struct BatchPlan {
    /// Staged jobs in dispatch order; tombstoned (`None`) when a hazard
    /// forces inline materialization.
    jobs: Vec<Option<BatchJob>>,
    /// Plaintext length of every staged job (including materialized
    /// ones) in dispatch order — drives the round-robin lane-cost model.
    lens: Vec<usize>,
    /// Chunk → staged position of a victim seal not yet landed in DRAM.
    pending_seal: HashMap<u32, usize>,
    /// Chunk → staged position of a fill open not yet landed.
    pending_open: HashMap<u32, usize>,
    /// Write bytes to patch into a chunk once its fill lands.
    apply: HashMap<u32, (usize, Vec<u8>)>,
    /// Chunks whose opened plaintext installs into the buffer.
    install: HashSet<u32>,
}

impl BatchPlan {
    fn stage_seal(&mut self, idx: u32, epoch: u64, data: Vec<u8>) {
        self.pending_seal.insert(idx, self.jobs.len());
        self.lens.push(data.len());
        self.jobs.push(Some(BatchJob::Seal { idx, epoch, data }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::client;
    use crate::shield::config::{EngineSetConfig, MemRange};
    use crate::shield::timing::{chunk_crypto_cost, ChunkCost};

    fn setup(
        chunk: usize,
        buffer: usize,
        counters: bool,
        zero_fill: bool,
    ) -> (EngineSet, Shell, Dram, CostLedger, DataEncryptionKey) {
        let region = RegionConfig {
            name: "test".into(),
            range: MemRange::new(0x1000, 8192),
            engine_set: EngineSetConfig {
                chunk_size: chunk,
                buffer_bytes: buffer,
                counters,
                zero_fill_writes: zero_fill,
                ..EngineSetConfig::default()
            },
        };
        let dek = DataEncryptionKey::from_bytes([3u8; 32]);
        let es = EngineSet::new(region, 0, 0x10_0000, 0x20_0000, &dek);
        (es, Shell::new(), Dram::new(1 << 22), CostLedger::new(), dek)
    }

    /// Engine set whose region uses the Bonsai-Merkle-Tree defence.
    fn setup_merkle(
        chunk: usize,
        buffer: usize,
        node_cache_bytes: usize,
    ) -> (EngineSet, Shell, Dram, CostLedger, DataEncryptionKey) {
        let region = RegionConfig {
            name: "test".into(),
            range: MemRange::new(0x1000, 8192),
            engine_set: EngineSetConfig {
                chunk_size: chunk,
                buffer_bytes: buffer,
                merkle: Some(crate::shield::merkle::MerkleConfig {
                    arity: 8,
                    node_cache_bytes,
                }),
                ..EngineSetConfig::default()
            },
        };
        let dek = DataEncryptionKey::from_bytes([3u8; 32]);
        let es = EngineSet::new(region, 0, 0x10_0000, 0x20_0000, &dek);
        (es, Shell::new(), Dram::new(1 << 22), CostLedger::new(), dek)
    }

    /// Provisions plaintext into DRAM the way the Data Owner would.
    fn provision(es: &EngineSet, dram: &mut Dram, data: &[u8]) {
        let chunk = es.chunk_size();
        for (i, pt) in data.chunks(chunk).enumerate() {
            let (ct, tag) = seal_chunk(&es.key, es.nonce, &es.name, i as u32, 0, pt);
            dram.tamper_write(es.chunk_addr(i as u32), &ct);
            dram.tamper_write(es.tag_addr(i as u32), &tag);
        }
    }

    #[test]
    fn stats_ratios_defined_with_no_parallel_batches() {
        // Regression: fresh stats (no batch dispatched) must clamp to
        // 1.0, never NaN/inf, so reports can print them unguarded.
        let stats = EngineSetStats::default();
        assert_eq!(stats.parallel_speedup(), 1.0);
        assert_eq!(stats.lane_utilization(), 1.0);
        // lanes recorded but no cycles (e.g. all-hit batches).
        let stats = EngineSetStats {
            lanes: 4,
            ..EngineSetStats::default()
        };
        assert_eq!(stats.parallel_speedup(), 1.0);
        assert_eq!(stats.lane_utilization(), 1.0);
    }

    #[test]
    fn stats_ratios_survive_huge_cycle_counts() {
        // Regression: lane_cycles_max * lanes used to be a u64 multiply
        // that overflowed on long campaigns (panic in debug builds).
        let stats = EngineSetStats {
            lanes: 8,
            lane_cycles_max: u64::MAX / 2,
            lane_cycles_total: u64::MAX - 1,
            ..EngineSetStats::default()
        };
        let speedup = stats.parallel_speedup();
        let util = stats.lane_utilization();
        assert!(speedup.is_finite());
        assert!(util.is_finite());
        assert!((speedup - 2.0).abs() < 1e-9);
        assert!((util - 0.25).abs() < 1e-9);
    }

    #[test]
    fn telemetry_mirrors_engine_counters_and_phases() {
        let t = Telemetry::new();
        let pool = WorkerPool::new(2);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 1024, true, false);
        es.attach_telemetry(&t);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        provision(&es, &mut dram, &data);
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                8192,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, data);
        let r = t.report();
        assert_eq!(r.counters["shield.engine.misses"], 16);
        assert_eq!(r.counters["shield.engine.bytes_read"], 8192);
        // 16 fills through a 2-line buffer: 14 clean-fill cancellations
        // count as evictions in the batch walk.
        assert!(r.counters["shield.engine.evictions"] > 0);
        assert_eq!(r.counters["shield.engine.parallel_batches"], 1);
        assert_eq!(r.counters["shield.engine.parallel_jobs"], 16);
        assert_eq!(r.gauges["shield.engine.lanes"], 2);
        // All three batch phases traced, on a strictly ordered clock.
        for scope in [
            "shield.engine.walk",
            "shield.engine.crypto",
            "shield.engine.landing",
        ] {
            assert_eq!(r.scopes[scope].count, 1, "{scope}");
        }
        assert!(r.scopes["shield.engine.walk"].total_cycles > 0);
        assert!(r.scopes["shield.engine.crypto"].total_cycles > 0);
        let walk = &r.spans[0];
        assert_eq!(walk.scope, "shield.engine.walk");
        assert!(walk.end_cycles > walk.start_cycles);
    }

    #[test]
    fn detached_telemetry_reports_are_byte_identical() {
        // Two engine sets running the same trace against their own
        // private registries must produce identical JSON reports — the
        // engine-level half of the determinism guarantee.
        let run = || {
            let t = Telemetry::new();
            let pool = WorkerPool::new(4);
            let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 2048, true, false);
            es.attach_telemetry(&t);
            let data: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 256) as u8).collect();
            provision(&es, &mut dram, &data);
            es.write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1200,
                &[7u8; 3000],
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
            es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
            t.report().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn read_provisioned_data() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 2048, false, false);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        provision(&es, &mut dram, &data);
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                8192,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, data);
        assert_eq!(es.stats().misses, 16);
    }

    #[test]
    fn unaligned_reads() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 2048, false, false);
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        provision(&es, &mut dram, &data);
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000 + 300,
                700,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, &data[300..1000]);
    }

    #[test]
    fn write_then_read_back_through_dram() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, dek) = setup(512, 1024, false, true);
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 199) as u8).collect();
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &payload,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        // A brand-new engine set (fresh cache) must read the same bytes.
        let region = es.region().clone();
        let mut es2 = EngineSet::new(region, 0, 0x10_0000, 0x20_0000, &dek);
        let got = es2
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                2048,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, payload);
        // Ciphertext in DRAM differs from plaintext.
        assert_ne!(dram.tamper_read(0x1000, 2048), payload);
    }

    #[test]
    fn buffer_hits_avoid_dram() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 2048, false, false);
        let data = vec![0x5au8; 8192];
        provision(&es, &mut dram, &data);
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        let before = dram.stats().bytes_read;
        // Re-read the same chunk: served from the buffer.
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000 + 128,
                256,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(dram.stats().bytes_read, before);
        assert_eq!(es.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_works() {
        let pool = WorkerPool::new(1);
        // Buffer holds 2 lines; touching 3 chunks evicts the oldest.
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 1024, false, false);
        let data = vec![1u8; 8192];
        provision(&es, &mut dram, &data);
        for i in 0..3u64 {
            let _ = es
                .read(
                    &mut shell,
                    &mut dram,
                    &mut ledger,
                    0x1000 + i * 512,
                    512,
                    AccessMode::Streaming,
                    &pool,
                )
                .unwrap();
        }
        // Chunk 0 was evicted: re-reading misses again.
        let misses = es.stats().misses;
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(es.stats().misses, misses + 1);
    }

    #[test]
    fn spoofed_dram_detected() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 1024, false, false);
        provision(&es, &mut dram, &vec![7u8; 8192]);
        // Adversary flips a ciphertext bit.
        let mut byte = dram.tamper_read(0x1100, 1);
        byte[0] ^= 0x80;
        dram.tamper_write(0x1100, &byte);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert_eq!(es.stats().integrity_failures, 1);
    }

    #[test]
    fn spliced_chunks_detected() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 1024, false, false);
        provision(&es, &mut dram, &vec![9u8; 8192]);
        // Copy chunk 0's ciphertext+tag over chunk 1's.
        let c0 = dram.tamper_read(0x1000, 512);
        let t0 = dram.tamper_read(0x10_0000, 16);
        dram.tamper_write(0x1000 + 512, &c0);
        dram.tamper_write(0x10_0000 + 16, &t0);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000 + 512,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn replay_detected_with_counters() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 512, true, false);
        provision(&es, &mut dram, &vec![1u8; 8192]);
        // Snapshot epoch-0 ciphertext+tag of chunk 0.
        let old_ct = dram.tamper_read(0x1000, 512);
        let old_tag = dram.tamper_read(0x10_0000, 16);
        // Legitimate write bumps the on-chip counter to 1.
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[2u8; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        // Fresh data verifies.
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![2u8; 512]);
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        // Adversary replays the old snapshot: must be detected.
        dram.tamper_write(0x1000, &old_ct);
        dram.tamper_write(0x10_0000, &old_tag);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn replay_not_detected_without_counters() {
        let pool = WorkerPool::new(1);
        // Documents the paper's point: read-write regions need counters.
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 512, false, false);
        provision(&es, &mut dram, &vec![1u8; 8192]);
        let old_ct = dram.tamper_read(0x1000, 512);
        let old_tag = dram.tamper_read(0x10_0000, 16);
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[2u8; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        dram.tamper_write(0x1000, &old_ct);
        dram.tamper_write(0x10_0000, &old_tag);
        // The stale data verifies — replay goes unnoticed.
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![1u8; 512]);
    }

    #[test]
    fn merkle_write_read_round_trip() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup_merkle(512, 1024, 0);
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 197) as u8).collect();
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &payload,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                2048,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, payload);
        let ms = es.merkle_stats().expect("merkle enabled");
        assert!(ms.node_writes > 0, "bumps must rewrite tree nodes");
    }

    #[test]
    fn merkle_detects_replay() {
        let pool = WorkerPool::new(1);
        // Same scenario as `replay_detected_with_counters`, but the
        // counters live in DRAM under the tree.
        let (mut es, mut shell, mut dram, mut ledger, _) = setup_merkle(512, 512, 0);
        provision(&es, &mut dram, &vec![1u8; 8192]);
        let old_ct = dram.tamper_read(0x1000, 512);
        let old_tag = dram.tamper_read(0x10_0000, 16);
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[2u8; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        dram.tamper_write(0x1000, &old_ct);
        dram.tamper_write(0x10_0000, &old_tag);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn merkle_detects_tree_rollback() {
        let pool = WorkerPool::new(1);
        // The stronger attack: roll back data, tag, AND the DRAM-resident
        // counter tree together. Only the on-chip root defeats this.
        let (mut es, mut shell, mut dram, mut ledger, _) = setup_merkle(512, 512, 0);
        provision(&es, &mut dram, &vec![1u8; 8192]);
        // Force tree initialization, then snapshot everything.
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let snap_data = dram.tamper_read(0x1000, 512);
        let snap_tag = dram.tamper_read(0x10_0000, 16);
        let snap_tree = dram.tamper_read(0x20_0000, 4096);
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[9u8; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        dram.tamper_write(0x1000, &snap_data);
        dram.tamper_write(0x10_0000, &snap_tag);
        dram.tamper_write(0x20_0000, &snap_tree);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert!(es.stats().integrity_failures >= 1);
    }

    #[test]
    fn merkle_costs_exceed_onchip_counters() {
        let pool = WorkerPool::new(1);
        // The paper's argument (§5.2.2): tree-node DRAM traffic makes the
        // BMT strictly more expensive than on-chip counters.
        let run = |mut es: EngineSet, mut shell: Shell, mut dram: Dram| {
            let mut ledger = CostLedger::new();
            for round in 0..4u8 {
                for i in 0..16u64 {
                    es.write(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        0x1000 + i * 512,
                        &[round; 512],
                        AccessMode::Streaming,
                        &pool,
                    )
                    .unwrap();
                }
                es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
            }
            ledger.lane(es.lane())
        };
        let (es_c, shell_c, dram_c, _, _) = setup(512, 512, true, false);
        let (es_m, shell_m, dram_m, _, _) = setup_merkle(512, 512, 0);
        let counters_cost = run(es_c, shell_c, dram_c);
        let merkle_cost = run(es_m, shell_m, dram_m);
        assert!(
            merkle_cost > counters_cost,
            "BMT {merkle_cost:?} must cost more than on-chip counters {counters_cost:?}"
        );
    }

    #[test]
    fn zero_fill_skips_dram_reads() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 1024, false, true);
        // Partial write to an unprovisioned chunk with zero_fill: no read.
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[9u8; 100],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        assert_eq!(dram.stats().bytes_read, 0);
        assert_eq!(es.stats().zero_fills, 1);
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        // Readback sees the write plus zeros.
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(&got[..100], &[9u8; 100]);
        assert_eq!(&got[100..], &vec![0u8; 412][..]);
    }

    #[test]
    fn blocking_mode_charges_serial_cycles() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(4096, 4096, false, false);
        provision(&es, &mut dram, &vec![3u8; 8192]);
        let serial_before = ledger.serial();
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                4096,
                AccessMode::Blocking,
                &pool,
            )
            .unwrap();
        assert!(
            ledger.serial() > serial_before,
            "blocking access must stall"
        );
    }

    #[test]
    fn streaming_mode_charges_lane_cycles() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 512, false, false);
        provision(&es, &mut dram, &vec![3u8; 8192]);
        let _ = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert!(ledger.lane(es.lane()) > Cycles::ZERO);
    }

    /// Functional slice of the stats: everything except the lane-count
    /// observability counters, which legitimately differ.
    fn core_stats(s: EngineSetStats) -> (u64, u64, u64, u64, u64, u64, u64) {
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

    /// One engine set with its own Shell, DRAM, ledger and worker pool,
    /// so the same operations can be replayed at several lane counts.
    /// The `*_matches_serial` tests compare against a one-lane pool,
    /// which runs every crypto job inline (serially) on the caller.
    struct Rig {
        es: EngineSet,
        shell: Shell,
        dram: Dram,
        ledger: CostLedger,
        pool: WorkerPool,
    }

    impl Rig {
        fn new(
            lanes: usize,
            (mut es, shell, mut dram, ledger, _): (
                EngineSet,
                Shell,
                Dram,
                CostLedger,
                DataEncryptionKey,
            ),
            data: &[u8],
        ) -> Self {
            if !data.is_empty() {
                provision(&es, &mut dram, data);
            }
            es.attach_telemetry(&Telemetry::new());
            Rig {
                es,
                shell,
                dram,
                ledger,
                pool: WorkerPool::new(lanes),
            }
        }

        fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Vec<u8> {
            self.es
                .read(
                    &mut self.shell,
                    &mut self.dram,
                    &mut self.ledger,
                    addr,
                    len,
                    mode,
                    &self.pool,
                )
                .unwrap()
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            self.es
                .write(
                    &mut self.shell,
                    &mut self.dram,
                    &mut self.ledger,
                    addr,
                    data,
                    AccessMode::Streaming,
                    &self.pool,
                )
                .unwrap();
        }

        fn flush(&mut self) {
            self.es
                .flush(
                    &mut self.shell,
                    &mut self.dram,
                    &mut self.ledger,
                    &self.pool,
                )
                .unwrap();
        }

        /// The sealed region image: ciphertext plus tag arena.
        fn image(&self) -> (Vec<u8>, Vec<u8>) {
            (
                self.dram.tamper_read(0x1000, 8192),
                self.dram.tamper_read(0x10_0000, 16 * CHUNK_TAG_LEN),
            )
        }
    }

    /// Modelled crypto cycles of `jobs` full-chunk seal/open jobs on one
    /// lane, straight from the timing model.
    fn crypto_cycles(es: &EngineSet, jobs: u64) -> ChunkCost {
        let one = chunk_crypto_cost(&es.region().engine_set, es.chunk_size());
        ChunkCost {
            lane: Cycles(one.lane.0 * jobs),
            latency: Cycles(one.latency.0 * jobs),
        }
    }

    #[test]
    fn parallel_read_matches_serial() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 256) as u8).collect();
        let mut one = Rig::new(1, setup(512, 2048, true, false), &data);
        let mut four = Rig::new(4, setup(512, 2048, true, false), &data);
        for (addr, len) in [(0x1000u64, 8192usize), (0x1000 + 300, 700), (0x1000, 512)] {
            let got = one.read(addr, len, AccessMode::Streaming);
            let off = (addr - 0x1000) as usize;
            assert_eq!(got, &data[off..off + len], "plaintext shadow");
            assert_eq!(four.read(addr, len, AccessMode::Streaming), got);
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        // One lane charges every open to the set's lane at exactly the
        // timing model's per-chunk cost.
        let lane = one.es.lane().to_owned();
        let opens = one.es.stats().misses;
        assert_eq!(one.ledger.lane(&lane), crypto_cycles(&one.es, opens).lane);
        // Total crypto work is conserved across the sub-lanes...
        assert_eq!(four.ledger.group_total(&lane), one.ledger.lane(&lane));
        // ...but the makespan (busiest sub-lane) is strictly smaller.
        assert!(four.ledger.group_makespan(&lane) < one.ledger.lane(&lane));
        assert!(four.es.stats().parallel_speedup() > 1.0);
        assert_eq!(one.es.stats().parallel_speedup(), 1.0);
    }

    #[test]
    fn parallel_write_matches_serial() {
        // Mix of zero-fill full overwrites and read-modify-write fills,
        // with evictions (buffer holds 2 of 16 chunks).
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 256) as u8).collect();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut shadow = data.clone();
        shadow[200..3200].copy_from_slice(&payload);
        let mut one = Rig::new(1, setup(512, 1024, true, false), &data);
        let mut four = Rig::new(4, setup(512, 1024, true, false), &data);
        for rig in [&mut one, &mut four] {
            // Unaligned span: head and tail chunks are RMW, middle
            // chunks are full overwrites.
            rig.write(0x1000 + 200, &payload);
            rig.flush();
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        // Identical keys + identical epoch sequences mean the DRAM end
        // state (ciphertext and tag arena) must match byte for byte.
        assert_eq!(one.image(), four.image());
        for rig in [&mut one, &mut four] {
            assert_eq!(rig.read(0x1000, 8192, AccessMode::Streaming), shadow);
        }
    }

    #[test]
    fn same_batch_evict_then_refill_lands_fresh_bytes() {
        // Hazard A: with a 1-line buffer, reading [chunk 0, chunk 1]
        // while chunk 1 sits dirty in the buffer first evicts chunk 1
        // (staged seal), then chunk 1's own fill must observe that seal.
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 512, true, false);
        provision(&es, &mut dram, &data);
        let pool = WorkerPool::new(4);
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1200,
            &[0xAB; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                1024,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(&got[..512], &data[..512]);
        assert_eq!(&got[512..], &[0xABu8; 512][..]);
        assert_eq!(es.stats().writebacks, 1);
    }

    #[test]
    fn evicting_inflight_rmw_placeholder_matches_serial() {
        // Hazard B: with a 1-line buffer, an unaligned write across two
        // chunks evicts chunk 0's read-modify-write placeholder while its
        // fill is still staged.
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 3 % 256) as u8).collect();
        let payload = [0xCD; 512];
        let mut shadow = data.clone();
        shadow[256..768].copy_from_slice(&payload);
        let mut one = Rig::new(1, setup(512, 512, true, false), &data);
        let mut four = Rig::new(4, setup(512, 512, true, false), &data);
        for rig in [&mut one, &mut four] {
            rig.write(0x1000 + 256, &payload);
            rig.flush();
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        assert_eq!(one.image(), four.image());
        for rig in [&mut one, &mut four] {
            assert_eq!(
                rig.read(0x1000, 1024, AccessMode::Streaming),
                &shadow[..1024]
            );
        }
    }

    #[test]
    fn mac_only_flush_image_decrypts_to_the_shadow() {
        // Under MacOnly every chunk is sealed at epoch 0, so the Data
        // Owner's client can open the flushed DRAM image with no help
        // from the engine set: an oracle that shares no datapath code.
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 5 % 256) as u8).collect();
        let mut shadow = data.clone();
        for lanes in [1usize, 4] {
            let (es, shell, dram, ledger, dek) = setup(512, 1024, false, false);
            let region = es.region().clone();
            let mut rig = Rig::new(lanes, (es, shell, dram, ledger, dek.clone()), &data);
            for (off, len, fill) in [
                (100usize, 1500usize, 0x11u8),
                (4000, 512, 0x22),
                (7000, 1192, 0x33),
            ] {
                let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                rig.write(0x1000 + off as u64, &bytes);
                shadow[off..off + len].copy_from_slice(&bytes);
            }
            rig.flush();
            let (ct, tags) = rig.image();
            let opened =
                client::decrypt_region(&dek, &region, &ct, &tags, &client::uniform_epochs(0))
                    .unwrap();
            assert_eq!(opened, shadow, "{lanes} lanes");
        }
    }

    #[test]
    fn parallel_read_reports_earliest_corrupt_chunk() {
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 4096, false, false);
        provision(&es, &mut dram, &vec![7u8; 8192]);
        // Corrupt chunks 2 and 5; the batch must report chunk 2.
        for idx in [2u64, 5] {
            let addr = 0x1000 + idx * 512;
            let mut byte = dram.tamper_read(addr, 1);
            byte[0] ^= 1;
            dram.tamper_write(addr, &byte);
        }
        let pool = WorkerPool::new(4);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                8192,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        let ShefError::IntegrityViolation(msg) = err else {
            panic!("expected integrity violation");
        };
        assert!(msg.contains("chunk 2"), "earliest chunk wins: {msg}");
        assert_eq!(es.stats().integrity_failures, 1);
        // The detection poisons the set: follow-up traffic is rejected
        // until the containment state is explicitly cleared.
        assert!(es.poisoned());
        let rejected = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                1024,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(
            rejected,
            ShefError::Fault(crate::fault::ShieldFault::Poisoned { .. })
        ));
        assert_eq!(es.stats().contained_rejects, 1);
        // Clearing the poison drops buffered lines; the untampered
        // prefix then refills and verifies from DRAM as usual.
        es.clear_poison();
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                1024,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![7u8; 1024]);
        assert_eq!(es.stats().integrity_failures, 1);
    }

    #[test]
    fn serial_integrity_failure_poisons_until_cleared() {
        let pool = WorkerPool::new(1);
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 4096, false, false);
        provision(&es, &mut dram, &vec![7u8; 8192]);
        let addr = 0x1000 + 3 * 512;
        let mut byte = dram.tamper_read(addr, 1);
        byte[0] ^= 0x80;
        dram.tamper_write(addr, &byte);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                addr,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert!(es.poisoned());
        // Reads, writes and flushes are all fail-stopped.
        let r = es.read(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            16,
            AccessMode::Streaming,
            &pool,
        );
        assert!(matches!(r, Err(ShefError::Fault(_))));
        let w = es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &[1, 2, 3],
            AccessMode::Streaming,
            &pool,
        );
        assert!(matches!(w, Err(ShefError::Fault(_))));
        let fl = es.flush(&mut shell, &mut dram, &mut ledger, &pool);
        assert!(matches!(fl, Err(ShefError::Fault(_))));
        assert_eq!(es.stats().contained_rejects, 3);
        es.clear_poison();
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![7u8; 512]);
    }

    #[test]
    fn one_shot_lane_panic_recovers_transparently() {
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 4096, false, false);
        provision(&es, &mut dram, &vec![9u8; 8192]);
        let pool = WorkerPool::new(4);
        pool.arm_lane_panic(0);
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                4096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![9u8; 4096]);
        let stats = es.stats();
        assert_eq!(stats.lane_panics, 1);
        assert_eq!(stats.recovered_retries, 1);
        assert_eq!(stats.integrity_failures, 0);
        assert!(!es.poisoned(), "a lane fault is not an integrity event");
    }

    #[test]
    fn sticky_lane_panic_drains_batch_and_surfaces_fault() {
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 4096, false, false);
        provision(&es, &mut dram, &vec![9u8; 8192]);
        let pool = WorkerPool::new(4);
        // Job 0 of the batch (the open of chunk 0) dies on its lane AND
        // on the inline retry: the op must fail with a contained fault,
        // not deadlock or cascade panics into sibling lanes.
        pool.arm_lane_panic_sticky(0);
        let err = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                4096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ShefError::Fault(crate::fault::ShieldFault::LanePanic { job: 0 })
        ));
        let stats = es.stats();
        assert_eq!(stats.lane_panics, 2, "attempt + retry");
        assert_eq!(stats.integrity_failures, 0);
        assert!(!es.poisoned());
        // The set stays live: the same read succeeds once the fault is
        // gone (the sticky arm targeted an already-consumed job index).
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                4096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![9u8; 4096]);
    }

    #[test]
    fn sticky_panic_on_victim_seal_still_lands_the_writeback() {
        // One-line buffer: writing chunk 0 then touching chunk 1 evicts
        // chunk 0, staging its seal as batch job 0. Killing that job
        // (attempt + retry) must not lose the evicted plaintext — the
        // drain fallback recomputes the seal inline.
        let (mut es, mut shell, mut dram, mut ledger, _) = setup(512, 512, false, false);
        provision(&es, &mut dram, &vec![0u8; 8192]);
        let pool = WorkerPool::new(4);
        let payload = vec![0xABu8; 512];
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0x1000,
            &payload,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        pool.arm_lane_panic_sticky(0);
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000 + 512,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, vec![0u8; 512]);
        let stats = es.stats();
        assert_eq!(stats.drained_seals, 1);
        assert_eq!(stats.lane_panics, 2);
        pool.disarm_lane_panic();
        // The sealed chunk 0 round-trips from DRAM with the new bytes.
        let back = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0x1000,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn blocking_batches_charge_the_same_stall_as_serial() {
        // Lane count must not hide a stalled accelerator: Blocking-mode
        // latency is the timing model's per-chunk latency summed over
        // every open, at one lane and at eight.
        let data = vec![9u8; 8192];
        for lanes in [1usize, 8] {
            let mut rig = Rig::new(lanes, setup(512, 4096, false, false), &data);
            assert_eq!(rig.read(0x1000, 8192, AccessMode::Blocking), data);
            let opens = rig.es.stats().misses;
            assert_eq!(opens, 16);
            assert_eq!(
                rig.ledger.serial(),
                crypto_cycles(&rig.es, opens).latency,
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn parallel_merkle_round_trip_matches_serial() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 193) as u8).collect();
        let mut one = Rig::new(1, setup_merkle(512, 1024, 0), &[]);
        let mut three = Rig::new(3, setup_merkle(512, 1024, 0), &[]);
        for rig in [&mut one, &mut three] {
            rig.write(0x1000, &payload);
            rig.flush();
            assert_eq!(rig.read(0x1000, 4096, AccessMode::Streaming), payload);
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(three.es.stats()));
        assert_eq!(one.image(), three.image());
        assert_eq!(
            one.dram.tamper_read(0x20_0000, 4096),
            three.dram.tamper_read(0x20_0000, 4096),
            "merkle arena"
        );
    }

    #[test]
    fn partial_tail_chunk() {
        let pool = WorkerPool::new(1);
        // Region of 8192 with 4096-byte chunks has exactly 2 chunks; make
        // a region with a 1000-byte tail instead.
        let region = RegionConfig {
            name: "tail".into(),
            range: MemRange::new(0, 4096 + 1000),
            engine_set: EngineSetConfig {
                chunk_size: 4096,
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
        };
        let dek = DataEncryptionKey::from_bytes([4u8; 32]);
        let mut es = EngineSet::new(region, 0, 0x20_0000, 0x30_0000, &dek);
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 22);
        let mut ledger = CostLedger::new();
        let data: Vec<u8> = (0..5096u32).map(|i| (i % 97) as u8).collect();
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0,
            &data,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let got = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                5096,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(got, data);
    }
}
