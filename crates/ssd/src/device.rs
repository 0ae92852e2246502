//! The NVMe device: command processing over queue pairs.
//!
//! Two command addressing modes exist (§4.3):
//!
//! * **LBA commands** — the pre-BypassD world: allowed only on queues with
//!   no PASID (kernel driver queues, or an SPDK process that has claimed
//!   the whole device). User queues may *not* issue LBA commands; that is
//!   precisely the protection SPDK lacks.
//! * **VBA commands** — BypassD: allowed only on PASID-bound user queues.
//!   The device sends the VBA, size, access kind and the queue's PASID to
//!   the IOMMU via ATS. For **reads**, translation is serialised before
//!   media access (the device needs block addresses first). For
//!   **writes**, translation overlaps the host→device data transfer, so
//!   writes see no translation latency (§4.3).
//!
//! Translation faults complete the command with an error status instead of
//! touching media — the hook that makes kernel revocation effective (§3.6).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_faults::plane::{FaultPlane, WriteKind, WriteVerdict};
use bypassd_hw::iommu::{AccessKind, Iommu, PageTranslation};
use bypassd_hw::types::{DevId, Lba, Pasid, Vba, SECTOR_SIZE};
use bypassd_offload::{
    run_hop, ChainSpec, ChainState, Outcome, ProgHandle, Program, BLOCK, MAX_HOPS, STEP_NS,
    TRAP_HOPS,
};
use bypassd_qos::{QosArbiter, QosConfig, Tenant, TenantShare, TenantStats};
use bypassd_sim::time::Nanos;
use bypassd_trace::{DeviceRecord, Metric, MetricSource, Recorder, TraceOp, WalkLevel};

use crate::atc::{AtcStats, AtsCache, DEFAULT_ATC_CAPACITY};
use crate::dma::DmaBuffer;
use crate::queue::{Completion, NvmeStatus, QueueId, QueuePair};
use crate::store::SectorStore;
use crate::timing::{DeviceTimer, MediaTiming};

/// NVMe opcode subset used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Read sectors into the DMA buffer.
    Read,
    /// Write sectors from the DMA buffer.
    Write,
    /// Flush the device write path.
    Flush,
    /// Write zeroes without a data buffer (used for block zeroing on
    /// allocation, §4.1).
    WriteZeroes,
}

/// How a command addresses the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAddr {
    /// Raw logical block address (kernel / SPDK paths).
    Lba(Lba),
    /// Virtual block address, translated by the IOMMU (BypassD path).
    Vba(Vba),
}

/// One I/O command.
#[derive(Debug)]
pub struct Command<'a> {
    /// Operation.
    pub opcode: Opcode,
    /// Target address (ignored for `Flush`).
    pub addr: BlockAddr,
    /// Sector count (ignored for `Flush`).
    pub sectors: u32,
    /// Data buffer (required for `Read`/`Write`).
    pub dma: Option<&'a DmaBuffer>,
    /// Byte offset into the DMA buffer.
    pub dma_offset: usize,
    /// Offload chain: run this verified program on every completed block
    /// and follow its `Resubmit` offsets device-side. Only valid on
    /// single-sector VBA reads from a user queue; every hop is still
    /// IOMMU-translated under the queue's PASID.
    pub chain: Option<ChainSpec>,
}

impl<'a> Command<'a> {
    /// A read of `sectors` sectors into `dma` at offset 0.
    pub fn read(addr: BlockAddr, sectors: u32, dma: &'a DmaBuffer) -> Self {
        Command {
            opcode: Opcode::Read,
            addr,
            sectors,
            dma: Some(dma),
            dma_offset: 0,
            chain: None,
        }
    }

    /// A single-sector chain read: the device reads one block at `vba`,
    /// runs `spec`'s program over it, and either follows its `Resubmit`
    /// offsets (relative to `spec.base_vba`) on the same channel or
    /// completes with the final block DMA'd into `dma`. One submission,
    /// one completion, however many hops the chain takes.
    pub fn chain_read(vba: Vba, dma: &'a DmaBuffer, spec: ChainSpec) -> Self {
        Command {
            opcode: Opcode::Read,
            addr: BlockAddr::Vba(vba),
            sectors: 1,
            dma: Some(dma),
            dma_offset: 0,
            chain: Some(spec),
        }
    }

    /// A write of `sectors` sectors from `dma` at offset 0.
    pub fn write(addr: BlockAddr, sectors: u32, dma: &'a DmaBuffer) -> Self {
        Command {
            opcode: Opcode::Write,
            addr,
            sectors,
            dma: Some(dma),
            dma_offset: 0,
            chain: None,
        }
    }

    /// A flush.
    pub fn flush() -> Self {
        Command {
            opcode: Opcode::Flush,
            addr: BlockAddr::Lba(Lba(0)),
            sectors: 0,
            dma: None,
            dma_offset: 0,
            chain: None,
        }
    }

    /// A write-zeroes over `sectors` sectors.
    pub fn write_zeroes(addr: BlockAddr, sectors: u32) -> Self {
        Command {
            opcode: Opcode::WriteZeroes,
            addr,
            sectors,
            dma: None,
            dma_offset: 0,
            chain: None,
        }
    }
}

/// Submission failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue has `depth` commands outstanding.
    QueueFull,
    /// No such queue.
    UnknownQueue,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue full"),
            SubmitError::UnknownQueue => f.write_str("unknown queue"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate device counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Bytes read from media.
    pub read_bytes: u64,
    /// Bytes written to media.
    pub written_bytes: u64,
    /// Flush commands.
    pub flushes: u64,
    /// VBA translation faults surfaced as failed completions.
    pub translation_faults: u64,
    /// Device-side ATC hits (0 unless the ATC ablation is on).
    pub atc_hits: u64,
    /// Device-side ATC misses.
    pub atc_misses: u64,
    /// ATS shootdowns that reached the device cache.
    pub atc_shootdowns: u64,
    /// Commands delayed by a tenant's token-bucket rate limit (QoS).
    pub qos_throttled: u64,
    /// Commands delayed by fair-share pacing (QoS).
    pub qos_deferred: u64,
    /// Offload chains completed (any status).
    pub chains: u64,
    /// Media reads performed inside chains (first hop included).
    pub chain_hops: u64,
    /// Chains aborted by a program `Fail` or an engine trap.
    pub chain_faults: u64,
}

/// Reusable buffers for the steady-state command path. They live under
/// the device state lock, so one set serves every queue; capacity grows
/// to the largest request seen and is then reused allocation-free.
#[derive(Default)]
struct DevScratch {
    /// Coalesced LBA extents of the command being processed.
    extents: Vec<(Lba, u32)>,
    /// Staging chunk for media ↔ DMA data movement.
    chunk: Vec<u8>,
    /// Per-page results of an IOMMU walk, kept to fill the device ATC.
    pages: Vec<PageTranslation>,
}

struct DevState {
    store: SectorStore,
    timer: DeviceTimer,
    queues: std::collections::HashMap<QueueId, QueuePair>,
    io_bufs: DevScratch,
    stats: DeviceStats,
    /// QoS enforcement + per-tenant accounting. Accounting is always on
    /// (it never moves virtual time); pacing only when the config
    /// enables it, so the default data path stays bit-identical.
    qos: QosArbiter,
    /// Flight recorder, when the system wired one in. Recording is
    /// passive: it never touches `timer`, so traced runs keep identical
    /// virtual times.
    recorder: Option<Arc<Recorder>>,
    /// Verified offload programs, installed by the kernel at
    /// `prog_attach` time. `Arc` so a chain can execute the program
    /// while the table (and the rest of the device state) stays mutable.
    programs: std::collections::HashMap<ProgHandle, Arc<Program>>,
    next_prog: u32,
    /// Fault-injection interposer. Idle by default (one relaxed atomic
    /// load per media write); crash campaigns install a shared plane via
    /// [`NvmeDevice::set_fault_plane`].
    faults: Arc<FaultPlane>,
}

/// What one media write stores: bytes, or zeroes.
#[derive(Clone, Copy)]
enum Media<'a> {
    /// Exactly `sectors` sectors of data.
    Data(&'a [u8]),
    Zeroes,
}

/// The one path from a command to the media: every write (timed `Write`
/// and `WriteZeroes`, `write_raw`, `zero_raw`) gets its fault-plane
/// verdict here, then persists whole, not at all, or torn. An idle plane
/// costs one relaxed load. A function over the two fields, not a
/// `DevState` method, so the timed path can pass its staging chunk.
fn write_media(
    store: &mut SectorStore,
    faults: &FaultPlane,
    lba: Lba,
    sectors: u64,
    now: Option<Nanos>,
    kind: WriteKind,
    media: Media<'_>,
) {
    // Stores sectors `[first, first + n)` of this write.
    let mut put = |first: u64, n: u64| {
        let at = lba.advance(first);
        match media {
            Media::Data(d) => {
                let b = (first * SECTOR_SIZE) as usize;
                store.write(at, &d[b..b + (n * SECTOR_SIZE) as usize]);
            }
            Media::Zeroes => store.write_zeroes(at, n),
        }
    };
    if faults.is_active() {
        match faults.on_write(lba, sectors as u32, now, kind) {
            WriteVerdict::Persist => {}
            WriteVerdict::Drop => return,
            WriteVerdict::Partial(mask) => {
                for (s, _) in mask.iter().enumerate().filter(|(_, &keep)| keep) {
                    put(s as u64, 1);
                }
                return;
            }
        }
    }
    put(0, sectors);
}

/// Per-command stage latencies, filled in by `process_inner` as the
/// command crosses each pipeline step and flushed to the recorder by
/// `process` — including on early-return error paths, which leave the
/// later stages at zero.
#[derive(Default, Clone, Copy)]
struct StageScratch {
    qos_delay: Nanos,
    throttled: bool,
    deferred: bool,
    walk: Option<WalkLevel>,
    translate: Nanos,
    channel_wait: Nanos,
    service: Nanos,
}

/// A simulated NVMe SSD.
///
/// Clone-free: wrap in `Arc` and share between the kernel driver, UserLib
/// instances and SPDK.
pub struct NvmeDevice {
    id: DevId,
    iommu: Arc<Mutex<Iommu>>,
    /// Device-side ATS translation cache (ablation, off by default).
    /// Separate from `state` so IOMMU shootdowns never touch the device
    /// lock (lock order: IOMMU → ATC; the device probes the ATC before
    /// taking the IOMMU lock).
    atc: Arc<AtsCache>,
    state: Mutex<DevState>,
    next_qid: AtomicU32,
}

impl NvmeDevice {
    /// Creates a device of `capacity_sectors` sectors with the given
    /// media timing, attached to `iommu` for ATS.
    pub fn new(
        id: DevId,
        capacity_sectors: u64,
        timing: MediaTiming,
        iommu: Arc<Mutex<Iommu>>,
    ) -> Arc<Self> {
        let atc = Arc::new(AtsCache::new(DEFAULT_ATC_CAPACITY));
        // Register for ATS shootdowns so kernel invalidations (detach,
        // revocation, unregister) also drop device-cached translations.
        iommu.lock().register_ats_sink(atc.clone());
        Arc::new(NvmeDevice {
            id,
            iommu,
            atc,
            state: Mutex::new(DevState {
                store: SectorStore::new(capacity_sectors),
                timer: DeviceTimer::new(timing),
                queues: std::collections::HashMap::new(),
                io_bufs: DevScratch::default(),
                stats: DeviceStats::default(),
                qos: QosArbiter::new(QosConfig::default(), timing.channels),
                recorder: None,
                programs: std::collections::HashMap::new(),
                next_prog: 1,
                faults: Arc::new(FaultPlane::new()),
            }),
            next_qid: AtomicU32::new(1),
        })
    }

    /// This device's ID (compared against FTE DevIDs by the IOMMU).
    pub fn dev_id(&self) -> DevId {
        self.id
    }

    /// The IOMMU this device sends ATS requests to.
    pub fn iommu(&self) -> &Arc<Mutex<Iommu>> {
        &self.iommu
    }

    /// The device-side ATS translation cache.
    pub fn atc(&self) -> &Arc<AtsCache> {
        &self.atc
    }

    /// Enables/disables the device-side ATC (ablation knob; the default —
    /// matching the paper's model — is off).
    pub fn set_atc_enabled(&self, enabled: bool) {
        self.atc.set_enabled(enabled);
    }

    /// ATC hit/miss/shootdown counters.
    pub fn atc_stats(&self) -> AtcStats {
        self.atc.stats()
    }

    /// The device's fault-injection plane (idle unless activated).
    pub fn fault_plane(&self) -> Arc<FaultPlane> {
        self.state.lock().faults.clone()
    }

    /// Replaces the fault plane, e.g. with one shared by a campaign
    /// harness. Install before traffic starts — sequence numbers only
    /// cover writes observed from this point on.
    pub fn set_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.state.lock().faults = plane;
    }

    /// Installs a QoS configuration (scheduling weights, rate limits,
    /// backpressure). Call before traffic starts — existing per-tenant
    /// accounting is discarded. The default config is disabled: the
    /// device's timing is then bit-identical to a build without QoS.
    pub fn set_qos(&self, config: QosConfig) {
        let mut state = self.state.lock();
        let channels = state.timer.timing().channels;
        state.qos = QosArbiter::new(config, channels);
    }

    /// Attaches the flight recorder; every subsequent command emits a
    /// [`DeviceRecord`] with its exact stage decomposition (when the
    /// recorder is enabled).
    pub fn set_recorder(&self, recorder: Arc<Recorder>) {
        self.state.lock().recorder = Some(recorder);
    }

    /// Whether QoS pacing/throttling is in force.
    pub fn qos_enabled(&self) -> bool {
        self.state.lock().qos.enabled()
    }

    /// The share applied to tenants without an explicit registration.
    pub fn qos_default_share(&self) -> TenantShare {
        self.state.lock().qos.default_share()
    }

    /// Registers `tenant`'s share with the arbiter. The kernel calls
    /// this at queue-pair bind time (policy stays kernel-side; the
    /// device only enforces).
    pub fn register_tenant(&self, tenant: Tenant, share: TenantShare) {
        self.state.lock().qos.register(tenant, share);
    }

    /// One tenant's counters and latency histogram, if it has been seen.
    pub fn tenant_stats(&self, tenant: Tenant) -> Option<TenantStats> {
        self.state.lock().qos.tenant_stats(tenant)
    }

    /// Every tenant's counters and latency histogram, tenant-ordered.
    pub fn qos_snapshot(&self) -> Vec<(Tenant, TenantStats)> {
        self.state.lock().qos.snapshot()
    }

    /// Media timing parameters.
    pub fn timing(&self) -> MediaTiming {
        self.state.lock().timer.timing()
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.state.lock().store.capacity_sectors()
    }

    /// Installs a verified offload program into the device's program
    /// table and returns its handle. Only the kernel calls this (the
    /// verify-at-load gate lives in the kernel's `prog_load` syscall);
    /// the device trusts `Program`'s invariant that it only exists
    /// verified.
    pub fn install_program(&self, prog: Arc<Program>) -> ProgHandle {
        let mut state = self.state.lock();
        let handle = ProgHandle(state.next_prog);
        state.next_prog += 1;
        state.programs.insert(handle, prog);
        handle
    }

    /// Removes an installed program (chains already past admission keep
    /// their `Arc`). Returns whether the handle existed.
    pub fn remove_program(&self, handle: ProgHandle) -> bool {
        self.state.lock().programs.remove(&handle).is_some()
    }

    /// Creates a queue pair. `pasid = Some(..)` makes a user queue bound
    /// to that process (§3.3); `None` makes a kernel/owner queue that may
    /// issue LBA commands.
    pub fn create_queue(&self, pasid: Option<Pasid>, depth: usize) -> QueueId {
        let qid = QueueId(self.next_qid.fetch_add(1, Ordering::SeqCst));
        self.state
            .lock()
            .queues
            .insert(qid, QueuePair::new(pasid, depth.max(1)));
        qid
    }

    /// Deletes a queue pair; outstanding completions are dropped.
    pub fn delete_queue(&self, qid: QueueId) {
        self.state.lock().queues.remove(&qid);
    }

    /// Submits a command at virtual time `now`; returns its command id.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] when `depth` commands are outstanding,
    /// [`SubmitError::UnknownQueue`] for a deleted queue.
    pub fn submit(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> Result<u16, SubmitError> {
        let mut state = self.state.lock();
        self.submit_locked(&mut state, qid, cmd, now)
    }

    /// Submits a batch of commands under a single doorbell ring (one
    /// state-lock acquisition), appending each accepted command id to
    /// `cids`.
    ///
    /// # Errors
    /// Stops at the first failing command and returns its error;
    /// commands accepted before it stay submitted (their cids are in
    /// `cids`). On success returns the number of commands accepted.
    pub fn submit_batch<'a>(
        &self,
        qid: QueueId,
        cmds: impl IntoIterator<Item = Command<'a>>,
        now: Nanos,
        cids: &mut Vec<u16>,
    ) -> Result<usize, SubmitError> {
        let mut state = self.state.lock();
        let mut accepted = 0;
        for cmd in cmds {
            let cid = self.submit_locked(&mut state, qid, cmd, now)?;
            cids.push(cid);
            accepted += 1;
        }
        Ok(accepted)
    }

    /// One command's submission under an already-held state lock.
    fn submit_locked(
        &self,
        state: &mut DevState,
        qid: QueueId,
        cmd: Command<'_>,
        now: Nanos,
    ) -> Result<u16, SubmitError> {
        let q = state
            .queues
            .get_mut(&qid)
            .ok_or(SubmitError::UnknownQueue)?;
        let (pasid, inflight, depth) = (q.pasid, q.inflight, q.depth);
        let tenant = pasid.map_or(Tenant::Kernel, Tenant::User);
        let cid = match q.claim() {
            Some(cid) => cid,
            None => {
                state.qos.record_rejected(tenant);
                return Err(SubmitError::QueueFull);
            }
        };
        let mut completion = self.process(state, qid, tenant, pasid, cmd, now);
        // Injected completion loss: the command executed but its CQ entry
        // never lands. The cid's slot stays claimed — exactly the host-
        // visible symptom of a lost interrupt + lost CQ write — until the
        // host aborts it.
        if state.faults.is_active() && state.faults.take_completion_drop() {
            state
                .queues
                .get_mut(&qid)
                .expect("queue cannot vanish while the state lock is held")
                .lose(cid);
            return Ok(cid);
        }
        // Depth pressure: with QoS on, flag completions once the queue
        // pair runs at ≥ 3/4 of its depth so UserLib backs off before
        // hitting hard QueueFull rejections.
        if state.qos.enabled() && (inflight + 1) * 4 >= depth * 3 {
            completion.pressure = true;
        }
        state
            .queues
            .get_mut(&qid)
            .expect("queue cannot vanish while the state lock is held")
            .post(Completion { cid, ..completion });
        Ok(cid)
    }

    /// Convenience for synchronous callers: submit, reap, and return the
    /// full completion. The caller should `wait_until` its `ready_at`
    /// before acting on the data.
    ///
    /// The command is claimed, processed and retired in one critical
    /// section: the completion never sits in the pending map or CQ heap,
    /// so the synchronous path costs one lock round trip instead of the
    /// three a submit / ready_time / reap_at sequence pays.
    pub fn execute_full(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> Completion {
        let mut state = self.state.lock();
        let q = state
            .queues
            .get_mut(&qid)
            .unwrap_or_else(|| panic!("execute() on unknown queue"));
        assert!(q.inflight < q.depth, "execute() on a full queue");
        let (pasid, inflight, depth) = (q.pasid, q.inflight, q.depth);
        let cid = q.take_cid();
        let tenant = pasid.map_or(Tenant::Kernel, Tenant::User);
        let mut completion = self.process(&mut state, qid, tenant, pasid, cmd, now);
        if state.qos.enabled() && (inflight + 1) * 4 >= depth * 3 {
            completion.pressure = true;
        }
        Completion { cid, ..completion }
    }

    /// [`NvmeDevice::execute_full`], reduced to status + completion time.
    pub fn execute(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> (NvmeStatus, Nanos) {
        let comp = self.execute_full(qid, cmd, now);
        (comp.status, comp.ready_at)
    }

    /// Processes one claimed command: per-tenant accounting around the
    /// actual execution, plus the flight-recorder stamp.
    fn process(
        &self,
        state: &mut DevState,
        qid: QueueId,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: Command<'_>,
        now: Nanos,
    ) -> Completion {
        if cmd.chain.is_some() {
            return self.process_chain(state, qid, tenant, pasid, cmd, now);
        }
        state.qos.record_submit(tenant);
        let (opcode, sectors) = (cmd.opcode, cmd.sectors);
        let mut scratch = StageScratch::default();
        let completion = self.process_inner(state, tenant, pasid, cmd, now, &mut scratch);
        let ok = completion.status.is_ok();
        let bytes = if ok { sectors as u64 * SECTOR_SIZE } else { 0 };
        let (read_bytes, written_bytes) = match opcode {
            Opcode::Read => (bytes, 0),
            Opcode::Write | Opcode::WriteZeroes => (0, bytes),
            Opcode::Flush => (0, 0),
        };
        state.qos.record_completion(
            tenant,
            completion.ready_at - now,
            ok,
            read_bytes,
            written_bytes,
        );
        if let Some(rec) = &state.recorder {
            rec.record_device(|| DeviceRecord {
                queue: qid.0,
                tenant: match tenant {
                    Tenant::Kernel => 0,
                    Tenant::User(p) => u64::from(p.0) + 1,
                },
                op: match opcode {
                    Opcode::Read => TraceOp::Read,
                    Opcode::Write | Opcode::WriteZeroes => TraceOp::Write,
                    Opcode::Flush => TraceOp::Flush,
                },
                bytes: sectors as u64 * SECTOR_SIZE,
                submit: now,
                qos_delay: scratch.qos_delay,
                throttled: scratch.throttled,
                deferred: scratch.deferred,
                walk: scratch.walk,
                translate: scratch.translate,
                channel_wait: scratch.channel_wait,
                service: scratch.service,
                complete: completion.ready_at,
                ok,
            });
        }
        completion
    }

    fn process_inner(
        &self,
        state: &mut DevState,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: Command<'_>,
        now: Nanos,
        scratch: &mut StageScratch,
    ) -> Completion {
        if cmd.opcode == Opcode::Flush {
            state.stats.flushes += 1;
            if state.faults.is_active() {
                // A completed FLUSH empties the volatile write cache:
                // reorder windows close at this barrier.
                state.faults.note_flush(now);
            }
            // With QoS pacing in force, media occupancy lives on the
            // per-tenant lane ledgers, not the shared channel ledger;
            // drain to whichever horizon is later.
            let drain_from = if state.qos.enabled() {
                now.max(state.qos.horizon())
            } else {
                now
            };
            let ready = state.timer.schedule_flush(drain_from);
            scratch.service = ready.saturating_sub(now);
            return Completion {
                cid: 0,
                status: NvmeStatus::Success,
                ready_at: ready,
                pressure: false,
            };
        }
        if cmd.sectors == 0 {
            return Completion {
                cid: 0,
                status: NvmeStatus::InvalidField,
                ready_at: now,
                pressure: false,
            };
        }
        let is_write = matches!(cmd.opcode, Opcode::Write | Opcode::WriteZeroes);

        // Transient media-error injection: the command is charged its
        // media service time but completes with MediaError and moves no
        // data — a correctable-failure model for the retry paths.
        if state.faults.is_active() && state.faults.take_io_error(is_write) {
            let bytes = cmd.sectors as u64 * SECTOR_SIZE;
            let cost = if cmd.opcode == Opcode::WriteZeroes {
                state.timer.timing().write_zeroes_cost
            } else {
                state.timer.timing().service(is_write, bytes)
            };
            scratch.service = cost;
            return Completion {
                cid: 0,
                status: NvmeStatus::MediaError,
                ready_at: now + cost,
                pressure: false,
            };
        }

        // QoS admission (§3.1 sharing): rate limits and fair-share
        // pacing delay the command's *effective arrival*; everything
        // downstream (translation, media scheduling) sees the delayed
        // time. Skipped entirely when disabled, keeping the default
        // timing bit-identical.
        let total_bytes = cmd.sectors as u64 * SECTOR_SIZE;
        let qos_paced = state.qos.enabled();
        let (now, pressure) = if qos_paced {
            let timing = state.timer.timing();
            let service_est = if cmd.opcode == Opcode::WriteZeroes {
                timing.write_zeroes_cost
            } else {
                timing.service(is_write, total_bytes)
            };
            let adm = state.qos.admit(tenant, now, service_est, total_bytes);
            scratch.qos_delay = adm.arrival.saturating_sub(now);
            scratch.throttled = adm.throttled;
            scratch.deferred = adm.deferred;
            (adm.arrival, adm.throttled || adm.deferred)
        } else {
            (now, false)
        };

        // Resolve the address to LBA extents (into the reusable scratch
        // buffer — the steady-state path performs no allocation).
        state.io_bufs.extents.clear();
        let trans_cost: Nanos = match cmd.addr {
            BlockAddr::Lba(lba) => {
                if pasid.is_some() {
                    // Security: user queues may not address raw LBAs.
                    return Completion {
                        cid: 0,
                        status: NvmeStatus::InvalidField,
                        ready_at: now,
                        pressure,
                    };
                }
                state.io_bufs.extents.push((lba, cmd.sectors));
                Nanos::ZERO
            }
            BlockAddr::Vba(vba) => {
                let pasid = match pasid {
                    Some(p) => p,
                    None => {
                        return Completion {
                            cid: 0,
                            status: NvmeStatus::InvalidField,
                            ready_at: now,
                            pressure,
                        }
                    }
                };
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let len = cmd.sectors as u64 * SECTOR_SIZE;
                // Device-side ATC first (no PCIe round trip on a hit);
                // off by default, in which case this is always None.
                let bufs = &mut state.io_bufs;
                if let Some(cost) =
                    self.atc
                        .translate_into(pasid, vba, len, kind, &mut bufs.extents)
                {
                    let cost = if is_write { Nanos::ZERO } else { cost };
                    scratch.walk = Some(WalkLevel::AtcHit);
                    scratch.translate = cost;
                    cost
                } else {
                    let collect = self.atc.enabled();
                    bufs.pages.clear();
                    let walked = self.iommu.lock().translate_extents_into(
                        pasid,
                        vba,
                        len,
                        kind,
                        self.id,
                        collect.then_some(&mut bufs.pages),
                        &mut bufs.extents,
                    );
                    match walked {
                        Ok(t) => {
                            if collect {
                                self.atc.fill(pasid, &bufs.pages);
                            }
                            // Reads serialise translation; writes overlap it
                            // with the data transfer (§4.3).
                            let cost = if is_write { Nanos::ZERO } else { t.cost };
                            scratch.walk = Some(if t.walks == 0 {
                                WalkLevel::IotlbHit
                            } else if t.pwc_hit {
                                WalkLevel::PwcHit
                            } else {
                                WalkLevel::FullWalk
                            });
                            scratch.translate = cost;
                            cost
                        }
                        Err((fault, cost)) => {
                            state.stats.translation_faults += 1;
                            scratch.walk = Some(WalkLevel::Fault);
                            scratch.translate = cost;
                            return Completion {
                                cid: 0,
                                status: NvmeStatus::TranslationFault(fault),
                                ready_at: now + cost,
                                pressure,
                            };
                        }
                    }
                }
            }
        };

        // Range check.
        for &(lba, sectors) in &state.io_bufs.extents {
            if !state.store.in_range(lba, sectors as u64) {
                return Completion {
                    cid: 0,
                    status: NvmeStatus::LbaOutOfRange,
                    ready_at: now,
                    pressure,
                };
            }
        }

        // Functional data movement, staged through the reusable chunk.
        match cmd.opcode {
            Opcode::Read => {
                let dma = cmd.dma.expect("read without DMA buffer");
                let mut off = cmd.dma_offset;
                for i in 0..state.io_bufs.extents.len() {
                    let (lba, sectors) = state.io_bufs.extents[i];
                    let n = (sectors as u64 * SECTOR_SIZE) as usize;
                    if state.io_bufs.chunk.len() < n {
                        state.io_bufs.chunk.resize(n, 0);
                    }
                    state.store.read(lba, &mut state.io_bufs.chunk[..n]);
                    dma.write(off, &state.io_bufs.chunk[..n]);
                    off += n;
                }
                state.stats.reads += 1;
                state.stats.read_bytes += total_bytes;
            }
            Opcode::Write => {
                let dma = cmd.dma.expect("write without DMA buffer");
                let mut off = cmd.dma_offset;
                for i in 0..state.io_bufs.extents.len() {
                    let (lba, sectors) = state.io_bufs.extents[i];
                    let n = (sectors as u64 * SECTOR_SIZE) as usize;
                    if state.io_bufs.chunk.len() < n {
                        state.io_bufs.chunk.resize(n, 0);
                    }
                    dma.read(off, &mut state.io_bufs.chunk[..n]);
                    write_media(
                        &mut state.store,
                        &state.faults,
                        lba,
                        u64::from(sectors),
                        Some(now),
                        WriteKind::Timed,
                        Media::Data(&state.io_bufs.chunk[..n]),
                    );
                    off += n;
                }
                state.stats.writes += 1;
                state.stats.written_bytes += total_bytes;
            }
            Opcode::WriteZeroes => {
                for i in 0..state.io_bufs.extents.len() {
                    let (lba, sectors) = state.io_bufs.extents[i];
                    write_media(
                        &mut state.store,
                        &state.faults,
                        lba,
                        u64::from(sectors),
                        Some(now),
                        WriteKind::Timed,
                        Media::Zeroes,
                    );
                }
                state.stats.writes += 1;
                state.stats.written_bytes += total_bytes;
            }
            Opcode::Flush => unreachable!(),
        }

        // When QoS pacing admitted the command, its channel occupancy is
        // already booked on the tenant's private lanes, and the direction
        // bus is weighted time-division multiplexed (the tenant's bus
        // share is part of its lane pacing), so only the tenant's own
        // transfers serialize. Otherwise the command goes through the
        // shared channel ledger as before.
        let ready = if matches!(cmd.opcode, Opcode::WriteZeroes) {
            let cost = state.timer.timing().write_zeroes_cost;
            scratch.service = cost;
            if qos_paced {
                now + trans_cost + cost
            } else {
                state.timer.schedule_fixed(now + trans_cost, cost)
            }
        } else if qos_paced {
            let tenant_key = match tenant {
                Tenant::Kernel => 0,
                Tenant::User(p) => u64::from(p.0) + 1,
            };
            scratch.service = state.timer.timing().service(is_write, total_bytes);
            state
                .timer
                .schedule_paced(now + trans_cost, is_write, total_bytes, tenant_key)
        } else {
            scratch.service = state.timer.timing().service(is_write, total_bytes);
            state
                .timer
                .schedule(now + trans_cost, is_write, total_bytes)
        };
        // Whatever the scheduler charged beyond raw service is queueing
        // for channels/bus slots; exact under the eager-completion model.
        scratch.channel_wait = ready
            .saturating_sub(now + trans_cost)
            .saturating_sub(scratch.service);
        Completion {
            cid: 0,
            status: NvmeStatus::Success,
            ready_at: ready,
            pressure,
        }
    }

    /// Executes one offload chain: repeated single-sector reads driven by
    /// the command's verified program, all inside this one completion.
    ///
    /// Per hop: the current VBA is translated under the queue's PASID
    /// (chains never relax the protection model — a `Resubmit` into an
    /// unmapped or revoked page faults the whole chain exactly like a
    /// host-submitted read), the block is read on the chain's pinned
    /// channel, and the program runs over it at [`STEP_NS`] per step of
    /// pure virtual time. The host sees one doorbell and one completion;
    /// only the final block is DMA'd. Each hop emits its own
    /// [`DeviceRecord`] so traces can count device-side work. Chain hops
    /// go straight to the IOMMU (the device-side ATC ablation does not
    /// shortcut them).
    #[allow(clippy::too_many_lines)]
    fn process_chain(
        &self,
        state: &mut DevState,
        qid: QueueId,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: Command<'_>,
        now: Nanos,
    ) -> Completion {
        state.qos.record_submit(tenant);
        let spec = cmd.chain.expect("process_chain without a chain");
        let tenant_id = match tenant {
            Tenant::Kernel => 0,
            Tenant::User(p) => u64::from(p.0) + 1,
        };

        // Structural validation: chains are single-sector VBA reads from
        // a user queue, naming an installed program.
        let valid_shape = cmd.opcode == Opcode::Read && cmd.sectors == 1 && cmd.dma.is_some();
        let first_vba = match cmd.addr {
            BlockAddr::Vba(v) if valid_shape => Some(v),
            _ => None,
        };
        let prog = state.programs.get(&spec.prog).cloned();
        let (Some(mut vba), Some(prog), Some(pasid)) = (first_vba, prog, pasid) else {
            state
                .qos
                .record_completion(tenant, Nanos::ZERO, false, 0, 0);
            return Completion {
                cid: 0,
                status: NvmeStatus::InvalidField,
                ready_at: now,
                pressure: false,
            };
        };

        // QoS admission happens once, for the chain's first hop; later
        // hops are device-generated work, paced on the tenant's own bus
        // ledger and surfaced through the offload-hop counters.
        let qos_paced = state.qos.enabled();
        let (mut t, pressure) = if qos_paced {
            let est = state.timer.timing().service(false, BLOCK as u64);
            let adm = state.qos.admit(tenant, now, est, BLOCK as u64);
            (adm.arrival, adm.throttled || adm.deferred)
        } else {
            (now, false)
        };
        let channel = state.timer.pick_channel();

        let mut st = ChainState::new(spec.regs);
        // Completed media reads; the MAX_HOPS budget bounds them.
        let mut hops: u32 = 0;
        let status = loop {
            if hops == MAX_HOPS {
                break NvmeStatus::ChainFault(TRAP_HOPS);
            }
            let hop_start = t;

            // Translate this hop's VBA (program offsets must stay
            // sector-aligned; a misaligned `Resubmit` is an OOB trap).
            if !vba.0.is_multiple_of(SECTOR_SIZE) {
                break NvmeStatus::ChainFault(bypassd_offload::TRAP_OOB);
            }
            state.io_bufs.extents.clear();
            let walked = self.iommu.lock().translate_extents_into(
                pasid,
                vba,
                BLOCK as u64,
                AccessKind::Read,
                self.id,
                None,
                &mut state.io_bufs.extents,
            );
            let (trans_cost, walk) = match walked {
                Ok(tr) => (
                    tr.cost,
                    if tr.walks == 0 {
                        WalkLevel::IotlbHit
                    } else if tr.pwc_hit {
                        WalkLevel::PwcHit
                    } else {
                        WalkLevel::FullWalk
                    },
                ),
                Err((fault, cost)) => {
                    state.stats.translation_faults += 1;
                    t += cost;
                    self.record_hop(
                        state,
                        qid,
                        tenant_id,
                        hop_start,
                        Some(WalkLevel::Fault),
                        cost,
                        Nanos::ZERO,
                        t,
                        false,
                    );
                    break NvmeStatus::TranslationFault(fault);
                }
            };
            let in_range = state
                .io_bufs
                .extents
                .iter()
                .all(|&(lba, sectors)| state.store.in_range(lba, u64::from(sectors)));
            if !in_range {
                t += trans_cost;
                self.record_hop(
                    state,
                    qid,
                    tenant_id,
                    hop_start,
                    Some(walk),
                    trans_cost,
                    Nanos::ZERO,
                    t,
                    false,
                );
                break NvmeStatus::LbaOutOfRange;
            }

            // Media read of the block into the device-internal chunk
            // (not DMA'd — only the final block crosses to the host).
            if state.io_bufs.chunk.len() < BLOCK {
                state.io_bufs.chunk.resize(BLOCK, 0);
            }
            let mut off = 0usize;
            for i in 0..state.io_bufs.extents.len() {
                let (lba, sectors) = state.io_bufs.extents[i];
                let n = (u64::from(sectors) * SECTOR_SIZE) as usize;
                state
                    .store
                    .read(lba, &mut state.io_bufs.chunk[off..off + n]);
                off += n;
            }
            state.stats.reads += 1;
            state.stats.read_bytes += BLOCK as u64;
            hops += 1;

            let media_done = if qos_paced {
                // Paced lanes priced the chain at admission; hops are
                // device-internal media reads with no bus crossing.
                t + trans_cost + state.timer.timing().read_base
            } else {
                state.timer.schedule_hop(channel, t + trans_cost)
            };

            // Run the program on the device's lightweight core, charged
            // purely in virtual time.
            let run = run_hop(&prog, &mut st, &state.io_bufs.chunk[..BLOCK]);
            t = media_done + Nanos(run.steps * STEP_NS);
            let service = t.saturating_sub(hop_start + trans_cost);
            self.record_hop(
                state,
                qid,
                tenant_id,
                hop_start,
                Some(walk),
                trans_cost,
                service,
                t,
                true,
            );

            match run.outcome {
                Outcome::Resubmit { offset } => {
                    vba = Vba(spec.base_vba).offset(offset);
                }
                Outcome::Return => {
                    // Only the final block crosses to the host: pay its
                    // bus transfer now.
                    t = if qos_paced {
                        state
                            .timer
                            .chain_return_transfer_paced(t, BLOCK as u64, tenant_id)
                    } else {
                        state.timer.chain_return_transfer(t, BLOCK as u64)
                    };
                    let dma = cmd.dma.expect("validated above");
                    dma.write(cmd.dma_offset, &state.io_bufs.chunk[..BLOCK]);
                    break NvmeStatus::Success;
                }
                Outcome::Fail { code } => break NvmeStatus::ChainFault(code),
            }
        };

        let ok = status.is_ok();
        state.stats.chains += 1;
        state.stats.chain_hops += u64::from(hops);
        if !ok {
            state.stats.chain_faults += 1;
        }
        state
            .qos
            .record_offload_hops(tenant, u64::from(hops.saturating_sub(1)));
        state.qos.record_completion(
            tenant,
            t.saturating_sub(now),
            ok,
            u64::from(hops) * BLOCK as u64,
            0,
        );
        Completion {
            cid: 0,
            status,
            ready_at: t,
            pressure,
        }
    }

    /// Emits one chain hop's [`DeviceRecord`] (passive; no clock).
    #[allow(clippy::too_many_arguments)]
    fn record_hop(
        &self,
        state: &DevState,
        qid: QueueId,
        tenant_id: u64,
        submit: Nanos,
        walk: Option<WalkLevel>,
        translate: Nanos,
        service: Nanos,
        complete: Nanos,
        ok: bool,
    ) {
        if let Some(rec) = &state.recorder {
            rec.record_device(|| DeviceRecord {
                queue: qid.0,
                tenant: tenant_id,
                op: TraceOp::Read,
                bytes: BLOCK as u64,
                submit,
                qos_delay: Nanos::ZERO,
                throttled: false,
                deferred: false,
                walk,
                translate,
                channel_wait: Nanos::ZERO,
                service,
                complete,
                ok,
            });
        }
    }

    /// Completion time of command `cid` on `qid`, if posted.
    pub fn ready_time(&self, qid: QueueId, cid: u16) -> Option<Nanos> {
        self.state.lock().queues.get(&qid)?.ready_time(cid)
    }

    /// Host abort (NVMe Abort) of every command in `cids` whose
    /// completion was lost: frees their queue slots at zero modeled
    /// cost, so a host that re-issues them does not leak depth. Commands
    /// with a posted or reaped completion are left alone.
    pub fn abort(&self, qid: QueueId, cids: &[u16]) {
        if let Some(q) = self.state.lock().queues.get_mut(&qid) {
            for &cid in cids {
                q.abort(cid);
            }
        }
    }

    /// Reaps the completion for `cid` if visible at `now`.
    pub fn reap_at(&self, qid: QueueId, cid: u16, now: Nanos) -> Option<Completion> {
        self.state.lock().queues.get_mut(&qid)?.reap(cid, now)
    }

    /// Reaps up to `max` completions visible at `now`, earliest first.
    pub fn reap_ready(&self, qid: QueueId, now: Nanos, max: usize) -> Vec<Completion> {
        self.state
            .lock()
            .queues
            .get_mut(&qid)
            .map(|q| q.reap_ready(now, max))
            .unwrap_or_default()
    }

    /// As [`NvmeDevice::reap_ready`], appending into a caller-provided
    /// buffer — the batched completion path's allocation-free variant.
    /// Returns how many completions were appended (0 for an unknown
    /// queue).
    pub fn reap_ready_into(
        &self,
        qid: QueueId,
        now: Nanos,
        max: usize,
        out: &mut Vec<Completion>,
    ) -> usize {
        self.state
            .lock()
            .queues
            .get_mut(&qid)
            .map_or(0, |q| q.reap_ready_into(now, max, out))
    }

    /// Earliest pending completion time on `qid`.
    pub fn next_ready_time(&self, qid: QueueId) -> Option<Nanos> {
        self.state.lock().queues.get_mut(&qid)?.next_ready_time()
    }

    /// Latest pending completion time on `qid` (flush barrier helper).
    pub fn last_ready_time(&self, qid: QueueId) -> Option<Nanos> {
        self.state.lock().queues.get(&qid)?.last_ready_time()
    }

    /// Resets the contention ledger (see [`DeviceTimer::reset`]). Call
    /// between independent simulations sharing this device; pending
    /// completions on open queues are dropped.
    pub fn reset_timing(&self) {
        let mut state = self.state.lock();
        state.timer.reset();
        state.qos.reset_clock();
        for q in state.queues.values_mut() {
            let dropped = q.drop_pending();
            q.inflight -= dropped.min(q.inflight);
        }
    }

    /// Counters, including the ATC and QoS aggregates so they show up in
    /// any report that prints `DeviceStats`.
    pub fn stats(&self) -> DeviceStats {
        let state = self.state.lock();
        let mut s = state.stats;
        let atc = self.atc.stats();
        s.atc_hits = atc.hits;
        s.atc_misses = atc.misses;
        s.atc_shootdowns = atc.shootdowns;
        (s.qos_throttled, s.qos_deferred) = state.qos.totals();
        s
    }

    // ---- Maintenance access (setup code and the simulated kernel's
    // block layer use these; they move bytes without timing). ----

    /// Reads raw sectors, bypassing queues and timing.
    pub fn read_raw(&self, lba: Lba, buf: &mut [u8]) {
        self.state.lock().store.read(lba, buf);
    }

    /// Writes raw sectors, bypassing queues and timing. Still passes
    /// through the fault plane: journal and superblock writes are crash
    /// candidates like any other.
    pub fn write_raw(&self, lba: Lba, data: &[u8]) {
        let state = &mut *self.state.lock();
        write_media(
            &mut state.store,
            &state.faults,
            lba,
            data.len() as u64 / SECTOR_SIZE,
            None,
            WriteKind::Raw,
            Media::Data(data),
        );
    }

    /// Zeroes raw sectors, bypassing queues and timing.
    pub fn zero_raw(&self, lba: Lba, sectors: u64) {
        let state = &mut *self.state.lock();
        write_media(
            &mut state.store,
            &state.faults,
            lba,
            sectors,
            None,
            WriteKind::Zeroes,
            Media::Zeroes,
        );
    }

    /// Materialised media blocks (memory accounting).
    pub fn resident_blocks(&self) -> usize {
        self.state.lock().store.resident_blocks()
    }

    /// Deterministic digest of the entire media contents. Two devices
    /// with identical logical contents (zero-filled blocks are never
    /// distinguished from absent ones) hash equal — used by the crash
    /// campaigns to assert journal-replay idempotence.
    pub fn media_fingerprint(&self) -> u64 {
        self.state.lock().store.fingerprint()
    }
}

impl MetricSource for NvmeDevice {
    fn collect(&self, out: &mut Vec<Metric>) {
        let s = self.stats();
        out.push(Metric::counter("reads", s.reads));
        out.push(Metric::counter("writes", s.writes));
        out.push(Metric::counter("read_bytes", s.read_bytes));
        out.push(Metric::counter("written_bytes", s.written_bytes));
        out.push(Metric::counter("flushes", s.flushes));
        out.push(Metric::counter("translation_faults", s.translation_faults));
        out.push(Metric::counter("atc_hits", s.atc_hits));
        out.push(Metric::counter("atc_misses", s.atc_misses));
        out.push(Metric::counter("atc_shootdowns", s.atc_shootdowns));
        out.push(Metric::counter("qos_throttled", s.qos_throttled));
        out.push(Metric::counter("qos_deferred", s.qos_deferred));
        out.push(Metric::counter("chains", s.chains));
        out.push(Metric::counter("chain_hops", s.chain_hops));
        out.push(Metric::counter("chain_faults", s.chain_faults));
        for (tenant, ts) in self.qos_snapshot() {
            let name = match tenant {
                Tenant::Kernel => "kernel".to_string(),
                Tenant::User(p) => format!("pasid_{}", p.0),
            };
            out.push(Metric::counter(
                format!("tenant.{name}.submitted"),
                ts.submitted,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.completed"),
                ts.completed,
            ));
            out.push(Metric::counter(format!("tenant.{name}.failed"), ts.failed));
            out.push(Metric::counter(
                format!("tenant.{name}.offload_hops"),
                ts.offload_hops,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.read_bytes"),
                ts.read_bytes,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.written_bytes"),
                ts.written_bytes,
            ));
            out.push(Metric::histogram(
                format!("tenant.{name}.latency"),
                ts.latency.clone(),
            ));
        }
    }
}

impl std::fmt::Debug for NvmeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("NvmeDevice")
            .field("id", &self.id)
            .field("queues", &state.queues.len())
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_hw::mem::PhysMem;
    use bypassd_hw::page_table::AddressSpace;
    use bypassd_hw::pte::Pte;
    use bypassd_hw::types::PAGE_SIZE;

    const DEV: DevId = DevId(1);
    const P: Pasid = Pasid(42);

    fn setup() -> (PhysMem, Arc<NvmeDevice>) {
        let mem = PhysMem::new();
        let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
        let dev = NvmeDevice::new(DEV, 1 << 22, MediaTiming::default(), iommu);
        (mem, dev)
    }

    fn setup_with_mapping(n_blocks: u64) -> (PhysMem, Arc<NvmeDevice>, AddressSpace, Vba) {
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        for i in 0..n_blocks {
            asid.map_page(
                vba.as_virt().offset(i * PAGE_SIZE),
                Pte::fte(Lba::from_block(1000 + i), DEV, true),
            );
        }
        dev.iommu().lock().register(P, asid.root_frame());
        (mem, dev, asid, vba)
    }

    #[test]
    fn lba_write_read_roundtrip_on_kernel_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[0x5A; 4096]);
        let (st, t1) = dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        assert!(st.is_ok());
        let dma2 = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma2), t1);
        assert!(st.is_ok());
        let mut out = [0u8; 4096];
        dma2.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn lba_command_rejected_on_user_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(
            st,
            NvmeStatus::InvalidField,
            "user queue must not take raw LBAs"
        );
    }

    #[test]
    fn vba_command_rejected_on_kernel_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(Vba(0x1000)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::InvalidField);
    }

    #[test]
    fn vba_read_translates_and_returns_data() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.write_raw(Lba::from_block(1000), &[0xC3; 4096]);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, ready) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let mut out = [0u8; 4096];
        dma.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0xC3));
        // Read latency includes translation (~550ns) + device (~4020ns).
        let ns = ready.as_nanos();
        assert!((4300..5000).contains(&ns), "VBA read latency = {ns}ns");
    }

    #[test]
    fn vba_write_has_no_translation_latency() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[1; 4096]);
        let (st, ready) = dev.execute(q, Command::write(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let service = MediaTiming::default().service(true, 4096);
        assert_eq!(ready, service, "write must overlap VBA translation");
        let mut out = [0u8; 4096];
        dev.read_raw(Lba::from_block(1000), &mut out);
        assert!(out.iter().all(|&b| b == 1));
    }

    #[test]
    fn unmapped_vba_faults_without_touching_media() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma),
            Nanos::ZERO,
        );
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
        assert_eq!(dev.stats().reads, 0);
        assert_eq!(dev.stats().translation_faults, 1);
    }

    #[test]
    fn readonly_mapping_blocks_vba_write() {
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(7), DEV, false));
        dev.iommu().lock().register(P, asid.root_frame());
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(q, Command::write(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
    }

    #[test]
    fn multi_extent_vba_read_concatenates_in_dma_order() {
        // Two non-contiguous blocks must land in the DMA buffer in VBA
        // order, not LBA order.
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(500), DEV, true));
        asid.map_page(
            vba.as_virt().offset(PAGE_SIZE),
            Pte::fte(Lba::from_block(100), DEV, true),
        );
        dev.iommu().lock().register(P, asid.root_frame());
        dev.write_raw(Lba::from_block(500), &[0xAA; 4096]);
        dev.write_raw(Lba::from_block(100), &[0xBB; 4096]);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 8192);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 16, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let mut out = [0u8; 8192];
        dma.read(0, &mut out);
        assert!(out[..4096].iter().all(|&b| b == 0xAA));
        assert!(out[4096..].iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn queue_depth_enforced_and_reap_frees() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 1);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let cid = dev
            .submit(
                q,
                Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                Nanos::ZERO,
            )
            .unwrap();
        let err = dev
            .submit(
                q,
                Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                Nanos::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        let ready = dev.ready_time(q, cid).unwrap();
        assert!(dev.reap_at(q, cid, ready).is_some());
        assert!(dev
            .submit(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma), ready)
            .is_ok());
    }

    #[test]
    fn flush_completes_after_writes() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[2; 4096]);
        let (_, w) = dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        let (st, f) = dev.execute(q, Command::flush(), Nanos(1));
        assert!(st.is_ok());
        assert!(f > w);
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let cap = dev.capacity_sectors();
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(cap)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::LbaOutOfRange);
    }

    #[test]
    fn write_zeroes_clears_blocks() {
        let (_mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        dev.write_raw(Lba::from_block(3), &[9; 4096]);
        let (st, _) = dev.execute(
            q,
            Command::write_zeroes(BlockAddr::Lba(Lba::from_block(3)), 8),
            Nanos::ZERO,
        );
        assert!(st.is_ok());
        let mut out = [9u8; 4096];
        dev.read_raw(Lba::from_block(3), &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_sector_command_invalid() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 0, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::InvalidField);
    }

    #[test]
    fn stats_accumulate() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        dev.execute(q, Command::flush(), Nanos::ZERO);
        let s = dev.stats();
        assert_eq!((s.reads, s.writes, s.flushes), (1, 1, 1));
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.written_bytes, 4096);
    }

    #[test]
    fn atc_hit_skips_pcie_round_trip() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        // Second read of the same page: translated on-device.
        let (st, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        assert!(st.is_ok());
        let cold = t1.as_nanos();
        let warm = t2.as_nanos() - t1.as_nanos();
        // Cold read paid pcie_rtt + walk (~528ns); warm read pays only
        // the on-device lookup (14ns) before the same media time.
        assert!(
            cold - warm > 500,
            "ATC hit should shave the ATS round trip: cold={cold} warm={warm}"
        );
        let s = dev.atc_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn atc_disabled_by_default_keeps_ats_costs() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (_, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        let (_, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        // Both reads pay the full ATS translation (pcie + walk); the warm
        // one only saves the PWC miss.
        let cold = t1.as_nanos();
        let warm = t2.as_nanos() - t1.as_nanos();
        assert_eq!(cold - warm, 120, "only the PWC component may differ");
        assert_eq!(dev.atc_stats(), crate::atc::AtcStats::default());
    }

    #[test]
    fn revocation_shoots_down_atc_so_fallback_still_fires() {
        // §3.6 regression with the ATC enabled: a revoked FTE must not be
        // served from the device cache.
        let (mem, dev, mut asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        assert!(!dev.atc().is_empty(), "walk should have filled the ATC");
        // Kernel revokes: detach FTE + IOMMU invalidate, which broadcasts
        // to the ATC.
        asid.unmap_page(vba.as_virt());
        dev.iommu().lock().invalidate_pasid(P);
        assert!(dev.atc().is_empty(), "shootdown must reach the device");
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
        assert_eq!(dev.atc_stats().shootdowns, 1);
    }

    #[test]
    fn range_shootdown_drops_only_covered_atc_pages() {
        let (mem, dev, _asid, vba) = setup_with_mapping(2);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 8192);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 16, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        assert_eq!(dev.atc().len(), 2);
        dev.iommu().lock().invalidate_range(P, vba, PAGE_SIZE);
        assert_eq!(dev.atc().len(), 1, "only the covered page drops");
        // Second page still hits on-device; first page re-walks fine.
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma),
            t,
        );
        assert!(st.is_ok());
        assert_eq!(dev.atc_stats().hits, 1);
    }

    #[test]
    fn revocation_mid_stream_fails_subsequent_ios() {
        let (mem, dev, mut asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        // Kernel revokes: detach FTE + IOTLB invalidate.
        asid.unmap_page(vba.as_virt());
        dev.iommu().lock().invalidate_pasid(P);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
    }

    // ---- QoS (bypassd-qos integration) ----

    use bypassd_qos::RateLimit;

    const P2: Pasid = Pasid(43);

    /// Maps `n_blocks` FTEs for `pasid` at its own VBA window.
    fn map_tenant(
        mem: &PhysMem,
        dev: &Arc<NvmeDevice>,
        pasid: Pasid,
        first_block: u64,
        n_blocks: u64,
    ) -> (AddressSpace, Vba) {
        let mut asid = AddressSpace::new(mem);
        let vba = Vba(0x4000_0000);
        for i in 0..n_blocks {
            asid.map_page(
                vba.as_virt().offset(i * PAGE_SIZE),
                Pte::fte(Lba::from_block(first_block + i), DEV, true),
            );
        }
        dev.iommu().lock().register(pasid, asid.root_frame());
        (asid, vba)
    }

    #[test]
    fn qos_enabled_solo_tenant_timing_matches_disabled() {
        // A tenant alone on the device must see the exact same virtual
        // times with QoS on: pacing is work-conserving when idle.
        let run = |qos: bool| -> Vec<Nanos> {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let q = dev.create_queue(None, 32);
            let dma = DmaBuffer::alloc(&mem, 4096);
            let mut times = Vec::new();
            let mut now = Nanos::ZERO;
            for _ in 0..16 {
                let (st, t) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma), now);
                assert!(st.is_ok());
                times.push(t);
                now = t;
            }
            times
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn qos_protects_qd1_foreground_from_deep_antagonist() {
        // Ablation-8 in miniature: a QD1 tenant vs a 16-deep burst from a
        // second PASID, with and without QoS (equal weights).
        let fg_latency = |qos: bool| -> u64 {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let (_fa, fvba) = map_tenant(&mem, &dev, P, 1000, 1);
            let (_aa, avba) = map_tenant(&mem, &dev, P2, 2000, 1);
            let fq = dev.create_queue(Some(P), 32);
            let aq = dev.create_queue(Some(P2), 32);
            let fdma = DmaBuffer::alloc(&mem, 4096);
            let adma = DmaBuffer::alloc(&mem, 4096);
            // Prime the foreground so the arbiter sees it as active.
            let (st, t0) = dev.execute(
                fq,
                Command::read(BlockAddr::Vba(fvba), 8, &fdma),
                Nanos::ZERO,
            );
            assert!(st.is_ok());
            for _ in 0..16 {
                dev.submit(aq, Command::read(BlockAddr::Vba(avba), 8, &adma), t0)
                    .unwrap();
            }
            let (st, done) = dev.execute(fq, Command::read(BlockAddr::Vba(fvba), 8, &fdma), t0);
            assert!(st.is_ok());
            done.as_nanos() - t0.as_nanos()
        };
        let no_qos = fg_latency(false);
        let qos = fg_latency(true);
        assert!(
            no_qos >= 2 * qos,
            "QoS must at least halve the victim latency: no_qos={no_qos}ns qos={qos}ns"
        );
        assert!(
            qos < 8_000,
            "paced foreground read should stay near uncontended service: {qos}ns"
        );
    }

    #[test]
    fn qos_rate_limit_paces_completions() {
        let (mem, dev) = setup();
        dev.set_qos(QosConfig::enabled());
        dev.register_tenant(
            Tenant::Kernel,
            TenantShare::weight(1).with_limit(RateLimit {
                iops: Some(10_000),
                bytes_per_sec: None,
                burst_ops: 1,
                burst_bytes: 0,
            }),
        );
        let q = dev.create_queue(None, 64);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let mut last = Nanos::ZERO;
        for i in 0..4 {
            let (st, t) = dev.execute(
                q,
                Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                Nanos::ZERO,
            );
            assert!(st.is_ok());
            if i > 0 {
                // 10K IOPS with burst 1 → 100µs spacing.
                let gap = t.as_nanos() - last.as_nanos();
                assert_eq!(gap, 100_000, "op {i} gap = {gap}ns");
            }
            last = t;
        }
        let s = dev.tenant_stats(Tenant::Kernel).unwrap();
        assert_eq!(s.throttled, 3);
        assert_eq!(dev.stats().qos_throttled, 3);
    }

    #[test]
    fn qos_pressure_flag_signals_congestion() {
        // With QoS on, completions carry a pressure bit once the queue
        // pair runs at ≥ 3/4 depth; with QoS off the bit never sets.
        let run = |qos: bool| -> bool {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let q = dev.create_queue(None, 8);
            let dma = DmaBuffer::alloc(&mem, 4096);
            let mut cids = Vec::new();
            for _ in 0..8 {
                cids.push(
                    dev.submit(
                        q,
                        Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                        Nanos::ZERO,
                    )
                    .unwrap(),
                );
            }
            cids.into_iter().any(|cid| {
                let ready = dev.ready_time(q, cid).unwrap();
                dev.reap_at(q, cid, ready).unwrap().pressure
            })
        };
        assert!(!run(false), "pressure must never be signalled without QoS");
        assert!(run(true), "deep queue under QoS must signal pressure");
    }

    #[test]
    fn qos_tenant_stats_account_every_op() {
        let (mem, dev) = setup();
        dev.set_qos(QosConfig::enabled());
        let (_a, vba) = map_tenant(&mem, &dev, P, 1000, 1);
        let q = dev.create_queue(Some(P), 2);
        let kq = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        // Two good reads, one invalid (raw LBA on a user queue), one
        // queue-full rejection, plus kernel traffic.
        let (st, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let (st, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        assert!(st.is_ok());
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma), t2);
        assert_eq!(st, NvmeStatus::InvalidField);
        let c1 = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap();
        let _c2 = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap();
        let err = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        let ready = dev.ready_time(q, c1).unwrap();
        dev.reap_at(q, c1, ready).unwrap();
        dev.execute(kq, Command::write(BlockAddr::Lba(Lba(0)), 8, &dma), t2);

        let user = dev.tenant_stats(Tenant::User(P)).unwrap();
        assert!(user.accounted(), "submitted must equal completed + failed");
        assert_eq!(user.submitted, 5);
        assert_eq!((user.completed, user.failed, user.rejected), (4, 1, 1));
        assert_eq!(user.read_bytes, 4 * 4096);
        assert_eq!(user.latency.count(), 4);
        let kernel = dev.tenant_stats(Tenant::Kernel).unwrap();
        assert!(kernel.accounted());
        assert_eq!(kernel.written_bytes, 4096);
        // The snapshot covers every tenant the device has seen.
        let snap = dev.qos_snapshot();
        let names: Vec<Tenant> = snap.iter().map(|(t, _)| *t).collect();
        assert_eq!(names, vec![Tenant::Kernel, Tenant::User(P)]);
    }

    // ---- Offload chains (bypassd-offload integration) ----

    use bypassd_offload::{Cond, Op, Width, TRAP_OOB};

    /// "Follow the pointer at byte 0; 0 terminates": the minimal chain
    /// program. One load, one compare, one terminator per hop.
    fn follow_prog() -> Arc<Program> {
        Arc::new(
            Program::verify(vec![
                Op::Imm { dst: 0, imm: 0 },
                Op::Load {
                    dst: 1,
                    width: Width::U64,
                    base: 0,
                    disp: 0,
                },
                Op::Imm { dst: 2, imm: 0 },
                Op::Jmp {
                    cond: Cond::Eq,
                    a: 1,
                    b: 2,
                    skip: 1,
                },
                Op::Resubmit { addr: 1 },
                Op::Return,
            ])
            .unwrap(),
        )
    }

    /// Writes one 512 B node at chain-window byte `offset`: next-pointer
    /// at byte 0, tag at byte 8. Window pages back onto blocks
    /// `1000 + page`.
    fn write_node(dev: &NvmeDevice, offset: u64, next: u64, tag: u8) {
        let mut b = [0u8; BLOCK];
        b[..8].copy_from_slice(&next.to_le_bytes());
        b[8] = tag;
        let sector = Lba(Lba::from_block(1000 + offset / PAGE_SIZE).0 + (offset % PAGE_SIZE) / 512);
        dev.write_raw(sector, &b);
    }

    fn chain_spec(dev: &NvmeDevice, vba: Vba) -> ChainSpec {
        let handle = dev.install_program(follow_prog());
        ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        }
    }

    #[test]
    fn chain_read_follows_pointers_in_one_completion() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 → node2 → node7 → stop.
        write_node(&dev, 0, 1024, 10);
        write_node(&dev, 1024, 3584, 12);
        write_node(&dev, 3584, 0, 17);
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(comp.status.is_ok());
        let mut out = [0u8; BLOCK];
        dma.read(0, &mut out);
        assert_eq!(out[8], 17, "final block must be the chain's tail");
        let s = dev.stats();
        assert_eq!((s.chains, s.chain_hops, s.chain_faults), (1, 3, 0));
        assert_eq!(s.reads, 3, "each hop is a media read");
        assert_eq!(s.read_bytes, 3 * BLOCK as u64);
        // Three serialized hops: ≥ 3 × (translate + read_base).
        assert!(
            comp.ready_at.as_nanos() > 3 * 3450,
            "chain latency {}ns too small for 3 media reads",
            comp.ready_at.as_nanos()
        );
        // Per-tenant accounting: 2 resubmitted hops beyond the first.
        let ts = dev.tenant_stats(Tenant::User(P)).unwrap();
        assert_eq!(ts.offload_hops, 2);
        assert!(ts.accounted());
    }

    #[test]
    fn chain_is_deterministic_across_runs() {
        let run = || {
            let (mem, dev, _asid, vba) = setup_with_mapping(1);
            write_node(&dev, 0, 512, 1);
            write_node(&dev, 512, 1024, 2);
            write_node(&dev, 1024, 0, 3);
            let spec = chain_spec(&dev, vba);
            let q = dev.create_queue(Some(P), 32);
            let dma = DmaBuffer::alloc(&mem, 4096);
            dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO)
                .ready_at
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_program_fail_surfaces_code() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let handle = dev.install_program(Arc::new(
            Program::verify(vec![Op::Fail { code: 7 }]).unwrap(),
        ));
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let spec = ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(7));
        let s = dev.stats();
        assert_eq!((s.chains, s.chain_hops, s.chain_faults), (1, 1, 1));
    }

    #[test]
    fn chain_hop_budget_enforced() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 points at itself: an infinite chain.
        write_node(&dev, 0, 0, 9);
        // Program that always resubmits offset 0 (never reads the stop
        // sentinel as such — r1 stays whatever the block says, 0 here
        // means "node 0", not stop).
        let handle = dev.install_program(Arc::new(
            Program::verify(vec![Op::Imm { dst: 0, imm: 0 }, Op::Resubmit { addr: 0 }]).unwrap(),
        ));
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let spec = ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(TRAP_HOPS));
        assert_eq!(dev.stats().chain_hops, u64::from(MAX_HOPS));
    }

    #[test]
    fn chain_resubmit_into_unmapped_page_faults() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 points past the single mapped page.
        write_node(&dev, 0, PAGE_SIZE, 1);
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(matches!(comp.status, NvmeStatus::TranslationFault(_)));
        let s = dev.stats();
        assert_eq!(s.translation_faults, 1);
        assert_eq!(s.chain_hops, 1, "only the first hop read media");
        assert_eq!(s.chain_faults, 1);
    }

    #[test]
    fn chain_unaligned_resubmit_traps() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        write_node(&dev, 0, 100, 1); // 100 is not sector-aligned
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(TRAP_OOB));
    }

    #[test]
    fn chain_requires_user_queue_and_installed_program() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        write_node(&dev, 0, 0, 1);
        let spec = chain_spec(&dev, vba);
        let dma = DmaBuffer::alloc(&mem, 4096);
        // Kernel queue: no PASID → invalid.
        let kq = dev.create_queue(None, 32);
        let comp = dev.execute_full(kq, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::InvalidField);
        // Unknown program handle → invalid.
        let q = dev.create_queue(Some(P), 32);
        let bogus = ChainSpec {
            prog: ProgHandle(9999),
            ..spec
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, bogus), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::InvalidField);
        // Removing the program invalidates the handle.
        assert!(dev.remove_program(spec.prog));
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::InvalidField);
    }

    #[test]
    fn chain_registers_persist_across_hops() {
        // A descent-style program: r1 counts remaining hops, seeded by
        // the host; each hop decrements and resubmits the next node until
        // the budget is spent. Register persistence across hops is what
        // makes a level-counted B-tree descent expressible.
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        for i in 0..4u64 {
            write_node(&dev, i * 512, (i + 1) * 512, i as u8);
        }
        let prog = Arc::new(
            Program::verify(vec![
                // if r1 == 0 → return this block
                Op::Imm { dst: 2, imm: 0 },
                Op::Jmp {
                    cond: Cond::Eq,
                    a: 1,
                    b: 2,
                    skip: 3,
                },
                Op::AluImm {
                    op: bypassd_offload::AluOp::Sub,
                    dst: 1,
                    imm: 1,
                },
                Op::Load {
                    dst: 3,
                    width: Width::U64,
                    base: 2,
                    disp: 0,
                },
                Op::Resubmit { addr: 3 },
                Op::Return,
            ])
            .unwrap(),
        );
        let handle = dev.install_program(prog);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let mut regs = [0u64; 8];
        regs[1] = 2; // two resubmits, then return the third node
        let spec = ChainSpec {
            prog: handle,
            regs,
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(comp.status.is_ok());
        let mut out = [0u8; BLOCK];
        dma.read(0, &mut out);
        assert_eq!(out[8], 2, "chain must stop at node 2 (hop budget 2)");
        assert_eq!(dev.stats().chain_hops, 3);
    }

    #[test]
    fn device_stats_surface_atc_and_qos_counters() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (_, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        let s = dev.stats();
        assert_eq!((s.atc_hits, s.atc_misses), (1, 1));
        assert_eq!((s.qos_throttled, s.qos_deferred), (0, 0));
        dev.iommu().lock().invalidate_pasid(P);
        assert_eq!(dev.stats().atc_shootdowns, 1);
    }

    #[test]
    fn scatter_tear_keeps_exactly_its_sectors_on_every_write_path() {
        use bypassd_faults::plane::{Cut, Tear};
        const N: u32 = 16;
        let len = (N as u64 * SECTOR_SIZE) as usize;
        let lba = Lba(64);
        let tear = Tear {
            seq: 0,
            keep_sectors: 5,
            scatter_salt: 0x7EA2,
        };
        // (path, bytes before the write, bytes the write stores)
        for (path, old, new) in [
            ("timed Write", 0x00, 0x3C),
            ("timed WriteZeroes", 0xA5, 0x00),
            ("write_raw", 0x00, 0x3C),
            ("zero_raw", 0xA5, 0x00),
        ] {
            let (mem, dev) = setup();
            dev.write_raw(lba, &vec![old; len]);
            let plane = dev.fault_plane();
            plane.reset();
            plane.arm(Cut {
                cut_seq: 1,
                drop_before: Vec::new(),
                tear: Some(tear),
            });
            let q = dev.create_queue(None, 8);
            let dma = DmaBuffer::alloc(&mem, len);
            dma.write(0, &vec![new; len]);
            match path {
                "timed Write" => {
                    let cmd = Command::write(BlockAddr::Lba(lba), N, &dma);
                    assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
                }
                "timed WriteZeroes" => {
                    let cmd = Command::write_zeroes(BlockAddr::Lba(lba), N);
                    assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
                }
                "write_raw" => dev.write_raw(lba, &vec![new; len]),
                _ => dev.zero_raw(lba, N as u64),
            }
            let mut media = vec![0u8; len];
            dev.read_raw(lba, &mut media);
            for (i, sector) in media.chunks(SECTOR_SIZE as usize).enumerate() {
                let want = if tear.keeps(i as u32, N) { new } else { old };
                assert!(
                    sector.iter().all(|&b| b == want),
                    "{path}: sector {i} should hold {want:#x}"
                );
            }
            assert_eq!(plane.stats().writes_torn, 1, "{path}");
        }
    }
}
