//! UserLib: the interposition shim (§3.2, §4.2, §4.5).
//!
//! A [`UserProcess`] is shared by all of a process's threads and holds
//! the file-info table and the partial-write serialisation list. Each
//! [`UserThread`] owns a private PASID-bound NVMe queue pair and pinned
//! DMA buffer, so threads never synchronise on the data path (the paper's
//! explanation for BypassD's flat latency up to device saturation, §6.3).
//!
//! Locking: the file-info table is a `RwLock` map from fd to a shared
//! [`FileEntry`]; the data path takes the map lock only in read mode and
//! only long enough to clone the entry's `Arc`. All mutable per-file
//! state (offset/size/flags, the partial-write ranges, the pending
//! non-blocking writes) lives in short per-fd mutexes inside the entry,
//! so threads operating on different files never serialise on a
//! process-wide lock and no `FileState` is cloned per operation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use bypassd_hw::types::{Vba, SECTOR_SIZE};
use bypassd_os::process::{Fd, Pid};
use bypassd_os::{Errno, OpenFlags, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::{BlockAddr, Command};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::{NvmeStatus, QueueId};
use bypassd_trace::{IoPath, OpRecord, Recorder};

use crate::system::System;

/// Retry and backpressure knobs for the direct data path.
///
/// The defaults reproduce the historical behaviour exactly: two fault
/// attempts before falling back to the kernel, no backoff, and no
/// depth adaptation (the device only reports congestion pressure when
/// the QoS subsystem is enabled, so with QoS off the adaptive state
/// never engages).
#[derive(Debug, Clone, Copy)]
pub struct IoPolicy {
    /// Direct attempts per op before falling back to the kernel path.
    pub max_attempts: u32,
    /// Delay inserted before re-trying a faulted direct op.
    pub retry_backoff: Nanos,
    /// Floor for the adaptive effective queue depth.
    pub min_depth: usize,
    /// Pressure-free completions required to grow the effective depth
    /// back by one slot (the additive half of AIMD).
    pub recover_after: u32,
}

impl Default for IoPolicy {
    fn default() -> Self {
        IoPolicy {
            max_attempts: 2,
            retry_backoff: Nanos::ZERO,
            min_depth: 1,
            recover_after: 16,
        }
    }
}

/// Per-open state tracked by UserLib (flags, offset, size, starting VBA —
/// §3.2). Plain scalars: reading it is a copy, not a clone.
#[derive(Debug, Clone, Copy)]
struct FileState {
    vba: Option<Vba>,
    size: u64,
    offset: u64,
    writable: bool,
    /// Permanently on the kernel interface (revoked, §3.6).
    fallback: bool,
    /// High-water mark of preallocated-but-unsized blocks (§5.1).
    prealloc_end: u64,
    /// Optimized-append chunk (0 = disabled).
    append_chunk: u64,
    /// Local size not yet flushed to the kernel.
    size_dirty: bool,
}

/// A write submitted through the non-blocking interface (§5.1) that has
/// not yet been confirmed by the device. Reads overlay these so a reader
/// always sees the latest data even before the write lands.
#[derive(Debug, Clone)]
struct PendingWrite {
    offset: u64,
    data: Vec<u8>,
    ready: Nanos,
}

/// The unconfirmed-write overlay plus a bounded pool of recycled payload
/// buffers, so steady-state non-blocking writes reuse heap capacity
/// instead of cloning every payload into a fresh allocation.
#[derive(Debug, Default)]
struct PendingWrites {
    writes: Vec<PendingWrite>,
    /// Recycled payload `Vec`s from pruned entries (capped at
    /// [`PendingWrites::SPARE_CAP`]).
    spare: Vec<Vec<u8>>,
}

impl PendingWrites {
    const SPARE_CAP: usize = 64;

    fn recycle(&mut self, data: Vec<u8>) {
        if self.spare.len() < Self::SPARE_CAP {
            self.spare.push(data);
        }
    }
}

/// All per-fd state, behind its own locks so operations on different
/// files never contend and the process-wide table lock stays read-mostly.
#[derive(Debug)]
struct FileEntry {
    state: Mutex<FileState>,
    /// In-flight partial (read-modify-write) byte ranges on this file.
    partials: Mutex<Vec<(u64, u64)>>,
    /// Unconfirmed non-blocking writes (§5.1 enhancement).
    pending: Mutex<PendingWrites>,
    /// Mirrors `pending.writes.len()` so reads can skip the overlay
    /// locks entirely when no non-blocking writes are outstanding.
    pending_count: AtomicUsize,
    /// Set when the fd is closed (or replaced), invalidating any
    /// thread-local cached handle to this entry.
    closed: AtomicBool,
}

impl FileEntry {
    fn new(state: FileState) -> Arc<Self> {
        Arc::new(FileEntry {
            state: Mutex::new(state),
            partials: Mutex::new(Vec::new()),
            pending: Mutex::new(PendingWrites::default()),
            pending_count: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        })
    }
}

/// Per-operation stage accumulator threaded through the data path, so
/// one `pread`/`pwrite` — however many device round trips, retries and
/// kernel excursions it takes — yields a single attributed
/// [`OpRecord`].
#[derive(Clone, Copy)]
struct OpScratch {
    userlib: Nanos,
    device_span: Nanos,
    user_copy: Nanos,
    kernel: Nanos,
    path: IoPath,
    faults: u32,
}

impl OpScratch {
    fn new() -> OpScratch {
        OpScratch {
            userlib: Nanos::ZERO,
            device_span: Nanos::ZERO,
            user_copy: Nanos::ZERO,
            kernel: Nanos::ZERO,
            path: IoPath::Direct,
            faults: 0,
        }
    }

    /// Marks the op as kernel-fallback unless a revocation already
    /// claimed it (revocation is the more specific cause).
    fn fall_back(&mut self) {
        if self.path == IoPath::Direct {
            self.path = IoPath::Fallback;
        }
    }
}

/// Process-wide UserLib state, shared between threads.
pub struct UserProcess {
    system: System,
    pid: Pid,
    /// fd → entry. Read-locked (shared) on the data path; write-locked
    /// only by open/close.
    files: RwLock<HashMap<Fd, Arc<FileEntry>>>,
    io_policy: Mutex<IoPolicy>,
    direct_ops: AtomicU64,
    fallback_ops: AtomicU64,
    recorder: Arc<Recorder>,
}

impl UserProcess {
    /// Starts a process with the given credentials.
    pub fn start(system: &System, uid: u32, gid: u32) -> Arc<UserProcess> {
        let pid = system.kernel().spawn_process(uid, gid);
        let proc = Arc::new(UserProcess {
            system: system.clone(),
            pid,
            files: RwLock::new(HashMap::new()),
            io_policy: Mutex::new(IoPolicy::default()),
            direct_ops: AtomicU64::new(0),
            fallback_ops: AtomicU64::new(0),
            recorder: Arc::clone(system.recorder()),
        });
        system.metrics().register(&format!("proc.{pid}"), &proc);
        proc
    }

    /// Starts a process inside a container (mount namespace rooted at
    /// `root`, §5.2). BypassD works unmodified in containers: the kernel
    /// scopes every path the process can name, so it can only fmap — and
    /// therefore directly access — files inside its namespace.
    ///
    /// # Errors
    /// `NoEnt`/`NotDir` if `root` is not an existing directory.
    pub fn start_in(
        system: &System,
        uid: u32,
        gid: u32,
        root: &str,
    ) -> SysResult<Arc<UserProcess>> {
        let pid = system.kernel().spawn_process_in(uid, gid, root)?;
        let proc = Arc::new(UserProcess {
            system: system.clone(),
            pid,
            files: RwLock::new(HashMap::new()),
            io_policy: Mutex::new(IoPolicy::default()),
            direct_ops: AtomicU64::new(0),
            fallback_ops: AtomicU64::new(0),
            recorder: Arc::clone(system.recorder()),
        });
        system.metrics().register(&format!("proc.{pid}"), &proc);
        Ok(proc)
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The wired system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Creates a thread handle with a private queue pair and DMA buffer
    /// (setup-time work, untimed). The queue pair is bound through the
    /// kernel driver, which registers this process's QoS share with the
    /// device arbiter.
    pub fn thread(self: &Arc<Self>) -> UserThread {
        self.thread_with(64, 1 << 20)
    }

    /// [`thread`](Self::thread) with explicit queue depth and DMA buffer
    /// size. Fleet runs stand up thousands of processes per machine, so
    /// they use shallow queues and small buffers to keep the aggregate
    /// pinned-memory footprint bounded; the defaults above match the
    /// paper's single-process configuration.
    pub fn thread_with(self: &Arc<Self>, queue_depth: usize, dma_len: usize) -> UserThread {
        let queue_depth = queue_depth.max(1);
        let qid = self.system.kernel().bind_user_queue(self.pid, queue_depth);
        let dma = DmaBuffer::alloc(self.system.mem(), dma_len.max(SECTOR_SIZE as usize));
        UserThread {
            proc: Arc::clone(self),
            qid,
            dma,
            queue_depth,
            effective_depth: queue_depth,
            clean_streak: 0,
            pressure_events: 0,
            cached_fd: None,
            async_staging: None,
            batch: BatchScratch::with_capacity(queue_depth),
        }
    }

    /// Overrides the retry/backpressure policy for all of this process's
    /// threads.
    pub fn set_io_policy(&self, policy: IoPolicy) {
        *self.io_policy.lock() = policy;
    }

    /// The retry/backpressure policy in force.
    pub fn io_policy(&self) -> IoPolicy {
        *self.io_policy.lock()
    }

    /// (direct I/Os, kernel-fallback I/Os) completed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.direct_ops.load(Ordering::Relaxed),
            self.fallback_ops.load(Ordering::Relaxed),
        )
    }

    /// Enables the optimized append enhancement (§5.1) for `fd`:
    /// preallocate `chunk` bytes at a time and overwrite them directly,
    /// flushing the size at fsync/close.
    pub fn enable_optimized_append(&self, fd: Fd, chunk: u64) {
        if let Ok(entry) = self.entry(fd) {
            let mut st = entry.state.lock();
            st.append_chunk = chunk.max(SECTOR_SIZE);
            st.prealloc_end = st.size;
        }
    }

    /// Shared handle to `fd`'s entry: one read lock + one `Arc` clone.
    fn entry(&self, fd: Fd) -> SysResult<Arc<FileEntry>> {
        self.files.read().get(&fd).cloned().ok_or(Errno::BadF)
    }
}

impl bypassd_trace::MetricSource for UserProcess {
    fn collect(&self, out: &mut Vec<bypassd_trace::Metric>) {
        use bypassd_trace::Metric;
        out.push(Metric::counter(
            "direct_ops",
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.direct_ops.load(Ordering::Relaxed),
        ));
        out.push(Metric::counter(
            "fallback_ops",
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.fallback_ops.load(Ordering::Relaxed),
        ));
        out.push(Metric::gauge("open_files", self.files.read().len() as i64));
    }
}

impl std::fmt::Debug for UserProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserProcess")
            .field("pid", &self.pid)
            .field("open_files", &self.files.read().len())
            .finish()
    }
}

/// One request in a [`UserThread::pread_batch`] call.
pub struct ReadReq<'a> {
    /// Absolute file offset to read from.
    pub offset: u64,
    /// Destination; its length is the read size.
    pub buf: &'a mut [u8],
}

/// One chain request in a [`UserThread::pread_chain_batch`] call: a
/// verified program descends from `start`, and the chain's final 512 B
/// block lands in `buf`.
pub struct ChainReq<'a> {
    /// Byte offset (sector-aligned) of the chain's first block.
    pub start: u64,
    /// Initial register file (lookup key, level budget, …).
    pub regs: [u64; bypassd_offload::NUM_REGS],
    /// Destination for the final block; at least [`bypassd_offload::BLOCK`] bytes.
    pub buf: &'a mut [u8],
}

/// What the flight engine needs to know about one kind of batched
/// request. [`ReadReq`] and [`ChainReq`] implement it, so
/// [`UserThread::pread_batch`] and [`UserThread::pread_chain_batch`]
/// share one qualify/submit/wait/reap/demote path.
trait FlightReq: Sized {
    /// Argument shared by the whole batch (a chain's program).
    type Batch: Copy;

    /// Fast-path qualification against a `slot`-byte DMA budget and a
    /// `size`-byte file.
    fn qualifies(&self, slot: usize, size: u64) -> bool;

    /// The device command for this request, DMA'd into `dma` at offset 0
    /// of a file mapped at `vba`.
    fn command<'d>(&self, batch: Self::Batch, vba: Vba, dma: &'d DmaBuffer) -> Command<'d>;

    /// The bytes a successful command delivers: copied out and charged.
    fn dest(&mut self) -> &mut [u8];

    /// Serves this request on the single-op path (demotion, a faulted
    /// slot, or a lost completion).
    fn sequential(
        &mut self,
        t: &mut UserThread,
        ctx: &mut ActorCtx,
        fd: Fd,
        batch: Self::Batch,
    ) -> SysResult<usize>;

    /// Runs once after a flight, over all of its requests.
    fn after_flight(_entry: &FileEntry, _now: Nanos, _chunk: &mut [Self]) {}
}

impl FlightReq for ReadReq<'_> {
    type Batch = ();

    fn qualifies(&self, slot: usize, size: u64) -> bool {
        let len = self.buf.len() as u64;
        self.offset.is_multiple_of(SECTOR_SIZE)
            && len.is_multiple_of(SECTOR_SIZE)
            && !self.buf.is_empty()
            && self.buf.len() <= slot
            && self.offset + len <= size
    }

    fn command<'d>(&self, (): (), vba: Vba, dma: &'d DmaBuffer) -> Command<'d> {
        read_at(vba.offset(self.offset), self.buf.len() as u64)(dma)
    }

    fn dest(&mut self) -> &mut [u8] {
        self.buf
    }

    fn sequential(
        &mut self,
        t: &mut UserThread,
        ctx: &mut ActorCtx,
        fd: Fd,
        (): (),
    ) -> SysResult<usize> {
        t.pread(ctx, fd, self.buf, self.offset)
    }

    /// Read-after-write consistency, same gate as the sequential path.
    fn after_flight(entry: &FileEntry, now: Nanos, chunk: &mut [Self]) {
        // ordering: Relaxed — mirror of the pending length, written under the
        // pending lock; races resolve via the serialised actor schedule.
        if entry.pending_count.load(Ordering::Relaxed) > 0 {
            UserThread::prune_pending(entry, now);
            for r in chunk {
                UserThread::overlay_pending(entry, r.buf, r.offset);
            }
        }
    }
}

impl FlightReq for ChainReq<'_> {
    type Batch = bypassd_offload::ProgHandle;

    fn qualifies(&self, slot: usize, size: u64) -> bool {
        const BLOCK: u64 = bypassd_offload::BLOCK as u64;
        slot as u64 >= BLOCK
            && self.start.is_multiple_of(SECTOR_SIZE)
            && self.buf.len() as u64 >= BLOCK
            && self.start + BLOCK <= size
    }

    fn command<'d>(
        &self,
        prog: bypassd_offload::ProgHandle,
        vba: Vba,
        dma: &'d DmaBuffer,
    ) -> Command<'d> {
        let spec = bypassd_offload::ChainSpec {
            prog,
            regs: self.regs,
            base_vba: vba.0,
        };
        Command::chain_read(vba.offset(self.start), dma, spec)
    }

    fn dest(&mut self) -> &mut [u8] {
        &mut self.buf[..bypassd_offload::BLOCK]
    }

    fn sequential(
        &mut self,
        t: &mut UserThread,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
    ) -> SysResult<usize> {
        t.pread_chain(ctx, fd, prog, self.regs, self.start, self.buf)
    }
}

/// Preallocated SoA in-flight table for batched submission: one slot per
/// hardware queue entry, reused across batches so the steady state never
/// allocates. Parallel columns rather than a `Vec<struct>` so the reap
/// loop scans only the columns it needs.
struct BatchScratch {
    /// Device command ids, in submission order.
    cids: Vec<u16>,
    /// Completion visibility time per submission slot.
    ready: Vec<Nanos>,
    /// Reap staging, drained from the device in one locked pass.
    comps: Vec<bypassd_ssd::queue::Completion>,
}

impl BatchScratch {
    fn with_capacity(depth: usize) -> BatchScratch {
        BatchScratch {
            cids: Vec::with_capacity(depth),
            ready: Vec::with_capacity(depth),
            comps: Vec::with_capacity(depth),
        }
    }
}

/// A thread's handle: private queue + DMA buffer.
pub struct UserThread {
    proc: Arc<UserProcess>,
    qid: QueueId,
    dma: DmaBuffer,
    /// Hardware depth of the queue pair.
    queue_depth: usize,
    /// Adaptive submission window (AIMD on device pressure signals).
    /// Stays at `queue_depth` while the device never reports pressure —
    /// i.e. always, unless QoS is enabled.
    effective_depth: usize,
    /// Pressure-free completions since the last depth increase.
    clean_streak: u32,
    /// Total congestion signals observed on this queue.
    pressure_events: u64,
    /// Last entry resolved by this thread: repeated ops on the same fd
    /// skip the process-wide table lock and map lookup entirely.
    cached_fd: Option<(Fd, Arc<FileEntry>)>,
    /// Reusable staging buffer for non-blocking writes (the simulated
    /// device consumes the data synchronously at submission, so the
    /// buffer is free for reuse as soon as `submit` returns).
    async_staging: Option<DmaBuffer>,
    /// SoA in-flight table for batched flights.
    batch: BatchScratch,
}

impl std::fmt::Debug for UserThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserThread")
            .field("pid", &self.proc.pid)
            .field("queue", &self.qid)
            .finish()
    }
}

/// Outcome of one direct device round trip.
enum DirectIo {
    Done,
    Revoked,
    Fault,
}

/// [`UserThread::direct_io`] command builder: a read of `span` bytes
/// (whole sectors) at `vba` into the thread DMA buffer.
fn read_at(vba: Vba, span: u64) -> impl Fn(&DmaBuffer) -> Command<'_> {
    move |dma| Command::read(BlockAddr::Vba(vba), (span / SECTOR_SIZE) as u32, dma)
}

/// As [`read_at`], writing `span` bytes from the thread DMA buffer.
fn write_at(vba: Vba, span: u64) -> impl Fn(&DmaBuffer) -> Command<'_> {
    move |dma| Command::write(BlockAddr::Vba(vba), (span / SECTOR_SIZE) as u32, dma)
}

impl UserThread {
    /// The owning process.
    pub fn process(&self) -> &Arc<UserProcess> {
        &self.proc
    }

    fn kernel(&self) -> &Arc<bypassd_os::Kernel> {
        self.proc.system.kernel()
    }

    /// Resolves `fd` to its entry, consulting the thread-local cache
    /// first: the steady state (many ops on one fd) costs an fd compare
    /// and one atomic load instead of a process-wide `RwLock` + map
    /// lookup per op.
    fn entry_cached(&mut self, fd: Fd) -> SysResult<Arc<FileEntry>> {
        if let Some((cfd, entry)) = &self.cached_fd {
            // ordering: Relaxed — the flag only revalidates an Arc this thread holds;
            // close() publishes the removal via the conductor-handoff mutex.
            if *cfd == fd && !entry.closed.load(Ordering::Relaxed) {
                return Ok(Arc::clone(entry));
            }
        }
        let entry = self.proc.entry(fd)?;
        self.cached_fd = Some((fd, Arc::clone(&entry)));
        Ok(entry)
    }

    fn cost(&self) -> bypassd_os::CostModel {
        *self.kernel().cost()
    }

    /// Current adaptive submission window (== hardware depth unless the
    /// device has signalled congestion).
    pub fn effective_depth(&self) -> usize {
        self.effective_depth
    }

    /// Congestion signals observed on this thread's queue so far.
    pub fn pressure_events(&self) -> u64 {
        self.pressure_events
    }

    /// AIMD reaction to the device's congestion bit: halve the window on
    /// pressure, creep back one slot per `recover_after` clean
    /// completions. A no-op while the window is full and pressure never
    /// arrives (QoS disabled), keeping the default path untouched.
    fn note_pressure(&mut self, pressure: bool) {
        if pressure {
            let policy = self.proc.io_policy();
            self.pressure_events += 1;
            self.effective_depth = (self.effective_depth / 2).max(policy.min_depth);
            self.clean_streak = 0;
        } else if self.effective_depth < self.queue_depth {
            self.clean_streak += 1;
            if self.clean_streak >= self.proc.io_policy().recover_after {
                self.effective_depth += 1;
                self.clean_streak = 0;
            }
        }
    }

    // ---- open/close ----

    /// Opens (optionally creating) a file for BypassD access: forwards
    /// the open to the kernel with BypassD intent and issues `fmap()`
    /// (Table 3). A denied fmap silently falls back to the kernel
    /// interface.
    ///
    /// # Errors
    /// Kernel open errors (`NoEnt`, `Perm`, …).
    pub fn open_with(
        &mut self,
        ctx: &mut ActorCtx,
        path: &str,
        writable: bool,
        create: bool,
    ) -> SysResult<Fd> {
        let mut flags = if writable {
            OpenFlags::rdwr_direct()
        } else {
            OpenFlags::rdonly_direct()
        }
        .bypassd();
        if create {
            flags = flags.creat();
        }
        let kernel = Arc::clone(self.kernel());
        let fd = kernel.sys_open(ctx, self.proc.pid, path, flags, 0o644)?;
        let vba = kernel.sys_fmap(ctx, self.proc.pid, fd, writable)?;
        let size = kernel.sys_fstat(ctx, self.proc.pid, fd)?.size;
        let fallback = vba.is_null();
        if fallback {
            kernel.mark_kernel_fallback(self.proc.pid, fd)?;
        }
        let replaced = self.proc.files.write().insert(
            fd,
            FileEntry::new(FileState {
                vba: (!fallback).then_some(vba),
                size,
                offset: 0,
                writable,
                fallback,
                prealloc_end: size,
                append_chunk: 0,
                size_dirty: false,
            }),
        );
        if let Some(old) = replaced {
            // ordering: Relaxed — invalidates cached handles; the map write above is
            // published by the engine's conductor handoff, not by this flag.
            old.closed.store(true, Ordering::Relaxed);
        }
        Ok(fd)
    }

    /// Opens an existing file (`writable` selects O_RDONLY/O_RDWR).
    ///
    /// # Errors
    /// As [`UserThread::open_with`].
    pub fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Fd> {
        self.open_with(ctx, path, writable, false)
    }

    /// Closes a file: flushes a dirty local size, then forwards to the
    /// kernel (which detaches file table entries — Table 3).
    ///
    /// # Errors
    /// `BadF`.
    pub fn close(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        self.flush_writes(ctx, fd)?;
        let entry = self.proc.files.write().remove(&fd).ok_or(Errno::BadF)?;
        // ordering: Relaxed — invalidates cached handles; the map removal above is
        // published by the engine's conductor handoff, not by this flag.
        entry.closed.store(true, Ordering::Relaxed);
        let size_dirty = {
            let st = entry.state.lock();
            st.size_dirty.then_some(st.size)
        };
        let kernel = Arc::clone(self.kernel());
        if let Some(size) = size_dirty {
            kernel.sys_set_size(ctx, self.proc.pid, fd, size)?;
        }
        kernel.sys_close(ctx, self.proc.pid, fd)
    }

    /// Current size as tracked by UserLib.
    ///
    /// # Errors
    /// `BadF`.
    pub fn size(&self, fd: Fd) -> SysResult<u64> {
        Ok(self.proc.entry(fd)?.state.lock().size)
    }

    /// Repositions the file offset.
    ///
    /// # Errors
    /// `BadF`.
    pub fn lseek(&mut self, fd: Fd, pos: u64) -> SysResult<u64> {
        self.proc.entry(fd)?.state.lock().offset = pos;
        Ok(pos)
    }

    // ---- data path ----

    /// One direct device round trip. `cmd` builds the command against
    /// the thread DMA buffer (a builder, not a `Command`, because the
    /// command borrows that buffer while the round trip updates the
    /// thread); a transient media error re-issues it in place.
    fn direct_io(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        cmd: impl Fn(&DmaBuffer) -> Command<'_>,
        scratch: &mut OpScratch,
    ) -> SysResult<DirectIo> {
        ctx.delay(self.cost().userlib_overhead);
        scratch.userlib += self.cost().userlib_overhead;
        let policy = self.proc.io_policy();
        let mut media_retries = 0u32;
        loop {
            let submit = ctx.now();
            let comp = self
                .proc
                .system
                .device()
                .execute_full(self.qid, cmd(&self.dma), submit);
            self.note_pressure(comp.pressure);
            ctx.wait_until(comp.ready_at);
            scratch.device_span += comp.ready_at.saturating_sub(submit);
            match comp.status {
                NvmeStatus::Success => return Ok(DirectIo::Done),
                NvmeStatus::TranslationFault(_) => {
                    return self.refmap_after_fault(ctx, fd, entry, scratch)
                }
                NvmeStatus::MediaError => {
                    // Transient media errors are retried in place (the
                    // kernel never sees them on the direct path); after
                    // `max_attempts` the op fails with EIO.
                    media_retries += 1;
                    if media_retries >= policy.max_attempts {
                        return Err(Errno::Io);
                    }
                    if policy.retry_backoff > Nanos::ZERO {
                        ctx.delay(policy.retry_backoff);
                    }
                }
                // Program `Fail`, engine trap, or invalid submission.
                _ => return Err(Errno::Inval),
            }
        }
    }

    /// Runs one direct op's device round trips (`attempt`, against the
    /// file's VBA) until they all complete. After a translation fault the
    /// file has been re-fmapped, so the next attempt picks up the fresh
    /// VBA: a sibling thread's close() unmaps the whole per-process
    /// mapping, and retrying the stale one would fault forever. Returns
    /// false once the op belongs on the kernel path: revoked, faulted
    /// `max_attempts` times (e.g. a hole), or left unmapped.
    fn retry_direct(
        &mut self,
        ctx: &mut ActorCtx,
        entry: &FileEntry,
        mut vba: Vba,
        mut attempt: impl FnMut(&mut Self, &mut ActorCtx, Vba) -> SysResult<DirectIo>,
    ) -> SysResult<bool> {
        let policy = self.proc.io_policy();
        let mut attempts = 0;
        loop {
            match attempt(self, ctx, vba)? {
                DirectIo::Done => return Ok(true),
                DirectIo::Revoked => return Ok(false),
                DirectIo::Fault => {}
            }
            attempts += 1;
            if attempts >= policy.max_attempts {
                return Ok(false);
            }
            match entry.state.lock().vba {
                Some(v) => vba = v,
                None => return Ok(false),
            }
            if policy.retry_backoff > Nanos::ZERO {
                ctx.delay(policy.retry_backoff);
            }
        }
    }

    /// Handles a device translation fault on a direct op: re-fmaps the
    /// file (§3.6) and either refreshes the entry's VBA (`Fault` — the
    /// caller retries) or switches the fd to the kernel interface
    /// (`Revoked`).
    fn refmap_after_fault(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        scratch: &mut OpScratch,
    ) -> SysResult<DirectIo> {
        scratch.faults += 1;
        // Revocation or growth race: re-fmap (§3.6).
        let kernel = Arc::clone(self.kernel());
        let writable = entry.state.lock().writable;
        let fmap_start = ctx.now();
        let vba = kernel.sys_fmap(ctx, self.proc.pid, fd, writable)?;
        scratch.kernel += ctx.now().saturating_sub(fmap_start);
        let revoked = {
            let mut st = entry.state.lock();
            if vba.is_null() {
                st.fallback = true;
                st.vba = None;
                true
            } else {
                st.vba = Some(vba);
                false
            }
        };
        if revoked {
            kernel.mark_kernel_fallback(self.proc.pid, fd)?;
            scratch.path = IoPath::Revoked;
            Ok(DirectIo::Revoked)
        } else {
            Ok(DirectIo::Fault)
        }
    }

    /// Emits the attributed [`OpRecord`] for one finished top-level op.
    /// Purely passive: never advances the clock, costs one relaxed
    /// atomic load when tracing is off.
    fn record_op(
        &self,
        ctx: &ActorCtx,
        write: bool,
        result: &SysResult<usize>,
        start: Nanos,
        scratch: &OpScratch,
    ) {
        let end = ctx.now();
        self.proc.recorder.record_op(|| OpRecord {
            pid: self.proc.pid,
            path: scratch.path,
            write,
            bytes: result.as_ref().map_or(0, |n| *n as u64),
            start,
            end,
            userlib: scratch.userlib,
            device_span: scratch.device_span,
            user_copy: scratch.user_copy,
            kernel: scratch.kernel,
            faults: scratch.faults,
        });
    }

    /// Kernel-path pread, timed into the scratch's kernel stage.
    fn kernel_pread(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
        scratch.fall_back();
        let kernel = Arc::clone(self.kernel());
        let start = ctx.now();
        let result = kernel.sys_pread(ctx, self.proc.pid, fd, buf, offset);
        scratch.kernel += ctx.now().saturating_sub(start);
        result
    }

    /// Kernel-path pwrite, timed into the scratch's kernel stage.
    fn kernel_pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
        scratch.fall_back();
        let kernel = Arc::clone(self.kernel());
        let start = ctx.now();
        let result = kernel.sys_pwrite(ctx, self.proc.pid, fd, data, offset);
        scratch.kernel += ctx.now().saturating_sub(start);
        result
    }

    /// `pread()`: issued directly from userspace (§4.2); falls back to
    /// the kernel after revocation.
    ///
    /// # Errors
    /// `BadF`, kernel-path errors after fallback.
    pub fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self.pread_inner(ctx, fd, buf, offset, &mut scratch);
        self.record_op(ctx, false, &result, op_start, &scratch);
        result
    }

    fn pread_inner(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let mut st = *entry.state.lock();
        if st.fallback {
            return self.kernel_pread(ctx, fd, buf, offset, scratch);
        }
        if offset >= st.size {
            // Another process may have grown the file (its new FTEs are
            // already visible through the shared fragments, §4.1) — the
            // size, however, is kernel metadata: refresh it.
            let kernel = Arc::clone(self.kernel());
            let stat_start = ctx.now();
            let stat = kernel.sys_fstat(ctx, self.proc.pid, fd);
            scratch.kernel += ctx.now().saturating_sub(stat_start);
            let size = stat?.size;
            {
                let mut s = entry.state.lock();
                s.size = s.size.max(size);
                st = *s;
            }
            if offset >= st.size {
                return Ok(0);
            }
        }
        let len = (buf.len() as u64).min(st.size - offset);
        let Some(vba) = st.vba else {
            return Err(Errno::Inval);
        };
        let start = offset - offset % SECTOR_SIZE;
        let end = (offset + len).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        let direct = self.retry_direct(ctx, &entry, vba, |t, ctx, vba| {
            // Chunk by the DMA buffer size.
            let mut pos = start;
            while pos < end {
                let span = (end - pos).min(t.dma.len() as u64);
                match t.direct_io(ctx, fd, &entry, read_at(vba.offset(pos), span), scratch)? {
                    DirectIo::Done => {}
                    io => return Ok(io),
                }
                let copy = t.cost().user_copy(span.min(len));
                ctx.delay(copy);
                scratch.user_copy += copy;
                let lo = offset.max(pos);
                let hi = (offset + len).min(pos + span);
                t.dma.read(
                    (lo - pos) as usize,
                    &mut buf[(lo - offset) as usize..(hi - offset) as usize],
                );
                pos += span;
            }
            Ok(DirectIo::Done)
        })?;
        if !direct {
            return self.kernel_pread(ctx, fd, buf, offset, scratch);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
        // Read-after-write consistency for non-blocking writes: overlay
        // any unconfirmed data (§5.1). One relaxed load skips both
        // overlay locks in the common no-async case.
        // ordering: Relaxed — mirror of the pending length, written under the
        // pending lock; racing pushes resolve via the actor schedule.
        if entry.pending_count.load(Ordering::Relaxed) > 0 {
            Self::prune_pending(&entry, ctx.now());
            Self::overlay_pending(&entry, &mut buf[..len as usize], offset);
        }
        Ok(len as usize)
    }

    /// Batched `pread` (§4.2 batching): submits up to a full submission
    /// window of reads with one userlib/doorbell charge per flight
    /// (doorbell coalescing), waits once for the latest completion, and
    /// drains the completion queue in a single locked pass instead of
    /// one device round trip per op.
    ///
    /// The fast path requires every request to be sector-aligned (offset
    /// and length), non-empty, within the file, and no larger than the
    /// per-slot DMA budget (`dma.len() / queue_depth`); otherwise — or on
    /// a kernel-fallback fd — the whole batch is served by sequential
    /// [`UserThread::pread`] calls with identical semantics. Individual
    /// translation faults inside a flight are retried sequentially.
    ///
    /// Returns the total bytes read.
    ///
    /// # Errors
    /// `BadF`, kernel-path errors after fallback.
    pub fn pread_batch(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        reqs: &mut [ReadReq<'_>],
    ) -> SysResult<usize> {
        self.batch_flights(ctx, fd, (), reqs)
    }

    /// The one batch dispatcher: qualifies every request for the fast
    /// path (else serves the whole batch sequentially), then windows the
    /// batch into flights of at most the effective queue depth.
    fn batch_flights<R: FlightReq>(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        batch: R::Batch,
        reqs: &mut [R],
    ) -> SysResult<usize> {
        if reqs.is_empty() {
            return Ok(0);
        }
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        let slot = self.dma.len() / self.queue_depth;
        let direct = st
            .vba
            .filter(|_| !st.fallback && reqs.iter().all(|r| r.qualifies(slot, st.size)));
        let mut total = 0usize;
        let Some(vba) = direct else {
            for r in reqs.iter_mut() {
                total += r.sequential(self, ctx, fd, batch)?;
            }
            return Ok(total);
        };
        let window = self.effective_depth.clamp(1, self.queue_depth);
        for chunk in reqs.chunks_mut(window) {
            total += self.flight(ctx, fd, &entry, batch, vba, slot, chunk)?;
        }
        Ok(total)
    }

    /// One batched flight of up to `effective_depth` direct requests:
    /// submit all, ring once, wait once, reap once. Faulted slots demote
    /// to the sequential path; lost completions are aborted and
    /// re-issued there.
    #[allow(clippy::too_many_arguments)]
    fn flight<R: FlightReq>(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        batch: R::Batch,
        vba: Vba,
        slot: usize,
        chunk: &mut [R],
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        // One userlib + doorbell charge for the whole flight.
        ctx.delay(self.cost().userlib_overhead);
        let submit_now = ctx.now();
        self.batch.cids.clear();
        self.batch.ready.clear();
        let submitted = {
            let dma = &self.dma;
            let dev = self.proc.system.device();
            let cmds = chunk.iter().enumerate().map(|(i, r)| {
                let mut cmd = r.command(batch, vba, dma);
                cmd.dma_offset = i * slot;
                cmd
            });
            dev.submit_batch(self.qid, cmds, submit_now, &mut self.batch.cids)
        };
        // Wait once for the latest ready time. A missing ready time means
        // the CQ entry was swallowed (injected completion loss): nothing
        // to wait for — the request is re-issued after the reap.
        let mut latest = submit_now;
        for k in 0..self.batch.cids.len() {
            let cid = self.batch.cids[k];
            let dev = self.proc.system.device();
            let t = dev.ready_time(self.qid, cid).unwrap_or(submit_now);
            self.batch.ready.push(t);
            latest = latest.max(t);
        }
        ctx.wait_until(latest);
        if submitted.is_err() {
            // The private queue was unexpectedly full: drain whatever was
            // accepted, then serve the flight sequentially.
            for k in 0..self.batch.cids.len() {
                let cid = self.batch.cids[k];
                if let Some(c) = self.proc.system.device().reap_at(self.qid, cid, ctx.now()) {
                    self.note_pressure(c.pressure);
                }
            }
            let mut total = 0;
            for r in chunk.iter_mut() {
                total += r.sequential(self, ctx, fd, batch)?;
            }
            return Ok(total);
        }
        // Completion batching: drain the CQ in one locked pass into
        // reused scratch.
        self.batch.comps.clear();
        self.proc.system.device().reap_ready_into(
            self.qid,
            ctx.now(),
            chunk.len(),
            &mut self.batch.comps,
        );
        // Copy out, charging one coalesced user-copy delay for the flight.
        let mut copy_total = Nanos::ZERO;
        let mut ok_bytes = 0usize;
        let mut ok_ops = 0u64;
        let mut retry_bytes = 0usize;
        for k in 0..self.batch.comps.len() {
            let comp = self.batch.comps[k];
            self.note_pressure(comp.pressure);
            let i = self
                .batch
                .cids
                .iter()
                .position(|&c| c == comp.cid)
                .expect("reaped a cid this flight never submitted");
            if comp.status.is_ok() {
                let dest = chunk[i].dest();
                let copy = self.cost().user_copy(dest.len() as u64);
                copy_total += copy;
                self.dma.read(i * slot, dest);
                ok_bytes += dest.len();
                ok_ops += 1;
                self.record_flight_op(
                    ctx,
                    op_start,
                    k == 0,
                    submit_now,
                    self.batch.ready[i],
                    copy,
                    dest.len(),
                );
            } else {
                // Translation fault (revocation or growth race) or a
                // chain fault: the sequential path re-fmaps and retries,
                // or surfaces the program's failure.
                retry_bytes += chunk[i].sequential(self, ctx, fd, batch)?;
            }
        }
        if self.batch.comps.len() < chunk.len() {
            // Lost CQ entries (injected completion drop): abort the
            // lost commands to free their queue slots, then re-issue each
            // on the sequential path, as a host timeout would.
            self.proc.system.device().abort(self.qid, &self.batch.cids);
            for (i, req) in chunk.iter_mut().enumerate() {
                let cid = self.batch.cids[i];
                if self.batch.comps.iter().any(|c| c.cid == cid) {
                    continue;
                }
                retry_bytes += req.sequential(self, ctx, fd, batch)?;
            }
        }
        if copy_total > Nanos::ZERO {
            ctx.delay(copy_total);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(ok_ops, Ordering::Relaxed);
        R::after_flight(entry, ctx.now(), chunk);
        Ok(ok_bytes + retry_bytes)
    }

    /// Emits the per-op record for one successful op inside a batched
    /// flight. The flight's single userlib charge is attributed to its
    /// first record so stage totals still sum to virtual time consumed.
    #[allow(clippy::too_many_arguments)]
    fn record_flight_op(
        &self,
        ctx: &ActorCtx,
        start: Nanos,
        first: bool,
        submit_now: Nanos,
        ready: Nanos,
        copy: Nanos,
        bytes: usize,
    ) {
        let end = ctx.now();
        let userlib = if first {
            self.cost().userlib_overhead
        } else {
            Nanos::ZERO
        };
        self.proc.recorder.record_op(|| OpRecord {
            pid: self.proc.pid,
            path: IoPath::Direct,
            write: false,
            bytes: bytes as u64,
            start,
            end,
            userlib,
            device_span: ready.saturating_sub(submit_now),
            user_copy: copy,
            kernel: Nanos::ZERO,
            faults: 0,
        });
    }

    // ---- offload chains ----

    /// Chain read (offload, §offload): submits **one** command carrying a
    /// verified program handle; the device follows `Resubmit` offsets
    /// itself and completes once with the chain's final 512 B block. A
    /// 6-level B-tree descent is one UserLib submission, one doorbell,
    /// one completion — versus `levels + 1` full round trips on the
    /// plain direct path.
    ///
    /// On a kernel-fallback fd (or after revocation mid-chain) the chain
    /// is interpreted host-side: one kernel `pread` per hop running the
    /// same program, preserving results exactly at kernel-path cost.
    ///
    /// Returns the final block's length ([`bypassd_offload::BLOCK`]).
    ///
    /// # Errors
    /// `BadF`; `Inval` for an unaligned/out-of-file start, an unknown
    /// program handle, a program `Fail`, or an engine trap.
    pub fn pread_chain(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self.pread_chain_inner(ctx, fd, prog, regs, start, buf, &mut scratch);
        self.record_op(ctx, false, &result, op_start, &scratch);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn pread_chain_inner(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        const BLOCK: usize = bypassd_offload::BLOCK;
        if !start.is_multiple_of(SECTOR_SIZE) || buf.len() < BLOCK {
            return Err(Errno::Inval);
        }
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if start + BLOCK as u64 > st.size {
            return Err(Errno::Inval);
        }
        let mut req = ChainReq { start, regs, buf };
        let direct = match st.vba {
            Some(vba) if !st.fallback => self.retry_direct(ctx, &entry, vba, |t, ctx, vba| {
                let io =
                    t.direct_io(ctx, fd, &entry, |dma| req.command(prog, vba, dma), scratch)?;
                if let DirectIo::Done = io {
                    let copy = t.cost().user_copy(BLOCK as u64);
                    ctx.delay(copy);
                    scratch.user_copy += copy;
                    t.dma.read(0, req.dest());
                }
                Ok(io)
            })?,
            _ => false,
        };
        if !direct {
            return self.chain_host_fallback(ctx, fd, prog, regs, start, req.buf, scratch);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
        Ok(BLOCK)
    }

    /// Host-side interpretation of a chain after fallback/revocation:
    /// one kernel `pread` per hop, the same verified program deciding
    /// each next offset locally. Semantically identical to the device
    /// engine (same IR, same registers), just paid at kernel-path cost.
    #[allow(clippy::too_many_arguments)]
    fn chain_host_fallback(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        const BLOCK: usize = bypassd_offload::BLOCK;
        let program = self.kernel().prog_of(prog).ok_or(Errno::Inval)?;
        let mut st = bypassd_offload::ChainState::new(regs);
        let mut cur = start;
        for _ in 0..bypassd_offload::MAX_HOPS {
            let n = self.kernel_pread(ctx, fd, &mut buf[..BLOCK], cur, scratch)?;
            if n < BLOCK {
                return Err(Errno::Inval);
            }
            let run = bypassd_offload::run_hop(&program, &mut st, &buf[..BLOCK]);
            let interp = Nanos(run.steps * bypassd_offload::STEP_NS);
            ctx.delay(interp);
            scratch.userlib += interp;
            match run.outcome {
                bypassd_offload::Outcome::Resubmit { offset } => cur = offset,
                bypassd_offload::Outcome::Return => return Ok(BLOCK),
                bypassd_offload::Outcome::Fail { .. } => return Err(Errno::Inval),
            }
        }
        Err(Errno::Inval)
    }

    /// Batched chain submission: up to a submission window of
    /// *independent chains* in flight concurrently on one queue — one
    /// userlib/doorbell charge per flight, one wait, one reap. This is
    /// what makes offload a throughput feature as well as a latency one:
    /// the host is free from the moment the doorbell rings, so a single
    /// thread keeps many chains in flight while the device walks them.
    ///
    /// Falls back to sequential [`UserThread::pread_chain`] per request
    /// when any request is unaligned/oversized or the fd is on the
    /// kernel interface; individual failed chains inside a flight are
    /// retried sequentially with identical semantics.
    ///
    /// Returns the total bytes returned by all chains.
    ///
    /// # Errors
    /// `BadF`, `Inval` (as [`UserThread::pread_chain`]).
    pub fn pread_chain_batch(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        reqs: &mut [ChainReq<'_>],
    ) -> SysResult<usize> {
        self.batch_flights(ctx, fd, prog, reqs)
    }

    /// `pwrite()`: overwrites go directly to the device; appends are
    /// routed through the kernel (Table 3) unless optimized append is
    /// enabled (§5.1); sub-sector writes are serialised read-modify-write
    /// (§4.5.1).
    ///
    /// # Errors
    /// `BadF`, `Perm`, kernel-path errors.
    pub fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self.pwrite_inner(ctx, fd, data, offset, &mut scratch);
        self.record_op(ctx, true, &result, op_start, &scratch);
        result
    }

    fn pwrite_inner(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if !st.writable {
            return Err(Errno::Perm);
        }
        if st.fallback {
            return self.kernel_pwrite(ctx, fd, data, offset, scratch);
        }
        let len = data.len() as u64;
        let end = offset + len;
        if end > st.size {
            return self.append_path(ctx, fd, &entry, data, offset, st, scratch);
        }
        if !offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE) {
            return self.partial_write(ctx, fd, &entry, data, offset, scratch);
        }
        self.overwrite(ctx, fd, &entry, data, offset, scratch)
    }

    /// Aligned overwrite of existing blocks.
    fn overwrite(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let Some(vba) = entry.state.lock().vba else {
            return Err(Errno::Inval);
        };
        let direct = self.retry_direct(ctx, entry, vba, |t, ctx, vba| {
            let mut pos = 0u64;
            while pos < data.len() as u64 {
                let span = (data.len() as u64 - pos).min(t.dma.len() as u64);
                let copy = t.cost().user_copy(span);
                ctx.delay(copy);
                scratch.user_copy += copy;
                t.dma.write(0, &data[pos as usize..(pos + span) as usize]);
                let at = vba.offset(offset + pos);
                match t.direct_io(ctx, fd, entry, write_at(at, span), scratch)? {
                    DirectIo::Done => pos += span,
                    io => return Ok(io),
                }
            }
            Ok(DirectIo::Done)
        })?;
        if !direct {
            return self.kernel_pwrite(ctx, fd, data, offset, scratch);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
        Ok(data.len())
    }

    /// Append handling: kernel route, or direct overwrite of
    /// preallocated blocks when optimized append is on.
    #[allow(clippy::too_many_arguments)]
    fn append_path(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        data: &[u8],
        offset: u64,
        st: FileState,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let kernel = Arc::clone(self.kernel());
        let len = data.len() as u64;
        let end = offset + len;
        let aligned_tail = offset == st.size
            && offset.is_multiple_of(SECTOR_SIZE)
            && len.is_multiple_of(SECTOR_SIZE);
        if st.append_chunk > 0 && aligned_tail {
            // Optimized append: preallocate (KEEP_SIZE) then overwrite
            // directly; size flushed at fsync/close (§5.1).
            if end > st.prealloc_end {
                let grow = (end - st.prealloc_end).max(st.append_chunk);
                let t0 = ctx.now();
                let r = kernel.sys_fallocate_keep(ctx, self.proc.pid, fd, st.prealloc_end, grow);
                scratch.kernel += ctx.now().saturating_sub(t0);
                r?;
                entry.state.lock().prealloc_end = st.prealloc_end + grow;
            }
            let vba = st.vba.ok_or(Errno::Inval)?;
            let copy = self.cost().user_copy(len);
            ctx.delay(copy);
            scratch.user_copy += copy;
            self.dma.write(0, data);
            match self.direct_io(ctx, fd, entry, write_at(vba.offset(offset), len), scratch)? {
                DirectIo::Done => {
                    {
                        let mut s = entry.state.lock();
                        s.size = s.size.max(end);
                        s.size_dirty = true;
                    }
                    // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
                    self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
                    return Ok(data.len());
                }
                DirectIo::Revoked | DirectIo::Fault => {
                    // Fall through to the kernel append below.
                }
            }
        }
        scratch.fall_back();
        let kernel_start = ctx.now();
        let n = if offset == st.size {
            // Tail append: the kernel path handles any alignment.
            let r = kernel.sys_append(ctx, self.proc.pid, fd, data);
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?
        } else if offset > st.size {
            // Write past a gap: materialise the hole with fallocate
            // (zeroed blocks + size extension), then retry as an
            // in-place write (aligned or serialised RMW).
            let r = kernel.sys_fallocate(ctx, self.proc.pid, fd, st.size, end - st.size);
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?;
            {
                let mut s = entry.state.lock();
                s.size = s.size.max(end);
                s.prealloc_end = s.prealloc_end.max(s.size);
            }
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
            return self.pwrite_inner(ctx, fd, data, offset, scratch);
        } else if aligned_tail
            || offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE)
        {
            let r = kernel.sys_pwrite(ctx, self.proc.pid, fd, data, offset);
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?
        } else {
            // Unaligned write straddling EOF: split into the in-place
            // head (RMW path) and an appended tail (kernel path).
            let head = (st.size - offset) as usize;
            self.pwrite_inner(ctx, fd, &data[..head], offset, scratch)?;
            let kernel = Arc::clone(self.kernel());
            let t0 = ctx.now();
            let r = kernel.sys_append(ctx, self.proc.pid, fd, &data[head..]);
            scratch.kernel += ctx.now().saturating_sub(t0);
            head + r?
        };
        {
            let mut s = entry.state.lock();
            s.size = s.size.max(end);
            s.prealloc_end = s.prealloc_end.max(s.size);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Serialised read-modify-write for sub-sector writes (§4.5.1).
    fn partial_write(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let len = data.len() as u64;
        let start = offset - offset % SECTOR_SIZE;
        let end = (offset + len).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        // Wait until no in-flight partial write overlaps our sectors.
        loop {
            let mut partials = entry.partials.lock();
            let conflict = partials.iter().any(|(s, e)| *s < end && start < *e);
            if !conflict {
                partials.push((start, end));
                break;
            }
            drop(partials);
            ctx.delay(Nanos(200));
        }
        let result = self.partial_write_inner(ctx, fd, entry, data, offset, scratch);
        // Always deregister.
        entry.partials.lock().retain(|r| *r != (start, end));
        result
    }

    fn partial_write_inner(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let Some(vba) = entry.state.lock().vba else {
            return Err(Errno::Inval);
        };
        let start = offset - offset % SECTOR_SIZE;
        let span = (offset + data.len() as u64).div_ceil(SECTOR_SIZE) * SECTOR_SIZE - start;
        // Read old sectors.
        match self.direct_io(ctx, fd, entry, read_at(vba.offset(start), span), scratch)? {
            DirectIo::Done => {}
            _ => {
                return self.kernel_pwrite(ctx, fd, data, offset, scratch);
            }
        }
        // Modify.
        let copy = self.cost().user_copy(data.len() as u64);
        ctx.delay(copy);
        scratch.user_copy += copy;
        self.dma.write((offset - start) as usize, data);
        // Write back.
        match self.direct_io(ctx, fd, entry, write_at(vba.offset(start), span), scratch)? {
            DirectIo::Done => {
                // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
                self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
                Ok(data.len())
            }
            _ => self.kernel_pwrite(ctx, fd, data, offset, scratch),
        }
    }

    // ---- non-blocking writes (§5.1 enhancement) ----

    /// Submits an aligned overwrite without waiting for the device
    /// (§5.1): the call returns after copying into the DMA buffer and
    /// ringing the doorbell. Reads see the new data immediately (the
    /// pending-write overlay); durability comes at [`UserThread::fsync`]
    /// or [`UserThread::flush_writes`].
    ///
    /// Falls back to the synchronous path for unaligned writes, appends,
    /// or revoked files.
    ///
    /// # Errors
    /// `Perm` on read-only fds; kernel-path errors on fallback.
    pub fn pwrite_async(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self.pwrite_async_inner(ctx, fd, data, offset, &mut scratch);
        self.record_op(ctx, true, &result, op_start, &scratch);
        result
    }

    fn pwrite_async_inner(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if !st.writable {
            return Err(Errno::Perm);
        }
        let len = data.len() as u64;
        let aligned =
            offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE) && len > 0;
        let in_place = offset + len <= st.size;
        if st.fallback || !aligned || !in_place || st.vba.is_none() || len > 256 * 1024 {
            return self.pwrite_inner(ctx, fd, data, offset, scratch);
        }
        let vba = st.vba.unwrap();
        // Serialise against overlapping pending writes (same-file
        // write-write ordering, the CrossFS-style range rule).
        loop {
            let conflict = entry
                .pending
                .lock()
                .writes
                .iter()
                .any(|p| p.offset < offset + len && offset < p.offset + p.data.len() as u64);
            if !conflict {
                break;
            }
            self.flush_writes(ctx, fd)?;
        }
        // Backpressure: once the device has signalled congestion, the
        // submission window shrinks below the hardware depth and we drain
        // before going deeper (never engages while QoS is disabled).
        while self.effective_depth < self.queue_depth
            && self.pending_write_count(fd) >= self.effective_depth
        {
            self.flush_writes(ctx, fd)?;
        }
        let copy = self.cost().user_copy(len);
        ctx.delay(self.cost().userlib_overhead + copy);
        scratch.userlib += self.cost().userlib_overhead;
        scratch.user_copy += copy;
        // Async writes stage through a reusable per-thread DMA buffer so
        // the main thread buffer stays free for subsequent operations.
        // The simulated device consumes the payload synchronously inside
        // `submit`, so the staging buffer is free again as soon as the
        // doorbell rings — no per-op allocation required.
        if self
            .async_staging
            .as_ref()
            .is_none_or(|d| d.len() < data.len())
        {
            self.async_staging = Some(DmaBuffer::alloc(self.proc.system.mem(), data.len()));
        }
        let cmd = write_at(vba.offset(offset), len);
        let submit = |t: &Self, now| {
            let dma = t
                .async_staging
                .as_ref()
                .expect("staging buffer just ensured");
            t.proc.system.device().submit(t.qid, cmd(dma), now)
        };
        self.async_staging
            .as_ref()
            .expect("staging buffer just ensured")
            .write(0, data);
        let cid = match submit(self, ctx.now()) {
            Ok(c) => c,
            Err(_) => {
                // Queue full: drain and retry once, then give up to sync.
                self.flush_writes(ctx, fd)?;
                match submit(self, ctx.now()) {
                    Ok(c) => c,
                    Err(_) => return self.pwrite_inner(ctx, fd, data, offset, scratch),
                }
            }
        };
        let dev = self.proc.system.device();
        let reaped = dev
            .ready_time(self.qid, cid)
            .and_then(|t| dev.reap_at(self.qid, cid, t));
        let Some(comp) = reaped else {
            // Lost CQ entry (injected completion drop): abort the command
            // to free its queue slot, then re-issue on the synchronous
            // path, as a host timeout would. The write is idempotent: it
            // targets the same blocks.
            dev.abort(self.qid, &[cid]);
            return self.pwrite_inner(ctx, fd, data, offset, scratch);
        };
        let ready = comp.ready_at;
        self.note_pressure(comp.pressure);
        scratch.device_span += ready.saturating_sub(ctx.now());
        if !comp.status.is_ok() {
            // Translation fault (revocation mid-flight): fall back.
            scratch.faults += 1;
            return self.pwrite_inner(ctx, fd, data, offset, scratch);
        }
        {
            let mut pending = entry.pending.lock();
            let mut payload = pending.spare.pop().unwrap_or_default();
            payload.clear();
            payload.extend_from_slice(data);
            pending.writes.push(PendingWrite {
                offset,
                data: payload,
                ready,
            });
            let n = pending.writes.len();
            // ordering: Relaxed — mirror of the pending length, written under the
            // pending lock; racing readers resolve via the actor schedule.
            entry.pending_count.store(n, Ordering::Relaxed);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
        Ok(data.len())
    }

    /// Waits for every non-blocking write on `fd` to reach the device.
    ///
    /// # Errors
    /// `BadF`.
    pub fn flush_writes(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        let entry = self.entry_cached(fd)?;
        let latest = {
            let pending = entry.pending.lock();
            (!pending.writes.is_empty()).then(|| {
                pending
                    .writes
                    .iter()
                    .map(|p| p.ready)
                    .fold(Nanos::ZERO, Nanos::max)
            })
        };
        if let Some(t) = latest {
            ctx.wait_until(t);
            Self::prune_pending(&entry, ctx.now());
        }
        Ok(())
    }

    /// Outstanding non-blocking writes on `fd`.
    pub fn pending_write_count(&self, fd: Fd) -> usize {
        self.proc
            .entry(fd)
            .map_or(0, |e| e.pending.lock().writes.len())
    }

    /// Drops completed entries from the pending-write overlay (called by
    /// reads so the overlay stays small), recycling their payload
    /// buffers. Pending writes never overlap (the submit path serialises
    /// conflicting ranges), so the swap-remove reordering is unobservable.
    fn prune_pending(entry: &FileEntry, now: Nanos) {
        let mut pending = entry.pending.lock();
        let mut i = 0;
        while i < pending.writes.len() {
            if pending.writes[i].ready <= now {
                let p = pending.writes.swap_remove(i);
                pending.recycle(p.data);
            } else {
                i += 1;
            }
        }
        let n = pending.writes.len();
        // ordering: Relaxed — mirror of the pending length, written under the
        // pending lock; racing readers resolve via the actor schedule.
        entry.pending_count.store(n, Ordering::Relaxed);
    }

    /// Overlays unconfirmed writes onto a freshly-read buffer
    /// (read-after-write consistency for the non-blocking interface).
    fn overlay_pending(entry: &FileEntry, buf: &mut [u8], offset: u64) {
        let pending = entry.pending.lock();
        let end = offset + buf.len() as u64;
        for p in &pending.writes {
            let p_end = p.offset + p.data.len() as u64;
            if p.offset < end && offset < p_end {
                let lo = offset.max(p.offset);
                let hi = end.min(p_end);
                buf[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&p.data[(lo - p.offset) as usize..(hi - p.offset) as usize]);
            }
        }
    }

    /// `read()` at the shared file offset.
    ///
    /// # Errors
    /// As [`UserThread::pread`].
    pub fn read(&mut self, ctx: &mut ActorCtx, fd: Fd, buf: &mut [u8]) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let off = entry.state.lock().offset;
        let n = self.pread(ctx, fd, buf, off)?;
        entry.state.lock().offset += n as u64;
        Ok(n)
    }

    /// `write()` at the shared file offset.
    ///
    /// # Errors
    /// As [`UserThread::pwrite`].
    pub fn write(&mut self, ctx: &mut ActorCtx, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let off = entry.state.lock().offset;
        let n = self.pwrite(ctx, fd, data, off)?;
        entry.state.lock().offset += n as u64;
        Ok(n)
    }

    /// `fsync()`: flushes the local size (optimized append), then
    /// forwards to the kernel, which flushes queues and metadata
    /// (Table 3).
    ///
    /// # Errors
    /// `BadF`.
    pub fn fsync(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        // Drain the non-blocking write pipeline before the device flush.
        self.flush_writes(ctx, fd)?;
        let entry = self.proc.entry(fd)?;
        let kernel = Arc::clone(self.kernel());
        let dirty_size = {
            let st = entry.state.lock();
            st.size_dirty.then_some(st.size)
        };
        if let Some(size) = dirty_size {
            kernel.sys_set_size(ctx, self.proc.pid, fd, size)?;
            entry.state.lock().size_dirty = false;
        }
        kernel.sys_fsync(ctx, self.proc.pid, fd)
    }

    /// `fallocate()` passthrough (updates the local size).
    ///
    /// # Errors
    /// As the kernel call.
    pub fn fallocate(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> SysResult<()> {
        let kernel = Arc::clone(self.kernel());
        kernel.sys_fallocate(ctx, self.proc.pid, fd, offset, len)?;
        if let Ok(entry) = self.proc.entry(fd) {
            let mut st = entry.state.lock();
            st.size = st.size.max(offset + len);
            st.prealloc_end = st.prealloc_end.max(st.size);
        }
        Ok(())
    }

    /// True if this fd has fallen back to the kernel interface.
    pub fn is_fallback(&self, fd: Fd) -> bool {
        self.proc.entry(fd).is_ok_and(|e| e.state.lock().fallback)
    }
}
