//! The simulated kernel: syscalls, the BypassD `fmap()` extension, and
//! the synchronous direct/buffered I/O paths.
//!
//! Every syscall takes the calling actor's [`ActorCtx`] and advances
//! virtual time according to [`CostModel`]; the data it moves is real
//! (device sectors, page cache blocks, caller buffers).

use std::sync::atomic::AtomicU32;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use bypassd_ext4::fmap::MapTarget;
use bypassd_ext4::layout::{Ino, BLOCK_SIZE};
use bypassd_ext4::{Ext4, Ext4Error};
use bypassd_hw::mem::PhysMem;
use bypassd_hw::page_table::AddressSpace;
use bypassd_hw::types::{Lba, Pasid, Vba, SECTOR_SIZE};
use bypassd_qos::{Tenant, TenantShare};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::{BlockAddr, Command, NvmeDevice};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::{NvmeStatus, QueueId};
use bypassd_trace::{IoPath, Metric, MetricSource, OpRecord, Recorder};

use crate::cost::CostModel;
use crate::pagecache::PageCache;
use crate::process::{Fd, OpenFile, Pid, Process};

/// POSIX-ish error numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// No such file or directory.
    NoEnt,
    /// File exists.
    Exist,
    /// Permission denied.
    Perm,
    /// Bad file descriptor.
    BadF,
    /// Invalid argument (e.g. unaligned O_DIRECT).
    Inval,
    /// No space left.
    NoSpc,
    /// Is a directory.
    IsDir,
    /// Not a directory.
    NotDir,
    /// Busy.
    Busy,
    /// Resource temporarily unavailable.
    Again,
    /// I/O error (unrecoverable media error after retries).
    Io,
}

impl From<Ext4Error> for Errno {
    fn from(e: Ext4Error) -> Errno {
        match e {
            Ext4Error::NotFound => Errno::NoEnt,
            Ext4Error::Exists => Errno::Exist,
            Ext4Error::Perm => Errno::Perm,
            Ext4Error::NoSpace => Errno::NoSpc,
            Ext4Error::IsDir => Errno::IsDir,
            Ext4Error::NotDir => Errno::NotDir,
            Ext4Error::InvalidPath => Errno::Inval,
            Ext4Error::Busy => Errno::Busy,
            Ext4Error::Corrupt => Errno::Io,
        }
    }
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for Errno {}

/// Result alias for syscalls.
pub type SysResult<T> = Result<T, Errno>;

/// `open()` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// O_DIRECT: bypass the page cache.
    pub direct: bool,
    /// O_CREAT.
    pub create: bool,
    /// O_TRUNC.
    pub truncate: bool,
    /// BypassD: this open intends to use the direct interface (the
    /// caller will `fmap()`), so it is *not* counted as a
    /// kernel-interface open for the sharing policy (§4.5.2).
    pub bypassd_intent: bool,
}

impl OpenFlags {
    /// Read-only, O_DIRECT (the paper's benchmark default).
    pub fn rdonly_direct() -> Self {
        OpenFlags {
            read: true,
            write: false,
            direct: true,
            create: false,
            truncate: false,
            bypassd_intent: false,
        }
    }

    /// Read-write, O_DIRECT.
    pub fn rdwr_direct() -> Self {
        OpenFlags {
            read: true,
            write: true,
            direct: true,
            create: false,
            truncate: false,
            bypassd_intent: false,
        }
    }

    /// Read-write, buffered.
    pub fn rdwr_buffered() -> Self {
        OpenFlags {
            read: true,
            write: true,
            direct: false,
            create: false,
            truncate: false,
            bypassd_intent: false,
        }
    }

    /// Adds O_CREAT.
    pub fn creat(mut self) -> Self {
        self.create = true;
        self
    }

    /// Marks BypassD intent.
    pub fn bypassd(mut self) -> Self {
        self.bypassd_intent = true;
        self
    }
}

struct KState {
    procs: std::collections::HashMap<Pid, Process>,
    next_pid: Pid,
}

/// The kernel.
pub struct Kernel {
    mem: PhysMem,
    dev: Arc<NvmeDevice>,
    fs: Arc<Ext4>,
    cost: CostModel,
    state: Mutex<KState>,
    cache: Mutex<PageCache>,
    kq: QueueId,
    /// Administrative QoS policy: per-uid shares applied to queue pairs
    /// at bind time. Uids absent here get the device's default share.
    qos_shares: Mutex<std::collections::HashMap<u32, TenantShare>>,
    pub(crate) uring_jobs: Arc<AtomicU32>,
    /// Loaded offload programs (verify-at-load, §offload): mirrors the
    /// device program table with ownership for unload checks.
    pub(crate) progs: Mutex<crate::offload::ProgTable>,
    /// Flight recorder, wired once by the system builder. Syscall-layer
    /// reads/writes stamp an [`OpRecord`] with `path = Kernel`.
    recorder: OnceLock<Arc<Recorder>>,
}

impl Kernel {
    /// Boots a kernel over a mounted file system. `cache_blocks` sizes
    /// the page cache.
    pub fn new(mem: &PhysMem, fs: Arc<Ext4>, cost: CostModel, cache_blocks: usize) -> Arc<Self> {
        let dev = Arc::clone(fs.device());
        let kq = dev.create_queue(None, 16 * 1024);
        Arc::new(Kernel {
            mem: mem.clone(),
            dev,
            fs,
            cost,
            state: Mutex::new(KState {
                procs: std::collections::HashMap::new(),
                next_pid: 1,
            }),
            cache: Mutex::new(PageCache::new(cache_blocks)),
            kq,
            qos_shares: Mutex::new(std::collections::HashMap::new()),
            uring_jobs: Arc::new(AtomicU32::new(0)),
            progs: Mutex::new(crate::offload::ProgTable::default()),
            recorder: OnceLock::new(),
        })
    }

    /// Attaches the flight recorder. Only the first call takes effect;
    /// the system builder wires this at boot.
    pub fn set_recorder(&self, recorder: Arc<Recorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Stamps one syscall-layer I/O into the flight recorder.
    fn record_syscall(
        &self,
        ctx: &ActorCtx,
        pid: Pid,
        write: bool,
        result: &SysResult<usize>,
        start: Nanos,
    ) {
        let Some(rec) = self.recorder.get() else {
            return;
        };
        let end = ctx.now();
        rec.record_op(|| OpRecord {
            pid,
            path: IoPath::Kernel,
            write,
            bytes: result.as_ref().map_or(0, |n| *n as u64),
            start,
            end,
            userlib: Nanos::ZERO,
            device_span: Nanos::ZERO,
            user_copy: Nanos::ZERO,
            kernel: end.saturating_sub(start),
            faults: 0,
        });
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The file system.
    pub fn fs(&self) -> &Arc<Ext4> {
        &self.fs
    }

    /// The device.
    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.dev
    }

    /// Physical memory.
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// Creates a process, registering its page table root under its
    /// PASID in the IOMMU (SVA, §2).
    pub fn spawn_process(&self, uid: u32, gid: u32) -> Pid {
        let mut state = self.state.lock();
        let pid = state.next_pid;
        state.next_pid += 1;
        let proc = Process::new(pid, uid, gid, AddressSpace::new(&self.mem));
        self.fs
            .iommu()
            .lock()
            .register(proc.pasid, proc.asid.lock().root_frame());
        state.procs.insert(pid, proc);
        pid
    }

    /// Creates a process inside a mount namespace rooted at `root`
    /// (container support, §5.2): every path it opens is resolved under
    /// that directory, so it can only ever name — and therefore fmap —
    /// files inside its namespace. BypassD needs no further changes: the
    /// kernel does access control, the hardware only enforces it.
    ///
    /// # Errors
    /// `NoEnt`/`NotDir` if `root` is not an existing directory.
    pub fn spawn_process_in(&self, uid: u32, gid: u32, root: &str) -> SysResult<Pid> {
        let ino = self.fs.lookup(root)?;
        let st = self.fs.stat(ino)?;
        if st.mode & bypassd_ext4::layout::mode::DIR == 0 {
            return Err(Errno::NotDir);
        }
        let pid = self.spawn_process(uid, gid);
        self.with_proc(pid, |p| {
            p.fs_root = root.trim_end_matches('/').to_string();
        });
        Ok(pid)
    }

    /// Resolves a path in the process's mount namespace.
    fn ns_path(&self, pid: Pid, path: &str) -> String {
        let root = self.with_proc(pid, |p| p.fs_root.clone());
        if root.is_empty() {
            path.to_string()
        } else {
            format!("{root}{path}")
        }
    }

    /// The PASID of a process.
    ///
    /// # Panics
    /// Panics on an unknown pid.
    pub fn pasid_of(&self, pid: Pid) -> Pasid {
        self.state.lock().procs[&pid].pasid
    }

    fn with_proc<T>(&self, pid: Pid, f: impl FnOnce(&mut Process) -> T) -> T {
        let mut state = self.state.lock();
        let p = state.procs.get_mut(&pid).expect("unknown pid");
        f(p)
    }

    fn fd_info(&self, pid: Pid, fd: Fd) -> SysResult<OpenFile> {
        self.with_proc(pid, |p| p.fd(fd).cloned())
            .ok_or(Errno::BadF)
    }

    // ---- open/close ----

    /// `open(2)`.
    ///
    /// # Errors
    /// `NoEnt`, `Exist` (O_CREAT collisions resolve to the existing
    /// file), `Perm`, `IsDir` for write opens of directories.
    pub fn sys_open(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        path: &str,
        flags: OpenFlags,
        mode: u16,
    ) -> SysResult<Fd> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op);
        let path = self.ns_path(pid, path);
        let path = path.as_str();
        let (uid, gid) = self.with_proc(pid, |p| (p.uid, p.gid));
        let ino = match self.fs.lookup(path) {
            Ok(i) => i,
            Err(Ext4Error::NotFound) if flags.create => self.fs.create(path, mode, uid, gid)?,
            Err(e) => {
                ctx.delay(self.cost.kernel_to_user);
                return Err(e.into());
            }
        };
        let st = self.fs.stat(ino)?;
        if st.mode & bypassd_ext4::layout::mode::DIR != 0 {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::IsDir);
        }
        if !self.fs.access(ino, uid, gid, flags.write)? {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        if flags.truncate && flags.write {
            self.fs.truncate(ino, 0)?;
        }
        let counted_kernel = !flags.bypassd_intent;
        if counted_kernel {
            // Kernel-interface open: revokes any direct mappings (§4.5.2).
            let _ = self.fs.note_kernel_open(ino)?;
        }
        let fd = self.with_proc(pid, |p| {
            p.install_fd(OpenFile {
                ino,
                read: flags.read,
                write: flags.write,
                direct: flags.direct,
                offset: 0,
                counted_kernel,
                mapped_vba: None,
                did_read: false,
                did_write: false,
            })
        });
        ctx.delay(self.cost.kernel_to_user);
        Ok(fd)
    }

    /// `close(2)`: updates timestamps (the §4.4 deferred policy), drops
    /// mappings and kernel-open counts.
    ///
    /// # Errors
    /// `BadF`.
    pub fn sys_close(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd) -> SysResult<()> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op / 2);
        let of = self
            .with_proc(pid, |p| p.remove_fd(fd))
            .ok_or(Errno::BadF)?;
        if of.did_read || of.did_write {
            let _ = self.fs.touch(of.ino, ctx.now(), of.did_read, of.did_write);
        }
        if of.mapped_vba.is_some() {
            let _ = self.fs.funmap(of.ino, pid);
        }
        if of.counted_kernel {
            let _ = self.fs.note_kernel_close(of.ino);
        }
        // Write back anything buffered.
        let dirty = self.cache.lock().invalidate(of.ino);
        if !dirty.is_empty() {
            self.writeback(ctx, of.ino, dirty)?;
        }
        ctx.delay(self.cost.kernel_to_user);
        Ok(())
    }

    // ---- the BypassD syscalls ----

    /// The `fmap()` system call (§3.2): maps the file's blocks into the
    /// process page table and returns the starting VBA, or [`Vba::NULL`]
    /// when direct access is denied.
    ///
    /// # Errors
    /// `BadF`, `Perm` when asking for a writable map of a read-only fd.
    pub fn sys_fmap(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        want_write: bool,
    ) -> SysResult<Vba> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op / 2);
        let of = self.fd_info(pid, fd)?;
        if want_write && !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let target = self.with_proc(pid, |p| MapTarget {
            pid,
            pasid: p.pasid,
            asid: Arc::clone(&p.asid),
        });
        let outcome = self.fs.fmap(of.ino, &target, want_write)?;
        ctx.delay(outcome.cost);
        if !outcome.vba.is_null() {
            self.with_proc(pid, |p| {
                if let Some(f) = p.fd_mut(fd) {
                    f.mapped_vba = Some(outcome.vba);
                }
            });
        }
        ctx.delay(self.cost.kernel_to_user);
        Ok(outcome.vba)
    }

    /// Driver ioctl: creates a user submission/completion queue pair
    /// bound to the process PASID and mapped into userspace (§3.3).
    pub fn sys_create_user_queue(&self, ctx: &mut ActorCtx, pid: Pid, depth: usize) -> QueueId {
        ctx.delay(self.cost.syscall() + Nanos(2_000));
        self.bind_user_queue(pid, depth)
    }

    /// Sets the QoS share applied to queue pairs bound by processes of
    /// `uid` from now on (administrative policy; cgroup-style). Takes
    /// effect at the next [`Kernel::bind_user_queue`].
    pub fn set_qos_policy(&self, uid: u32, share: TenantShare) {
        self.qos_shares.lock().insert(uid, share);
    }

    /// Binds a user queue pair for `pid`, registering the process's
    /// tenant share with the device arbiter first. Untimed: the
    /// syscall-shaped wrapper is [`Kernel::sys_create_user_queue`].
    pub fn bind_user_queue(&self, pid: Pid, depth: usize) -> QueueId {
        let (pasid, uid) = {
            let state = self.state.lock();
            let p = &state.procs[&pid];
            (p.pasid, p.uid)
        };
        let share = self
            .qos_shares
            .lock()
            .get(&uid)
            .copied()
            .unwrap_or_else(|| self.dev.qos_default_share());
        self.dev.register_tenant(Tenant::User(pasid), share);
        self.dev.create_queue(Some(pasid), depth)
    }

    /// Marks an fd as having fallen back to the kernel interface
    /// (UserLib received VBA 0 after revocation, §3.6): from now on it
    /// counts as a kernel-interface open.
    ///
    /// # Errors
    /// `BadF`.
    pub fn mark_kernel_fallback(&self, pid: Pid, fd: Fd) -> SysResult<()> {
        let of = self.fd_info(pid, fd)?;
        if !of.counted_kernel {
            let _ = self.fs.note_kernel_open(of.ino)?;
            self.with_proc(pid, |p| {
                if let Some(f) = p.fd_mut(fd) {
                    f.counted_kernel = true;
                    f.mapped_vba = None;
                }
            });
        }
        Ok(())
    }

    /// Administrative revocation of all direct mappings of `path`
    /// (drives the Fig. 12 experiment).
    ///
    /// # Errors
    /// `NoEnt`.
    pub fn revoke_path(&self, path: &str) -> SysResult<Vec<Pid>> {
        let ino = self.fs.lookup(path)?;
        Ok(self.fs.revoke_direct(ino))
    }

    // ---- data path helpers ----

    /// Issues device reads for resolved segments, filling `buf`
    /// (holes read as zeros). Waits for all completions.
    pub(crate) fn device_read(
        &self,
        ctx: &mut ActorCtx,
        segs: &[(Option<Lba>, u64)],
        buf: &mut [u8],
    ) -> SysResult<()> {
        let mut offset = 0usize;
        let mut pending: Vec<(Nanos, &mut [u8], DmaBuffer)> = Vec::new();
        let mut rest = buf;
        for (lba, len) in segs {
            let (chunk, r) = rest.split_at_mut(*len as usize);
            rest = r;
            match lba {
                Some(lba) => {
                    if *len % SECTOR_SIZE != 0 {
                        return Err(Errno::Inval);
                    }
                    let dma = DmaBuffer::alloc(&self.mem, *len as usize);
                    let (mut st, mut ready) = self.dev.execute(
                        self.kq,
                        Command::read(BlockAddr::Lba(*lba), (*len / SECTOR_SIZE) as u32, &dma),
                        ctx.now(),
                    );
                    if matches!(st, NvmeStatus::MediaError) {
                        // The kernel retries a transient media error once
                        // before failing the request with EIO.
                        ctx.wait_until(ready);
                        (st, ready) = self.dev.execute(
                            self.kq,
                            Command::read(BlockAddr::Lba(*lba), (*len / SECTOR_SIZE) as u32, &dma),
                            ctx.now(),
                        );
                    }
                    match st {
                        s if s.is_ok() => pending.push((ready, chunk, dma)),
                        NvmeStatus::MediaError => {
                            ctx.wait_until(ready);
                            return Err(Errno::Io);
                        }
                        _ => return Err(Errno::Inval),
                    }
                }
                None => chunk.fill(0),
            }
            offset += *len as usize;
        }
        let _ = offset;
        let latest = pending
            .iter()
            .map(|(t, _, _)| *t)
            .fold(ctx.now(), Nanos::max);
        ctx.wait_until(latest);
        for (_, chunk, dma) in pending {
            dma.read(0, chunk);
        }
        Ok(())
    }

    /// Issues device writes for resolved segments from `data`. Waits for
    /// all completions.
    pub(crate) fn device_write(
        &self,
        ctx: &mut ActorCtx,
        segs: &[(Option<Lba>, u64)],
        data: &[u8],
    ) -> SysResult<()> {
        let mut offset = 0usize;
        let mut latest = ctx.now();
        for (lba, len) in segs {
            let chunk = &data[offset..offset + *len as usize];
            offset += *len as usize;
            let lba = lba.ok_or(Errno::Inval)?;
            if *len % SECTOR_SIZE != 0 {
                return Err(Errno::Inval);
            }
            let dma = DmaBuffer::alloc(&self.mem, chunk.len());
            dma.write(0, chunk);
            let (mut st, mut ready) = self.dev.execute(
                self.kq,
                Command::write(BlockAddr::Lba(lba), (*len / SECTOR_SIZE) as u32, &dma),
                ctx.now(),
            );
            if matches!(st, NvmeStatus::MediaError) {
                // One kernel-side retry, then EIO (mirrors device_read).
                ctx.wait_until(ready);
                (st, ready) = self.dev.execute(
                    self.kq,
                    Command::write(BlockAddr::Lba(lba), (*len / SECTOR_SIZE) as u32, &dma),
                    ctx.now(),
                );
            }
            match st {
                s if s.is_ok() => {}
                NvmeStatus::MediaError => {
                    ctx.wait_until(ready);
                    return Err(Errno::Io);
                }
                _ => return Err(Errno::Inval),
            }
            latest = latest.max(ready);
        }
        ctx.wait_until(latest);
        Ok(())
    }

    fn writeback(&self, ctx: &mut ActorCtx, ino: Ino, dirty: Vec<(u64, Vec<u8>)>) -> SysResult<()> {
        for (block, data) in dirty {
            let (segs, extra) = self.fs.resolve(ino, block * BLOCK_SIZE, BLOCK_SIZE)?;
            ctx.delay(extra);
            if segs.iter().all(|(l, _)| l.is_some()) {
                self.device_write(ctx, &segs, &data)?;
            }
        }
        Ok(())
    }

    // ---- synchronous read/write ----

    /// `pread(2)` — the Table 1 path when O_DIRECT.
    ///
    /// # Errors
    /// `BadF`, `Perm` (fd not readable), `Inval` (unaligned O_DIRECT).
    pub fn sys_pread(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        let start = ctx.now();
        let result = self.pread_body(ctx, pid, fd, buf, offset);
        self.record_syscall(ctx, pid, false, &result, start);
        result
    }

    fn pread_body(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        ctx.delay(self.cost.user_to_kernel);
        let of = self.fd_info(pid, fd)?;
        if !of.read {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let size = self.fs.size_of(of.ino)?;
        if offset >= size {
            ctx.delay(self.cost.vfs(1) / 4 + self.cost.kernel_to_user);
            return Ok(0);
        }
        let len = (buf.len() as u64).min(size - offset);
        ctx.delay(self.cost.vfs(len));
        let (segs, extra) = self.fs.resolve(of.ino, offset, len)?;
        ctx.delay(extra);
        if of.direct {
            ctx.delay(self.cost.block_path());
            if offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE) {
                self.device_read(ctx, &segs, &mut buf[..len as usize])?;
            } else {
                // Unaligned direct I/O: bounce through an aligned span
                // (Linux degrades such requests similarly rather than
                // failing them on most file systems).
                let start = offset - offset % SECTOR_SIZE;
                let span_end = (offset + len).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
                let (asegs, extra2) = self.fs.resolve(of.ino, start, span_end - start)?;
                ctx.delay(extra2);
                let mut bounce = vec![0u8; (span_end - start) as usize];
                self.device_read(ctx, &asegs, &mut bounce)?;
                let off = (offset - start) as usize;
                buf[..len as usize].copy_from_slice(&bounce[off..off + len as usize]);
            }
        } else {
            self.buffered_read(ctx, of.ino, offset, &mut buf[..len as usize])?;
            ctx.delay(self.cost.kernel_copy(len));
        }
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.did_read = true;
            }
        });
        ctx.delay(self.cost.kernel_to_user);
        Ok(len as usize)
    }

    /// `pwrite(2)`: overwrites in place; writes past EOF allocate
    /// (appends go straight to the device, no buffering — Table 3).
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval`, `NoSpc`.
    pub fn sys_pwrite(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        let start = ctx.now();
        let result = self.pwrite_body(ctx, pid, fd, data, offset);
        self.record_syscall(ctx, pid, true, &result, start);
        result
    }

    fn pwrite_body(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        ctx.delay(self.cost.user_to_kernel);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let len = data.len() as u64;
        ctx.delay(self.cost.vfs(len));
        let size = self.fs.size_of(of.ino)?;
        let end = offset + len;
        if end > size || self.hole_in_range(of.ino, offset, len)? {
            // Append/extend: allocate + zero the new blocks. The size is
            // published only *after* the data write below completes
            // (ordered mode: data before metadata).
            let cost = self.fs.allocate_keep_size(of.ino, offset, len)?;
            ctx.delay(cost);
        }
        if of.direct || end > size {
            if offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE) {
                let (segs, extra) = self.fs.resolve(of.ino, offset, len)?;
                ctx.delay(extra + self.cost.block_path());
                self.device_write(ctx, &segs, data)?;
            } else {
                // Unaligned direct write: read-modify-write the covering
                // aligned span through a bounce buffer.
                let start = offset - offset % SECTOR_SIZE;
                let span_end = end.div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
                let (asegs, extra) = self.fs.resolve(of.ino, start, span_end - start)?;
                ctx.delay(extra + self.cost.block_path());
                let mut bounce = vec![0u8; (span_end - start) as usize];
                self.device_read(ctx, &asegs, &mut bounce)?;
                let off = (offset - start) as usize;
                bounce[off..off + data.len()].copy_from_slice(data);
                self.device_write(ctx, &asegs, &bounce)?;
            }
            if end > size {
                self.fs.set_size(of.ino, end)?;
            }
        } else {
            self.buffered_write(ctx, of.ino, offset, data)?;
            ctx.delay(self.cost.kernel_copy(len));
        }
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.did_write = true;
            }
        });
        ctx.delay(self.cost.kernel_to_user);
        Ok(data.len())
    }

    fn hole_in_range(&self, ino: Ino, offset: u64, len: u64) -> SysResult<bool> {
        let (segs, _) = self.fs.resolve(ino, offset, len)?;
        Ok(segs.iter().any(|(l, _)| l.is_none()))
    }

    fn buffered_read(
        &self,
        ctx: &mut ActorCtx,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
    ) -> SysResult<()> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let block = abs / BLOCK_SIZE;
            let boff = (abs % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - boff).min(buf.len() - pos);
            let cached = self.cache.lock().get(ino, block);
            let data = match cached {
                Some(d) => d,
                None => {
                    let (segs, extra) = self.fs.resolve(ino, block * BLOCK_SIZE, BLOCK_SIZE)?;
                    ctx.delay(extra);
                    let mut d = vec![0u8; BLOCK_SIZE as usize];
                    ctx.delay(self.cost.block_path());
                    self.device_read(ctx, &segs, &mut d)?;
                    let evicted = self.cache.lock().insert(ino, block, d.clone(), false);
                    for (eino, eblock, edata, edirty) in evicted {
                        if edirty {
                            self.writeback(ctx, Ino(eino), vec![(eblock, edata.to_vec())])?;
                        }
                    }
                    d
                }
            };
            buf[pos..pos + n].copy_from_slice(&data[boff..boff + n]);
            pos += n;
        }
        Ok(())
    }

    fn buffered_write(
        &self,
        ctx: &mut ActorCtx,
        ino: Ino,
        offset: u64,
        data: &[u8],
    ) -> SysResult<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let block = abs / BLOCK_SIZE;
            let boff = (abs % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - boff).min(data.len() - pos);
            let cached = self.cache.lock().get(ino, block);
            let mut blockdata = match cached {
                Some(d) => d,
                None if n == BLOCK_SIZE as usize => vec![0u8; BLOCK_SIZE as usize],
                None => {
                    // Partial block write: read-modify-write.
                    let (segs, extra) = self.fs.resolve(ino, block * BLOCK_SIZE, BLOCK_SIZE)?;
                    ctx.delay(extra);
                    let mut d = vec![0u8; BLOCK_SIZE as usize];
                    ctx.delay(self.cost.block_path());
                    self.device_read(ctx, &segs, &mut d)?;
                    d
                }
            };
            blockdata[boff..boff + n].copy_from_slice(&data[pos..pos + n]);
            let evicted = self.cache.lock().insert(ino, block, blockdata, true);
            for (eino, eblock, edata, edirty) in evicted {
                if edirty {
                    self.writeback(ctx, Ino(eino), vec![(eblock, edata.to_vec())])?;
                }
            }
            pos += n;
        }
        Ok(())
    }

    /// Convenience `read(2)`/`write(2)` using the fd offset.
    ///
    /// # Errors
    /// As [`Kernel::sys_pread`].
    pub fn sys_read(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        let off = self.fd_info(pid, fd)?.offset;
        let n = self.sys_pread(ctx, pid, fd, buf, off)?;
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.offset += n as u64;
            }
        });
        Ok(n)
    }

    /// Convenience positional-free write.
    ///
    /// # Errors
    /// As [`Kernel::sys_pwrite`].
    pub fn sys_write(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let off = self.fd_info(pid, fd)?.offset;
        let n = self.sys_pwrite(ctx, pid, fd, data, off)?;
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.offset += n as u64;
            }
        });
        Ok(n)
    }

    /// Append via the kernel (UserLib routes appends here, Table 3):
    /// allocates new blocks, writes the data directly to the device
    /// without page-cache buffering, updates metadata.
    ///
    /// # Errors
    /// `BadF`, `Perm`, `NoSpc`, `Inval`.
    pub fn sys_append(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        data: &[u8],
    ) -> SysResult<usize> {
        ctx.delay(self.cost.user_to_kernel);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let size = self.fs.size_of(of.ino)?;
        let len = data.len() as u64;
        ctx.delay(self.cost.vfs(len));
        // KEEP_SIZE allocation: the size becomes visible only after the
        // data write (ordered mode).
        let cost = self.fs.allocate_keep_size(of.ino, size, len)?;
        ctx.delay(cost);
        // Sector-align the device write (zero padding within the newly
        // zeroed block is harmless).
        let aligned_off = size - size % SECTOR_SIZE;
        let pad_front = (size - aligned_off) as usize;
        let total = (pad_front as u64 + len).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        let mut padded = vec![0u8; total as usize];
        if pad_front > 0 {
            // Preserve the partial sector's existing bytes.
            let (segs, _) = self.fs.resolve(of.ino, aligned_off, SECTOR_SIZE)?;
            self.device_read(ctx, &segs, &mut padded[..SECTOR_SIZE as usize])?;
        }
        padded[pad_front..pad_front + data.len()].copy_from_slice(data);
        let (segs, extra) = self.fs.resolve(of.ino, aligned_off, total)?;
        ctx.delay(extra + self.cost.block_path());
        self.device_write(ctx, &segs, &padded)?;
        self.fs.set_size(of.ino, size + len)?;
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.did_write = true;
                f.offset = size + len;
            }
        });
        ctx.delay(self.cost.kernel_to_user);
        Ok(data.len())
    }

    /// `fsync(2)`: write back dirty cache blocks, flush device queues,
    /// release deferred block frees (§3.6), update timestamps (§4.4).
    ///
    /// # Errors
    /// `BadF`.
    pub fn sys_fsync(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd) -> SysResult<()> {
        ctx.delay(self.cost.user_to_kernel + self.cost.vfs(4096) / 2);
        let of = self.fd_info(pid, fd)?;
        let dirty = self.cache.lock().take_dirty(of.ino);
        self.writeback(ctx, of.ino, dirty)?;
        let (st, ready) = self.dev.execute(self.kq, Command::flush(), ctx.now());
        debug_assert!(st.is_ok());
        ctx.wait_until(ready);
        self.fs.sync_point();
        let _ = self.fs.touch(of.ino, ctx.now(), of.did_read, of.did_write);
        ctx.delay(self.cost.kernel_to_user);
        Ok(())
    }

    /// `fallocate(2)` (mode 0: allocate + zero + extend size).
    ///
    /// # Errors
    /// `BadF`, `Perm`, `NoSpc`.
    pub fn sys_fallocate(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> SysResult<()> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let cost = self.fs.allocate(of.ino, offset, len)?;
        ctx.delay(cost + self.cost.kernel_to_user);
        Ok(())
    }

    /// `fallocate(2)` with `FALLOC_FL_KEEP_SIZE`: allocates and zeroes
    /// blocks without changing the file size (optimized append, §5.1).
    ///
    /// # Errors
    /// `BadF`, `Perm`, `NoSpc`.
    pub fn sys_fallocate_keep(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> SysResult<()> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let cost = self.fs.allocate_keep_size(of.ino, offset, len)?;
        ctx.delay(cost + self.cost.kernel_to_user);
        Ok(())
    }

    /// Records a new file size after userspace wrote into preallocated
    /// blocks (optimized-append size flush at fsync/close, §5.1).
    ///
    /// # Errors
    /// `BadF`, `Perm`.
    pub fn sys_set_size(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd, size: u64) -> SysResult<()> {
        ctx.delay(self.cost.syscall() + self.cost.metadata_op / 2);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            return Err(Errno::Perm);
        }
        self.fs.set_size(of.ino, size)?;
        self.with_proc(pid, |p| {
            if let Some(f) = p.fd_mut(fd) {
                f.did_write = true;
            }
        });
        Ok(())
    }

    /// `ftruncate(2)`.
    ///
    /// # Errors
    /// `BadF`, `Perm`.
    pub fn sys_ftruncate(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd, size: u64) -> SysResult<()> {
        ctx.delay(self.cost.user_to_kernel + self.cost.metadata_op);
        let of = self.fd_info(pid, fd)?;
        if !of.write {
            ctx.delay(self.cost.kernel_to_user);
            return Err(Errno::Perm);
        }
        let cost = self.fs.truncate(of.ino, size)?;
        ctx.delay(cost + self.cost.kernel_to_user);
        Ok(())
    }

    /// `fstat(2)`.
    ///
    /// # Errors
    /// `BadF`.
    pub fn sys_fstat(&self, ctx: &mut ActorCtx, pid: Pid, fd: Fd) -> SysResult<bypassd_ext4::Stat> {
        ctx.delay(self.cost.syscall() + self.cost.metadata_op / 4);
        let of = self.fd_info(pid, fd)?;
        Ok(self.fs.stat(of.ino)?)
    }

    /// Snapshot of an fd: (inode, writable, readable).
    pub(crate) fn fd_snapshot(&self, pid: Pid, fd: Fd) -> SysResult<(Ino, bool, bool)> {
        let of = self.fd_info(pid, fd)?;
        Ok((of.ino, of.write, of.read))
    }

    /// Functional-only read of resolved segments into `buf` (used by
    /// paths that account timing separately).
    pub(crate) fn fill_from_device(&self, segs: &[(Option<Lba>, u64)], buf: &mut [u8]) {
        let mut pos = 0usize;
        for (lba, len) in segs {
            let chunk = &mut buf[pos..pos + *len as usize];
            match lba {
                Some(lba) => self.dev.read_raw(*lba, chunk),
                None => chunk.fill(0),
            }
            pos += *len as usize;
        }
    }

    /// Page cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }
}

impl MetricSource for Kernel {
    fn collect(&self, out: &mut Vec<Metric>) {
        let (hits, misses) = self.cache_stats();
        out.push(Metric::counter("pagecache_hits", hits));
        out.push(Metric::counter("pagecache_misses", misses));
        out.push(Metric::gauge(
            "processes",
            self.state.lock().procs.len() as i64,
        ));
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("procs", &self.state.lock().procs.len())
            .finish()
    }
}
