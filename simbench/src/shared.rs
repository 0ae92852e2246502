//! `shared_rw_16p`: 16 `UserProcess`es, one actor each, on one `System`
//! with QoS on and 4 weighted tenants. Each op is a 4 KB `pread` of a
//! shared 64 MiB file (70%), a 4 KB `pwrite` overwrite of the process's
//! private file (25%) or an `fsync` of it (5%). At a fixed virtual time
//! a kernel-interface open of the shared file revokes direct access, so
//! later shared reads take the kernel fallback path.
//!
//! Every op crosses engine handoffs between the 16 actors, and writes,
//! `fsync`, QoS pacing and the revocation fallback drive ext4, the
//! kernel and the arbiter, which the read-only workload never touches.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bypassd::{QosConfig, System, TenantShare, TraceConfig, UserProcess, UserThread};
use bypassd_os::process::Fd;
use bypassd_os::OpenFlags;
use bypassd_sim::rng::{Fnv64, Rng};
use bypassd_sim::{ActorCtx, Nanos, Simulation};

use crate::probe::{self, Records, Snapshot};
use crate::stats::{self, rank};
use crate::{solo, Params, Rep, Virt};

/// Processes (one actor each).
pub const PROCS: usize = 16;
/// QoS tenants (uids `1000..1004`), weights 1..=4, cycled over processes.
pub const TENANTS: u32 = 4;
/// Shared, read-only file.
pub const SHARED_LEN: u64 = 64 << 20;
/// Each process's private file.
pub const PRIVATE_LEN: u64 = 1 << 20;
/// Ops per process in a measured epoch at scale 1.
const OPS_PER_PROC: f64 = 3_000.0;
/// Virtual time of the revoking kernel open at scale 1: about half of
/// the epoch's ops come before it.
const REVOKE_AT_NS: f64 = 6_000_000.0;
/// Reads per process during set-up to warm the caches.
const WARM_READS: u64 = 8;
/// Drain the recorder this often (ops of process 0) so its rings never
/// overflow.
const DRAIN_EVERY: usize = 256;

const PAGE: u64 = 4096;
const SHARED_FILL: u8 = 0x5A;
const PRIVATE_FILL: u8 = 0xC3;
/// Written into the read buffer before a shared read, so a read that
/// returns success without copying data fails the check.
const POISON: u8 = !SHARED_FILL;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Read the shared file at this offset.
    Read(u64),
    /// Overwrite this block of the private file with content `tag`.
    Write(u64, u64),
    /// `fsync` the private file.
    Fsync,
}

/// Content of a private block written with `tag`.
fn block_for(tag: u64, buf: &mut [u8]) {
    buf[..8].copy_from_slice(&tag.to_le_bytes());
    for (i, b) in buf[8..].iter_mut().enumerate() {
        *b = (tag as usize).wrapping_add(i) as u8;
    }
}

fn ops_for(rng: &mut Rng, proc: usize, n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| match rng.gen_range(100) {
            0..70 => Op::Read(rng.gen_range(SHARED_LEN / PAGE) * PAGE),
            70..95 => Op::Write(
                rng.gen_range(PRIVATE_LEN / PAGE),
                ((proc as u64) << 32) | i as u64,
            ),
            _ => Op::Fsync,
        })
        .collect()
}

/// One process's actor state, moved between simulations.
struct Client {
    proc: Arc<UserProcess>,
    thread: UserThread,
    shared: Fd,
    private: Fd,
    /// Block → tag of the last write this process made to it.
    shadow: HashMap<u64, u64>,
    buf: Vec<u8>,
    expect: Vec<u8>,
}

/// Each client's state and epoch, handed back when its actor ends.
type Slots = Arc<Mutex<Vec<Option<(Client, Epoch)>>>>;

/// What one client's epoch produced.
#[derive(Default)]
struct Epoch {
    lat: Vec<u64>,
    /// Shared-file reads and their summed virtual latency.
    reads: u64,
    read_ns: u64,
    end_ns: u64,
    attempted: u64,
    failed: u64,
    records: Records,
}

impl Client {
    fn op(&mut self, ctx: &mut ActorCtx, op: Op, e: &mut Epoch) {
        let t0 = ctx.now();
        let is_read = matches!(op, Op::Read(_));
        let ok = match op {
            Op::Read(off) => {
                self.buf.fill(POISON);
                let res = self.thread.pread(ctx, self.shared, &mut self.buf, off);
                res == Ok(PAGE as usize) && self.buf.iter().all(|&b| b == SHARED_FILL)
            }
            Op::Write(block, tag) => {
                block_for(tag, &mut self.expect);
                let res = self
                    .thread
                    .pwrite(ctx, self.private, &self.expect, block * PAGE);
                if res == Ok(PAGE as usize) {
                    self.shadow.insert(block, tag);
                    true
                } else {
                    false
                }
            }
            Op::Fsync => self.thread.fsync(ctx, self.private).is_ok(),
        };
        let lat = (ctx.now() - t0).as_nanos();
        e.lat.push(lat);
        if is_read {
            e.reads += 1;
            e.read_ns += lat;
        }
        e.attempted += 1;
        e.failed += u64::from(!ok);
    }

    /// Reads back every block this process wrote and compares it with
    /// the shadow map; returns (checked, wrong).
    fn verify(&mut self, ctx: &mut ActorCtx) -> (u64, u64) {
        let mut blocks: Vec<(u64, u64)> = self.shadow.iter().map(|(&b, &t)| (b, t)).collect();
        blocks.sort_unstable();
        let mut wrong = 0;
        for &(block, tag) in &blocks {
            block_for(tag, &mut self.expect);
            // Every byte differs from the expected one until the read
            // overwrites it.
            for (b, e) in self.buf.iter_mut().zip(&self.expect) {
                *b = !e;
            }
            let res = self
                .thread
                .pread(ctx, self.private, &mut self.buf, block * PAGE);
            wrong += u64::from(res != Ok(PAGE as usize) || self.buf != self.expect);
        }
        (blocks.len() as u64, wrong)
    }
}

fn qos() -> QosConfig {
    (0..TENANTS).fold(QosConfig::enabled(), |q, t| {
        q.uid_share(1000 + t, TenantShare::weight(1 + t))
    })
}

/// Runs one rep: set-up (timed), one measured epoch (timed), read-back
/// verification (untimed), checks.
pub fn rep(p: Params, traced: bool) -> Rep {
    let n_ops = ((OPS_PER_PROC * p.scale).round() as usize).max(1);
    let revoke_at = Nanos((REVOKE_AT_NS * p.scale).round() as u64);
    let mut rng = Rng::new(p.seed ^ 0x5EA2_ED16);
    let inputs: Vec<Vec<Op>> = (0..PROCS).map(|i| ops_for(&mut rng, i, n_ops)).collect();
    let warm_offs: Vec<u64> = (0..PROCS as u64 * WARM_READS)
        .map(|_| rng.gen_range(SHARED_LEN / PAGE) * PAGE)
        .collect();

    let setup_start = Instant::now();
    let trace = if traced {
        TraceConfig::on()
    } else {
        TraceConfig::default()
    };
    let sys = System::builder()
        .capacity(1 << 30)
        .qos(qos())
        .trace(trace)
        .build();
    sys.fs()
        .populate("/shared", SHARED_LEN, SHARED_FILL)
        .expect("populate shared file");
    for i in 0..PROCS {
        sys.fs()
            .populate(&format!("/private-{i}"), PRIVATE_LEN, PRIVATE_FILL)
            .expect("populate private file");
    }
    let revoker = sys.kernel().spawn_process(0, 0);
    let s2 = sys.clone();
    let (clients, warm) = solo(move |ctx| {
        let mut warm = Epoch::default();
        let clients: Vec<Client> = (0..PROCS)
            .map(|i| {
                let uid = 1000 + i as u32 % TENANTS;
                let proc = UserProcess::start(&s2, uid, uid);
                let mut thread = proc.thread();
                let shared = thread
                    .open(ctx, "/shared", false)
                    .expect("open shared file");
                let private = thread
                    .open(ctx, &format!("/private-{i}"), true)
                    .expect("open private file");
                let mut c = Client {
                    proc,
                    thread,
                    shared,
                    private,
                    shadow: HashMap::new(),
                    buf: vec![0; PAGE as usize],
                    expect: vec![0; PAGE as usize],
                };
                for &off in &warm_offs[i * WARM_READS as usize..(i + 1) * WARM_READS as usize] {
                    c.op(ctx, Op::Read(off), &mut warm);
                }
                c
            })
            .collect();
        (clients, warm)
    });
    let setup_s = setup_start.elapsed().as_secs_f64();

    sys.reset_virtual_time();
    Records::default().drain(&sys);
    let before = Snapshot::take(&sys);
    let dropped_before = probe::dropped(&sys);
    let counts = |cs: &[Client]| {
        cs.iter().fold((0, 0), |(d, f), c| {
            let (cd, cf) = c.proc.op_counts();
            (d + cd, f + cf)
        })
    };
    let counts_before = counts(&clients);

    let sim = Simulation::new();
    let slots: Slots = Arc::new(Mutex::new((0..PROCS).map(|_| None).collect()));
    for (i, (mut client, ops)) in clients.into_iter().zip(inputs).enumerate() {
        let out = Arc::clone(&slots);
        let s2 = sys.clone();
        sim.spawn(&format!("proc-{i}"), move |ctx| {
            let mut e = Epoch::default();
            e.lat.reserve(ops.len());
            for (k, &op) in ops.iter().enumerate() {
                client.op(ctx, op, &mut e);
                if traced && i == 0 && k % DRAIN_EVERY == DRAIN_EVERY - 1 {
                    e.records.drain(&s2);
                }
            }
            e.end_ns = ctx.now().as_nanos();
            out.lock().expect("epoch slots")[i] = Some((client, e));
        });
    }
    let s2 = sys.clone();
    sim.spawn_at(revoke_at, "revoker", move |ctx| {
        // A kernel-interface open (no BypassD intent) revokes every
        // direct mapping of the file; holding it open keeps them revoked.
        s2.kernel()
            .sys_open(ctx, revoker, "/shared", OpenFlags::rdonly_direct(), 0)
            .expect("kernel open of the shared file");
    });
    let measured_start = Instant::now();
    let cpu_start = stats::cpu_seconds();
    sim.run();
    let measured_s = measured_start.elapsed().as_secs_f64();
    let measured_cpu_s = stats::cpu_seconds() - cpu_start;

    let done: Vec<(Client, Epoch)> = std::mem::take(&mut *slots.lock().expect("epoch slots"))
        .into_iter()
        .map(|s| s.expect("every client finished"))
        .collect();
    let after = Snapshot::take(&sys);
    let (mut clients, epochs): (Vec<Client>, Vec<Epoch>) = done.into_iter().unzip();
    let counts_after = counts(&clients);

    let mut h = Fnv64::new();
    let mut all = Vec::new();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let (mut end_ns, mut reads, mut read_ns) = (0, 0, 0);
    let mut records = Records::default();
    for e in epochs {
        for &l in &e.lat {
            h.write_u64(l);
        }
        h.write_u64(e.end_ns);
        end_ns = end_ns.max(e.end_ns);
        reads += e.reads;
        read_ns += e.read_ns;
        attempted += e.attempted;
        failed += e.failed;
        all.extend(e.lat);
        records.device.extend(e.records.device);
        records.ops.extend(e.records.ops);
    }
    after.hash_into(&mut h);
    h.write_u64(counts_after.0);
    h.write_u64(counts_after.1);
    let ops = all.len() as u64;
    all.sort_unstable();
    let virt = Virt {
        ops,
        elapsed_ns: end_ns,
        percentiles: Some((rank(&all, 0.5), rank(&all, 0.99))),
        reads,
        read_ns,
        fingerprint: h.finish(),
    };

    let mut layers = BTreeMap::new();
    let mut registry = String::new();
    if traced {
        records.drain(&sys);
        let direct = (
            counts_after.0 - counts_before.0,
            counts_after.1 - counts_before.1,
        );
        layers.extend(probe::counters(&before, &after, ops, direct));
        layers.extend(records.stages());
        layers.insert(
            "trace.records_dropped",
            (probe::dropped(&sys) - dropped_before) as f64,
        );
        registry = sys.metrics().render();
    }

    sys.reset_virtual_time();
    let (checked, wrong) = solo(move |ctx| {
        clients.iter_mut().fold((0, 0), |(n, w), c| {
            let (cn, cw) = c.verify(ctx);
            (n + cn, w + cw)
        })
    });
    Rep {
        setup_s,
        measured_s,
        measured_cpu_s,
        virt,
        attempted: attempted + checked,
        failed: failed + wrong,
        layers,
        registry,
    }
}
