//! `direct_read_1t`: one process, one `UserThread`, one actor, closed
//! loop. Each round makes [`QD1`] QD1 4 KB `pread`s, one [`BATCH`]-deep
//! `pread_batch` and one [`CHAINS`]-deep `pread_chain_batch` of `BpfKv`
//! point lookups. Reads are uniform over a 256 MiB populated file, so
//! the IOMMU page walk and page-walk cache see real traffic.
//!
//! With a single actor there are no engine handoffs, so host time sits
//! in UserLib, the IOMMU, the device model and the offload engine.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bypassd::{ChainReq, ReadReq, System, TraceConfig, UserProcess, UserThread};
use bypassd_kv::{BpfKv, BpfKvConfig};
use bypassd_offload::{ProgHandle, BLOCK, NUM_REGS};
use bypassd_os::process::Fd;
use bypassd_sim::rng::{Fnv64, Rng};
use bypassd_sim::{ActorCtx, Simulation};

use crate::probe::{self, Records, Snapshot};
use crate::stats::{self, rank};
use crate::{solo, Params, Rep, Virt};

/// Populated data file.
pub const FILE_LEN: u64 = 256 << 20;
/// Objects in the `BpfKv` store (6-level index, fanout 8).
pub const KEYS: u64 = 100_000;
/// QD1 reads per round.
pub const QD1: usize = 32;
/// Reads per `pread_batch` call.
pub const BATCH: usize = 32;
/// Lookups per `pread_chain_batch` call.
pub const CHAINS: usize = 24;
/// Application ops per round.
pub const OPS_PER_ROUND: u64 = (QD1 + BATCH + CHAINS) as u64;
/// Rounds in a measured epoch at scale 1.
const ROUNDS: f64 = 2_000.0;
/// Rounds run during set-up to warm the caches.
const WARM_ROUNDS: usize = 8;
/// Drain the recorder this often (rounds) so its rings never overflow:
/// one queue's records all land in one of the recorder's 16 shards, a
/// sixteenth of its capacity, and a round makes about 230 device records.
const DRAIN_EVERY: usize = 8;

const PAGE: u64 = 4096;

/// Generated inputs of one epoch: offsets and keys, round-major.
struct Inputs {
    qd1: Vec<u64>,
    batch: Vec<u64>,
    keys: Vec<u64>,
}

impl Inputs {
    fn generate(rng: &mut Rng, rounds: usize) -> Inputs {
        let pages = FILE_LEN / PAGE;
        let mut offsets =
            |n: usize| -> Vec<u64> { (0..n).map(|_| rng.gen_range(pages) * PAGE).collect() };
        let qd1 = offsets(rounds * QD1);
        let batch = offsets(rounds * BATCH);
        let keys = (0..rounds * CHAINS).map(|_| rng.gen_range(KEYS)).collect();
        Inputs { qd1, batch, keys }
    }
}

/// The populate fill byte for `seed` (never zero, so a hole or a stale
/// zero page cannot pass the check).
fn fill_byte(seed: u64) -> u8 {
    (seed % 255) as u8 + 1
}

/// Byte written into every destination buffer before a read, so a read
/// that returns success without copying data fails the check: it is never
/// the fill, and a lookup result made of it matches no key (keys are
/// below 2^56, so an object's eighth byte is 0).
fn poison_byte(fill: u8) -> u8 {
    !fill | 1
}

/// The single actor's state, moved between the set-up and measured
/// simulations.
struct Reader {
    proc: Arc<UserProcess>,
    thread: UserThread,
    data: Fd,
    kv: Fd,
    prog: ProgHandle,
    buf: Vec<u8>,
    bufs: Vec<u8>,
    chain_bufs: Vec<u8>,
}

/// What one epoch produced inside the actor.
#[derive(Default)]
struct Epoch {
    /// Virtual latency of each op, in op order.
    lat: Vec<u64>,
    /// QD1 reads and their summed virtual latency.
    reads: u64,
    read_ns: u64,
    attempted: u64,
    failed: u64,
    /// Host ns per call (traced reps only).
    pread_ns: Vec<f64>,
    batch_ns_per_read: Vec<f64>,
    chain_ns_per_lookup: Vec<f64>,
    records: Records,
}

/// Host time of `f` in ns when `spans` is on.
fn span<T>(spans: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if spans {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_nanos() as f64)
    } else {
        (f(), 0.0)
    }
}

impl Reader {
    fn round(
        &mut self,
        ctx: &mut ActorCtx,
        inp: &Inputs,
        r: usize,
        fill: u8,
        e: &mut Epoch,
        spans: bool,
    ) {
        let poison = poison_byte(fill);
        for &off in &inp.qd1[r * QD1..(r + 1) * QD1] {
            self.buf.fill(poison);
            let t0 = ctx.now();
            let (res, ns) = span(spans, || {
                self.thread.pread(ctx, self.data, &mut self.buf, off)
            });
            let lat = (ctx.now() - t0).as_nanos();
            e.lat.push(lat);
            e.reads += 1;
            e.read_ns += lat;
            e.attempted += 1;
            if res != Ok(PAGE as usize) || self.buf.iter().any(|&b| b != fill) {
                e.failed += 1;
            }
            if spans {
                e.pread_ns.push(ns);
            }
        }

        let offs = &inp.batch[r * BATCH..(r + 1) * BATCH];
        self.bufs.fill(poison);
        let mut reqs: Vec<ReadReq<'_>> = self
            .bufs
            .chunks_mut(PAGE as usize)
            .zip(offs)
            .map(|(buf, &offset)| ReadReq { offset, buf })
            .collect();
        let t0 = ctx.now();
        let (res, ns) = span(spans, || self.thread.pread_batch(ctx, self.data, &mut reqs));
        let lat = (ctx.now() - t0).as_nanos();
        e.lat.extend(std::iter::repeat_n(lat, BATCH));
        e.attempted += BATCH as u64;
        if res != Ok(BATCH * PAGE as usize) {
            e.failed += BATCH as u64;
        } else {
            e.failed += reqs
                .iter()
                .filter(|q| q.buf.iter().any(|&b| b != fill))
                .count() as u64;
        }
        if spans {
            e.batch_ns_per_read.push(ns / BATCH as f64);
        }

        let keys = &inp.keys[r * CHAINS..(r + 1) * CHAINS];
        self.chain_bufs.fill(poison);
        let mut chains: Vec<ChainReq<'_>> = self
            .chain_bufs
            .chunks_mut(BLOCK)
            .zip(keys)
            .map(|(buf, &key)| {
                let mut regs = [0u64; NUM_REGS];
                regs[0] = key;
                regs[1] = 6;
                ChainReq {
                    start: 0,
                    regs,
                    buf,
                }
            })
            .collect();
        let t0 = ctx.now();
        let (res, ns) = span(spans, || {
            self.thread
                .pread_chain_batch(ctx, self.kv, self.prog, &mut chains)
        });
        let lat = (ctx.now() - t0).as_nanos();
        e.lat.extend(std::iter::repeat_n(lat, CHAINS));
        e.attempted += CHAINS as u64;
        if res != Ok(CHAINS * BLOCK) {
            e.failed += CHAINS as u64;
        } else {
            e.failed += chains
                .iter()
                .zip(keys)
                .filter(|(c, &key)| !object_matches(c.buf, key))
                .count() as u64;
        }
        if spans {
            e.chain_ns_per_lookup.push(ns / CHAINS as f64);
        }
    }
}

/// A lookup result is the object whose first 8 bytes are the key and
/// whose value byte `i` is `(key + i) as u8`.
pub fn object_matches(obj: &[u8], key: u64) -> bool {
    obj[..8] == key.to_le_bytes()
        && obj[8..72]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (key as usize + i) as u8)
}

/// Epoch rounds at `scale`.
fn rounds(scale: f64) -> usize {
    ((ROUNDS * scale).round() as usize).max(1)
}

/// Runs one rep: set-up (timed), one measured epoch (timed), checks.
pub fn rep(p: Params, traced: bool) -> Rep {
    let rounds = rounds(p.scale);
    let fill = fill_byte(p.seed);
    let mut rng = Rng::new(p.seed ^ 0xD1EC_7000);
    let warm = Inputs::generate(&mut rng, WARM_ROUNDS);
    let inputs = Arc::new(Inputs::generate(&mut rng, rounds));

    let setup_start = Instant::now();
    let trace = if traced {
        TraceConfig::on()
    } else {
        TraceConfig::default()
    };
    let sys = System::builder().capacity(1 << 30).trace(trace).build();
    sys.fs()
        .populate("/data", FILE_LEN, fill)
        .expect("populate data file");
    let store = BpfKv::build(&sys, BpfKvConfig::new("/kv", KEYS)).expect("build kv index");
    let s2 = sys.clone();
    let (mut reader, warm_epoch) = solo(move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut thread = proc.thread();
        let data = thread.open(ctx, "/data", false).expect("open data file");
        let kv = thread.open(ctx, store.file(), false).expect("open kv file");
        let prog = s2
            .kernel()
            .sys_prog_load(ctx, proc.pid(), store.lookup_ops())
            .expect("load lookup program");
        let mut reader = Reader {
            proc,
            thread,
            data,
            kv,
            prog,
            buf: vec![0; PAGE as usize],
            bufs: vec![0; BATCH * PAGE as usize],
            chain_bufs: vec![0; CHAINS * BLOCK],
        };
        let mut e = Epoch::default();
        for r in 0..WARM_ROUNDS {
            reader.round(ctx, &warm, r, fill, &mut e, false);
        }
        (reader, e)
    });
    let setup_s = setup_start.elapsed().as_secs_f64();

    sys.reset_virtual_time();
    // Set-up records are not part of the epoch.
    Records::default().drain(&sys);
    let before = Snapshot::take(&sys);
    let dropped_before = probe::dropped(&sys);
    let counts_before = reader.proc.op_counts();
    let s2 = sys.clone();
    let inp = Arc::clone(&inputs);
    let sim = Simulation::new();
    let slot = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    sim.spawn("reader", move |ctx| {
        let mut e = Epoch::default();
        e.lat.reserve(rounds * OPS_PER_ROUND as usize);
        for r in 0..rounds {
            reader.round(ctx, &inp, r, fill, &mut e, traced);
            if traced && r % DRAIN_EVERY == DRAIN_EVERY - 1 {
                e.records.drain(&s2);
            }
        }
        *out.lock().expect("epoch slot") = Some((reader, e, ctx.now().as_nanos()));
    });
    let measured_start = Instant::now();
    let cpu_start = stats::cpu_seconds();
    sim.run();
    let measured_s = measured_start.elapsed().as_secs_f64();
    let measured_cpu_s = stats::cpu_seconds() - cpu_start;
    let (reader, mut e, end_ns) = slot.lock().expect("epoch slot").take().expect("epoch ran");

    let after = Snapshot::take(&sys);
    let counts_after = reader.proc.op_counts();
    let mut h = Fnv64::new();
    for &l in &e.lat {
        h.write_u64(l);
    }
    h.write_u64(end_ns);
    after.hash_into(&mut h);
    h.write_u64(counts_after.0);
    h.write_u64(counts_after.1);
    let ops = e.lat.len() as u64;
    let mut sorted = e.lat.clone();
    sorted.sort_unstable();
    let virt = Virt {
        ops,
        elapsed_ns: end_ns,
        percentiles: Some((rank(&sorted, 0.5), rank(&sorted, 0.99))),
        reads: e.reads,
        read_ns: e.read_ns,
        fingerprint: h.finish(),
    };

    let mut layers = BTreeMap::new();
    let mut registry = String::new();
    if traced {
        e.records.drain(&sys);
        for (p50_name, p99_name, samples) in [
            ("core.pread_ns_p50", "core.pread_ns_p99", &mut e.pread_ns),
            (
                "core.batch_ns_per_read_p50",
                "core.batch_ns_per_read_p99",
                &mut e.batch_ns_per_read,
            ),
            (
                "core.chain_ns_per_lookup_p50",
                "core.chain_ns_per_lookup_p99",
                &mut e.chain_ns_per_lookup,
            ),
        ] {
            let (p50, p99) = stats::p50_p99(samples);
            layers.insert(p50_name, p50);
            layers.insert(p99_name, p99);
        }
        let direct = (
            counts_after.0 - counts_before.0,
            counts_after.1 - counts_before.1,
        );
        layers.extend(probe::counters(&before, &after, ops, direct));
        layers.extend(e.records.stages());
        layers.insert(
            "trace.records_dropped",
            (probe::dropped(&sys) - dropped_before) as f64,
        );
        registry = sys.metrics().render();
    }
    Rep {
        setup_s,
        measured_s,
        measured_cpu_s,
        virt,
        attempted: e.attempted + warm_epoch.attempted,
        failed: e.failed + warm_epoch.failed,
        layers,
        registry,
    }
}
