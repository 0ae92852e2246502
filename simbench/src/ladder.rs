//! The layer ladder: host time of single layers, each driven alone
//! through its public entry point, plus the fleet executor at 0 (the
//! monolithic baseline), 1 and 2 workers. Every rung is seeded and
//! checks what it can, so a rung that silently stops doing its work
//! shows as a failure rather than a fast number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use bypassd::{FleetBuilder, System};
use bypassd_hw::iommu::AccessKind;
use bypassd_hw::types::{DevId, Lba, Pasid, Vba, PAGE_SIZE};
use bypassd_hw::{AddressSpace, Iommu, PhysMem, Pte};
use bypassd_offload::Program;
use bypassd_os::OpenFlags;
use bypassd_qos::{QosArbiter, QosConfig, Tenant, TenantShare};
use bypassd_sim::rng::Rng;
use bypassd_sim::{Nanos, Simulation};
use bypassd_ssd::device::BlockAddr;
use bypassd_ssd::{Command, DmaBuffer, MediaTiming, NvmeDevice};

use crate::direct;
use crate::solo;
use crate::stats::ns_per;

/// Rung results: (metric, value, source) plus the rungs' own checks.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Measured metrics with the rung that produced each.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong.
    pub failed: u64,
}

impl Ladder {
    fn put(&mut self, name: &'static str, value: f64, source: &'static str) {
        self.metrics.push((name, value, source));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Iterations of a rung at scale 1 (at least 1 at any scale).
fn iters(base: f64, scale: f64) -> u64 {
    ((base * scale).round() as u64).max(1)
}

/// Runs every rung.
pub fn run(seed: u64, scale: f64) -> Ladder {
    let mut l = Ladder::default();
    sim_rungs(&mut l, scale);
    translate_rung(&mut l, seed, scale);
    device_rungs(&mut l, seed, scale);
    verify_rung(&mut l, scale);
    syscall_rungs(&mut l, seed, scale);
    fmap_rungs(&mut l, scale);
    admit_rung(&mut l, scale);
    fleet_rungs(&mut l, seed, scale);
    l
}

/// The direct-read rung: a short traced `direct_read_1t` epoch, the
/// source of any UserLib span, model counter or trace stage that the
/// workload under test does not expose.
pub fn direct_rung(seed: u64, scale: f64) -> crate::Rep {
    direct::rep(
        crate::Params {
            seed,
            scale: scale * 0.1,
        },
        true,
    )
}

/// Engine cost of `delay`: among 16 actors every delay hands the host
/// thread to another actor; with one actor it never does.
fn sim_rungs(l: &mut Ladder, scale: f64) {
    const ACTORS: u64 = 16;
    let time_delays = |actors: u64, each: u64| {
        let sim = Simulation::new();
        for i in 0..actors {
            sim.spawn(&format!("a{i}"), move |ctx| {
                for _ in 0..each {
                    ctx.delay(Nanos(1));
                }
            });
        }
        let start = Instant::now();
        sim.run();
        let ns = start.elapsed().as_nanos() as f64 / (actors * each) as f64;
        (ns, sim.now())
    };
    let each = iters(2_000.0, scale);
    let (handoff, end) = time_delays(ACTORS, each);
    l.check(end == Nanos(each));
    l.put("sim.handoff_ns", handoff, "ladder.sim");
    let solo_n = iters(1_000_000.0, scale);
    let (solo_ns, end) = time_delays(1, solo_n);
    l.check(end == Nanos(solo_n));
    l.put("sim.solo_delay_ns", solo_ns, "ladder.sim");
}

/// `Iommu::translate` over the 256 MiB page set of `direct_read_1t`
/// (paper defaults: FTEs not cached, 64-entry page-walk cache).
fn translate_rung(l: &mut Ladder, seed: u64, scale: f64) {
    let pages = direct::FILE_LEN / PAGE_SIZE;
    let mem = PhysMem::new();
    let mut asid = AddressSpace::new(&mem);
    let base = Vba(0x4000_0000);
    for i in 0..pages {
        asid.map_page(
            base.as_virt().offset(i * PAGE_SIZE),
            Pte::fte(Lba::from_block(4096 + i), DevId(1), false),
        );
    }
    let mut iommu = Iommu::new(&mem);
    iommu.register(Pasid(1), asid.root_frame());
    let mut rng = Rng::new(seed ^ 0x7A_A5);
    let n = iters(200_000.0, scale);
    let vbas: Vec<Vba> = (0..n)
        .map(|_| base.offset(rng.gen_range(pages) * PAGE_SIZE))
        .collect();
    let mut faults = 0;
    let ns = ns_per(n, |i| {
        let t = iommu.translate(
            Pasid(1),
            vbas[i as usize],
            PAGE_SIZE,
            AccessKind::Read,
            DevId(1),
        );
        faults += u64::from(black_box(t).is_err());
    });
    l.check(faults == 0);
    l.put("hw.translate_ns", ns, "ladder.hw");
}

/// `NvmeDevice::submit` at depth 1, `submit_batch` at depth 32, and
/// `reap_ready_into` draining 32 completions (per completion).
fn device_rungs(l: &mut Ladder, seed: u64, scale: f64) {
    const DEPTH: usize = 32;
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(1), 1 << 21, MediaTiming::default(), iommu);
    let q = dev.create_queue(None, 2 * DEPTH);
    let dma = DmaBuffer::alloc(&mem, 4096);
    let mut rng = Rng::new(seed ^ 0x55D);
    let blocks = (1u64 << 21) / 8;
    let mut now = Nanos(0);
    let mut comps = Vec::with_capacity(DEPTH);
    let mut cids = Vec::with_capacity(DEPTH);

    let n = iters(100_000.0, scale);
    let (mut submit_ns, mut reaped) = (0.0, 0);
    for _ in 0..n {
        let cmd = Command::read(
            BlockAddr::Lba(Lba::from_block(rng.gen_range(blocks))),
            8,
            &dma,
        );
        let t = Instant::now();
        let ok = dev.submit(q, cmd, now).is_ok();
        submit_ns += t.elapsed().as_nanos() as f64;
        l.check(ok);
        now = Nanos(now.as_nanos() + 100_000);
        comps.clear();
        reaped += dev.reap_ready_into(q, now, DEPTH, &mut comps);
    }
    l.check(reaped == n as usize);
    l.put("ssd.submit_ns", submit_ns / n as f64, "ladder.ssd");

    let flights = iters(4_000.0, scale);
    let (mut batch_ns, mut reap_ns, mut reaped) = (0.0, 0.0, 0);
    for _ in 0..flights {
        let starts: Vec<u64> = (0..DEPTH).map(|_| rng.gen_range(blocks)).collect();
        let cmds = starts
            .iter()
            .map(|&b| Command::read(BlockAddr::Lba(Lba::from_block(b)), 8, &dma));
        cids.clear();
        let t = Instant::now();
        let accepted = dev.submit_batch(q, cmds, now, &mut cids);
        batch_ns += t.elapsed().as_nanos() as f64;
        l.check(accepted == Ok(DEPTH));
        now = Nanos(now.as_nanos() + 1_000_000);
        comps.clear();
        let t = Instant::now();
        let got = dev.reap_ready_into(q, now, DEPTH, &mut comps);
        reap_ns += t.elapsed().as_nanos() as f64;
        reaped += got;
    }
    let cmds = (flights * DEPTH as u64) as f64;
    l.check(reaped == cmds as usize);
    l.put("ssd.submit_batch_ns_per_cmd", batch_ns / cmds, "ladder.ssd");
    l.put("ssd.reap_ns", reap_ns / cmds, "ladder.ssd");
}

/// Verifying the `BpfKv` point-lookup program.
fn verify_rung(l: &mut Ladder, scale: f64) {
    let n = iters(20_000.0, scale);
    let ops = bypassd_kv::offload::point_lookup_ops(8);
    let mut copies: Vec<_> = (0..n).map(|_| ops.clone()).collect();
    let mut ok = 0;
    let ns = ns_per(n, |_| {
        let prog = Program::verify(copies.pop().expect("one copy per iteration"));
        ok += u64::from(black_box(prog).is_ok());
    });
    l.check(ok == n);
    l.put("offload.verify_ns", ns, "ladder.offload");
}

/// `Kernel::sys_pread`, `sys_pwrite` and `sys_fsync` on an O_DIRECT fd.
fn syscall_rungs(l: &mut Ladder, seed: u64, scale: f64) {
    const LEN: u64 = 16 << 20;
    const FILL: u8 = 0x3C;
    let sys = System::builder().capacity(1 << 30).build();
    sys.fs().populate("/sys", LEN, FILL).expect("populate");
    let n = iters(4_000.0, scale);
    let mut rng = Rng::new(seed ^ 0x5C);
    let offs: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            (
                rng.gen_range(LEN / 4096) * 4096,
                rng.gen_range(LEN / 4096) * 4096,
            )
        })
        .collect();
    let s2 = sys.clone();
    let (pread, pwrite, fsync, fsyncs, wrong) = solo(move |ctx| {
        let k = s2.kernel();
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/sys", OpenFlags::rdwr_direct(), 0)
            .expect("open");
        let mut buf = vec![0u8; 4096];
        let data = vec![FILL; 4096];
        let (mut r, mut w, mut f, mut fsyncs, mut wrong) = (0.0, 0.0, 0.0, 0u64, 0u64);
        for (i, &(ro, wo)) in offs.iter().enumerate() {
            let t = Instant::now();
            let got = k.sys_pread(ctx, pid, fd, &mut buf, ro);
            r += t.elapsed().as_nanos() as f64;
            wrong += u64::from(got != Ok(4096) || buf.iter().any(|&b| b != FILL));
            let t = Instant::now();
            let put = k.sys_pwrite(ctx, pid, fd, &data, wo);
            w += t.elapsed().as_nanos() as f64;
            wrong += u64::from(put != Ok(4096));
            if i % 8 == 7 {
                let t = Instant::now();
                let synced = k.sys_fsync(ctx, pid, fd);
                f += t.elapsed().as_nanos() as f64;
                fsyncs += 1;
                wrong += u64::from(synced.is_err());
            }
        }
        (r, w, f, fsyncs, wrong)
    });
    l.attempted += 2 * n + fsyncs;
    l.failed += wrong;
    l.put("os.sys_pread_ns", pread / n as f64, "ladder.os");
    l.put("os.sys_pwrite_ns", pwrite / n as f64, "ladder.os");
    l.put("os.sys_fsync_ns", fsync / fsyncs.max(1) as f64, "ladder.os");
}

/// `Kernel::sys_fmap` of 4 MiB files: cold (the first map builds the
/// file tables) and warm (a second process attaches the existing ones).
fn fmap_rungs(l: &mut Ladder, scale: f64) {
    let files = iters(48.0, scale);
    let sys = System::builder().capacity(1 << 30).build();
    for i in 0..files {
        sys.fs()
            .populate(&format!("/fm-{i}"), 4 << 20, 0x11)
            .expect("populate");
    }
    let s2 = sys.clone();
    let (cold, warm, null) = solo(move |ctx| {
        let k = s2.kernel();
        let a = k.spawn_process(0, 0);
        let b = k.spawn_process(0, 0);
        let (mut cold, mut warm, mut null) = (0.0, 0.0, 0u64);
        for i in 0..files {
            let path = format!("/fm-{i}");
            for (pid, acc) in [(a, &mut cold), (b, &mut warm)] {
                let fd = k
                    .sys_open(ctx, pid, &path, OpenFlags::rdonly_direct().bypassd(), 0)
                    .expect("open");
                let t = Instant::now();
                let vba = k.sys_fmap(ctx, pid, fd, false);
                *acc += t.elapsed().as_nanos() as f64;
                null += u64::from(!vba.is_ok_and(|v| !v.is_null()));
            }
        }
        (cold, warm, null)
    });
    l.attempted += 2 * files;
    l.failed += null;
    l.put("ext4.fmap_cold_ns", cold / files as f64, "ladder.ext4");
    l.put("ext4.fmap_warm_ns", warm / files as f64, "ladder.ext4");
}

/// `QosArbiter::admit` with 4 weighted tenants contending.
fn admit_rung(l: &mut Ladder, scale: f64) {
    let mut arb = QosArbiter::new(QosConfig::enabled(), MediaTiming::default().channels);
    for t in 0..4 {
        arb.register(Tenant::User(Pasid(t + 1)), TenantShare::weight(t + 1));
    }
    let n = iters(300_000.0, scale);
    let mut last = Nanos(0);
    let ns = ns_per(n, |i| {
        let tenant = Tenant::User(Pasid(i as u32 % 4 + 1));
        let a = arb.admit(tenant, Nanos(i * 500), Nanos(10_000), 4096);
        last = black_box(a).arrival;
    });
    l.check(last >= Nanos((n - 1) * 500));
    l.put("qos.admit_ns", ns, "ladder.qos");
}

/// The fleet scenario at `k1()`'s own 3 rounds: monolithic, 1 worker
/// and 2 workers. Results must be bit-identical across worker counts.
fn fleet_rungs(l: &mut Ladder, seed: u64, scale: f64) {
    let cfg = crate::fleet::config(seed, ((3.0 * scale).round() as u32).max(1));
    let time = |f: &dyn Fn(&FleetBuilder) -> bypassd::FleetReport| {
        let b = FleetBuilder::new(cfg.clone());
        let start = Instant::now();
        let r = f(&b);
        (start.elapsed().as_secs_f64(), r)
    };
    let (mono_s, mono) = time(&|b| b.run_monolithic());
    let (w1_s, w1) = time(&|b| b.run(1));
    let (w2_s, w2) = time(&|b| b.run(2));
    l.check(w1.fingerprint() == w2.fingerprint());
    l.check(mono.total_ops() == w1.total_ops());
    l.put("fleet.mono_s", mono_s, "ladder.fleet");
    l.put("fleet.w1_s", w1_s, "ladder.fleet");
    l.put("fleet.w2_s", w2_s, "ladder.fleet");
    l.put("fleet.scaling_w2", w1_s / w2_s, "ladder.fleet");
    l.put("fleet.lane_overhead", w1_s / mono_s, "ladder.fleet");
    for (name, v) in crate::fleet::counters(&w2) {
        l.put(name, v, "ladder.fleet");
    }
}
