//! The paper's qualitative security evaluation (§5.3), made quantitative:
//! a malicious process (including a malicious UserLib) can only read and
//! write files it has permission for. The kernel + hardware are the TCB.

use std::sync::Arc;

use bypassd::{System, UserProcess};
use bypassd_ext4::Ext4;
use bypassd_hw::iommu::AccessKind;
use bypassd_hw::types::{DevId, Lba, Pasid, Vba, PAGE_SIZE};
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use bypassd_ssd::device::{BlockAddr, Command};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::NvmeStatus;

fn system_with_secret() -> (System, Lba) {
    let sys = System::builder().capacity(2 << 30).build();
    let fs = sys.fs();
    fs.create("/victim", 0o600, 1, 1).unwrap();
    let ino = fs.lookup("/victim").unwrap();
    fs.allocate(ino, 0, 8192).unwrap();
    let (segs, _) = fs.resolve(ino, 0, 4096).unwrap();
    let lba = segs[0].0.unwrap();
    sys.device().write_raw(lba, &[0x5E; 4096]);
    (sys, lba)
}

#[test]
fn raw_lba_access_rejected_on_user_queues() {
    // A malicious UserLib crafts an LBA command against the stolen
    // address. The device refuses: user queues only accept VBAs.
    let (sys, secret_lba) = system_with_secret();
    let sim = Simulation::new();
    sim.spawn("attacker", move |ctx| {
        let proc = UserProcess::start(&sys, 666, 666);
        let pasid = sys.kernel().pasid_of(proc.pid());
        let q = sys.device().create_queue(Some(pasid), 8);
        let dma = DmaBuffer::alloc(sys.mem(), 4096);
        for cmd in [
            Command::read(BlockAddr::Lba(secret_lba), 8, &dma),
            Command::write(BlockAddr::Lba(secret_lba), 8, &dma),
            Command::write_zeroes(BlockAddr::Lba(secret_lba), 8),
        ] {
            let (st, _) = sys.device().execute(q, cmd, ctx.now());
            assert_eq!(st, NvmeStatus::InvalidField, "raw LBA got through");
        }
        // The secret is untouched.
        let mut buf = [0u8; 4096];
        sys.device().read_raw(secret_lba, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x5E));
    });
    sim.run();
}

#[test]
fn forged_vba_fails_translation() {
    // VBAs not backed by FTEs in *this* process's page table fault.
    let (sys, _) = system_with_secret();
    let sim = Simulation::new();
    sim.spawn("attacker", move |ctx| {
        let proc = UserProcess::start(&sys, 666, 666);
        let pasid = sys.kernel().pasid_of(proc.pid());
        let q = sys.device().create_queue(Some(pasid), 8);
        let dma = DmaBuffer::alloc(sys.mem(), 4096);
        for guess in [0x1000u64, 0x4000_0000, 0x10_0000_0000, 0x7FFF_FFFF_F000] {
            let (st, _) = sys.device().execute(
                q,
                Command::read(BlockAddr::Vba(Vba(guess)), 8, &dma),
                ctx.now(),
            );
            assert!(
                matches!(st, NvmeStatus::TranslationFault(_)),
                "guessed VBA {guess:#x} translated!"
            );
        }
        assert_eq!(sys.device().stats().reads, 0, "media was touched");
    });
    sim.run();
}

#[test]
fn anothers_mapping_is_unreachable_via_own_pasid() {
    // The victim maps its file; the attacker replays the *same* VBA on
    // its own queue. The IOMMU walks the attacker's page table → fault.
    let (sys, _) = system_with_secret();
    let victim_vba: Arc<parking_lot::Mutex<Vba>> = Arc::new(parking_lot::Mutex::new(Vba::NULL));
    let sim = Simulation::new();
    let s1 = sys.clone();
    let v1 = Arc::clone(&victim_vba);
    sim.spawn("victim", move |ctx| {
        let proc = UserProcess::start(&s1, 1, 1);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/victim", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5E));
        // Leak the VBA (simulating an info leak).
        let pid = proc.pid();
        let ino = s1.fs().lookup("/victim").unwrap();
        assert!(s1.fs().is_mapped(ino, pid));
        // Recover the VBA from the kernel's own syscall for the test.
        *v1.lock() = Vba(0x10_0000_0000); // region base used by fmap
        ctx.delay(Nanos::from_millis(1)); // stay alive while attacker runs
    });
    let s2 = sys.clone();
    let v2 = Arc::clone(&victim_vba);
    sim.spawn_at(Nanos::from_micros(100), "attacker", move |ctx| {
        let proc = UserProcess::start(&s2, 666, 666);
        let pasid = s2.kernel().pasid_of(proc.pid());
        let q = s2.device().create_queue(Some(pasid), 8);
        let dma = DmaBuffer::alloc(s2.mem(), 4096);
        let vba = *v2.lock();
        assert!(!vba.is_null());
        let (st, _) =
            s2.device()
                .execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), ctx.now());
        assert!(
            matches!(st, NvmeStatus::TranslationFault(_)),
            "stolen VBA translated through the attacker's PASID!"
        );
    });
    sim.run();
}

#[test]
fn readonly_open_cannot_write_even_via_device() {
    let sys = System::builder().capacity(2 << 30).build();
    sys.fs().populate("/ro-file", 8192, 0x11).unwrap();
    let sim = Simulation::new();
    sim.spawn("sneaky", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/ro-file", false).unwrap(); // read-only
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        // Bypass UserLib's own checks: raw write command on the mapped
        // VBA. The IOMMU's permission bit must refuse it.
        let pasid = sys.kernel().pasid_of(proc.pid());
        let q = sys.device().create_queue(Some(pasid), 8);
        let dma = DmaBuffer::alloc(sys.mem(), 4096);
        dma.write(0, &[0xEE; 4096]);
        let vba = Vba(0x10_0000_0000); // fmap region base
                                       // Confirm reads DO work at this VBA (it is the real mapping)…
        let tr = sys
            .iommu()
            .lock()
            .translate(pasid, vba, PAGE_SIZE, AccessKind::Read, DevId(1))
            .map(|t| t.extents.len());
        assert!(tr.is_ok(), "test setup: vba should be the mapping base");
        // …but writes fault.
        let (st, _) =
            sys.device()
                .execute(q, Command::write(BlockAddr::Vba(vba), 8, &dma), ctx.now());
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
        // File content unchanged.
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(buf.iter().all(|&b| b == 0x11));
    });
    sim.run();
}

#[test]
fn closed_file_vbas_stop_translating() {
    let sys = System::builder().capacity(2 << 30).build();
    sys.fs().populate("/closeme", 8192, 0x22).unwrap();
    let sim = Simulation::new();
    sim.spawn("p", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/closeme", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        let pasid = sys.kernel().pasid_of(proc.pid());
        let vba = Vba(0x10_0000_0000);
        assert!(sys
            .iommu()
            .lock()
            .translate(pasid, vba, PAGE_SIZE, AccessKind::Read, DevId(1))
            .is_ok());
        t.close(ctx, fd).unwrap();
        // After close the kernel detached the FTEs: the old VBA is dead.
        assert!(sys
            .iommu()
            .lock()
            .translate(pasid, vba, PAGE_SIZE, AccessKind::Read, DevId(1))
            .is_err());
    });
    sim.run();
}

#[test]
fn reallocated_blocks_never_leak_old_data() {
    // Confidentiality across users (§5.3): delete victim's file, let the
    // attacker allocate the same blocks, read them directly — zeroes.
    let sys = System::builder().capacity(1 << 28).build();
    let fs = sys.fs();
    let v = fs.populate("/victim2", 1 << 20, 0xAB).unwrap();
    let (segs, _) = fs.resolve(v, 0, 1 << 20).unwrap();
    let old_lba = segs[0].0.unwrap();
    // Consume the rest of the device so the next allocation can only be
    // satisfied from the victim's freed blocks.
    let slack = 128u64; // blocks left free besides the victim's
    let filler_blocks = fs.free_blocks() - slack;
    fs.populate("/filler", filler_blocks * 4096, 0).unwrap();
    fs.unlink("/victim2", 0, 0).unwrap();
    fs.sync_point(); // blocks become reusable only at the sync point

    let a = fs.create("/attacker-file", 0o644, 666, 666).unwrap();
    fs.allocate(a, 0, 1 << 20).unwrap();
    let (segs2, _) = fs.resolve(a, 0, 1 << 20).unwrap();
    // The allocator reused the space…
    assert!(
        segs2.iter().any(|(l, n)| {
            let l = l.unwrap().0;
            l < old_lba.0 + (1 << 20) / 512 && old_lba.0 < l + n / 512
        }),
        "test setup: blocks were not reused"
    );
    // …and direct reads see only zeroes.
    let sim = Simulation::new();
    sim.spawn("attacker", move |ctx| {
        let proc = UserProcess::start(&sys, 666, 666);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/attacker-file", false).unwrap();
        let mut buf = vec![0u8; 4096];
        for i in 0..256u64 {
            t.pread(ctx, fd, &mut buf, i * 4096).unwrap();
            assert!(
                buf.iter().all(|&b| b == 0),
                "old data leaked in reallocated block {i}"
            );
        }
    });
    sim.run();
}

#[test]
fn wrong_device_id_rejected() {
    // An FTE pins the device: a request from another device id fails.
    let (sys, _) = system_with_secret();
    let sim = Simulation::new();
    sim.spawn("p", move |ctx| {
        let proc = UserProcess::start(&sys, 1, 1);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/victim", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        let pasid = sys.kernel().pasid_of(proc.pid());
        let err = sys
            .iommu()
            .lock()
            .translate(
                pasid,
                Vba(0x10_0000_0000),
                PAGE_SIZE,
                AccessKind::Read,
                DevId(9),
            )
            .unwrap_err();
        assert_eq!(err.0, bypassd_hw::iommu::TranslateError::WrongDevice);
        let _ = Pasid(0);
    });
    sim.run();
}

#[test]
fn revocation_under_load_with_qos_throttling() {
    // Multi-tenant isolation under pressure (§3.6 + QoS): a rate-capped
    // flooder has its direct mappings revoked mid-burst while an
    // innocent tenant keeps reading. The flooder must transparently
    // fall back to the kernel with no data corruption, the victim must
    // never see a failure or a latency cliff, and the arbiter's
    // per-tenant books must still balance.
    let cap = {
        let mut c = bypassd::RateLimit::iops(50_000);
        c.burst_ops = 8;
        c
    };
    let sys = System::builder()
        .capacity(2 << 30)
        .qos(
            bypassd::QosConfig::enabled()
                .uid_share(2000, bypassd::TenantShare::weight(1).with_limit(cap)),
        )
        .build();
    sys.fs().populate("/flood", 1 << 20, 0x5A).unwrap();
    sys.fs().populate("/work", 1 << 20, 0x7B).unwrap();

    let sim = Simulation::new();
    let flood_pasid = Arc::new(parking_lot::Mutex::new(None));

    let s = sys.clone();
    let fp = Arc::clone(&flood_pasid);
    sim.spawn("flooder", move |ctx| {
        let proc = UserProcess::start(&s, 2000, 2000);
        *fp.lock() = Some(s.kernel().pasid_of(proc.pid()));
        let mut t = proc.thread();
        let fd = t.open(ctx, "/flood", false).unwrap();
        let mut buf = vec![0u8; 4096];
        for i in 0..150u64 {
            let off = (i % 256) * 4096;
            let n = t.pread(ctx, fd, &mut buf, off).unwrap();
            assert_eq!(n, 4096);
            // Reads stay correct across the revocation: the kernel
            // fallback serves the same bytes.
            assert!(buf.iter().all(|&b| b == 0x5A), "corrupt read at op {i}");
        }
        t.close(ctx, fd).unwrap();
    });

    let s = sys.clone();
    let victim_lat = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let vl = Arc::clone(&victim_lat);
    sim.spawn("victim", move |ctx| {
        let proc = UserProcess::start(&s, 1000, 1000);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/work", false).unwrap();
        let mut buf = vec![0u8; 4096];
        for i in 0..600u64 {
            let off = (i % 256) * 4096;
            let start = ctx.now();
            let n = t.pread(ctx, fd, &mut buf, off).unwrap();
            assert_eq!(n, 4096);
            assert!(buf.iter().all(|&b| b == 0x7B));
            vl.lock().push(ctx.now() - start);
        }
        t.close(ctx, fd).unwrap();
    });

    // Mid-burst, the administrator pulls the flooder's direct mappings.
    let s = sys.clone();
    sim.spawn_at(Nanos(1_000_000), "revoker", move |_ctx| {
        let revoked = s.kernel().revoke_path("/flood").unwrap();
        assert!(!revoked.is_empty(), "revocation found no direct openers");
    });

    sim.run();

    // The rate cap was live while the revocation happened.
    assert!(
        sys.device().stats().qos_throttled > 0,
        "flooder was never throttled; the test did not run under QoS pressure"
    );
    // The victim saw steady, uncontended-class latency throughout (the
    // flooder is capped well below its fair share).
    let lats = victim_lat.lock();
    assert_eq!(lats.len(), 600);
    let worst = lats.iter().copied().max().unwrap();
    assert!(
        worst < Nanos(12_000),
        "victim latency spiked to {worst} during revocation"
    );
    // Per-tenant accounting still balances for everyone, and the
    // flooder's direct-path fault from the revocation was recorded.
    let pasid = flood_pasid.lock().expect("flooder never registered");
    let mut saw_flooder = false;
    for (tenant, st) in sys.device().qos_snapshot() {
        assert!(st.accounted(), "{tenant:?} books don't balance");
        if tenant == bypassd::Tenant::User(pasid) {
            saw_flooder = true;
            assert!(st.failed >= 1, "revocation fault never hit the device");
            assert!(st.throttled > 0, "flooder was never rate-limited");
        }
    }
    assert!(saw_flooder, "flooder tenant missing from the snapshot");
}

#[test]
fn crash_recovery_never_leaks_blocks_through_stale_ftes() {
    // Composition of the fault plane with revocation + QoS (§3.6 + §5.3):
    // power is cut at several virtual-time instants while one tenant is
    // being revoked mid-burst and another holds live direct mappings.
    // After every cut, recovery must (a) leave the filesystem fsck-clean,
    // (b) tear down every pre-crash FTE — a stale mapping must not
    // translate into blocks recovery may hand to someone else — and
    // (c) never let the other tenant's bytes surface in this tenant's
    // file.
    let revoke_at = Nanos(150_000);
    for cut_ns in [400_000u64, 900_000, 1_600_000] {
        let sys = System::builder()
            .capacity(1 << 28)
            .qos(bypassd::QosConfig::enabled())
            .build();
        let fs = sys.fs();
        // The victim's secret: owner-only, filled with a marker byte.
        fs.create("/secret", 0o600, 1, 1).unwrap();
        let sec = fs.lookup("/secret").unwrap();
        fs.allocate(sec, 0, 16 * 4096).unwrap();
        let (secret_segs, _) = fs.resolve(sec, 0, 16 * 4096).unwrap();
        for (lba, len) in &secret_segs {
            let mut cur = lba.unwrap();
            let mut left = *len;
            while left > 0 {
                sys.device().write_raw(cur, &[0x5E; 4096]);
                cur = Lba(cur.0 + 8);
                left -= 4096;
            }
        }
        fs.populate("/mine", 64 * 4096, 0xAB).unwrap();
        fs.populate("/work", 64 * 4096, 0x7B).unwrap();
        sys.device().fault_plane().cut_at_time(Nanos(cut_ns));

        let sim = Simulation::new();
        // The bystander's process outlives the simulation so its PASID
        // stays registered — exactly the stale-FTE hazard at remount.
        let holder: Arc<parking_lot::Mutex<Option<Arc<UserProcess>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let bystander_pasid = Arc::new(parking_lot::Mutex::new(None));

        let s = sys.clone();
        sim.spawn("attacker", move |ctx| {
            let proc = UserProcess::start(&s, 666, 666);
            let mut t = proc.thread();
            let fd = t.open(ctx, "/mine", true).unwrap();
            let mut buf = vec![0u8; 4096];
            for i in 0..300u64 {
                let off = (i % 64) * 4096;
                // Post-cut syscalls may fail; keep the clock moving.
                match t.pread(ctx, fd, &mut buf, off) {
                    Ok(n) => {
                        assert_eq!(n, 4096);
                        assert!(
                            buf.iter().all(|&b| b == 0xAB),
                            "foreign bytes in /mine at op {i}"
                        );
                    }
                    Err(_) => break,
                }
                if i % 8 == 0 && t.pwrite(ctx, fd, &[0xAB; 4096], off).is_err() {
                    break;
                }
            }
        });

        let s = sys.clone();
        let h = Arc::clone(&holder);
        let bp = Arc::clone(&bystander_pasid);
        sim.spawn("bystander", move |ctx| {
            let proc = UserProcess::start(&s, 1000, 1000);
            *bp.lock() = Some(s.kernel().pasid_of(proc.pid()));
            let mut t = proc.thread();
            let fd = t.open(ctx, "/work", false).unwrap();
            let mut buf = vec![0u8; 4096];
            for i in 0..200u64 {
                if t.pread(ctx, fd, &mut buf, (i % 64) * 4096).is_err() {
                    break;
                }
            }
            drop(t);
            *h.lock() = Some(proc);
        });

        // Mid-burst revocation of the attacker's direct mappings, well
        // before every candidate cut instant.
        let s = sys.clone();
        sim.spawn_at(revoke_at, "revoker", move |_ctx| {
            let revoked = s.kernel().revoke_path("/mine").unwrap();
            assert!(!revoked.is_empty(), "revocation found no direct openers");
        });
        sim.run();

        // Vacuity check: the bystander's mapping is still live after the
        // crash — this is the window a stale FTE would exploit.
        let pasid = bystander_pasid.lock().expect("bystander never started");
        let vba = Vba(0x10_0000_0000); // fmap region base
        assert!(
            sys.iommu()
                .lock()
                .translate(pasid, vba, PAGE_SIZE, AccessKind::Read, DevId(1))
                .is_ok(),
            "cut@{cut_ns}: pre-remount FTE already gone — test is vacuous"
        );

        // Recovery: journal replay + full fsck, then the FTE must be dead.
        let fs2 = Ext4::mount(sys.device(), sys.mem())
            .unwrap_or_else(|e| panic!("remount after cut@{cut_ns}: {e:?}"));
        let report = bypassd_ext4::fsck(sys.device());
        assert!(
            report.clean(),
            "fsck after cut@{cut_ns}: {}",
            report.errors.join("; ")
        );
        assert!(
            sys.iommu()
                .lock()
                .translate(pasid, vba, PAGE_SIZE, AccessKind::Read, DevId(1))
                .is_err(),
            "cut@{cut_ns}: stale FTE still translates after recovery"
        );

        // The attacker's file never absorbed the victim's marker bytes —
        // at any crash point, every recovered block is its own pattern
        // (or zero for a never-persisted write), never 0x5E.
        let mine = fs2.lookup("/mine").unwrap();
        let size = fs2.size_of(mine).unwrap();
        let (segs, _) = fs2.resolve(mine, 0, size).unwrap();
        let mut buf = vec![0u8; 4096];
        for (lba, len) in &segs {
            let Some(mut cur) = *lba else { continue };
            let mut left = *len;
            while left > 0 {
                sys.device().read_raw(cur, &mut buf);
                assert!(
                    buf.iter().all(|&b| b == 0xAB || b == 0),
                    "cut@{cut_ns}: foreign bytes in /mine after recovery"
                );
                cur = Lba(cur.0 + 8);
                left -= 4096;
            }
        }
        drop(holder.lock().take());
    }
}

#[test]
fn revocation_is_fully_visible_in_the_trace() {
    // Observability of the security mechanism (§3.6 + bypassd-trace):
    // when the kernel revokes a file's direct mappings, the flight
    // recorder must show (a) the in-flight command dying with a
    // translation fault at the device, (b) the victim op re-routing
    // through the kernel (path = revoked, kernel time > 0), and (c) no
    // direct-path stamps from that process leaking after the
    // revocation — every later op is kernel-path only.
    let sys = System::builder()
        .capacity(2 << 30)
        .trace(bypassd::TraceConfig::on())
        .build();
    sys.fs().populate("/secret", 1 << 20, 0x3C).unwrap();
    let revoke_at = Nanos(400_000);

    let sim = Simulation::new();
    let pid_cell = Arc::new(parking_lot::Mutex::new(0u64));
    let s = sys.clone();
    let pc = Arc::clone(&pid_cell);
    sim.spawn("reader", move |ctx| {
        let proc = UserProcess::start(&s, 1000, 1000);
        *pc.lock() = proc.pid();
        let mut t = proc.thread();
        let fd = t.open(ctx, "/secret", false).unwrap();
        let mut buf = vec![0u8; 4096];
        for i in 0..200u64 {
            let off = (i % 256) * 4096;
            let n = t.pread(ctx, fd, &mut buf, off).unwrap();
            assert_eq!(n, 4096);
            // Data stays correct across the transparent fallback.
            assert!(buf.iter().all(|&b| b == 0x3C), "corrupt read at op {i}");
        }
        assert!(t.is_fallback(fd), "revocation never reached the reader");
        t.close(ctx, fd).unwrap();
    });
    let s = sys.clone();
    sim.spawn_at(revoke_at, "revoker", move |_ctx| {
        let revoked = s.kernel().revoke_path("/secret").unwrap();
        assert!(!revoked.is_empty(), "revocation found no direct openers");
    });
    sim.run();

    use bypassd_trace::{IoPath, WalkLevel};
    let pid = *pid_cell.lock();
    let tenant = u64::from(sys.kernel().pasid_of(pid).0) + 1;
    let device = sys.recorder().take_device();
    let ops = sys.recorder().take_ops();

    // (a) The revoked mapping's in-flight command faulted at the device.
    let faults: Vec<_> = device
        .iter()
        .filter(|r| r.tenant == tenant && r.walk == Some(WalkLevel::Fault))
        .collect();
    assert!(!faults.is_empty(), "revocation fault never traced");
    assert!(
        faults.iter().all(|r| !r.ok),
        "a faulted command must not complete ok"
    );
    let fault_at = faults.iter().map(|r| r.submit).min().unwrap();
    assert!(
        fault_at >= revoke_at,
        "fault traced before the revocation: {fault_at} < {revoke_at}"
    );

    // (b) Exactly one op caught the revocation mid-flight and shows the
    // kernel completing it.
    let revoked_ops: Vec<_> = ops
        .iter()
        .filter(|r| r.pid == pid && r.path == IoPath::Revoked)
        .collect();
    assert_eq!(revoked_ops.len(), 1, "expected exactly one revoked op");
    let caught = revoked_ops[0];
    assert!(caught.faults >= 1, "revoked op lost its fault count");
    assert!(
        caught.kernel > Nanos::ZERO,
        "revoked op shows no kernel-fallback time"
    );

    // (c) Direct-path traffic existed before the revocation and none
    // leaked after it: no later direct op records from this process, no
    // later user-tenant commands on its queue.
    assert!(
        ops.iter()
            .any(|r| r.pid == pid && r.path == IoPath::Direct && r.start < revoke_at),
        "no direct traffic before the revocation — test is vacuous"
    );
    for op in ops
        .iter()
        .filter(|r| r.pid == pid && r.start > caught.start)
    {
        assert_ne!(
            op.path,
            IoPath::Direct,
            "direct-path op record leaked after revocation at {}",
            op.start
        );
    }
    assert!(
        !device
            .iter()
            .any(|r| r.tenant == tenant && r.submit > fault_at),
        "user-queue command traced after the revocation fault"
    );
}
