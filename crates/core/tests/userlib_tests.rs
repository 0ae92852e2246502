//! UserLib behaviour: direct-path latency, data integrity, appends,
//! partial-write serialisation, revocation fallback, sharing.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::{System, UserProcess};
use bypassd_os::{Errno, OpenFlags};
use bypassd_sim::{Nanos, Simulation};

fn system() -> System {
    System::builder().build()
}

fn run<T: Send + 'static>(
    sys: &System,
    f: impl FnOnce(&mut bypassd_sim::ActorCtx, &System) -> T + Send + 'static,
) -> T {
    let sim = Simulation::new();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let s2 = sys.clone();
    sim.spawn("t", move |ctx| {
        let r = f(ctx, &s2);
        *o2.lock() = Some(r);
    });
    sim.run();
    let mut guard = out.lock();
    guard.take().unwrap()
}

#[test]
fn direct_4k_read_latency_headline() {
    // The paper's headline: 4KB reads ~42% faster than the kernel path
    // (7.85µs → ~4.6µs). Our calibration lands at ~5µs; assert the band.
    let sys = system();
    sys.fs().populate("/f", 1 << 20, 0x77).unwrap();
    let lat = run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/f", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap(); // warm
        let t0 = ctx.now();
        t.pread(ctx, fd, &mut buf, 4096).unwrap();
        let lat = ctx.now() - t0;
        assert!(buf.iter().all(|&b| b == 0x77));
        lat
    });
    let ns = lat.as_nanos();
    assert!(
        (4_400..5_600).contains(&ns),
        "BypassD 4KB read = {ns}ns (want ~4.6-5.1µs, well under sync's 7.85µs)"
    );
}

#[test]
fn overwrite_roundtrip() {
    let sys = system();
    sys.fs().populate("/w", 64 * 1024, 0).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/w", true).unwrap();
        let data = vec![0xCDu8; 8192];
        assert_eq!(t.pwrite(ctx, fd, &data, 4096).unwrap(), 8192);
        let mut buf = vec![0u8; 8192];
        t.pread(ctx, fd, &mut buf, 4096).unwrap();
        assert_eq!(buf, data);
        // Around the edges untouched.
        let mut edge = vec![1u8; 4096];
        t.pread(ctx, fd, &mut edge, 0).unwrap();
        assert!(edge.iter().all(|&b| b == 0));
        let (direct, fallback) = proc.op_counts();
        assert!(direct >= 3);
        assert_eq!(fallback, 0);
    });
}

#[test]
fn unaligned_read_within_sector() {
    let sys = system();
    sys.fs().populate("/u", 8192, 0).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/u", true).unwrap();
        t.pwrite(ctx, fd, &[9u8; 512], 512).unwrap();
        let mut buf = vec![0u8; 100];
        let n = t.pread(ctx, fd, &mut buf, 700).unwrap();
        assert_eq!(n, 100);
        assert!(buf.iter().all(|&b| b == 9));
    });
}

#[test]
fn read_past_eof() {
    let sys = system();
    sys.fs().populate("/e", 1000, 5).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/e", false).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(t.pread(ctx, fd, &mut buf, 1000).unwrap(), 0);
        assert_eq!(t.pread(ctx, fd, &mut buf, 500).unwrap(), 500);
        assert!(buf[..500].iter().all(|&b| b == 5));
    });
}

#[test]
fn append_goes_through_kernel_and_grows() {
    let sys = system();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open_with(ctx, "/log", true, true).unwrap();
        for i in 0..3u8 {
            assert_eq!(
                t.pwrite(ctx, fd, &vec![i + 1; 512], i as u64 * 512)
                    .unwrap(),
                512
            );
        }
        assert_eq!(t.size(fd).unwrap(), 1536);
        let (_, fallback) = proc.op_counts();
        assert_eq!(fallback, 3, "appends must route through the kernel");
        // The appended data is readable directly.
        let mut buf = vec![0u8; 1536];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(buf[..512].iter().all(|&b| b == 1));
        assert!(buf[1024..].iter().all(|&b| b == 3));
        let (direct, _) = proc.op_counts();
        assert!(direct >= 1, "read after append must be direct (FTEs grown)");
    });
}

#[test]
fn optimized_append_is_mostly_direct_and_faster() {
    let sys = system();
    let (plain, optimized) = run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let chunk = vec![0xABu8; 4096];

        let fd1 = t.open_with(ctx, "/plain", true, true).unwrap();
        let t0 = ctx.now();
        for i in 0..32 {
            t.pwrite(ctx, fd1, &chunk, i * 4096).unwrap();
        }
        let plain = ctx.now() - t0;
        t.close(ctx, fd1).unwrap();

        let fd2 = t.open_with(ctx, "/opt", true, true).unwrap();
        proc.enable_optimized_append(fd2, 1 << 20);
        let t1 = ctx.now();
        for i in 0..32 {
            t.pwrite(ctx, fd2, &chunk, i * 4096).unwrap();
        }
        let optimized = ctx.now() - t1;
        t.fsync(ctx, fd2).unwrap();
        // Size flushed at fsync.
        assert_eq!(
            sys.fs().size_of(sys.fs().lookup("/opt").unwrap()).unwrap(),
            32 * 4096
        );
        // Data correct.
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd2, &mut buf, 31 * 4096).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
        t.close(ctx, fd2).unwrap();
        (plain, optimized)
    });
    assert!(
        optimized < plain,
        "optimized append ({optimized}) not faster than kernel appends ({plain})"
    );
}

#[test]
fn partial_write_rmw_preserves_neighbours() {
    let sys = system();
    sys.fs().populate("/p", 4096, 0x11).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/p", true).unwrap();
        t.pwrite(ctx, fd, &[0xFFu8; 100], 50).unwrap();
        let mut buf = vec![0u8; 512];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(buf[..50].iter().all(|&b| b == 0x11));
        assert!(buf[50..150].iter().all(|&b| b == 0xFF));
        assert!(buf[150..].iter().all(|&b| b == 0x11));
    });
}

#[test]
fn concurrent_partial_writes_serialise() {
    // Two threads RMW different byte ranges of the same sector; without
    // the §4.5.1 serialisation one would clobber the other.
    let sys = system();
    sys.fs().populate("/c", 4096, 0).unwrap();
    let sim = Simulation::new();
    let proc_holder: Arc<Mutex<Option<Arc<UserProcess>>>> = Arc::new(Mutex::new(None));
    {
        let sys2 = sys.clone();
        let ph = Arc::clone(&proc_holder);
        sim.spawn("setup", move |ctx| {
            let proc = UserProcess::start(&sys2, 0, 0);
            let mut t = proc.thread();
            let fd = t.open(ctx, "/c", true).unwrap();
            assert_eq!(fd, 3);
            *ph.lock() = Some(proc);
        });
    }
    sim.run();
    let proc = proc_holder.lock().take().unwrap();
    let sim = Simulation::new();
    for (name, lo) in [("a", 0u64), ("b", 200u64)] {
        let p = Arc::clone(&proc);
        sim.spawn(name, move |ctx| {
            let mut t = p.thread();
            let val = if lo == 0 { 0xAA } else { 0xBB };
            t.pwrite(ctx, 3, &[val; 100], lo).unwrap();
        });
    }
    sim.run();
    let sim = Simulation::new();
    let p = Arc::clone(&proc);
    sim.spawn("check", move |ctx| {
        let mut t = p.thread();
        let mut buf = vec![0u8; 512];
        t.pread(ctx, 3, &mut buf, 0).unwrap();
        assert!(
            buf[..100].iter().all(|&b| b == 0xAA),
            "thread a's write lost"
        );
        assert!(
            buf[200..300].iter().all(|&b| b == 0xBB),
            "thread b's write lost"
        );
    });
    sim.run();
}

#[test]
fn revocation_falls_back_transparently() {
    let sys = system();
    sys.fs().populate("/r", 1 << 20, 3).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/r", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(!t.is_fallback(fd));

        // Another process opens through the kernel interface → revoke.
        let other = sys.kernel().spawn_process(0, 0);
        let _k = sys
            .kernel()
            .sys_open(ctx, other, "/r", OpenFlags::rdwr_buffered(), 0)
            .unwrap();

        // The next direct read faults, UserLib re-fmaps, gets VBA 0, and
        // completes via the kernel — no error surfaces.
        let n = t.pread(ctx, fd, &mut buf, 4096).unwrap();
        assert_eq!(n, 4096);
        assert!(buf.iter().all(|&b| b == 3));
        assert!(t.is_fallback(fd));
        let (_, fallback) = proc.op_counts();
        assert!(fallback >= 1);

        // Subsequent reads stay on the kernel path and work.
        t.pread(ctx, fd, &mut buf, 8192).unwrap();
        assert!(buf.iter().all(|&b| b == 3));
    });
}

#[test]
fn fallback_is_slower_than_direct() {
    let sys = system();
    sys.fs().populate("/r2", 1 << 20, 0).unwrap();
    let (direct, fallback) = run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/r2", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        let t0 = ctx.now();
        t.pread(ctx, fd, &mut buf, 4096).unwrap();
        let direct = ctx.now() - t0;
        let other = sys.kernel().spawn_process(0, 0);
        sys.kernel()
            .sys_open(ctx, other, "/r2", OpenFlags::rdwr_buffered(), 0)
            .unwrap();
        t.pread(ctx, fd, &mut buf, 0).unwrap(); // pays the revocation
        let t1 = ctx.now();
        t.pread(ctx, fd, &mut buf, 8192).unwrap();
        (direct, ctx.now() - t1)
    });
    assert!(
        fallback > direct + Nanos(1_000),
        "fallback ({fallback}) should cost kernel-path latency vs direct ({direct})"
    );
}

#[test]
fn write_without_permission_rejected() {
    let sys = system();
    sys.fs().populate("/ro", 4096, 0).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/ro", false).unwrap();
        assert_eq!(t.pwrite(ctx, fd, &[1u8; 512], 0).unwrap_err(), Errno::Perm);
    });
}

#[test]
fn two_processes_share_a_file_directly() {
    let sys = system();
    sys.fs().populate("/shared", 64 * 1024, 0).unwrap();
    let sim = Simulation::new();
    let s1 = sys.clone();
    sim.spawn("writer", move |ctx| {
        let proc = UserProcess::start(&s1, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/shared", true).unwrap();
        t.pwrite(ctx, fd, &[0xEEu8; 4096], 0).unwrap();
        let (direct, fallback) = proc.op_counts();
        assert_eq!((direct, fallback), (1, 0), "writer must stay direct");
    });
    let s2 = sys.clone();
    sim.spawn_at(Nanos::from_micros(100), "reader", move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/shared", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0xEE),
            "reader must see writer's data"
        );
        let (direct, fallback) = proc.op_counts();
        assert_eq!((direct, fallback), (1, 0), "reader must stay direct");
    });
    sim.run();
}

#[test]
fn shared_offset_between_threads_of_a_process() {
    let sys = system();
    sys.fs().populate("/off", 64 * 1024, 1).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t1 = proc.thread();
        let mut t2 = proc.thread();
        let fd = t1.open(ctx, "/off", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t1.read(ctx, fd, &mut buf).unwrap();
        // The offset advanced for the whole process (shared UserLib).
        t2.read(ctx, fd, &mut buf).unwrap();
        assert_eq!(t2.lseek(fd, 0).unwrap(), 0);
    });
}

#[test]
fn large_read_chunks_through_dma_buffer() {
    let sys = system();
    sys.fs().populate("/big", 4 << 20, 0x3C).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/big", false).unwrap();
        let mut buf = vec![0u8; 3 << 20]; // 3 MB > 1 MB DMA buffer
        let n = t.pread(ctx, fd, &mut buf, 4096).unwrap();
        assert_eq!(n, 3 << 20);
        assert!(buf.iter().all(|&b| b == 0x3C));
    });
}

#[test]
fn multithreaded_distinct_fds_smoke() {
    // Lock-light data-path satellite: several threads of one process
    // hammer distinct fds concurrently. Each thread mixes synchronous
    // writes, non-blocking writes, and reads that must observe the
    // pending-write overlay; at the end every byte must be intact, no op
    // may have fallen back, and no overlay may have been lost.
    const THREADS: usize = 4;
    let sys = system();
    for i in 0..THREADS {
        sys.fs()
            .populate(&format!("/mt{i}"), 256 * 1024, 0)
            .unwrap();
    }
    // Phase 1: one setup actor opens all files so fds are known.
    let sim = Simulation::new();
    type Held = Option<(Arc<UserProcess>, Vec<i32>)>;
    let holder: Arc<Mutex<Held>> = Arc::new(Mutex::new(None));
    {
        let sys2 = sys.clone();
        let h = Arc::clone(&holder);
        sim.spawn("setup", move |ctx| {
            let proc = UserProcess::start(&sys2, 0, 0);
            let mut t = proc.thread();
            let fds = (0..THREADS)
                .map(|i| t.open(ctx, &format!("/mt{i}"), true).unwrap())
                .collect();
            *h.lock() = Some((proc, fds));
        });
    }
    sim.run();
    let (proc, fds) = holder.lock().take().unwrap();
    // Phase 2: one actor per fd, all interleaved in the simulation, so
    // the RwLock'd file table and per-fd mutexes are taken by many
    // actors in turn.
    let sim = Simulation::new();
    for (i, &fd) in fds.iter().enumerate() {
        let p = Arc::clone(&proc);
        sim.spawn(&format!("worker-{i}"), move |ctx| {
            let mut t = p.thread();
            let tag = 0x10 + i as u8;
            // Synchronous aligned overwrite at the front.
            t.pwrite(ctx, fd, &[tag; 8192], 0).unwrap();
            // Non-blocking write further in; read it back *before*
            // flushing — the overlay must serve the unconfirmed data.
            t.pwrite_async(ctx, fd, &[tag ^ 0xFF; 4096], 65536).unwrap();
            let mut buf = vec![0u8; 4096];
            t.pread(ctx, fd, &mut buf, 65536).unwrap();
            assert!(
                buf.iter().all(|&b| b == tag ^ 0xFF),
                "worker {i}: pending-write overlay lost"
            );
            // Sub-sector RMW on this thread's own file.
            t.pwrite(ctx, fd, &[tag; 100], 12_345).unwrap();
            t.fsync(ctx, fd).unwrap();
        });
    }
    sim.run();
    // Phase 3: verify every file from a fresh thread.
    let sim = Simulation::new();
    let p = Arc::clone(&proc);
    sim.spawn("check", move |ctx| {
        let mut t = p.thread();
        for (i, &fd) in fds.iter().enumerate() {
            let tag = 0x10 + i as u8;
            let mut buf = vec![0u8; 8192];
            t.pread(ctx, fd, &mut buf, 0).unwrap();
            assert!(buf.iter().all(|&b| b == tag), "worker {i}: sync write lost");
            let mut buf = vec![0u8; 4096];
            t.pread(ctx, fd, &mut buf, 65536).unwrap();
            assert!(
                buf.iter().all(|&b| b == tag ^ 0xFF),
                "worker {i}: async write lost after fsync"
            );
            let mut buf = vec![0u8; 100];
            t.pread(ctx, fd, &mut buf, 12_345).unwrap();
            assert!(buf.iter().all(|&b| b == tag), "worker {i}: RMW write lost");
            assert_eq!(t.pending_write_count(fd), 0);
        }
        let (direct, fallback) = p.op_counts();
        assert!(direct >= (THREADS * 6) as u64, "direct={direct}");
        assert_eq!(fallback, 0, "no op may fall back on the direct path");
    });
    sim.run();
}

// ---- QoS backpressure (bypassd-qos integration) ----

#[test]
fn qos_backpressure_adapts_effective_depth() {
    // A non-blocking write flood under QoS must draw congestion signals
    // (the tenant outruns its lane allocation) and shrink the thread's
    // effective submission window, AIMD-style.
    let sys = System::builder().qos(bypassd::QosConfig::enabled()).build();
    sys.fs().populate("/bp", 1 << 20, 0).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/bp", true).unwrap();
        assert_eq!(t.effective_depth(), 64);
        let data = vec![0xABu8; 4096];
        for i in 0..64u64 {
            t.pwrite_async(ctx, fd, &data, i * 4096).unwrap();
        }
        assert!(
            t.pressure_events() > 0,
            "a 64-deep flood under QoS must signal pressure"
        );
        assert!(
            t.effective_depth() < 64,
            "the submission window must shrink under pressure"
        );
        // Data integrity survives the adaptive draining.
        t.flush_writes(ctx, fd).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 63 * 4096).unwrap();
        assert_eq!(buf, data);
        t.close(ctx, fd).unwrap();
    });
}

#[test]
fn no_pressure_signals_without_qos() {
    if std::env::var("BYPASSD_FORCE_QOS").is_ok_and(|v| !v.is_empty() && v != "0") {
        return; // the CI override deliberately enables QoS everywhere
    }
    let sys = system();
    sys.fs().populate("/np", 1 << 20, 0).unwrap();
    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/np", true).unwrap();
        let data = vec![0x5Au8; 4096];
        for i in 0..64u64 {
            t.pwrite_async(ctx, fd, &data, i * 4096).unwrap();
        }
        assert_eq!(t.pressure_events(), 0, "QoS off must never signal pressure");
        assert_eq!(
            t.effective_depth(),
            64,
            "window must stay at hardware depth"
        );
        t.flush_writes(ctx, fd).unwrap();
        t.close(ctx, fd).unwrap();
    });
}

#[test]
fn batch_mid_flight_fault_demotes_only_faulted_slots() {
    // A sparse file: the first 256 KB is written, the second 256 KB is a
    // hole (truncate up). fmap maps only allocated extents, so batch
    // slots landing in the hole raise device translation faults
    // mid-flight; each such slot must demote to the sequential path
    // (re-fmap, exhaust retries, kernel read of zeros) while written
    // slots in the same flight stay direct — and the entry's VBA must
    // remain valid afterwards (no stale-VBA reuse).
    use bypassd::ReadReq;
    let sys = system();
    let data = 256u64 * 1024;
    let ino = sys.fs().populate("/sparse", data, 0xAB).unwrap();
    sys.fs().truncate(ino, 2 * data).unwrap();

    run(&sys, move |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/sparse", false).unwrap();
        // Eight 4 KB slots alternating written / hole.
        let offsets: Vec<(u64, bool)> = (0..8u64)
            .map(|i| {
                if i % 2 == 0 {
                    ((i / 2) * 4096, true)
                } else {
                    (data + (i / 2) * 4096, false)
                }
            })
            .collect();
        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0xFFu8; 4096]).collect();
        {
            let mut reqs: Vec<ReadReq<'_>> = bufs
                .iter_mut()
                .zip(offsets.iter())
                .map(|(buf, &(offset, _))| ReadReq { offset, buf })
                .collect();
            let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
            assert_eq!(n, 8 * 4096, "every slot must complete");
        }
        for (k, (buf, &(off, written))) in bufs.iter().zip(offsets.iter()).enumerate() {
            let want = if written { 0xAB } else { 0x00 };
            assert!(
                buf.iter().all(|&b| b == want),
                "slot {k} (offset {off}, written={written}) has wrong bytes"
            );
        }
        let (direct, fallback) = proc.op_counts();
        assert_eq!(fallback, 4, "each hole slot demotes to one kernel read");
        assert_eq!(direct, 4, "written slots stay direct within the flight");

        // No stale-VBA reuse: the fault handling re-fmapped the file;
        // a follow-up all-written batch must run fully direct off the
        // (still valid) mapping, with no new kernel fallbacks.
        let mut follow: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 4096]).collect();
        {
            let mut reqs: Vec<ReadReq<'_>> = follow
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| ReadReq {
                    offset: (i as u64) * 4096,
                    buf,
                })
                .collect();
            let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
            assert_eq!(n, 4 * 4096);
        }
        assert!(follow.iter().all(|b| b.iter().all(|&x| x == 0xAB)));
        let (direct2, fallback2) = proc.op_counts();
        assert_eq!(fallback2, fallback, "follow-up batch must not fall back");
        assert_eq!(direct2, direct + 4, "follow-up batch stays direct");

        // The same slots as one-hop chains: hole chains fault mid-flight
        // and demote to the sequential chain path, which ends in host
        // interpretation over one kernel read each.
        let prog = sys
            .kernel()
            .sys_prog_load(ctx, proc.pid(), vec![bypassd_offload::Op::Return])
            .unwrap();
        let mut blocks: Vec<Vec<u8>> = (0..8).map(|_| vec![0xFFu8; 512]).collect();
        {
            let mut chains: Vec<bypassd::ChainReq<'_>> = blocks
                .iter_mut()
                .zip(offsets.iter())
                .map(|(buf, &(start, _))| bypassd::ChainReq {
                    start,
                    regs: [0; bypassd_offload::NUM_REGS],
                    buf,
                })
                .collect();
            let n = t.pread_chain_batch(ctx, fd, prog, &mut chains).unwrap();
            assert_eq!(n, 8 * 512, "every chain must complete");
        }
        for (k, (buf, &(off, written))) in blocks.iter().zip(offsets.iter()).enumerate() {
            let want = if written { 0xAB } else { 0x00 };
            assert!(
                buf.iter().all(|&b| b == want),
                "chain {k} (start {off}, written={written}) has wrong bytes"
            );
        }
        let (direct3, fallback3) = proc.op_counts();
        assert_eq!(
            fallback3,
            fallback2 + 4,
            "each hole chain demotes to one kernel read"
        );
        assert_eq!(
            direct3,
            direct2 + 4,
            "written chains stay direct within the flight"
        );
        t.close(ctx, fd).unwrap();
    });
}

#[test]
fn batch_unaligned_slot_demotes_whole_batch_to_sequential() {
    // One unaligned slot routes the entire batch down the sequential
    // pread path. Observable in the trace: a coalesced flight charges
    // its single userlib overhead to the first record only, while the
    // sequential path charges every op — so all records carrying a
    // userlib stage proves the demotion, and per-slot bytes prove the
    // semantics survived it.
    use bypassd::{ReadReq, TraceConfig};
    let sys = System::builder().trace(TraceConfig::on()).build();
    sys.fs().populate("/u", 64 * 1024, 0).unwrap();

    run(&sys, |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/u", true).unwrap();
        for i in 0..4u64 {
            t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                .unwrap();
        }
        sys.recorder().take_ops(); // drain setup records

        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 100];
        let mut c = vec![0u8; 4096];
        let mut reqs = [
            ReadReq {
                offset: 0,
                buf: &mut a,
            },
            ReadReq {
                offset: 4096 + 123, // unaligned: poisons the fast path
                buf: &mut b,
            },
            ReadReq {
                offset: 2 * 4096,
                buf: &mut c,
            },
        ];
        let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
        assert_eq!(n, 4096 + 100 + 4096);
        assert!(a.iter().all(|&x| x == 1));
        assert!(
            b.iter().all(|&x| x == 2),
            "unaligned slot reads page 1's fill"
        );
        assert!(c.iter().all(|&x| x == 3));

        let ops = sys.recorder().take_ops();
        assert_eq!(ops.len(), 3, "one record per demoted request");
        for (k, op) in ops.iter().enumerate() {
            assert!(
                op.userlib > Nanos::ZERO,
                "record {k}: sequential ops each carry the userlib stage \
                 (a flight charges only its first record)"
            );
        }
        let (_, fallback) = proc.op_counts();
        assert_eq!(fallback, 0, "demotion is sequential-direct, not kernel");
        t.close(ctx, fd).unwrap();
    });
}
