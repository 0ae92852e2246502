//! Crash-consistency through the full stack: metadata survives a crash
//! via journal replay (the paper's configuration journals metadata only —
//! "ext4 without data journaling", §4).

use bypassd::{System, UserProcess};
use bypassd_ext4::Ext4;
use bypassd_faults::plane::Cut;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;

fn system() -> System {
    System::builder().capacity(2 << 30).build()
}

/// Cuts power cleanly at the device's next write: everything already
/// issued is on media, nothing after reaches it.
fn cut_power(sys: &System) {
    let p = sys.device().fault_plane();
    p.arm(Cut::at_seq(p.seq()));
}

#[test]
fn metadata_survives_crash_after_direct_appends() {
    let sys = system();
    let sim = Simulation::new();
    let s = sys.clone();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&s, 0, 0);
        let mut t = proc.thread();
        let fd = t.open_with(ctx, "/journal-me", true, true).unwrap();
        // Appends go through the kernel and are journaled.
        for i in 0..8u64 {
            t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                .unwrap();
        }
        t.fsync(ctx, fd).unwrap();
        // Crash *before* close: the fsync'd transactions are on media,
        // nothing issued after the cut reaches it.
        cut_power(&s);
        // More activity after the crash point (these writes vanish).
        let _ = t.pwrite(ctx, fd, &vec![0xFF; 4096], 8 * 4096);
    });
    sim.run();

    // Remount: journal replay must restore the file with all 8 blocks.
    let fs2 = Ext4::mount(sys.device(), sys.mem()).expect("remount failed");
    let ino = fs2.lookup("/journal-me").expect("file lost after crash");
    let size = fs2.size_of(ino).unwrap();
    assert!(size >= 8 * 4096, "size after recovery = {size}");
    let (segs, _) = fs2.resolve(ino, 0, 8 * 4096).unwrap();
    assert!(
        segs.iter().all(|(l, _)| l.is_some()),
        "holes after recovery"
    );
    // Data blocks were written in place (ordered mode): contents intact.
    let mut buf = vec![0u8; 4096];
    let mut pos = 0u64;
    for (lba, len) in &segs {
        let mut remaining = *len;
        let mut cur = lba.unwrap();
        while remaining > 0 {
            sys.device().read_raw(cur, &mut buf);
            let block_idx = pos / 4096;
            assert!(
                buf.iter().all(|&b| b == (block_idx + 1) as u8),
                "data of block {block_idx} corrupted"
            );
            cur = bypassd_hw::types::Lba(cur.0 + 8);
            pos += 4096;
            remaining -= 4096;
        }
    }
}

#[test]
fn directory_tree_survives_crash() {
    let sys = system();
    let fs = sys.fs();
    fs.mkdir("/a", 0o755, 0, 0).unwrap();
    fs.mkdir("/a/b", 0o755, 0, 0).unwrap();
    for i in 0..10 {
        fs.create(&format!("/a/b/f{i}"), 0o644, 0, 0).unwrap();
    }
    cut_power(&sys);
    // Post-crash creations must be recoverable from the journal too.
    let fs2 = Ext4::mount(sys.device(), sys.mem()).unwrap();
    for i in 0..10 {
        assert!(
            fs2.lookup(&format!("/a/b/f{i}")).is_ok(),
            "lost /a/b/f{i} after crash"
        );
    }
    assert_eq!(fs2.readdir("/a/b").unwrap().len(), 10);
}

#[test]
fn allocations_not_double_used_after_recovery() {
    let sys = system();
    let fs = sys.fs();
    let a = fs.create("/alloc-a", 0o644, 0, 0).unwrap();
    fs.allocate(a, 0, 8 << 20).unwrap();
    cut_power(&sys);
    let fs2 = Ext4::mount(sys.device(), sys.mem()).unwrap();
    let a2 = fs2.lookup("/alloc-a").unwrap();
    let b = fs2.create("/alloc-b", 0o644, 0, 0).unwrap();
    fs2.allocate(b, 0, 8 << 20).unwrap();
    let (sa, _) = fs2.resolve(a2, 0, 8 << 20).unwrap();
    let (sb, _) = fs2.resolve(b, 0, 8 << 20).unwrap();
    // No overlap between the two files' extents.
    for (la, lena) in sa.iter().map(|(l, n)| (l.unwrap().0, n / 512)) {
        for (lb, lenb) in sb.iter().map(|(l, n)| (l.unwrap().0, n / 512)) {
            assert!(
                la + lena <= lb || lb + lenb <= la,
                "extent overlap after recovery: [{la},{lena}] vs [{lb},{lenb}]"
            );
        }
    }
}

#[test]
fn unlinked_file_stays_gone_after_crash() {
    let sys = system();
    let fs = sys.fs();
    fs.create("/gone", 0o644, 0, 0).unwrap();
    fs.unlink("/gone", 0, 0).unwrap();
    cut_power(&sys);
    let fs2 = Ext4::mount(sys.device(), sys.mem()).unwrap();
    assert!(fs2.lookup("/gone").is_err(), "unlink lost across crash");
}

#[test]
fn virtual_time_cut_mid_workload_recovers_consistently() {
    // Power is cut at an arbitrary virtual-time instant *while the
    // workload runs*, not at a hand-picked quiescent point. Whatever
    // prefix of fsync'd steps made it to media must be intact; the
    // filesystem must be fsck-clean.
    for cut_ns in [150_000u64, 400_000, 900_000] {
        let sys = system();
        sys.device().fault_plane().cut_at_time(Nanos(cut_ns));
        let sim = Simulation::new();
        let s = sys.clone();
        sim.spawn("writer", move |ctx| {
            let proc = UserProcess::start(&s, 0, 0);
            let mut t = proc.thread();
            let fd = t.open_with(ctx, "/timed", true, true).unwrap();
            for i in 0..16u64 {
                // Post-cut syscalls legitimately fail; keep issuing so the
                // clock advances past every candidate instant.
                if t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                    .is_err()
                {
                    break;
                }
                let _ = t.fsync(ctx, fd);
            }
        });
        sim.run();

        let fs2 = Ext4::mount(sys.device(), sys.mem())
            .unwrap_or_else(|e| panic!("remount after cut@{cut_ns}: {e:?}"));
        let report = bypassd_ext4::fsck(sys.device());
        assert!(
            report.clean(),
            "fsck after cut@{cut_ns}: {}",
            report.errors.join("; ")
        );
        // A time cut is clean (no tears): every block under the recovered
        // size holds exactly its step pattern.
        if let Ok(ino) = fs2.lookup("/timed") {
            let size = fs2.size_of(ino).unwrap();
            assert_eq!(size % 4096, 0, "torn size {size} from a clean cut");
            let mut buf = vec![0u8; 4096];
            let (segs, _) = fs2.resolve(ino, 0, size).unwrap();
            let mut pos = 0u64;
            for (lba, len) in &segs {
                let mut remaining = *len;
                let mut cur = lba.expect("hole under recovered size");
                while remaining > 0 {
                    sys.device().read_raw(cur, &mut buf);
                    let blk = pos / 4096;
                    assert!(
                        buf.iter().all(|&b| b == (blk + 1) as u8),
                        "block {blk} corrupted after cut@{cut_ns}"
                    );
                    cur = bypassd_hw::types::Lba(cur.0 + 8);
                    pos += 4096;
                    remaining -= 4096;
                }
            }
        }
    }
}

#[test]
fn repeated_crash_recovery_cycles() {
    let sys = system();
    {
        sys.fs().create("/cycle", 0o644, 0, 0).unwrap();
    }
    let mut current = None;
    for round in 0..5 {
        let fs: &Ext4 = match &current {
            None => sys.fs(),
            Some(f) => f,
        };
        let ino = fs.lookup("/cycle").unwrap();
        fs.allocate(ino, round * 4096, 4096).unwrap();
        cut_power(&sys);
        let fs2 = Ext4::mount(sys.device(), sys.mem()).unwrap();
        let ino2 = fs2.lookup("/cycle").unwrap();
        assert_eq!(
            fs2.size_of(ino2).unwrap(),
            (round + 1) * 4096,
            "round {round} lost its allocation"
        );
        current = Some(fs2);
    }
}
