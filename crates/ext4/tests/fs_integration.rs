//! End-to-end tests of the ext4 substrate: namespace, allocation,
//! persistence, crash recovery, fmap and revocation.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::fmap::{FmapCost, MapTarget, FRAGMENT_SPAN};
use bypassd_ext4::layout::BLOCK_SIZE;
use bypassd_ext4::{Ext4, Ext4Error, Ext4Options};
use bypassd_faults::plane::{Cut, WriteKind};
use bypassd_hw::iommu::{AccessKind, Iommu};
use bypassd_hw::page_table::AddressSpace;
use bypassd_hw::types::{DevId, Lba, Pasid, PAGE_SIZE};
use bypassd_hw::PhysMem;
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::timing::MediaTiming;

const DEV: DevId = DevId(1);

struct Fixture {
    mem: PhysMem,
    dev: Arc<NvmeDevice>,
    fs: Ext4,
}

fn fixture() -> Fixture {
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    // 2 GB device.
    let dev = NvmeDevice::new(DEV, 4 << 20, MediaTiming::default(), iommu);
    let fs = Ext4::format(&dev, &mem, Ext4Options::default());
    Fixture { mem, dev, fs }
}

fn target(mem: &PhysMem, iommu: &Arc<Mutex<Iommu>>, pid: u64) -> MapTarget {
    let asid = Arc::new(Mutex::new(AddressSpace::new(mem)));
    let pasid = Pasid(pid as u32);
    iommu.lock().register(pasid, asid.lock().root_frame());
    MapTarget { pid, pasid, asid }
}

#[test]
fn create_lookup_stat() {
    let f = fixture();
    let ino = f.fs.create("/a.txt", 0o640, 10, 20).unwrap();
    assert_eq!(f.fs.lookup("/a.txt").unwrap(), ino);
    let st = f.fs.stat(ino).unwrap();
    assert_eq!(st.size, 0);
    assert_eq!(st.uid, 10);
    assert_eq!(st.mode & 0o777, 0o640);
}

#[test]
fn nested_directories() {
    let f = fixture();
    f.fs.mkdir("/d", 0o755, 0, 0).unwrap();
    f.fs.mkdir("/d/e", 0o755, 0, 0).unwrap();
    let ino = f.fs.create("/d/e/file", 0o644, 0, 0).unwrap();
    assert_eq!(f.fs.lookup("/d/e/file").unwrap(), ino);
    let entries = f.fs.readdir("/d").unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "e");
}

#[test]
fn create_duplicate_fails() {
    let f = fixture();
    f.fs.create("/x", 0o644, 0, 0).unwrap();
    assert_eq!(f.fs.create("/x", 0o644, 0, 0), Err(Ext4Error::Exists));
}

#[test]
fn lookup_missing_fails() {
    let f = fixture();
    assert_eq!(f.fs.lookup("/nope"), Err(Ext4Error::NotFound));
    assert_eq!(f.fs.lookup("relative"), Err(Ext4Error::InvalidPath));
}

#[test]
fn unlink_removes_and_frees() {
    let f = fixture();
    let free0 = f.fs.free_blocks();
    let ino = f.fs.create("/f", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 40 * BLOCK_SIZE).unwrap();
    assert!(f.fs.free_blocks() < free0);
    f.fs.unlink("/f", 0, 0).unwrap();
    assert_eq!(f.fs.lookup("/f"), Err(Ext4Error::NotFound));
    // Freed blocks return only at the next sync point (§3.6).
    let released = f.fs.sync_point();
    assert_eq!(released, 40);
}

#[test]
fn permission_enforced_on_create() {
    let f = fixture();
    f.fs.mkdir("/locked", 0o700, 1, 1).unwrap();
    assert_eq!(f.fs.create("/locked/f", 0o644, 2, 2), Err(Ext4Error::Perm));
    assert!(f.fs.create("/locked/f", 0o644, 1, 1).is_ok());
}

#[test]
fn allocate_and_resolve() {
    let f = fixture();
    let ino = f.fs.create("/data", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 10 * BLOCK_SIZE).unwrap();
    assert_eq!(f.fs.size_of(ino).unwrap(), 10 * BLOCK_SIZE);
    let (segs, _) = f.fs.resolve(ino, 0, 10 * BLOCK_SIZE).unwrap();
    // Fresh FS: one contiguous run.
    assert_eq!(segs.len(), 1);
    let (lba, len) = segs[0];
    assert!(lba.is_some());
    assert_eq!(len, 10 * BLOCK_SIZE);
}

#[test]
fn resolve_subrange_with_offset() {
    let f = fixture();
    let ino = f.fs.create("/data", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 4 * BLOCK_SIZE).unwrap();
    let (segs, _) = f.fs.resolve(ino, BLOCK_SIZE + 512, 1024).unwrap();
    assert_eq!(segs.len(), 1);
    assert_eq!(segs[0].1, 1024);
}

#[test]
fn holes_resolve_as_none() {
    let f = fixture();
    let ino = f.fs.create("/sparse", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    // Grow size sparsely (truncate up).
    f.fs.truncate(ino, 3 * BLOCK_SIZE).unwrap();
    let (segs, _) = f.fs.resolve(ino, 0, 3 * BLOCK_SIZE).unwrap();
    assert_eq!(segs.len(), 2);
    assert!(segs[0].0.is_some());
    assert!(segs[1].0.is_none());
    assert_eq!(segs[1].1, 2 * BLOCK_SIZE);
}

#[test]
fn allocated_blocks_are_zeroed() {
    let f = fixture();
    // Dirty a block, free it, then reallocate: the new owner must see
    // zeros (confidentiality, §5.3).
    let a = f.fs.create("/a", 0o644, 0, 0).unwrap();
    f.fs.allocate(a, 0, BLOCK_SIZE).unwrap();
    let (segs, _) = f.fs.resolve(a, 0, BLOCK_SIZE).unwrap();
    let lba = segs[0].0.unwrap();
    f.dev.write_raw(lba, &[0xAA; 4096]);
    f.fs.unlink("/a", 0, 0).unwrap();
    f.fs.sync_point();
    let b = f.fs.create("/b", 0o644, 0, 0).unwrap();
    f.fs.allocate(b, 0, BLOCK_SIZE).unwrap();
    let (segs2, _) = f.fs.resolve(b, 0, BLOCK_SIZE).unwrap();
    let mut buf = [0xFFu8; 4096];
    f.dev.read_raw(segs2[0].0.unwrap(), &mut buf);
    assert!(buf.iter().all(|&x| x == 0), "reallocated block not zeroed");
}

#[test]
fn truncate_shrinks() {
    let f = fixture();
    let ino = f.fs.create("/t", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 8 * BLOCK_SIZE).unwrap();
    f.fs.truncate(ino, 3 * BLOCK_SIZE).unwrap();
    assert_eq!(f.fs.size_of(ino).unwrap(), 3 * BLOCK_SIZE);
    let st = f.fs.stat(ino).unwrap();
    assert_eq!(st.blocks, 3);
}

#[test]
fn mount_roundtrip_preserves_tree() {
    let f = fixture();
    f.fs.mkdir("/dir", 0o755, 5, 5).unwrap();
    let ino = f.fs.create("/dir/file", 0o600, 5, 5).unwrap();
    f.fs.allocate(ino, 0, 5 * BLOCK_SIZE).unwrap();
    drop(f.fs);
    let fs2 = Ext4::mount(&f.dev, &f.mem).unwrap();
    let ino2 = fs2.lookup("/dir/file").unwrap();
    assert_eq!(ino2, ino);
    let st = fs2.stat(ino2).unwrap();
    assert_eq!(st.size, 5 * BLOCK_SIZE);
    assert_eq!(st.uid, 5);
    let (segs, _) = fs2.resolve(ino2, 0, 5 * BLOCK_SIZE).unwrap();
    assert!(segs[0].0.is_some());
}

/// Runs `ops` on a fresh fixture with power cut right after the last
/// commit→checkpoint barrier they issue: the last transaction's commit
/// record is on media, its home-location writes are not. A first fixture
/// records the write schedule to find that barrier; a second, identical
/// one replays `ops` under the cut. Remount the result to recover.
fn crash_after_last_commit(ops: impl Fn(&Ext4)) -> Fixture {
    let rec = fixture();
    let plane = rec.dev.fault_plane();
    plane.reset();
    plane.start_recording();
    ops(&rec.fs);
    let barrier = plane
        .take_schedule()
        .iter()
        .rev()
        .find(|e| e.kind == WriteKind::Flush)
        .expect("ops committed no transaction")
        .seq;

    let f = fixture();
    let plane = f.dev.fault_plane();
    plane.reset();
    plane.arm(Cut::at_seq(barrier + 1));
    ops(&f.fs);
    assert!(
        plane.stats().writes_dropped > 0,
        "the cut dropped no home-location write"
    );
    f
}

#[test]
fn crash_recovery_replays_journal() {
    let f = crash_after_last_commit(|fs| {
        fs.create("/before", 0o644, 0, 0).unwrap();
        fs.create("/after", 0o644, 0, 0).unwrap();
    });
    drop(f.fs);
    let fs2 = Ext4::mount(&f.dev, &f.mem).unwrap();
    assert!(fs2.lookup("/before").is_ok());
    assert!(
        fs2.lookup("/after").is_ok(),
        "journaled create lost after crash"
    );
}

#[test]
fn crash_recovery_preserves_allocations() {
    let f = crash_after_last_commit(|fs| {
        let ino = fs.create("/f", 0o644, 0, 0).unwrap();
        fs.allocate(ino, 0, 20 * BLOCK_SIZE).unwrap();
    });
    drop(f.fs);
    let fs2 = Ext4::mount(&f.dev, &f.mem).unwrap();
    let ino2 = fs2.lookup("/f").unwrap();
    assert_eq!(fs2.size_of(ino2).unwrap(), 20 * BLOCK_SIZE);
    // The allocated blocks must be marked used after recovery: a new
    // allocation must not overlap them.
    let other = fs2.create("/g", 0o644, 0, 0).unwrap();
    fs2.allocate(other, 0, 20 * BLOCK_SIZE).unwrap();
    let (a, _) = fs2.resolve(ino2, 0, 20 * BLOCK_SIZE).unwrap();
    let (b, _) = fs2.resolve(other, 0, 20 * BLOCK_SIZE).unwrap();
    let (a0, alen) = (a[0].0.unwrap().0, a[0].1 / 512);
    let (b0, blen) = (b[0].0.unwrap().0, b[0].1 / 512);
    assert!(
        a0 + alen <= b0 || b0 + blen <= a0,
        "allocations overlap after recovery"
    );
}

#[test]
fn many_extents_spill_to_overflow_blocks_and_survive_mount() {
    let f = fixture();
    // Force single-block extents via interleaved allocation to two files.
    let a = f.fs.create("/a", 0o644, 0, 0).unwrap();
    let b = f.fs.create("/b", 0o644, 0, 0).unwrap();
    for i in 0..40 {
        f.fs.allocate(a, i * BLOCK_SIZE, BLOCK_SIZE).unwrap();
        f.fs.allocate(b, i * BLOCK_SIZE, BLOCK_SIZE).unwrap();
    }
    let st = f.fs.stat(a).unwrap();
    assert_eq!(st.blocks, 40);
    drop(f.fs);
    let fs2 = Ext4::mount(&f.dev, &f.mem).unwrap();
    let a2 = fs2.lookup("/a").unwrap();
    let (segs, _) = fs2.resolve(a2, 0, 40 * BLOCK_SIZE).unwrap();
    assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), 40 * BLOCK_SIZE);
    assert!(
        segs.len() > 8,
        "expected fragmented layout, got {}",
        segs.len()
    );
}

// ---- fmap / file tables ----

#[test]
fn fmap_cold_then_warm() {
    let f = fixture();
    let ino = f.fs.create("/m", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 4 * FRAGMENT_SPAN).unwrap();
    let t1 = target(&f.mem, f.fs.iommu(), 1);
    let o1 = f.fs.fmap(ino, &t1, true).unwrap();
    assert_eq!(o1.kind, FmapCost::Cold);
    assert!(!o1.vba.is_null());
    // Second process: warm (fragments cached in the inode).
    let t2 = target(&f.mem, f.fs.iommu(), 2);
    let o2 = f.fs.fmap(ino, &t2, true).unwrap();
    assert_eq!(o2.kind, FmapCost::Warm);
    assert!(o2.cost < o1.cost, "warm fmap should be cheaper");
    assert_eq!(f.fs.file_table_frames(ino), 4);
}

#[test]
fn fmap_translation_resolves_correct_lba() {
    let f = fixture();
    let ino = f.fs.create("/m", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 8 * BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    let (segs, _) = f.fs.resolve(ino, 0, 8 * BLOCK_SIZE).unwrap();
    let expect = segs[0].0.unwrap();
    let tr =
        f.fs.iommu()
            .lock()
            .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
    assert_eq!(tr.extents[0].0, expect);
    // Offset into the third block.
    let tr2 =
        f.fs.iommu()
            .lock()
            .translate(
                t.pasid,
                o.vba.offset(2 * PAGE_SIZE),
                PAGE_SIZE,
                AccessKind::Read,
                DEV,
            )
            .unwrap();
    assert_eq!(tr2.extents[0].0, Lba(expect.0 + 16));
}

#[test]
fn fmap_readonly_blocks_write_translation() {
    let f = fixture();
    let ino = f.fs.create("/ro", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, false).unwrap();
    let mut iommu = f.fs.iommu().lock();
    assert!(iommu
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
        .is_ok());
    assert!(iommu
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Write, DEV)
        .is_err());
}

#[test]
fn fmap_denied_when_kernel_interface_open() {
    let f = fixture();
    let ino = f.fs.create("/k", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    f.fs.note_kernel_open(ino).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    assert_eq!(o.kind, FmapCost::Denied);
    assert!(o.vba.is_null());
    // After the kernel close, direct access is possible again.
    f.fs.note_kernel_close(ino).unwrap();
    let o2 = f.fs.fmap(ino, &t, true).unwrap();
    assert!(!o2.vba.is_null());
}

#[test]
fn kernel_open_revokes_existing_mappings() {
    let f = fixture();
    let ino = f.fs.create("/shared", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
        .is_ok());

    let revoked = f.fs.note_kernel_open(ino).unwrap();
    assert_eq!(revoked, vec![1]);
    // Translation now faults — the device would fail the I/O (§3.6).
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
        .is_err());
    // Re-fmap returns VBA 0: fall back to kernel interface.
    let again = f.fs.fmap(ino, &t, true).unwrap();
    assert_eq!(again.kind, FmapCost::Denied);
}

#[test]
fn append_growth_visible_through_existing_mapping() {
    let f = fixture();
    let ino = f.fs.create("/grow", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    // Block 2 unmapped yet.
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(
            t.pasid,
            o.vba.offset(PAGE_SIZE),
            PAGE_SIZE,
            AccessKind::Read,
            DEV
        )
        .is_err());
    // Kernel appends a block: FTE appears in the shared fragment.
    f.fs.allocate(ino, BLOCK_SIZE, BLOCK_SIZE).unwrap();
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(
            t.pasid,
            o.vba.offset(PAGE_SIZE),
            PAGE_SIZE,
            AccessKind::Read,
            DEV
        )
        .is_ok());
}

#[test]
fn growth_across_fragment_boundary_attaches_new_fragment() {
    let f = fixture();
    let ino = f.fs.create("/grow2", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, FRAGMENT_SPAN).unwrap(); // exactly 1 fragment
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    f.fs.allocate(ino, FRAGMENT_SPAN, BLOCK_SIZE).unwrap(); // fragment 2
    assert_eq!(f.fs.file_table_frames(ino), 2);
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(
            t.pasid,
            o.vba.offset(FRAGMENT_SPAN),
            PAGE_SIZE,
            AccessKind::Read,
            DEV
        )
        .is_ok());
}

#[test]
fn truncate_detaches_ftes() {
    let f = fixture();
    let ino = f.fs.create("/shrink", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, 4 * BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    f.fs.truncate(ino, BLOCK_SIZE).unwrap();
    let mut iommu = f.fs.iommu().lock();
    assert!(iommu
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
        .is_ok());
    assert!(
        iommu
            .translate(
                t.pasid,
                o.vba.offset(PAGE_SIZE),
                PAGE_SIZE,
                AccessKind::Read,
                DEV
            )
            .is_err(),
        "truncated block still translatable"
    );
}

#[test]
fn funmap_restores_eligibility_and_detaches() {
    let f = fixture();
    let ino = f.fs.create("/um", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    let o = f.fs.fmap(ino, &t, true).unwrap();
    assert!(f.fs.is_mapped(ino, 1));
    f.fs.funmap(ino, 1).unwrap();
    assert!(!f.fs.is_mapped(ino, 1));
    assert!(f
        .fs
        .iommu()
        .lock()
        .translate(t.pasid, o.vba, PAGE_SIZE, AccessKind::Read, DEV)
        .is_err());
}

#[test]
fn unlink_mapped_file_is_busy() {
    let f = fixture();
    let ino = f.fs.create("/busy", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let t = target(&f.mem, f.fs.iommu(), 1);
    f.fs.fmap(ino, &t, true).unwrap();
    assert_eq!(f.fs.unlink("/busy", 0, 0), Err(Ext4Error::Busy));
    f.fs.funmap(ino, 1).unwrap();
    assert!(f.fs.unlink("/busy", 0, 0).is_ok());
}

#[test]
fn fmap_cost_scales_with_size_table5_shape() {
    let f = fixture();
    let sizes = [
        ("4KB", 4096u64),
        ("1MB", 1 << 20),
        ("64MB", 64 << 20),
        ("256MB", 256 << 20),
    ];
    let mut cold_costs = Vec::new();
    let mut warm_costs = Vec::new();
    for (i, (_, size)) in sizes.iter().enumerate() {
        let path = format!("/s{i}");
        let ino = f.fs.populate(&path, *size, 0).unwrap();
        let t1 = target(&f.mem, f.fs.iommu(), 100 + i as u64 * 2);
        let cold = f.fs.fmap(ino, &t1, true).unwrap();
        assert_eq!(cold.kind, FmapCost::Cold);
        cold_costs.push(cold.cost);
        let t2 = target(&f.mem, f.fs.iommu(), 101 + i as u64 * 2);
        let warm = f.fs.fmap(ino, &t2, true).unwrap();
        assert_eq!(warm.kind, FmapCost::Warm);
        warm_costs.push(warm.cost);
    }
    // Cold grows ~linearly with fragments; warm stays far cheaper.
    assert!(cold_costs[3] > cold_costs[2]);
    assert!(cold_costs[2] > cold_costs[1]);
    for (c, w) in cold_costs.iter().zip(&warm_costs) {
        assert!(w < c, "warm {w} not cheaper than cold {c}");
    }
    // 256MB = 128 fragments: cold ≈ 128 * 2.59µs ≈ 331µs (Table 5: 334µs).
    let us = cold_costs[3].as_micros_f64();
    assert!((250.0..420.0).contains(&us), "256MB cold fmap = {us}us");
    // Warm 256MB ≈ 128 * 31ns ≈ 4µs (Table 5: 5.79µs incl. syscall).
    let wus = warm_costs[3].as_micros_f64();
    assert!(wus < 10.0, "256MB warm fmap = {wus}us");
}

#[test]
fn two_processes_share_fragment_frames() {
    let f = fixture();
    let ino = f.fs.create("/sh", 0o644, 0, 0).unwrap();
    f.fs.allocate(ino, 0, BLOCK_SIZE).unwrap();
    let before = f.mem.allocated_frames();
    let t1 = target(&f.mem, f.fs.iommu(), 1);
    f.fs.fmap(ino, &t1, true).unwrap();
    let after_first = f.mem.allocated_frames();
    let t2 = target(&f.mem, f.fs.iommu(), 2);
    f.fs.fmap(ino, &t2, false).unwrap();
    let after_second = f.mem.allocated_frames();
    // First fmap allocates the fragment + private tables; second fmap
    // allocates only private upper-level tables (no new fragments).
    assert!(after_first > before);
    assert!(
        after_second - after_first < after_first - before,
        "second fmap should reuse shared fragments"
    );
}
