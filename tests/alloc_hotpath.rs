//! Allocation contract for the steady-state data path (DESIGN.md §12):
//! after warmup, a cached-fd 4 KB direct read must touch the global
//! allocator **zero** times — every per-op buffer lives in a
//! preallocated slab, scratch, or ring.
//!
//! The binary installs a counting `#[global_allocator]` with a
//! *thread-local* allocation counter, so only allocations made on the
//! thread running the read loop are charged. The lone reader actor runs
//! on the thread that calls `sim.run()` and never migrates, so the
//! counter it reads before and after the loop is its own (the one
//! exception to the no-thread-local-across-a-yield rule, allowlisted in
//! `lint.toml`). This file is its own test target with a single
//! `#[test]` so no parallel test can share the process.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;
use std::sync::Arc;

use bypassd::{System, UserProcess};
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;
use parking_lot::Mutex;

thread_local! {
    /// Allocations (alloc + realloc) made by this thread. Const-init and
    /// non-Drop, so reading it never itself allocates or registers a TLS
    /// destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter update has no side effect on the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_cached_fd_reads_do_not_allocate() {
    const WARMUP: u64 = 2_000;
    const OPS: u64 = 10_000;
    const FILE: u64 = 8 << 20;
    let sys = System::builder().capacity(64 << 20).build();
    sys.fs().populate("/hot", FILE, 0x5a).unwrap();
    let sim = Simulation::new();
    let s2 = sys.clone();
    let delta = Arc::new(Mutex::new(u64::MAX));
    let d2 = Arc::clone(&delta);
    sim.spawn("reader", move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/hot", false).unwrap();
        let mut buf = vec![0u8; 4096];
        let mut rng = Rng::new(1);
        // Warmup: touch every page once so the IOTLB/PWC reach their
        // steady population (the working set fits the IOTLB, so the
        // timed loop only hits warm entries), then run a random pass to
        // arm the fd cache, grow device/IOMMU scratch to its high-water
        // mark, and settle the engine on the no-handoff fast path.
        let mut off = 0;
        while off < FILE {
            t.pread(ctx, fd, &mut buf, off).unwrap();
            off += 4096;
        }
        for _ in 0..WARMUP {
            let off = rng.gen_range(FILE / 4096) * 4096;
            t.pread(ctx, fd, &mut buf, off).unwrap();
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..OPS {
            let off = rng.gen_range(FILE / 4096) * 4096;
            let n = t.pread(ctx, fd, &mut buf, off).unwrap();
            assert_eq!(n, 4096);
        }
        let after = ALLOCS.with(Cell::get);
        *d2.lock() = after - before;
        let (direct, fallback) = proc.op_counts();
        assert_eq!(direct, FILE / 4096 + WARMUP + OPS);
        assert_eq!(fallback, 0);
    });
    sim.run();
    let allocs = *delta.lock();
    assert_eq!(
        allocs, 0,
        "steady-state cached-fd 4KB reads hit the global allocator {allocs} times \
         (contract: zero after warmup)"
    );
}
