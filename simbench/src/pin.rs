//! Running the measured reps of the single-lane workloads on one host CPU.
//!
//! The engine runs one actor thread at a time and hands control between
//! threads at every virtual-time step. When those threads are spread over
//! several CPUs of a shared virtual machine, each handoff wakes an idle
//! vCPU, and the hypervisor's wake-up latency and the cold caches that
//! follow swamp the simulator's own cost. Measured on a 2-vCPU VM, ops
//! per CPU second on `shared_rw_16p` then varied by ±8% between runs and
//! fell by a third in busy periods. On one CPU it varied by ±5%. One
//! `Simulation` never runs two actors at once, so pinning it costs no
//! parallelism. The fleet workload runs several lanes in parallel and is
//! never pinned.
//!
//! Pinning sets the calling thread's affinity mask with
//! `sched_setaffinity(2)`; threads it creates afterwards inherit it.

use std::io;

/// Words of the kernel's CPU mask (1024 CPUs, as glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask.
fn get() -> io::Result<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Restricts the calling thread to `mask`.
fn set(mask: &Mask) -> io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Restricts the calling thread, and the threads it creates while the
/// guard lives, to the last CPU it may run on; dropping the guard restores
/// the previous mask.
pub struct Pinned {
    restore: Mask,
}

impl Pinned {
    /// Pins the calling thread.
    ///
    /// # Errors
    /// The kernel refused to read or set the affinity mask. Pinned and
    /// unpinned runs are not comparable, so the caller reports no result.
    pub fn to_one_cpu() -> io::Result<Pinned> {
        let restore = get()?;
        let (word, bit) = restore
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| (i, 63 - w.leading_zeros()))
            .ok_or_else(|| io::Error::other("empty CPU mask"))?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bit;
        set(&one)?;
        Ok(Pinned { restore })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Failure leaves the thread pinned, which only slows the
        // ladder's multi-worker fleet rungs; nothing to report it to.
        let _ = set(&self.restore);
    }
}
