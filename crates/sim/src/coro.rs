//! The context-switch primitive under the conductor: one stackful
//! coroutine per actor.
//!
//! [`Coroutine::resume`] runs a coroutine on the calling thread until its
//! body calls [`Coroutine::suspend`] or returns; `suspend` switches back
//! to whichever thread last resumed it. The engine in [`crate::engine`]
//! owns everything else (the run queue, the clock, panics), so this
//! module is the only code that differs between the two backends:
//!
//! * **native** (unix on x86_64 or aarch64): each coroutine runs on its
//!   own `mmap`ed stack, and a switch is a naked-function register swap
//!   of a few nanoseconds.
//! * **baton** (Miri, which cannot run inline assembly, and every other
//!   target): each coroutine is an OS thread, and a switch passes a
//!   baton over a mutex and condvar. Same semantics, thread-handoff cost.
//!
//! A body must not unwind: the engine catches actor panics inside it.

#[cfg(not(any(
    miri,
    not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))
)))]
pub(crate) use native::{Coroutine, StackPool};

#[cfg(any(
    miri,
    not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))
))]
pub(crate) use baton::{Coroutine, StackPool};

/// What a coroutine runs: handed its own coroutine so it can suspend.
pub(crate) type Body = Box<dyn FnOnce(&Coroutine) + Send>;

#[cfg(not(any(
    miri,
    not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))
)))]
mod native {
    use std::cell::Cell;
    use std::io;
    use std::ptr;

    use super::Body;

    /// Usable stack per coroutine: the default stack of a spawned Rust
    /// thread, so actor code has the room it had as a thread.
    const STACK_SIZE: usize = 2 << 20;
    /// Inaccessible region below each stack. A multiple of every page
    /// size in use (4, 16 and 64 KiB), so `mprotect` accepts it as is.
    const GUARD_SIZE: usize = 64 << 10;
    /// Idle stacks a simulation keeps for reuse; the rest are unmapped.
    const POOL_MAX: usize = 64;

    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000;
    /// `MAP_PRIVATE | MAP_ANON` (the BSDs and macOS).
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MAP_FLAGS: i32 = 0x02 | 0x1000;

    /// `MADV_NOHUGEPAGE`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MADV_NOHUGEPAGE: i32 = 14;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// One mapping: a guard region at the bottom, the stack above it.
    /// Pages are committed only when first touched.
    struct Stack {
        base: *mut u8,
    }

    // SAFETY: a stack is plain memory owned by one pool or coroutine.
    unsafe impl Send for Stack {}

    impl Stack {
        const LEN: usize = GUARD_SIZE + STACK_SIZE;

        fn map() -> Stack {
            // SAFETY: a fresh private anonymous mapping aliases nothing;
            // the other calls only touch memory this function maps.
            unsafe {
                let base = mmap(
                    ptr::null_mut(),
                    Self::LEN,
                    PROT_READ | PROT_WRITE,
                    MAP_FLAGS,
                    -1,
                    0,
                );
                if base as isize == -1 {
                    panic!("cannot map an actor stack: {}", io::Error::last_os_error());
                }
                // A stack is touched a few pages deep: keep transparent
                // huge pages from committing 2 MiB at its first touch.
                // Advice only, so a refusal changes nothing else.
                #[cfg(any(target_os = "linux", target_os = "android"))]
                madvise(base, Self::LEN, MADV_NOHUGEPAGE);
                if mprotect(base, GUARD_SIZE, PROT_NONE) != 0 {
                    let err = io::Error::last_os_error();
                    munmap(base, Self::LEN);
                    panic!("cannot protect an actor stack's guard: {err}");
                }
                Stack { base }
            }
        }

        /// One past the highest usable byte; 16-byte aligned.
        fn top(&self) -> *mut u8 {
            self.base.wrapping_add(Self::LEN)
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base` is this stack's own mapping, and nothing
            // runs on it any more (see `Coroutine`'s `Drop`).
            unsafe { munmap(self.base, Self::LEN) };
        }
    }

    /// Idle stacks of one simulation, reused by later actors.
    #[derive(Default)]
    pub(crate) struct StackPool {
        idle: Vec<Stack>,
    }

    /// A suspended or finished computation on a stack of its own.
    pub(crate) struct Coroutine {
        stack: Option<Stack>,
        /// The coroutine's stack pointer while it is suspended.
        sp: Cell<*mut u8>,
        /// The resumer's stack pointer while the coroutine runs.
        back: Cell<*mut u8>,
        body: Cell<Option<Body>>,
        started: Cell<bool>,
        done: Cell<bool>,
    }

    // SAFETY: the `Cell` fields (`sp`, `back`, `started`, `done`, `body`)
    // are only touched by the one thread driving the coroutine's
    // simulation at a time: `run_until` is never re-entered (`driving`),
    // and the simulation's lock orders one driving thread before the next.
    // `body` is `Send`, and `stack` is plain memory. What runs on the
    // stack may resume on another thread; DESIGN.md §5 ("Coroutine
    // conductor") states the rule that makes this sound for actor code:
    // no thread-local state held across a yield.
    unsafe impl Send for Coroutine {}

    impl Coroutine {
        /// A coroutine that runs `body` from its first `resume`.
        pub(crate) fn new(body: Body, pool: &mut StackPool) -> Box<Coroutine> {
            let stack = pool.idle.pop().unwrap_or_else(Stack::map);
            let co = Box::new(Coroutine {
                sp: Cell::new(ptr::null_mut()),
                back: Cell::new(ptr::null_mut()),
                body: Cell::new(Some(body)),
                started: Cell::new(false),
                done: Cell::new(false),
                stack: Some(stack),
            });
            let top = co.stack.as_ref().expect("stack just set").top();
            // SAFETY: `top` ends a stack that no one runs on yet.
            co.sp
                .set(unsafe { arch::initial_frame(top, &*co as *const Coroutine as usize) });
            co
        }

        /// Runs the coroutine on the calling thread until it suspends or
        /// its body returns.
        ///
        /// # Safety
        /// The coroutine must not be finished, and must not be running:
        /// not on any thread, and not as (an ancestor of) the caller.
        pub(crate) unsafe fn resume(&self) {
            debug_assert!(!self.done.get(), "resumed a finished coroutine");
            self.started.set(true);
            // SAFETY: `sp` holds a frame saved by `switch` or built by
            // `initial_frame`; the caller guarantees nothing runs on it.
            unsafe { arch::switch(self.back.as_ptr(), self.sp.get()) };
        }

        /// Switches back to the thread and stack that resumed this
        /// coroutine; returns at the next `resume`.
        ///
        /// # Safety
        /// Must be called by this coroutine's own body.
        pub(crate) unsafe fn suspend(&self) {
            // SAFETY: `back` holds the frame `resume` saved, which is
            // blocked in `switch` until we return to it.
            unsafe { arch::switch(self.sp.as_ptr(), self.back.get()) };
        }

        /// Whether the body has returned.
        pub(crate) fn is_done(&self) -> bool {
            self.done.get()
        }

        /// Returns a finished coroutine's stack to `pool`.
        pub(crate) fn recycle(mut self, pool: &mut StackPool) {
            debug_assert!(self.done.get(), "recycled a live coroutine");
            let stack = self.stack.take().expect("coroutine without a stack");
            if pool.idle.len() < POOL_MAX {
                pool.idle.push(stack);
            }
        }
    }

    impl Drop for Coroutine {
        fn drop(&mut self) {
            if self.started.get() && !self.done.get() {
                // Live frames stay on a suspended stack, and something
                // outside may still point into them: leak it rather
                // than unmap it under them.
                std::mem::forget(self.stack.take());
            }
        }
    }

    /// First code on a new stack, reached from the trampoline with the
    /// coroutine's address. Never returns: it switches out for good. An
    /// unwind out of the body aborts here (`extern "C"`), which is why
    /// the engine catches actor panics inside the body.
    extern "C" fn start(co: usize) -> ! {
        // SAFETY: `initial_frame` was given the address of the boxed
        // coroutine, which outlives every run of its body.
        let co = unsafe { &*(co as *const Coroutine) };
        let body = co.body.take().expect("coroutine started twice");
        body(co);
        co.done.set(true);
        // SAFETY: a final switch back; this stack is never resumed.
        unsafe { arch::switch(co.sp.as_ptr(), co.back.get()) };
        unreachable!("finished coroutine resumed");
    }

    #[cfg(target_arch = "x86_64")]
    mod arch {
        /// Saves the callee-saved registers on the current stack, stores
        /// the stack pointer in `*save`, then loads `to` and restores
        /// the registers saved there. Floating-point control state is
        /// left alone: Rust code never changes it.
        #[unsafe(naked)]
        pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
            core::arch::naked_asm!(
                "push rbp",
                "push rbx",
                "push r12",
                "push r13",
                "push r14",
                "push r15",
                "mov [rdi], rsp",
                "mov rsp, rsi",
                "pop r15",
                "pop r14",
                "pop r13",
                "pop r12",
                "pop rbx",
                "pop rbp",
                "ret",
            )
        }

        /// Entered by `switch`'s `ret` on a new stack: calls
        /// `start(r12)` (`start` is in r13) with the stack aligned.
        #[unsafe(naked)]
        unsafe extern "C" fn trampoline() {
            core::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
        }

        /// Writes the frame that `switch` pops to enter `trampoline`,
        /// and returns the stack pointer to resume at.
        ///
        /// # Safety
        /// `top` is the 16-byte aligned end of a writable stack.
        pub(super) unsafe fn initial_frame(top: *mut u8, arg: usize) -> *mut u8 {
            let words: [usize; 9] = [
                0,                                                  // r15
                0,                                                  // r14
                super::start as extern "C" fn(usize) -> ! as usize, // r13
                arg,                                                // r12
                0,                                                  // rbx
                0,                                                  // rbp: ends frame-pointer walks
                trampoline as unsafe extern "C" fn() as usize,      // return address
                0, // `trampoline` starts with rsp here, 16-aligned
                0,
            ];
            // SAFETY: the caller guarantees the 72 bytes below `top`.
            unsafe {
                let sp = top.sub(words.len() * 8).cast::<usize>();
                sp.copy_from_nonoverlapping(words.as_ptr(), words.len());
                sp.cast()
            }
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod arch {
        /// Saves x19–x30 and d8–d15 on the current stack, stores the
        /// stack pointer in `*save`, then loads `to` and restores the
        /// registers saved there. Floating-point control state is left
        /// alone: Rust code never changes it.
        #[unsafe(naked)]
        pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
            core::arch::naked_asm!(
                "sub sp, sp, #0xa0",
                "stp x19, x20, [sp, #0x00]",
                "stp x21, x22, [sp, #0x10]",
                "stp x23, x24, [sp, #0x20]",
                "stp x25, x26, [sp, #0x30]",
                "stp x27, x28, [sp, #0x40]",
                "stp x29, x30, [sp, #0x50]",
                "stp d8, d9, [sp, #0x60]",
                "stp d10, d11, [sp, #0x70]",
                "stp d12, d13, [sp, #0x80]",
                "stp d14, d15, [sp, #0x90]",
                "mov x9, sp",
                "str x9, [x0]",
                "mov sp, x1",
                "ldp x19, x20, [sp, #0x00]",
                "ldp x21, x22, [sp, #0x10]",
                "ldp x23, x24, [sp, #0x20]",
                "ldp x25, x26, [sp, #0x30]",
                "ldp x27, x28, [sp, #0x40]",
                "ldp x29, x30, [sp, #0x50]",
                "ldp d8, d9, [sp, #0x60]",
                "ldp d10, d11, [sp, #0x70]",
                "ldp d12, d13, [sp, #0x80]",
                "ldp d14, d15, [sp, #0x90]",
                "add sp, sp, #0xa0",
                "ret",
            )
        }

        /// Entered by `switch`'s `ret` on a new stack: calls
        /// `start(x19)` (`start` is in x20).
        #[unsafe(naked)]
        unsafe extern "C" fn trampoline() {
            core::arch::naked_asm!("mov x0, x19", "blr x20", "brk #1")
        }

        /// Writes the frame that `switch` pops to enter `trampoline`,
        /// and returns the stack pointer to resume at.
        ///
        /// # Safety
        /// `top` is the 16-byte aligned end of a writable stack.
        pub(super) unsafe fn initial_frame(top: *mut u8, arg: usize) -> *mut u8 {
            // x19..x28, x29, x30, d8..d15; x29 = 0 ends frame-pointer walks.
            let mut words = [0usize; 20];
            words[0] = arg; // x19
            words[1] = super::start as extern "C" fn(usize) -> ! as usize; // x20
            words[11] = trampoline as unsafe extern "C" fn() as usize; // x30

            // SAFETY: the caller guarantees the 160 bytes below `top`.
            unsafe {
                let sp = top.sub(words.len() * 8).cast::<usize>();
                sp.copy_from_nonoverlapping(words.as_ptr(), words.len());
                sp.cast()
            }
        }
    }
}

#[cfg(any(
    miri,
    not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))
))]
mod baton {
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::thread::JoinHandle;

    use super::Body;

    /// No stacks to pool: each coroutine is a thread.
    #[derive(Default)]
    pub(crate) struct StackPool {}

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Resumer,
        Body,
        Done,
    }

    /// Whose turn it is, shared by the resumer and the coroutine's
    /// thread; the thread keeps its own handle, so it never touches the
    /// coroutine after its body returns.
    struct Baton {
        turn: Mutex<Turn>,
        cond: Condvar,
    }

    impl Baton {
        /// Sets the turn to `to` (if any), then waits until `until`
        /// accepts it.
        fn pass(&self, to: Option<Turn>, until: impl Fn(Turn) -> bool) {
            let mut turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(to) = to {
                *turn = to;
                self.cond.notify_all();
            }
            while !until(*turn) {
                turn = self.cond.wait(turn).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// A coroutine emulated by a thread that runs only while it holds
    /// the baton.
    pub(crate) struct Coroutine {
        baton: Arc<Baton>,
        body: Mutex<Option<Body>>,
        thread: Mutex<Option<JoinHandle<()>>>,
    }

    /// The coroutine's address, sent to its thread.
    struct Addr(*const Coroutine);

    // SAFETY: the thread dereferences the address only while the body
    // runs, and the boxed coroutine stays in place until the body has
    // returned; every field is behind a mutex or an `Arc`.
    unsafe impl Send for Addr {}

    impl Coroutine {
        /// A coroutine that runs `body` from its first `resume`.
        pub(crate) fn new(body: Body, _pool: &mut StackPool) -> Box<Coroutine> {
            Box::new(Coroutine {
                baton: Arc::new(Baton {
                    turn: Mutex::new(Turn::Resumer),
                    cond: Condvar::new(),
                }),
                body: Mutex::new(Some(body)),
                thread: Mutex::new(None),
            })
        }

        /// Runs the coroutine until it suspends or its body returns.
        ///
        /// # Safety
        /// As the native backend's: not finished, not running.
        pub(crate) unsafe fn resume(&self) {
            let body = self
                .body
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(body) = body {
                let addr = Addr(self);
                let baton = Arc::clone(&self.baton);
                let handle = std::thread::Builder::new()
                    .name("sim-actor".into())
                    .spawn(move || {
                        let addr = addr;
                        baton.pass(None, |t| t == Turn::Body);
                        // SAFETY: see `Addr`.
                        body(unsafe { &*addr.0 });
                        baton.pass(Some(Turn::Done), |_| true);
                    })
                    .expect("failed to spawn a coroutine thread");
                *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
            }
            self.baton.pass(Some(Turn::Body), |t| t != Turn::Body);
        }

        /// Hands the baton back to the resumer; returns at the next
        /// `resume`.
        ///
        /// # Safety
        /// Must be called by this coroutine's own body.
        pub(crate) unsafe fn suspend(&self) {
            self.baton.pass(Some(Turn::Resumer), |t| t == Turn::Body);
        }

        /// Whether the body has returned.
        pub(crate) fn is_done(&self) -> bool {
            *self
                .baton
                .turn
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                == Turn::Done
        }

        /// Joins a finished coroutine's thread.
        pub(crate) fn recycle(self, _pool: &mut StackPool) {
            let handle = self
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}
