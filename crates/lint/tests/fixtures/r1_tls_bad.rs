// R1 fixture (positive): thread-local state in actor code.
use std::cell::Cell;

thread_local! { static OPS: Cell<u64> = const { Cell::new(0) }; } // line 4, col 1

pub fn count(ctx: &mut ActorCtx) {
    OPS.with(|c| c.set(c.get() + 1));
    ctx.delay(Nanos(10)); // may resume on another thread
    std::thread_local! { // line 9, col 10
        static LAST: Cell<u64> = const { Cell::new(0) };
    }
    LAST.with(|c| c.set(ctx.now().0));
}
