// R1 fixture (negative): per-actor state lives in the actor.
use std::cell::Cell;

pub struct Counter {
    ops: Cell<u64>,
}

pub fn count(ctx: &mut ActorCtx, counter: &Counter) {
    counter.ops.set(counter.ops.get() + 1);
    ctx.delay(Nanos(10));
    // Naming thread_local! in a comment or "thread_local!" in a string,
    // or a same-named function, is fine; only the macro counts.
    let _docs = "thread_local!";
    thread_local(counter);
}

fn thread_local(_c: &Counter) {}
