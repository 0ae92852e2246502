//! The conductor against a reference model, and at scale.
//!
//! `dispatch_order_matches_reference_heap` runs random actor scripts on
//! [`Simulation`] and on a plain `(time, seq)` min-heap model, and
//! requires the same `(actor, virtual time)` log, in order: every actor
//! logs when it starts and after each blocking step. Scripts mix zero
//! and non-zero delays, `wait_until` into the past, `yield_now`, nested
//! `spawn_at` and one panicking actor, and are driven either by `run` or
//! by `run_until` slices at random horizons.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bypassd_sim::rng::Rng;
use bypassd_sim::{ActorCtx, Nanos, Simulation};
use parking_lot::Mutex;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Delay(u64),
    /// Absolute wake time; may lie in the past.
    WaitUntil(u64),
    Yield,
    /// Spawn an actor (label, script) this many ns from now.
    Spawn(u64, String, Vec<Step>),
    Panic,
}

type Log = Arc<Mutex<Vec<(String, u64)>>>;

/// A random script; `depth` bounds spawn nesting, `panic` is the one
/// panic the whole run may still place.
fn script(rng: &mut Rng, label: &str, depth: u32, panic: &mut bool) -> Vec<Step> {
    let len = rng.gen_range(8);
    (0..len)
        .map(|k| match rng.gen_range(10) {
            0 | 1 => Step::Delay(0),
            2..=4 => Step::Delay(1 + rng.gen_range(20)),
            5 => Step::WaitUntil(rng.gen_range(60)),
            6 => Step::Yield,
            7 if depth < 2 => {
                let child = format!("{label}.{k}");
                let steps = script(rng, &child, depth + 1, panic);
                Step::Spawn(rng.gen_range(15), child, steps)
            }
            8 if *panic && rng.gen_range(4) == 0 => {
                *panic = false;
                Step::Panic
            }
            _ => Step::Delay(rng.gen_range(3)),
        })
        .collect()
}

/// Plays a script as an actor of the real engine.
fn play(ctx: &mut ActorCtx, label: String, steps: Vec<Step>, log: Log) {
    log.lock().push((label.clone(), ctx.now().0));
    for step in steps {
        match step {
            Step::Delay(d) => ctx.delay(Nanos(d)),
            Step::WaitUntil(t) => ctx.wait_until(Nanos(t)),
            Step::Yield => ctx.yield_now(),
            Step::Spawn(off, child, steps) => {
                let l = Arc::clone(&log);
                let at = ctx.now() + Nanos(off);
                ctx.spawn_at(at, &child.clone(), move |c| play(c, child, steps, l));
                continue;
            }
            Step::Panic => panic!("scripted panic in {label}"),
        }
        log.lock().push((label.clone(), ctx.now().0));
    }
}

/// The reference: one `(time, seq)` heap, every blocking step a
/// re-enqueue. Returns the log, the panicking actor, and the end time.
fn model(actors: &[(u64, String, Vec<Step>)]) -> (Vec<(String, u64)>, Option<String>, u64) {
    let mut heap = BinaryHeap::new();
    let mut table: Vec<(String, VecDeque<Step>)> = Vec::new();
    let (mut seq, mut now, mut log, mut panicked) = (0u64, 0u64, Vec::new(), None);
    let mut push = |heap: &mut BinaryHeap<_>, t: u64, id: usize| {
        heap.push(Reverse((t, seq, id)));
        seq += 1;
    };
    for (start, label, steps) in actors {
        table.push((label.clone(), steps.iter().cloned().collect()));
        push(&mut heap, *start, table.len() - 1);
    }
    while let Some(Reverse((t, _, id))) = heap.pop() {
        now = now.max(t);
        log.push((table[id].0.clone(), now));
        while let Some(step) = table[id].1.pop_front() {
            match step {
                Step::Delay(d) => push(&mut heap, now + d, id),
                Step::WaitUntil(t) => push(&mut heap, t.max(now), id),
                Step::Yield => push(&mut heap, now, id),
                Step::Spawn(off, label, steps) => {
                    table.push((label, steps.into()));
                    push(&mut heap, now + off, table.len() - 1);
                    continue;
                }
                Step::Panic => panicked = Some(table[id].0.clone()),
            }
            break;
        }
    }
    (log, panicked, now)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

proptest! {
    #[test]
    fn dispatch_order_matches_reference_heap(seed: u64) {
        let mut rng = Rng::new(seed);
        let mut panic_left = rng.gen_range(2) == 0;
        let actors: Vec<(u64, String, Vec<Step>)> = (0..1 + rng.gen_range(6))
            .map(|i| {
                let label = format!("a{i}");
                let steps = script(&mut rng, &label, 0, &mut panic_left);
                (rng.gen_range(30), label, steps)
            })
            .collect();
        let (want, want_panic, want_end) = model(&actors);

        let sim = Simulation::new();
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        for (start, label, steps) in actors.clone() {
            let l = Arc::clone(&log);
            sim.spawn_at(Nanos(start), &label.clone(), move |c| play(c, label, steps, l));
        }
        let sliced = rng.gen_range(2) == 0;
        let mut horizon = 0u64;
        let mut seen_panic = None;
        while sim.live() > 0 {
            let slice = AssertUnwindSafe(|| {
                if sliced {
                    horizon += rng.gen_range(40);
                    sim.run_until(Nanos(horizon));
                } else {
                    sim.run();
                }
            });
            if let Err(p) = catch_unwind(slice) {
                seen_panic = Some(panic_message(&*p));
            }
        }
        // A panic is sticky: a final `run` re-raises it if no slice did.
        if seen_panic.is_none() {
            if let Err(p) = catch_unwind(|| sim.run()) {
                seen_panic = Some(panic_message(&*p));
            }
        }
        let got = log.lock().clone();
        prop_assert_eq!(got, want, "seed {}", seed);
        prop_assert_eq!(sim.now(), Nanos(want_end), "seed {}", seed);
        match (want_panic, seen_panic) {
            (None, None) => {}
            (Some(actor), Some(msg)) => prop_assert_eq!(
                msg,
                format!("simulation actor '{actor}' panicked"),
                "seed {}",
                seed
            ),
            (w, s) => panic!("seed {seed}: expected panic {w:?}, saw {s:?}"),
        }
    }
}

/// 10 000 actors in 5 000 ping-pong pairs: at every nanosecond all pings
/// or all pongs take their turn, so every wait is a handoff. Only on the
/// native coroutine backend: the thread-baton backend would start one
/// OS thread per actor.
#[cfg(not(any(
    miri,
    not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))
)))]
#[test]
fn ten_thousand_actors_ping_pong() {
    use std::sync::atomic::{AtomicU64, Ordering};
    const PAIRS: usize = 5_000;
    const ROUNDS: u64 = 20;
    let started = std::time::Instant::now();
    let sim = Simulation::new();
    for p in 0..PAIRS {
        let ball = Arc::new(AtomicU64::new(0));
        for side in 0..2u64 {
            let ball = Arc::clone(&ball);
            sim.spawn(&format!("p{p}.{side}"), move |ctx| {
                for r in 0..ROUNDS {
                    let t = 2 * r + side;
                    ctx.wait_until(Nanos(t));
                    assert_eq!(ball.load(Ordering::SeqCst), t, "pair {p} out of turn");
                    ball.store(t + 1, Ordering::SeqCst);
                }
            });
        }
    }
    sim.run();
    assert_eq!(sim.now(), Nanos(2 * ROUNDS - 1));
    let took = started.elapsed();
    if !cfg!(debug_assertions) {
        assert!(
            took.as_secs_f64() < 1.0,
            "10 000-actor ping-pong took {took:?}"
        );
    }
}
