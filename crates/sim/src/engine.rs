//! The discrete-event conductor.
//!
//! Every simulated actor is a stackful coroutine (`crate::coro`) run on
//! the thread that calls [`Simulation::run`] or [`Simulation::run_until`].
//! That call is the conductor: it pops the earliest wakeup from one
//! `(time, seq, actor)` min-heap, advances virtual time to it and
//! switches straight into that actor, which runs until it blocks (via
//! [`ActorCtx::delay`] or [`ActorCtx::wait_until`]) or finishes and then
//! switches back. Ties are broken FIFO by a global sequence number, so a
//! run is fully deterministic for a fixed set of actors and seeds. A
//! handoff is two stack switches and three uncontended lock round trips,
//! whatever the number of actors.
//!
//! Exactly one actor executes at any moment, so shared simulation state
//! (the SSD model, the kernel, …) can be protected by ordinary mutexes
//! that are never contended. An actor that blocks outside the simulation
//! primitives blocks the conductor's thread with it.
//!
//! An actor resumes on whichever thread drives the next slice, so actor
//! code must never hold thread-local state across a yield (DESIGN.md §5,
//! "Coroutine conductor"); `cargo xtask lint` flags `thread_local!` for
//! that reason.
//!
//! ## Lane mode
//!
//! A `Simulation` can also be driven incrementally with
//! [`Simulation::run_until`], which executes events up to an inclusive
//! horizon and then pauses. `bypassd-fleet` uses this to run many small
//! simulations ("lanes") side by side, each advancing its own timeline
//! between conservative synchronization points; a lane's actors run on
//! the worker thread that steps it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::{Coroutine, StackPool};
use crate::time::Nanos;

/// Identifies an actor within one [`Simulation`].
pub type ActorId = u64;

struct SimState {
    /// Current virtual time.
    now: Nanos,
    /// Min-heap of (wake time, sequence, actor) — the actor run queue.
    waiting: BinaryHeap<Reverse<(Nanos, u64, ActorId)>>,
    /// Number of spawned actors that have not finished.
    live: usize,
    /// Monotone tie-breaker for FIFO ordering of equal wake times.
    next_seq: u64,
    /// Whether a `run`/`run_until` call is dispatching actors.
    driving: bool,
    /// Name of an actor that panicked, if any.
    panicked: Option<String>,
    /// Inclusive dispatch bound: actors with wake times beyond this are
    /// not dispatched. `Nanos::MAX` (run-to-completion) except while a
    /// lane executor drives the simulation via [`Simulation::run_until`].
    horizon: Nanos,
    /// Coroutine of each actor, indexed by `ActorId`; `None` once the
    /// actor has finished.
    actors: Vec<Option<Box<Coroutine>>>,
    /// Stacks of finished actors, reused by later ones.
    stacks: StackPool,
}

impl SimState {
    /// Enqueue `id` to wake at `t` (clamped to now, for determinism).
    fn enqueue(&mut self, t: Nanos, id: ActorId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.push(Reverse((t.max(self.now), seq, id)));
    }

    fn status(&self) -> RunStatus {
        RunStatus {
            next_wake: self.waiting.peek().map(|&Reverse((t, _, _))| t),
            live: self.live,
        }
    }
}

/// Progress snapshot returned by [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStatus {
    /// Earliest pending wakeup beyond the horizon, if any.
    pub next_wake: Option<Nanos>,
    /// Actors that have not yet finished.
    pub live: usize,
}

impl RunStatus {
    /// True when every actor has finished and no wakeups remain.
    pub fn quiesced(&self) -> bool {
        self.live == 0 && self.next_wake.is_none()
    }
}

/// A deterministic discrete-event simulation.
///
/// Spawn actors with [`Simulation::spawn`] / [`Simulation::spawn_at`], then
/// call [`Simulation::run`] to execute them to completion. After `run`
/// returns, [`Simulation::now`] reports the final virtual time.
///
/// ```rust
/// use bypassd_sim::{Simulation, Nanos};
/// let sim = Simulation::new();
/// sim.spawn("a", |ctx| ctx.delay(Nanos(10)));
/// sim.spawn("b", |ctx| ctx.delay(Nanos(5)));
/// sim.run();
/// assert_eq!(sim.now(), Nanos(10));
/// ```
pub struct Simulation {
    state: Arc<Mutex<SimState>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Simulation {
    /// Clones the *handle*: both values drive the same simulation.
    /// Lets long-lived helpers (e.g. a router that spawns actors
    /// mid-run) hold the engine without threading `&Simulation` through
    /// every call site.
    fn clone(&self) -> Self {
        Simulation {
            state: Arc::clone(&self.state),
        }
    }
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Simulation {
            state: Arc::new(Mutex::new(SimState {
                now: Nanos::ZERO,
                waiting: BinaryHeap::new(),
                live: 0,
                next_seq: 0,
                driving: false,
                panicked: None,
                horizon: Nanos::MAX,
                actors: Vec::new(),
                stacks: StackPool::default(),
            })),
        }
    }

    /// Spawns an actor that becomes runnable at virtual time zero.
    ///
    /// # Panics
    /// Panics if the simulation clock has already advanced past zero; see
    /// [`Simulation::spawn_at`].
    pub fn spawn<F>(&self, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        self.spawn_at(Nanos::ZERO, name, f)
    }

    /// Spawns an actor that becomes runnable at virtual time `start`.
    ///
    /// May be called before [`Simulation::run`] or from inside another
    /// actor (see [`ActorCtx::spawn_at`]).
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time:
    /// admitting an actor into the past would silently reorder events
    /// that have already been dispatched, so it traps instead.
    pub fn spawn_at<F>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        let name = name.to_string();
        let shared = Arc::clone(&self.state);
        let mut state = self.state.lock();
        let now = state.now;
        if start < now {
            drop(state);
            panic!(
                "spawn_at schedules actor '{name}' in the past: start {start} < now {now} \
                 (events at {start} have already been dispatched; spawning behind the \
                 clock would reorder the run queue)"
            );
        }
        let id = state.actors.len() as ActorId;
        let state = &mut *state;
        let co = Coroutine::new(
            Box::new(move |co| actor_main(shared, co, id, name, f)),
            &mut state.stacks,
        );
        state.actors.push(Some(co));
        state.live += 1;
        state.enqueue(start, id);
        id
    }

    /// Runs the simulation until every actor has finished.
    ///
    /// # Panics
    /// Panics if any actor panicked, or if called from inside one of this
    /// simulation's actors or while another thread drives it.
    pub fn run(&self) {
        let status = self.run_until(Nanos::MAX);
        debug_assert!(status.quiesced(), "run ended with {status:?}");
    }

    /// Runs the simulation up to and including virtual time `horizon`,
    /// then pauses.
    ///
    /// Dispatches every pending wakeup with time `<= horizon` (in the
    /// same deterministic order [`Simulation::run`] would use) and
    /// returns once no runnable actor remains at or below the horizon.
    /// Actors whose next wakeup lies beyond the horizon stay suspended;
    /// a later `run_until` with a larger horizon (or [`Simulation::run`])
    /// resumes them, on whichever thread makes that call. Calling with a
    /// horizon at or before a previous one is a no-op that just reports
    /// status.
    ///
    /// # Panics
    /// Panics if an actor panicked during this slice, or if called from
    /// inside one of this simulation's actors or while another thread
    /// drives it.
    pub fn run_until(&self, horizon: Nanos) -> RunStatus {
        let mut state = self.state.lock();
        assert!(
            !state.driving,
            "a simulation was driven from inside one of its own actors, \
             or from two threads at once"
        );
        state.driving = true;
        state.horizon = horizon;
        while let Some(&Reverse((t, _, id))) = state.waiting.peek() {
            if t > horizon {
                break;
            }
            state.waiting.pop();
            state.now = state.now.max(t);
            let co: *const Coroutine = &**state.actors[id as usize]
                .as_ref()
                .expect("a finished actor was queued");
            drop(state);
            // SAFETY: the box stays in `actors` until the actor finishes,
            // and it is neither finished nor running: it was queued, and
            // only this call (`driving`) dispatches this simulation.
            let done = unsafe {
                (*co).resume();
                (*co).is_done()
            };
            state = self.state.lock();
            if done {
                let st = &mut *state;
                st.live -= 1;
                let co = st.actors[id as usize].take().expect("actor finished twice");
                co.recycle(&mut st.stacks);
            }
        }
        state.driving = false;
        let status = state.status();
        let panicked = state.panicked.clone();
        drop(state);
        if let Some(name) = panicked {
            panic!("simulation actor '{name}' panicked");
        }
        status
    }

    /// The current virtual time (final time, once [`Simulation::run`] has
    /// returned).
    pub fn now(&self) -> Nanos {
        self.state.lock().now
    }

    /// Earliest pending wakeup, if any. Stable only while the simulation
    /// is paused (before `run`, or between `run_until` slices).
    pub fn next_wake(&self) -> Option<Nanos> {
        self.state.lock().status().next_wake
    }

    /// Number of actors that have not finished.
    pub fn live(&self) -> usize {
        self.state.lock().live
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Simulation")
            .field("now", &state.now)
            .field("live", &state.live)
            .finish()
    }
}

/// An actor's whole life, on its own coroutine: run the closure, and
/// record a panic instead of letting it unwind off the coroutine.
fn actor_main<F>(state: Arc<Mutex<SimState>>, co: &Coroutine, id: ActorId, name: String, f: F)
where
    F: FnOnce(&mut ActorCtx),
{
    let now = state.lock().now;
    let mut ctx = ActorCtx {
        state,
        co,
        id,
        name,
        now,
    };
    if catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).is_err() {
        ctx.state.lock().panicked = Some(ctx.name.clone());
    }
}

/// Handle through which an actor interacts with virtual time.
///
/// An `ActorCtx` is passed to each actor closure; it cannot leave the
/// actor's own coroutine (it is neither `Send` nor `Sync`).
pub struct ActorCtx {
    state: Arc<Mutex<SimState>>,
    /// The coroutine this actor runs on; outlives the context.
    co: *const Coroutine,
    id: ActorId,
    name: String,
    /// Cache of the conductor's clock. Valid whenever this actor runs:
    /// virtual time only advances in the conductor (while no actor runs)
    /// or in this actor's own `wait_until` fast path.
    now: Nanos,
}

impl ActorCtx {
    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// This actor's identifier.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Advances this actor's virtual time by `d`, yielding to any actor
    /// scheduled earlier.
    pub fn delay(&mut self, d: Nanos) {
        let t = self.now() + d;
        self.wait_until(t);
    }

    /// Blocks this actor until virtual time `t` (no-op if `t` has passed,
    /// but still yields to equal-time actors queued earlier).
    pub fn wait_until(&mut self, t: Nanos) {
        {
            let mut state = self.state.lock();
            // Fast path: if no other actor is scheduled at or before our
            // effective wake time, the conductor would switch straight
            // back into us, so advance the clock in place and keep
            // running. The comparison must be inclusive: an actor already
            // waiting at exactly that time has an earlier FIFO sequence
            // number and must run first. The fast path must also respect
            // the dispatch horizon — a lane executor relies on every
            // actor suspending before the clock crosses it.
            let eff = t.max(state.now);
            let handoff = match state.waiting.peek() {
                Some(&Reverse((wake, _, _))) => wake <= eff,
                None => false,
            };
            if !handoff && eff <= state.horizon {
                state.now = eff;
                self.now = eff;
                return;
            }
            state.enqueue(t, self.id);
        }
        // SAFETY: `co` is the coroutine running this very code.
        unsafe { (*self.co).suspend() };
        self.now = self.state.lock().now;
    }

    /// Yields to any other actor scheduled at the current time.
    pub fn yield_now(&mut self) {
        let now = self.now();
        self.wait_until(now);
    }

    /// Spawns a new actor runnable at time `start`.
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time (see
    /// [`Simulation::spawn_at`]).
    pub fn spawn_at<F>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        let sim = Simulation {
            state: Arc::clone(&self.state),
        };
        sim.spawn_at(start, name, f)
    }
}

impl std::fmt::Debug for ActorCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorCtx")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_actor_advances_time() {
        let sim = Simulation::new();
        sim.spawn("a", |ctx| {
            assert_eq!(ctx.now(), Nanos::ZERO);
            ctx.delay(Nanos(100));
            assert_eq!(ctx.now(), Nanos(100));
            ctx.delay(Nanos(50));
            assert_eq!(ctx.now(), Nanos(150));
        });
        sim.run();
        assert_eq!(sim.now(), Nanos(150));
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("fast", move |ctx| {
            for i in 0..3 {
                ctx.delay(Nanos(10));
                l1.lock().push(("fast", i, ctx.now()));
            }
        });
        let l2 = Arc::clone(&log);
        sim.spawn("slow", move |ctx| {
            for i in 0..2 {
                ctx.delay(Nanos(15));
                l2.lock().push(("slow", i, ctx.now()));
            }
        });
        sim.run();
        let log = log.lock();
        let order: Vec<_> = log.iter().map(|(n, i, t)| (*n, *i, t.0)).collect();
        assert_eq!(
            order,
            vec![
                ("fast", 0, 10),
                ("slow", 0, 15),
                ("fast", 1, 20),
                // Both wake at 30; "slow" enqueued its wait earlier (at
                // t=15 vs t=20), so FIFO ordering runs it first.
                ("slow", 1, 30),
                ("fast", 2, 30),
            ]
        );
    }

    #[test]
    fn equal_times_run_fifo() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let l = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                ctx.delay(Nanos(5));
                l.lock().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn spawn_at_delays_start() {
        let sim = Simulation::new();
        let started_at = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&started_at);
        sim.spawn_at(Nanos(500), "late", move |ctx| {
            s.store(ctx.now().0, Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(started_at.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn actor_can_spawn_actor() {
        let sim = Simulation::new();
        let result = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&result);
        sim.spawn("parent", move |ctx| {
            ctx.delay(Nanos(10));
            let r2 = Arc::clone(&r);
            ctx.spawn_at(Nanos(25), "child", move |cctx| {
                r2.store(cctx.now().0, Ordering::SeqCst);
            });
            ctx.delay(Nanos(100));
        });
        sim.run();
        assert_eq!(result.load(Ordering::SeqCst), 25);
        assert_eq!(sim.now(), Nanos(110));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn spawn_into_the_past_traps() {
        let sim = Simulation::new();
        sim.spawn("clock-mover", |ctx| ctx.delay(Nanos(100)));
        assert!(sim.run_until(Nanos(100)).quiesced());
        // The clock is at 100; scheduling an actor at 50 must trap
        // rather than silently reorder already-dispatched events.
        sim.spawn_at(Nanos(50), "ghost", |_ctx| {});
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_spawning_into_the_past_traps_and_propagates() {
        let sim = Simulation::new();
        sim.spawn("late-spawner", move |ctx| {
            ctx.delay(Nanos(100));
            ctx.spawn_at(Nanos(50), "ghost", |_ctx| {});
        });
        sim.run();
    }

    #[test]
    fn wait_until_past_time_does_not_go_backwards() {
        let sim = Simulation::new();
        sim.spawn("a", |ctx| {
            ctx.delay(Nanos(100));
            ctx.wait_until(Nanos(10));
            assert_eq!(ctx.now(), Nanos(100));
        });
        sim.run();
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> Vec<(u64, u64)> {
            let sim = Simulation::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..4u64 {
                let l = Arc::clone(&log);
                sim.spawn(&format!("w{id}"), move |ctx| {
                    let mut step = 7 + id * 3;
                    for _ in 0..5 {
                        ctx.delay(Nanos(step));
                        l.lock().push((id, ctx.now().0));
                        step = step * 31 % 97 + 1;
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_panic_propagates() {
        let sim = Simulation::new();
        sim.spawn("boom", |_ctx| panic!("intentional"));
        sim.run();
    }

    #[test]
    fn yield_now_lets_same_time_actor_run() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("first", move |ctx| {
            l1.lock().push("first-before");
            ctx.yield_now();
            l1.lock().push("first-after");
        });
        let l2 = Arc::clone(&log);
        sim.spawn("second", move |_ctx| {
            l2.lock().push("second");
        });
        sim.run();
        assert_eq!(*log.lock(), vec!["first-before", "second", "first-after"]);
    }

    #[test]
    fn run_until_pauses_at_horizon_and_resumes() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        sim.spawn("ticker", move |ctx| {
            for _ in 0..5 {
                ctx.delay(Nanos(10));
                l.lock().push(ctx.now().0);
            }
        });
        let st = sim.run_until(Nanos(25));
        assert_eq!(*log.lock(), vec![10, 20]);
        assert_eq!(st.next_wake, Some(Nanos(30)));
        assert_eq!(st.live, 1);
        assert!(!st.quiesced());

        // A smaller horizon is a status-only no-op.
        let st = sim.run_until(Nanos(5));
        assert_eq!(st.next_wake, Some(Nanos(30)));

        let st = sim.run_until(Nanos(40));
        assert_eq!(*log.lock(), vec![10, 20, 30, 40]);
        assert_eq!(st.next_wake, Some(Nanos(50)));

        let st = sim.run_until(Nanos::MAX);
        assert!(st.quiesced());
        assert_eq!(*log.lock(), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn run_until_slicing_matches_run() {
        fn scenario(sim: &Simulation, log: &Arc<Mutex<Vec<(u64, u64)>>>) {
            for id in 0..3u64 {
                let l = Arc::clone(log);
                sim.spawn(&format!("w{id}"), move |ctx| {
                    let mut step = 5 + id * 7;
                    for _ in 0..6 {
                        ctx.delay(Nanos(step));
                        l.lock().push((id, ctx.now().0));
                        step = step * 13 % 41 + 1;
                    }
                });
            }
        }
        let whole = Arc::new(Mutex::new(Vec::new()));
        let sim = Simulation::new();
        scenario(&sim, &whole);
        sim.run();

        let sliced = Arc::new(Mutex::new(Vec::new()));
        let sim2 = Simulation::new();
        scenario(&sim2, &sliced);
        let mut h = 0u64;
        loop {
            h += 7;
            if sim2.run_until(Nanos(h)).quiesced() {
                break;
            }
        }
        assert_eq!(*whole.lock(), *sliced.lock());
        assert_eq!(sim.now(), sim2.now());
    }

    #[test]
    fn run_until_fast_path_stops_at_horizon() {
        // A single actor whose wait would normally advance the clock in
        // place must still park at the horizon boundary.
        let sim = Simulation::new();
        sim.spawn("lone", |ctx| {
            ctx.delay(Nanos(1_000));
        });
        let st = sim.run_until(Nanos(100));
        assert_eq!(st.live, 1);
        assert_eq!(st.next_wake, Some(Nanos(1_000)));
        assert!(
            sim.now() <= Nanos(100),
            "clock ran past horizon: {:?}",
            sim.now()
        );
        assert!(sim.run_until(Nanos::MAX).quiesced());
    }
}
