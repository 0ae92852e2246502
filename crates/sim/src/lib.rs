//! # bypassd-sim
//!
//! Deterministic discrete-event simulation (DES) kernel used by the BypassD
//! reproduction. It provides:
//!
//! * [`time::Nanos`] — the virtual time unit (nanoseconds).
//! * [`engine::Simulation`] — a conductor that runs simulated actors as
//!   stackful coroutines on its caller's own thread, exactly one at a
//!   time, always the one with the earliest virtual timestamp. Workload
//!   code stays straight-line imperative (`ctx.delay(..)` blocks like a
//!   call) while runs remain bit-for-bit reproducible.
//! * [`rng`] — seedable PRNG plus the YCSB zipfian/latest distributions.
//! * [`stats`] — log-bucketed latency histograms and throughput counters.
//! * [`report`] — plain-text table formatting for the benchmark harnesses.
//! * [`mailbox`] / [`port`] — the cross-lane primitives for the sharded
//!   parallel executor (`bypassd-fleet`): deterministically merged
//!   mailboxes and lookahead-annotated cross-shard ports.
//!
//! ## Example
//!
//! ```rust
//! use bypassd_sim::engine::Simulation;
//! use bypassd_sim::time::Nanos;
//!
//! let sim = Simulation::new();
//! sim.spawn("worker", |ctx| {
//!     ctx.delay(Nanos::from_micros(5));
//!     assert_eq!(ctx.now(), Nanos::from_micros(5));
//! });
//! sim.run();
//! assert_eq!(sim.now(), Nanos::from_micros(5));
//! ```

mod coro;
pub mod engine;
pub mod mailbox;
pub mod port;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{ActorCtx, RunStatus, Simulation};
pub use mailbox::{Envelope, Mailbox};
pub use port::Port;
pub use time::Nanos;
