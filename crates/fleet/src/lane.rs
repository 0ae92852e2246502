//! Sim-backed lane runtime.
//!
//! [`Lane`] wraps a [`Simulation`] (the lane's private timeline, with
//! its own actors) plus a self-timer queue and a message handler, and
//! implements [`LaneModel`] so the executor can drive it. It owns the
//! deterministic merge: inbound envelopes and due self-timers are
//! dispatched one at a time in `(at, channel, seq)` order — self-timers
//! use the reserved channel [`SELF_CHANNEL`], so at equal times real
//! channel traffic is handled first, then timers in arm order — and
//! before each dispatch the inner simulation is advanced *through* the
//! event time. The inner engine therefore sees the exact same event
//! sequence no matter how the executor chunks horizons, which is what
//! makes worker count invisible to virtual-time results.

use std::sync::Arc;

use bypassd_sim::{Envelope, Mailbox, Nanos, Simulation};
use parking_lot::Mutex;

use crate::exec::{LaneModel, OutMsg, SELF_CHANNEL};
use crate::topo::ChannelId;

/// One dispatched lane event: a cross-lane message or a self-timer.
#[derive(Debug)]
pub struct Event<M> {
    /// Virtual time of the event on the lane's timeline.
    pub at: Nanos,
    /// Originating channel, or `None` for a self-timer.
    pub channel: Option<ChannelId>,
    /// Payload.
    pub msg: M,
}

struct HandleState<M> {
    sends: Vec<OutMsg<M>>,
    timer_seq: u64,
}

struct HandleInner<M> {
    timers: Mailbox<M>,
    state: Mutex<HandleState<M>>,
}

/// Cloneable handle through which handlers *and lane actors* arm
/// self-timers and send cross-lane messages.
///
/// Safe to use from lane actors: the lane's conductor runs exactly
/// one actor at a time, so arm/send order is virtual-time order and
/// stays deterministic.
pub struct LaneHandle<M> {
    inner: Arc<HandleInner<M>>,
}

impl<M> Clone for LaneHandle<M> {
    fn clone(&self) -> Self {
        LaneHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send> LaneHandle<M> {
    /// Schedules `msg` to be dispatched to the lane's handler at `at`.
    /// `at` must not lie in the lane's past.
    pub fn arm(&self, at: Nanos, msg: M) {
        let seq = {
            let mut st = self.inner.state.lock();
            let s = st.timer_seq;
            st.timer_seq += 1;
            s
        };
        let accepted = self.inner.timers.post(Envelope {
            at,
            channel: SELF_CHANNEL,
            seq,
            msg,
        });
        assert!(accepted, "self-timer armed after lane finalization");
    }

    /// Queues a cross-lane send decided at `sent_at`, which must be the
    /// *current* time — an actor passes `ctx.now()`, a handler passes
    /// the event time. To send later, [`LaneHandle::arm`] a self-timer
    /// and send when it fires: a future `sent_at` could cross the step
    /// horizon, and the executor traps sends outside the step window.
    /// Delivery happens at `sent_at + lookahead` of the channel's port.
    pub fn send(&self, sent_at: Nanos, channel: ChannelId, msg: M) {
        self.inner.state.lock().sends.push(OutMsg {
            sent_at,
            channel,
            msg,
        });
    }
}

/// A lane whose local world is a private [`Simulation`].
pub struct Lane<M: Send + 'static> {
    sim: Simulation,
    handle: LaneHandle<M>,
    #[allow(clippy::type_complexity)]
    handler: Box<dyn FnMut(Event<M>, &LaneHandle<M>) + Send>,
}

impl<M: Send + 'static> Lane<M> {
    /// Creates a lane with the given cross-lane/timer event handler.
    /// Spawn lane actors on [`Lane::sim`] before handing the lane to
    /// the executor.
    pub fn new<F>(handler: F) -> Self
    where
        F: FnMut(Event<M>, &LaneHandle<M>) + Send + 'static,
    {
        Lane {
            sim: Simulation::new(),
            handle: LaneHandle {
                inner: Arc::new(HandleInner {
                    timers: Mailbox::new(),
                    state: Mutex::new(HandleState {
                        sends: Vec::new(),
                        timer_seq: 0,
                    }),
                }),
            },
            handler: Box::new(handler),
        }
    }

    /// The lane's private simulation (for spawning actors).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// A handle for arming timers and sending across lanes.
    pub fn handle(&self) -> LaneHandle<M> {
        self.handle.clone()
    }
}

impl<M: Send + 'static> LaneModel<M> for Lane<M> {
    fn step(&mut self, inbox: &Mailbox<M>, horizon: Nanos, out: &mut Vec<OutMsg<M>>) {
        loop {
            // Earliest due event across the inbox and self-timers, in
            // (at, channel, seq) merge order. Re-peeked every iteration:
            // a handler may arm a timer at the current time, and the
            // conservative horizon guarantees no *new* inbox envelope
            // below `horizon` can appear mid-step.
            let next_in = inbox.peek_key().filter(|k| k.0 < horizon);
            let next_tm = self
                .handle
                .inner
                .timers
                .peek_key()
                .filter(|k| k.0 < horizon);
            let take_timer = match (next_in, next_tm) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(i), Some(t)) => t < i,
            };
            let env = if take_timer {
                self.handle.inner.timers.drain_next_below(horizon)
            } else {
                inbox.drain_next_below(horizon)
            }
            .expect("peeked envelope vanished");
            // Local activity up to and including the event time runs
            // first, so the handler observes a lane state independent
            // of horizon chunking.
            self.sim.run_until(env.at);
            let channel = if env.channel == SELF_CHANNEL {
                None
            } else {
                Some(ChannelId(env.channel))
            };
            (self.handler)(
                Event {
                    at: env.at,
                    channel,
                    msg: env.msg,
                },
                &self.handle,
            );
        }
        // Events at exactly `horizon` belong to the next step (a
        // message may still arrive at that instant), so local activity
        // stops one nanosecond short.
        self.sim.run_until(horizon.saturating_sub(Nanos(1)));
        out.append(&mut self.handle.inner.state.lock().sends);
    }

    fn next_event(&self) -> Option<Nanos> {
        match (self.sim.next_wake(), self.handle.inner.timers.next_at()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    fn finalize(&mut self) {
        self.handle.inner.timers.seal();
        let status = self.sim.run_until(Nanos::MAX);
        assert!(
            status.quiesced(),
            "lane failed to quiesce at finalization: {status:?}"
        );
    }
}
