//! The conservative parallel scheduler.
//!
//! Each lane advances its own virtual timeline; the executor computes,
//! per lane, a *safe horizon* — the minimum clock over its inbound
//! channels — and lets worker threads step any lane whose horizon has
//! moved past its committed time. Channel clocks are Chandy–Misra style
//! promises: after a lane steps to horizon `H`, each of its outbound
//! channels promises
//!
//! ```text
//! clock = min(next_local_event, H + reaction) + lookahead
//! ```
//!
//! where `reaction` is the declared input→send bound for the edge
//! (absent for edges never triggered by inputs — see
//! [`ChannelSpec::reaction`]). Because every lookahead is positive,
//! there is always a lane whose horizon exceeds its committed time, so
//! the fleet cannot stall (the classic conservative-progress argument);
//! the executor still carries a sweep-then-trap backstop for model
//! bugs.
//!
//! **Determinism.** A lane's evolution depends only on the merged
//! `(deliver_at, channel, seq)` order of its inputs, never on when in
//! wall-clock time they were posted or how the steps were chunked:
//! sequence numbers are assigned per channel in virtual send order,
//! horizons only decide *chunking*, and the lane runtime replays the
//! merge deterministically (see `lane.rs`). Hence 1, 2, or N workers
//! produce bit-identical virtual-time results. Scheduling counters
//! ([`ExecStats`]) are *not* deterministic — step counts depend on how
//! horizons happened to advance — and must never be fingerprinted.

use std::collections::VecDeque;

use bypassd_sim::{Envelope, Mailbox, Nanos};
use parking_lot::{Condvar, Mutex};

use crate::topo::{ChannelId, ChannelSpec, LaneId, Topology};

/// Merge-key channel value reserved for lane-local timers.
pub const SELF_CHANNEL: u32 = u32::MAX;

/// One outbound message produced during a lane step.
#[derive(Debug, Clone)]
pub struct OutMsg<M> {
    /// Virtual time at which the lane decided to send. Must lie within
    /// the step window `[committed, horizon)` and be nondecreasing per
    /// channel.
    pub sent_at: Nanos,
    /// Channel to send on (must originate at the stepping lane).
    pub channel: ChannelId,
    /// Payload; delivered at `sent_at + port.lookahead`.
    pub msg: M,
}

/// A shard of the simulation, driven by the executor.
///
/// Contract for [`LaneModel::step`]`(inbox, horizon, out)`:
/// * drain and handle every inbox envelope with `at < horizon`,
///   interleaved with local activity in `(at, channel, seq)` order;
/// * advance all local activity through `horizon - 1` inclusive;
/// * push sends into `out` in virtual send order.
///
/// [`LaneModel::next_event`] reports the earliest *future* local event
/// (timer or actor wakeup), which after a step is always `>= horizon`.
pub trait LaneModel<M>: Send {
    /// Advance the lane below `horizon`; see the trait docs.
    fn step(&mut self, inbox: &Mailbox<M>, horizon: Nanos, out: &mut Vec<OutMsg<M>>);
    /// Earliest pending local event, if any.
    fn next_event(&self) -> Option<Nanos>;
    /// Called once after the fleet quiesces (in lane order).
    fn finalize(&mut self) {}
}

/// Diagnostic counters for one executor run.
///
/// `steps` (and to a lesser degree the null-message bookkeeping behind
/// it) depends on worker scheduling and is **not** deterministic;
/// `delivered` counts real model messages and is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Lane steps executed (includes pure horizon-advance steps).
    pub steps: u64,
    /// Cross-lane envelopes delivered.
    pub delivered: u64,
}

struct ChanState {
    spec: ChannelSpec,
    /// Promise: every future envelope on this channel is delivered at
    /// or after this time. Monotone.
    clock: Nanos,
    /// Next per-channel sequence number (virtual send order).
    next_seq: u64,
}

struct LaneSched {
    committed: Nanos,
    next_event: Option<Nanos>,
    running: bool,
    queued: bool,
}

struct Sched {
    chan: Vec<ChanState>,
    lane: Vec<LaneSched>,
    ready: VecDeque<usize>,
    active: usize,
    done: bool,
    stats: ExecStats,
}

struct LaneSlot<M> {
    model: Mutex<Box<dyn LaneModel<M>>>,
    inbox: Mailbox<M>,
    in_channels: Vec<u32>,
    out_channels: Vec<u32>,
}

/// Wakes the whole fleet on a worker panic so `thread::scope` can join
/// and propagate instead of hanging the remaining workers.
struct PanicFence<'a> {
    sched: &'a Mutex<Sched>,
    cv: &'a Condvar,
}

impl Drop for PanicFence<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sched.lock().done = true;
            self.cv.notify_all();
        }
    }
}

/// The sharded parallel executor.
pub struct Executor<M: Send + 'static> {
    topo: Topology,
    slots: Vec<LaneSlot<M>>,
    sched: Mutex<Sched>,
    cv: Condvar,
}

impl<M: Send + 'static> Executor<M> {
    /// Builds an executor over `topo`; `models[i]` is the model for
    /// `LaneId(i)`.
    ///
    /// # Panics
    /// Panics if the model count does not match the topology.
    pub fn new(topo: Topology, models: Vec<Box<dyn LaneModel<M>>>) -> Self {
        assert_eq!(
            models.len(),
            topo.lane_count(),
            "one model per topology lane"
        );
        let n = topo.lane_count();
        let mut slots: Vec<LaneSlot<M>> = models
            .into_iter()
            .map(|model| LaneSlot {
                model: Mutex::new(model),
                inbox: Mailbox::new(),
                in_channels: Vec::new(),
                out_channels: Vec::new(),
            })
            .collect();
        for (idx, spec) in topo.channels().iter().enumerate() {
            slots[spec.dst.0 as usize].in_channels.push(idx as u32);
            slots[spec.src.0 as usize].out_channels.push(idx as u32);
        }
        let lane = (0..n)
            .map(|i| LaneSched {
                committed: Nanos::ZERO,
                next_event: slots[i].model.lock().next_event(),
                running: false,
                queued: false,
            })
            .collect::<Vec<_>>();
        // Initial promises: nothing has run, so the input horizon of
        // every lane is zero.
        let chan = topo
            .channels()
            .iter()
            .map(|spec| {
                let ne = lane[spec.src.0 as usize].next_event;
                ChanState {
                    spec: *spec,
                    clock: promise(ne, Nanos::ZERO, spec),
                    next_seq: 0,
                }
            })
            .collect();
        Executor {
            topo,
            slots,
            sched: Mutex::new(Sched {
                chan,
                lane,
                ready: VecDeque::new(),
                active: 0,
                done: false,
                stats: ExecStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Runs the fleet to quiescence on `workers` threads (clamped to at
    /// least 1), seals every mailbox, finalizes every lane in order, and
    /// returns the (diagnostic) counters.
    ///
    /// # Panics
    /// Propagates lane panics; traps on promise violations and on
    /// executor stalls (both indicate a broken `reaction`/lookahead
    /// declaration).
    pub fn run(&mut self, workers: usize) -> ExecStats {
        let workers = workers.max(1);
        {
            // Seed the ready queue with every lane that has work.
            let mut s = self.sched.lock();
            for l in 0..self.slots.len() {
                self.maybe_enqueue(&mut s, l);
            }
            self.check_done(&mut s);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    std::thread::Builder::new()
                        .name(format!("fleet-worker-{w}"))
                        .spawn_scoped(scope, || self.worker())
                        .expect("failed to spawn fleet worker")
                })
                .collect();
            // Join by hand so a lane panic propagates with its own
            // payload (auto-join would replace it with a generic one).
            let mut first_panic = None;
            for h in handles {
                if let Err(p) = h.join() {
                    first_panic.get_or_insert(p);
                }
            }
            if let Some(p) = first_panic {
                std::panic::resume_unwind(p);
            }
        });
        let stats = {
            let s = self.sched.lock();
            assert!(s.done, "fleet workers exited before quiescence");
            s.stats
        };
        for slot in &self.slots {
            slot.inbox.seal();
        }
        for slot in &mut self.slots {
            slot.model.get_mut().finalize();
        }
        stats
    }

    /// Consumes the executor, returning the lane models (in lane order)
    /// for result extraction.
    pub fn into_models(self) -> Vec<Box<dyn LaneModel<M>>> {
        self.slots
            .into_iter()
            .map(|s| s.model.into_inner())
            .collect()
    }

    fn worker(&self) {
        let _fence = PanicFence {
            sched: &self.sched,
            cv: &self.cv,
        };
        let mut s = self.sched.lock();
        loop {
            if s.done {
                return;
            }
            let Some(l) = s.ready.pop_front() else {
                if s.active == 0 {
                    // Nothing queued and nothing running: either the
                    // fleet is quiesced, or progress stalled. Sweep all
                    // lanes; conservative theory says the sweep finds
                    // work whenever the fleet is not done, so an empty
                    // sweep here is a model bug (bad lookahead or
                    // reaction declaration).
                    self.check_done(&mut s);
                    if s.done {
                        return;
                    }
                    let mut found = false;
                    for l in 0..self.slots.len() {
                        found |= self.maybe_enqueue(&mut s, l);
                    }
                    if !found {
                        panic!(
                            "fleet executor stalled: no lane is runnable but the fleet \
                             has pending work (inconsistent lookahead/reaction model?)"
                        );
                    }
                } else {
                    self.cv.wait(&mut s);
                }
                continue;
            };
            s.lane[l].queued = false;
            if s.lane[l].running {
                continue;
            }
            let horizon = self.horizon_of(&s, l);
            let committed = s.lane[l].committed;
            let due_msg = self.slots[l].inbox.next_at().is_some_and(|t| t < horizon);
            if horizon <= committed && !due_msg {
                continue; // stale queue entry
            }
            s.lane[l].running = true;
            s.active += 1;
            drop(s);

            let mut out = Vec::new();
            let ne = {
                let mut model = self.slots[l].model.lock();
                model.step(&self.slots[l].inbox, horizon, &mut out);
                model.next_event()
            };
            if let Some(t) = ne {
                assert!(
                    t >= horizon,
                    "lane {l} reported next_event {t} below its stepped horizon {horizon}"
                );
            }

            s = self.sched.lock();
            s.stats.steps += 1;
            s.lane[l].running = false;
            s.active -= 1;
            s.lane[l].committed = committed.max(horizon);
            s.lane[l].next_event = ne;
            for m in out {
                self.deliver(&mut s, l, committed, horizon, m);
            }
            self.refresh_promises(&mut s, l, horizon);
            self.maybe_enqueue(&mut s, l);
            self.check_done(&mut s);
            // This worker takes the first ready lane itself on its next
            // pass; wake idle ones only for the rest.
            for _ in 1..s.ready.len() {
                self.cv.notify_one();
            }
        }
    }

    /// Safe horizon of lane `l`: minimum inbound channel clock
    /// (`Nanos::MAX` for a pure source lane).
    fn horizon_of(&self, s: &Sched, l: usize) -> Nanos {
        self.slots[l]
            .in_channels
            .iter()
            .map(|&c| s.chan[c as usize].clock)
            .min()
            .unwrap_or(Nanos::MAX)
    }

    /// Validates and delivers one outbound message, assigning its
    /// per-channel sequence number in virtual send order.
    fn deliver(&self, s: &mut Sched, src: usize, committed: Nanos, horizon: Nanos, m: OutMsg<M>) {
        let c = m.channel.0 as usize;
        assert!(c < s.chan.len(), "send on unknown channel {:?}", m.channel);
        let spec = s.chan[c].spec;
        assert_eq!(
            spec.src,
            LaneId(src as u32),
            "lane {src} sent on channel {:?} it does not own",
            m.channel
        );
        assert!(
            m.sent_at >= committed && m.sent_at < horizon,
            "lane {src} sent at {} outside its step window [{committed}, {horizon})",
            m.sent_at
        );
        let deliver_at = m.sent_at.saturating_add(spec.port.lookahead);
        assert!(
            deliver_at >= s.chan[c].clock,
            "promise violation on channel {:?} ({}): delivery at {deliver_at} undercuts \
             the promised clock {} — reaction/lookahead declaration is wrong",
            m.channel,
            spec.port.name,
            s.chan[c].clock
        );
        let seq = s.chan[c].next_seq;
        s.chan[c].next_seq += 1;
        let accepted = self.slots[spec.dst.0 as usize].inbox.post(Envelope {
            at: deliver_at,
            channel: m.channel.0,
            seq,
            msg: m.msg,
        });
        assert!(accepted, "delivery into a sealed inbox (executor bug)");
        s.stats.delivered += 1;
        self.maybe_enqueue(s, spec.dst.0 as usize);
    }

    /// Recomputes the promises of `src`'s outbound channels after a
    /// step to `horizon`, waking receivers whose horizon grew.
    fn refresh_promises(&self, s: &mut Sched, src: usize, horizon: Nanos) {
        let ne = s.lane[src].next_event;
        for i in 0..self.slots[src].out_channels.len() {
            let c = self.slots[src].out_channels[i] as usize;
            let p = promise(ne, horizon, &s.chan[c].spec);
            if p > s.chan[c].clock {
                s.chan[c].clock = p;
                let dst = s.chan[c].spec.dst.0 as usize;
                self.maybe_enqueue(s, dst);
            }
        }
    }

    /// Queues lane `l` if it has work (horizon beyond committed time, or
    /// a due message). Returns whether it was queued.
    fn maybe_enqueue(&self, s: &mut Sched, l: usize) -> bool {
        if s.lane[l].queued || s.lane[l].running {
            return false;
        }
        let horizon = self.horizon_of(s, l);
        let due_msg = self.slots[l].inbox.next_at().is_some_and(|t| t < horizon);
        if horizon > s.lane[l].committed || due_msg {
            s.lane[l].queued = true;
            s.ready.push_back(l);
            true
        } else {
            false
        }
    }

    /// The fleet is done when nothing runs, no lane has a pending local
    /// event, and every inbox is empty. The ready queue is deliberately
    /// ignored: promise refreshes re-queue lanes for pure horizon
    /// advancement, and if no lane anywhere holds an event, that null
    /// work can never create one — waiting for the queue to drain would
    /// instead creep every clock toward `Nanos::MAX` forever.
    fn check_done(&self, s: &mut Sched) {
        if s.done || s.active > 0 {
            return;
        }
        let idle = s.lane.iter().all(|l| l.next_event.is_none())
            && self.slots.iter().all(|slot| slot.inbox.is_empty());
        if idle {
            s.done = true;
            self.cv.notify_all();
        }
    }

    /// The topology this executor runs.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// The Chandy–Misra output promise for one channel after a step:
/// earliest possible future send is bounded by the lane's next local
/// event and (for input-coupled edges) its input horizon plus the
/// declared reaction; delivery adds the port lookahead.
fn promise(next_event: Option<Nanos>, input_horizon: Nanos, spec: &ChannelSpec) -> Nanos {
    let ne = next_event.unwrap_or(Nanos::MAX);
    let reaction = spec
        .reaction
        .map_or(Nanos::MAX, |r| input_horizon.saturating_add(r));
    ne.min(reaction).saturating_add(spec.port.lookahead)
}
