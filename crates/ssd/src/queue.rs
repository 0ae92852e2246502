//! NVMe queue pairs: submission/completion bookkeeping.
//!
//! A queue pair is created through the driver and — the BypassD change —
//! bound to the owning process's PASID (§3.3), which the device attaches
//! to every ATS translation request issued for commands on that queue.
//! Kernel-owned queues have no PASID and may only carry LBA commands.
//!
//! Pending completions are kept in a binary min-heap keyed
//! `(ready_at, cid)` next to a `cid → completion` map. Polling pops
//! ready entries straight off the heap — O(log n) each — instead of the
//! seed's filter-and-`sort_by_key` over every pending completion on
//! every poll. Targeted reaps (`reap(cid)`) remove from the map only and
//! leave a stale heap entry behind; the heap lazily discards entries
//! whose cid is gone from the map (or was reused with a different ready
//! time) when they surface.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use bypassd_hw::iommu::TranslateError;
use bypassd_hw::types::Pasid;
use bypassd_sim::time::Nanos;

/// Identifies a queue pair on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

/// NVMe completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// VBA translation failed — surfaced to UserLib, which re-`fmap()`s
    /// and falls back to the kernel interface (§3.6).
    TranslationFault(TranslateError),
    /// LBA range exceeds the namespace.
    LbaOutOfRange,
    /// Command malformed (e.g. VBA command on a kernel queue).
    InvalidField,
    /// An offload chain aborted: either the program executed
    /// [`Op::Fail`](bypassd_offload::Op::Fail) with this code, or the
    /// engine raised a reserved trap (`0xFF00..` — out-of-bounds load,
    /// step budget, hop budget).
    ChainFault(u16),
    /// Transient media error injected by the fault plane. Retryable: the
    /// kernel maps it to `EIO` after UserLib's bounded retry gives up.
    MediaError,
}

impl NvmeStatus {
    /// True on success.
    pub fn is_ok(self) -> bool {
        self == NvmeStatus::Success
    }
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Command identifier this completes.
    pub cid: u16,
    /// Outcome.
    pub status: NvmeStatus,
    /// Virtual time at which the completion is visible to the host.
    pub ready_at: Nanos,
    /// Congestion signal (QoS backpressure): the command was delayed by
    /// rate limiting or fair-share pacing, or the queue pair is running
    /// near its depth limit. Always false with QoS disabled. UserLib
    /// reacts by shrinking its effective queue depth (§5.1 pipeline).
    pub pressure: bool,
}

/// Device-side queue pair state.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// PASID bound at creation (None for kernel queues).
    pub pasid: Option<Pasid>,
    /// Maximum outstanding commands.
    pub depth: usize,
    /// Completions not yet reaped by the host, by command id.
    pending: HashMap<u16, Completion>,
    /// Min-heap of `(ready_at, cid)`; may hold stale entries for reaped
    /// or reused cids (discarded lazily against `pending`, and compacted
    /// once the stale fraction exceeds one half).
    heap: BinaryHeap<Reverse<(Nanos, u16)>>,
    /// Heap entries known stale (targeted reaps, overwritten cids) that
    /// lazy discard has not yet popped.
    stale: usize,
    /// Commands submitted but not yet reaped.
    pub inflight: usize,
    /// Claimed cids whose completion was swallowed (injected loss): each
    /// holds a slot until the host aborts it.
    lost: Vec<u16>,
    next_cid: u16,
}

/// Below this heap size, stale entries are left for lazy discard; a
/// rebuild would cost more than it saves.
const COMPACT_MIN_HEAP: usize = 64;

impl QueuePair {
    pub(crate) fn new(pasid: Option<Pasid>, depth: usize) -> Self {
        QueuePair {
            pasid,
            depth,
            pending: HashMap::new(),
            heap: BinaryHeap::new(),
            stale: 0,
            inflight: 0,
            lost: Vec::new(),
            next_cid: 0,
        }
    }

    /// Claims a submission slot, returning the command id, or `None` when
    /// the queue is full.
    pub(crate) fn claim(&mut self) -> Option<u16> {
        if self.inflight >= self.depth {
            return None;
        }
        self.inflight += 1;
        Some(self.take_cid())
    }

    /// Advances the cid counter without occupying a slot — used by the
    /// synchronous execute path, which claims and retires the command in
    /// the same device-lock critical section.
    pub(crate) fn take_cid(&mut self) -> u16 {
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        cid
    }

    /// Records that claimed command `cid` will never post a completion.
    pub(crate) fn lose(&mut self, cid: u16) {
        self.lost.push(cid);
    }

    /// Host abort of a claimed command whose completion was lost: frees
    /// its slot. False (and no change) for any other cid.
    pub(crate) fn abort(&mut self, cid: u16) -> bool {
        let Some(i) = self.lost.iter().position(|&c| c == cid) else {
            return false;
        };
        self.lost.swap_remove(i);
        self.inflight -= 1;
        true
    }

    /// Posts a completion.
    pub(crate) fn post(&mut self, completion: Completion) {
        self.heap
            .push(Reverse((completion.ready_at, completion.cid)));
        if self.pending.insert(completion.cid, completion).is_some() {
            // A reused cid shadowed an unreaped completion; its old heap
            // entry is now stale.
            self.stale += 1;
            self.maybe_compact();
        }
    }

    /// Ready time of command `cid`, if it has been posted.
    pub(crate) fn ready_time(&self, cid: u16) -> Option<Nanos> {
        self.pending.get(&cid).map(|c| c.ready_at)
    }

    /// Reaps the completion for `cid` if visible at `now`. The heap entry
    /// stays behind and is discarded lazily (or by compaction once stale
    /// entries dominate the heap).
    pub(crate) fn reap(&mut self, cid: u16, now: Nanos) -> Option<Completion> {
        if self.pending.get(&cid)?.ready_at > now {
            return None;
        }
        self.inflight -= 1;
        let c = self.pending.remove(&cid);
        if c.is_some() {
            self.stale += 1;
            self.maybe_compact();
        }
        c
    }

    /// Rebuilds the heap from the live pending map once more than half
    /// of a non-trivial heap is stale, bounding retained garbage: a
    /// long-lived queue driven purely by targeted reaps stays O(depth)
    /// instead of growing monotonically.
    fn maybe_compact(&mut self) {
        if self.heap.len() >= COMPACT_MIN_HEAP && self.stale * 2 > self.heap.len() {
            self.heap.clear();
            self.heap
                .extend(self.pending.values().map(|c| Reverse((c.ready_at, c.cid))));
            self.stale = 0;
        }
    }

    /// True when the heap's top entry no longer matches a pending
    /// completion (reaped by cid, dropped, or the cid was reused with a
    /// different ready time).
    fn top_is_stale(&self, ready_at: Nanos, cid: u16) -> bool {
        self.pending.get(&cid).map(|c| c.ready_at) != Some(ready_at)
    }

    /// Reaps up to `max` completions visible at `now`, earliest first
    /// (ties broken by cid).
    pub(crate) fn reap_ready(&mut self, now: Nanos, max: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        self.reap_ready_into(now, max, &mut out);
        out
    }

    /// As [`QueuePair::reap_ready`], appending into a caller-provided
    /// buffer (the batched-completion path's allocation-free variant);
    /// returns how many completions were appended.
    pub(crate) fn reap_ready_into(
        &mut self,
        now: Nanos,
        max: usize,
        out: &mut Vec<Completion>,
    ) -> usize {
        let mut added = 0;
        while added < max {
            let Some(&Reverse((t, cid))) = self.heap.peek() else {
                break;
            };
            if self.top_is_stale(t, cid) {
                self.heap.pop();
                self.stale = self.stale.saturating_sub(1);
                continue;
            }
            if t > now {
                break;
            }
            self.heap.pop();
            let c = self.pending.remove(&cid).expect("checked live above");
            self.inflight -= 1;
            out.push(c);
            added += 1;
        }
        added
    }

    /// Earliest pending completion time, if any. Takes `&mut self` to
    /// discard stale heap entries encountered at the top.
    pub(crate) fn next_ready_time(&mut self) -> Option<Nanos> {
        while let Some(&Reverse((t, cid))) = self.heap.peek() {
            if self.top_is_stale(t, cid) {
                self.heap.pop();
                self.stale = self.stale.saturating_sub(1);
                continue;
            }
            return Some(t);
        }
        None
    }

    /// Latest pending completion time, if any (used by flush; not on the
    /// per-I/O poll path, so a scan of the live map is fine).
    pub(crate) fn last_ready_time(&self) -> Option<Nanos> {
        self.pending.values().map(|c| c.ready_at).max()
    }

    /// Drops every pending completion (and the heap), returning how many
    /// were dropped. Used when resetting device timing between runs.
    pub(crate) fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        self.heap.clear();
        self.stale = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(cid: u16, at: u64) -> Completion {
        Completion {
            cid,
            status: NvmeStatus::Success,
            ready_at: Nanos(at),
            pressure: false,
        }
    }

    #[test]
    fn claim_respects_depth() {
        let mut q = QueuePair::new(None, 2);
        assert!(q.claim().is_some());
        assert!(q.claim().is_some());
        assert!(
            q.claim().is_none(),
            "depth-2 queue accepted a third command"
        );
    }

    #[test]
    fn abort_frees_only_lost_slots() {
        let mut q = QueuePair::new(None, 2);
        let done = q.claim().unwrap();
        let lost = q.claim().unwrap();
        q.post(ok(done, 10));
        q.lose(lost);
        assert!(q.claim().is_none());
        assert!(!q.abort(done), "a posted completion cannot be aborted");
        assert!(q.abort(lost));
        assert!(!q.abort(lost), "a cid is aborted at most once");
        assert_eq!(q.inflight, 1);
        assert!(q.claim().is_some(), "the aborted slot is free again");
    }

    #[test]
    fn reap_only_when_ready() {
        let mut q = QueuePair::new(None, 4);
        let cid = q.claim().unwrap();
        q.post(ok(cid, 100));
        assert!(q.reap(cid, Nanos(50)).is_none());
        let c = q.reap(cid, Nanos(100)).unwrap();
        assert!(c.status.is_ok());
        assert_eq!(q.inflight, 0);
    }

    #[test]
    fn reap_frees_slot() {
        let mut q = QueuePair::new(None, 1);
        let cid = q.claim().unwrap();
        assert!(q.claim().is_none());
        q.post(ok(cid, 10));
        q.reap(cid, Nanos(10)).unwrap();
        assert!(q.claim().is_some());
    }

    #[test]
    fn reap_ready_orders_by_time() {
        let mut q = QueuePair::new(None, 8);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        let c = q.claim().unwrap();
        q.post(ok(b, 5));
        q.post(ok(a, 20));
        q.post(ok(c, 10));
        let got = q.reap_ready(Nanos(15), 8);
        assert_eq!(got.iter().map(|x| x.cid).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(q.inflight, 1);
        assert_eq!(q.next_ready_time(), Some(Nanos(20)));
    }

    #[test]
    fn reap_ready_orders_out_of_order_submissions() {
        // Satellite regression: completions posted in arbitrary ready_at
        // order must reap strictly (ready_at, cid)-ordered, across
        // multiple partial polls, with equal-time ties broken by cid.
        let mut q = QueuePair::new(None, 16);
        let cids: Vec<u16> = (0..10).map(|_| q.claim().unwrap()).collect();
        let times = [70u64, 10, 40, 40, 90, 20, 40, 60, 30, 50];
        // Post in a scrambled order relative to both cid and time.
        for &i in &[4usize, 0, 7, 2, 9, 5, 1, 8, 3, 6] {
            q.post(ok(cids[i], times[i]));
        }
        let mut got = Vec::new();
        // Partial reaps with an advancing clock, 3 at a time.
        for now in [35u64, 55, 100] {
            got.extend(q.reap_ready(Nanos(now), 3));
        }
        got.extend(q.reap_ready(Nanos(100), 16));
        let keys: Vec<(u64, u16)> = got.iter().map(|c| (c.ready_at.as_nanos(), c.cid)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "reap order must be (ready_at, cid)");
        assert_eq!(got.len(), 10);
        // The three equal-time completions surface in cid order.
        let at40: Vec<u16> = got
            .iter()
            .filter(|c| c.ready_at == Nanos(40))
            .map(|c| c.cid)
            .collect();
        assert_eq!(at40, vec![cids[2], cids[3], cids[6]]);
        assert_eq!(q.inflight, 0);
    }

    #[test]
    fn targeted_reap_leaves_no_ghost_in_reap_ready() {
        // reap(cid) leaves a stale heap entry; it must not resurface.
        let mut q = QueuePair::new(None, 8);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        q.post(ok(a, 10));
        q.post(ok(b, 20));
        assert!(q.reap(a, Nanos(10)).is_some());
        let got = q.reap_ready(Nanos(100), 8);
        assert_eq!(got.iter().map(|x| x.cid).collect::<Vec<_>>(), vec![b]);
        assert_eq!(q.next_ready_time(), None);
        assert_eq!(q.inflight, 0);
    }

    #[test]
    fn cid_reuse_after_wrap_does_not_confuse_heap() {
        let mut q = QueuePair::new(None, usize::MAX);
        q.next_cid = u16::MAX;
        let a = q.claim().unwrap(); // 65535
        let b = q.claim().unwrap(); // 0
        assert_eq!(a, u16::MAX);
        assert_eq!(b, 0);
        q.post(ok(a, 10));
        q.reap(a, Nanos(10)).unwrap();
        // Wrap all the way around so cid 65535 is claimed again.
        q.next_cid = u16::MAX;
        let a2 = q.claim().unwrap();
        assert_eq!(a2, a);
        q.post(ok(a2, 50));
        // The stale (10, 65535) heap entry must not surface the new
        // completion before its time.
        assert!(q.reap_ready(Nanos(30), 8).is_empty());
        assert_eq!(q.next_ready_time(), Some(Nanos(50)));
        let got = q.reap_ready(Nanos(50), 8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ready_at, Nanos(50));
    }

    #[test]
    fn drop_pending_clears_everything() {
        let mut q = QueuePair::new(None, 8);
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        q.post(ok(a, 10));
        q.post(ok(b, 20));
        assert_eq!(q.drop_pending(), 2);
        assert_eq!(q.next_ready_time(), None);
        assert!(q.reap_ready(Nanos(100), 8).is_empty());
    }

    #[test]
    fn targeted_reap_hammering_keeps_heap_bounded() {
        // Satellite regression: a long-lived queue driven purely by
        // targeted reaps (submit → reap(cid), as the async write path
        // does) leaves one stale heap entry per op. Compaction must keep
        // retained garbage bounded instead of growing monotonically, and
        // the live completion must always survive the rebuild.
        let mut q = QueuePair::new(None, 64);
        for round in 0..10_000u64 {
            let cid = q.claim().unwrap();
            q.post(ok(cid, round + 1));
            assert_eq!(q.reap(cid, Nanos(round + 1)).unwrap().cid, cid);
            assert!(
                q.heap.len() <= 2 * COMPACT_MIN_HEAP,
                "heap grew to {} entries after {} targeted reaps",
                q.heap.len(),
                round + 1
            );
        }
        assert_eq!(q.inflight, 0);
        assert_eq!(q.next_ready_time(), None);
    }

    #[test]
    fn compaction_preserves_live_completions() {
        // Interleave targeted reaps (stale producers) with live
        // completions; compaction must never drop or reorder the live
        // ones.
        let mut q = QueuePair::new(None, usize::MAX);
        let live: Vec<u16> = (0..8u16)
            .map(|i| {
                let cid = q.claim().unwrap();
                q.post(ok(cid, 1_000_000 + u64::from(i)));
                cid
            })
            .collect();
        for round in 0..1_000u64 {
            let cid = q.claim().unwrap();
            q.post(ok(cid, round + 1));
            q.reap(cid, Nanos(round + 1)).unwrap();
        }
        let got = q.reap_ready(Nanos(2_000_000), 64);
        assert_eq!(got.iter().map(|c| c.cid).collect::<Vec<_>>(), live);
        assert_eq!(q.inflight, 0);
    }

    #[test]
    fn cid_wraps() {
        let mut q = QueuePair::new(None, usize::MAX);
        q.next_cid = u16::MAX;
        let a = q.claim().unwrap();
        let b = q.claim().unwrap();
        assert_eq!(a, u16::MAX);
        assert_eq!(b, 0);
    }
}
