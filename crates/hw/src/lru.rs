//! `PasidLru`: the O(1) translation-cache structure shared by the IOMMU's
//! IOTLB and page-walk cache and the SSD's device-side ATC.
//!
//! Entries are keyed `(Pasid, u64)` — the `u64` is a virtual page number
//! (IOTLB/ATC) or a 2 MB prefix (PWC). The structure keeps three indexes:
//!
//! * a `HashMap` from key to slot for O(1) lookup;
//! * an intrusive doubly-linked recency list threaded through a slot slab
//!   (no allocation per touch), giving O(1) touch-on-hit, insert, and
//!   LRU eviction — replacing the seed's `Vec` order list whose
//!   `Vec::remove(0)` made every eviction O(n);
//! * a second intrusive list per PASID, threaded through the same slots,
//!   so a PASID invalidation visits only that PASID's entries and a
//!   range invalidation visits `min(range length, that PASID's entries)`
//!   keys instead of `retain`-scanning the whole cache.
//!
//! Once the slab and maps have grown to capacity, no operation but the
//! first insert for a new PASID touches the allocator: inserts and
//! evictions on a full cache (the miss path of every translation cache)
//! only relink slots.

use std::collections::HashMap;

use crate::types::Pasid;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<V> {
    pasid: Pasid,
    index: u64,
    value: V,
    /// Recency list neighbours.
    prev: u32,
    next: u32,
    /// Neighbours in this slot's PASID list.
    pprev: u32,
    pnext: u32,
}

/// A fixed-capacity true-LRU cache keyed by `(Pasid, u64)`.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used entry
/// when full. All single-entry operations are O(1) amortized (hash map
/// plus list splice); a PASID invalidation costs O(1) per entry dropped,
/// a range invalidation O(min(range length, entries of that PASID)).
#[derive(Debug)]
pub struct PasidLru<V> {
    map: HashMap<(Pasid, u64), u32>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    /// Head slot of each PASID's list.
    by_pasid: HashMap<Pasid, u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<V: Default> PasidLru<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PasidLru {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::new(),
            free: Vec::new(),
            by_pasid: HashMap::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the cache, evicting least-recently-used entries until the
    /// contents fit.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.by_pasid.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Puts `slot` at the head of its PASID's list.
    fn link_pasid(&mut self, slot: u32) {
        let pasid = self.slots[slot as usize].pasid;
        let head = self.by_pasid.insert(pasid, slot).unwrap_or(NIL);
        if head != NIL {
            self.slots[head as usize].pprev = slot;
        }
        let s = &mut self.slots[slot as usize];
        s.pprev = NIL;
        s.pnext = head;
    }

    fn unlink_pasid(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        let (pasid, pprev, pnext) = (s.pasid, s.pprev, s.pnext);
        if pprev != NIL {
            self.slots[pprev as usize].pnext = pnext;
        } else if pnext != NIL {
            self.by_pasid.insert(pasid, pnext);
        } else {
            self.by_pasid.remove(&pasid);
        }
        if pnext != NIL {
            self.slots[pnext as usize].pprev = pprev;
        }
    }

    /// Removes `slot` from every index and returns its value.
    fn discard(&mut self, slot: u32) -> V {
        self.unlink(slot);
        self.unlink_pasid(slot);
        let s = &mut self.slots[slot as usize];
        let value = std::mem::take(&mut s.value);
        self.map.remove(&(s.pasid, s.index));
        self.free.push(slot);
        value
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        if tail != NIL {
            self.discard(tail);
        }
    }

    /// Looks up `key` and refreshes its recency (true LRU touch-on-hit).
    pub fn get(&mut self, pasid: Pasid, index: u64) -> Option<&V> {
        let slot = *self.map.get(&(pasid, index))?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot as usize].value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, pasid: Pasid, index: u64) -> Option<&V> {
        let slot = *self.map.get(&(pasid, index))?;
        Some(&self.slots[slot as usize].value)
    }

    /// True if `key` is cached (no recency effect).
    pub fn contains(&self, pasid: Pasid, index: u64) -> bool {
        self.map.contains_key(&(pasid, index))
    }

    /// Inserts (or refreshes) an entry, evicting the LRU entry when the
    /// cache is full. Returns true when the key was newly inserted.
    pub fn insert(&mut self, pasid: Pasid, index: u64, value: V) -> bool {
        if let Some(&slot) = self.map.get(&(pasid, index)) {
            self.slots[slot as usize].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return false;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let slot_ref = &mut self.slots[s as usize];
                slot_ref.pasid = pasid;
                slot_ref.index = index;
                slot_ref.value = value;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    pasid,
                    index,
                    value,
                    prev: NIL,
                    next: NIL,
                    pprev: NIL,
                    pnext: NIL,
                });
                s
            }
        };
        self.push_front(slot);
        self.link_pasid(slot);
        self.map.insert((pasid, index), slot);
        true
    }

    /// Removes one entry, returning its value.
    pub fn remove(&mut self, pasid: Pasid, index: u64) -> Option<V> {
        let slot = *self.map.get(&(pasid, index))?;
        Some(self.discard(slot))
    }

    /// Drops every entry of `pasid`; returns how many were dropped.
    /// Cost: O(1) per dropped entry.
    pub fn invalidate_pasid(&mut self, pasid: Pasid) -> usize {
        let mut n = 0;
        while let Some(&head) = self.by_pasid.get(&pasid) {
            self.discard(head);
            n += 1;
        }
        n
    }

    /// Drops `pasid`'s entries with secondary index in `[first, last]`;
    /// returns how many were dropped. Cost: O(1) per key probed, probing
    /// either every index of the range or every entry of `pasid`,
    /// whichever is fewer — a single-range shootdown never scans the
    /// whole cache.
    pub fn invalidate_range(&mut self, pasid: Pasid, first: u64, last: u64) -> usize {
        // An inverted bound means an empty shootdown, not a panic.
        if first > last {
            return 0;
        }
        let mut n = 0;
        if last - first < self.map.len() as u64 {
            for index in first..=last {
                if let Some(&slot) = self.map.get(&(pasid, index)) {
                    self.discard(slot);
                    n += 1;
                }
            }
        } else {
            let mut cur = self.by_pasid.get(&pasid).copied().unwrap_or(NIL);
            while cur != NIL {
                let s = &self.slots[cur as usize];
                let (next, index) = (s.pnext, s.index);
                if (first..=last).contains(&index) {
                    self.discard(cur);
                    n += 1;
                }
                cur = next;
            }
        }
        n
    }

    /// Keys from most- to least-recently used (test/debug helper).
    pub fn recency_order(&self) -> Vec<(Pasid, u64)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let s = &self.slots[cur as usize];
            out.push((s.pasid, s.index));
            cur = s.next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: Pasid = Pasid(1);
    const P2: Pasid = Pasid(2);

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c: PasidLru<u64> = PasidLru::new(4);
        assert!(c.insert(P1, 10, 100));
        assert!(!c.insert(P1, 10, 101), "re-insert is an update");
        assert_eq!(c.get(P1, 10), Some(&101));
        assert_eq!(c.remove(P1, 10), Some(101));
        assert_eq!(c.get(P1, 10), None);
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_is_true_lru_with_touch_on_hit() {
        let mut c: PasidLru<u64> = PasidLru::new(3);
        c.insert(P1, 1, 1);
        c.insert(P1, 2, 2);
        c.insert(P1, 3, 3);
        // Touch 1: recency becomes [1, 3, 2]; FIFO would still evict 1.
        assert!(c.get(P1, 1).is_some());
        c.insert(P1, 4, 4);
        assert!(c.contains(P1, 1), "touched entry must survive");
        assert!(!c.contains(P1, 2), "LRU entry must be evicted");
        assert_eq!(c.recency_order(), vec![(P1, 4), (P1, 1), (P1, 3)]);
        // Fill again: 3 is now LRU (peek must not refresh).
        assert!(c.peek(P1, 3).is_some());
        c.insert(P1, 5, 5);
        assert!(!c.contains(P1, 3), "peek must not refresh recency");
    }

    #[test]
    fn capacity_shrink_evicts_lru_first() {
        let mut c: PasidLru<u64> = PasidLru::new(8);
        for i in 0..8 {
            c.insert(P1, i, i);
        }
        c.get(P1, 0); // protect the oldest
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(P1, 0));
        assert!(c.contains(P1, 7));
    }

    #[test]
    fn pasid_invalidation_is_scoped() {
        let mut c: PasidLru<u64> = PasidLru::new(16);
        for i in 0..4 {
            c.insert(P1, i, i);
            c.insert(P2, i, i);
        }
        assert_eq!(c.invalidate_pasid(P1), 4);
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            assert!(!c.contains(P1, i));
            assert!(c.contains(P2, i));
        }
        assert_eq!(c.invalidate_pasid(P1), 0, "second shootdown is a no-op");
    }

    #[test]
    fn range_invalidation_drops_exactly_the_range() {
        let mut c: PasidLru<u64> = PasidLru::new(16);
        for i in 0..10 {
            c.insert(P1, i, i);
        }
        c.insert(P2, 5, 5);
        assert_eq!(c.invalidate_range(P1, 3, 6), 4);
        for i in 0..10 {
            assert_eq!(c.contains(P1, i), !(3..=6).contains(&i), "index {i}");
        }
        assert!(c.contains(P2, 5), "other PASID untouched");
    }

    #[test]
    fn wide_range_invalidation_walks_the_pasid_list() {
        // A range wider than the cache is resolved by walking P1's list
        // rather than probing every index.
        let mut c: PasidLru<u64> = PasidLru::new(32);
        for i in 0..10 {
            c.insert(P1, i * 1000, i);
            c.insert(P2, i * 1000, i);
        }
        assert_eq!(c.invalidate_range(P1, 2500, u64::MAX), 7);
        for i in 0..10 {
            assert_eq!(c.contains(P1, i * 1000), i < 3, "index {i}");
            assert!(c.contains(P2, i * 1000), "other PASID untouched");
        }
        assert_eq!(c.invalidate_pasid(P1), 3);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn inverted_range_invalidation_is_an_empty_shootdown() {
        // Regression: `invalidate_range(7, 3)` once panicked (inside a
        // `BTreeSet::range` seek) instead of dropping nothing.
        let mut c: PasidLru<u64> = PasidLru::new(8);
        c.insert(P1, 5, 5);
        assert_eq!(c.invalidate_range(P1, 7, 3), 0);
        assert_eq!(c.invalidate_range(P1, u64::MAX, 0), 0);
        assert!(c.contains(P1, 5), "empty shootdown must not drop entries");
        // Degenerate single-point range still works.
        assert_eq!(c.invalidate_range(P1, 5, 5), 1);
        assert!(!c.contains(P1, 5));
    }

    #[test]
    fn slots_are_reused_after_invalidation() {
        let mut c: PasidLru<u64> = PasidLru::new(4);
        for round in 0..100u64 {
            for i in 0..4 {
                c.insert(P1, round * 4 + i, i);
            }
            c.invalidate_pasid(P1);
        }
        for i in 0..4 {
            c.insert(P1, i, i);
        }
        // The slab never grows past capacity + nothing leaked.
        assert_eq!(c.len(), 4);
        assert!(c.recency_order().len() == 4);
    }

    #[test]
    fn eviction_pressure_keeps_indexes_consistent() {
        let mut c: PasidLru<u64> = PasidLru::new(8);
        for i in 0..1000u64 {
            c.insert(Pasid((i % 3) as u32 + 1), i, i);
            assert!(c.len() <= 8);
        }
        let order = c.recency_order();
        assert_eq!(order.len(), c.len());
        for (p, i) in order {
            assert_eq!(c.peek(p, i), Some(&i));
        }
    }
}
