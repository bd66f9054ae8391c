//! The shared slot-cache kernel behind every fixed-capacity cache
//! simulator in the workspace.
//!
//! The flash cache index and the local page store used to carry two
//! copies of the same machinery: a `key -> slot` map, a slot array of
//! `(key, dirty, ref)` tuples, a clock hand, and (for LRU) an intrusive
//! doubly-linked recency list. [`SlotCache`] is that machinery once, laid
//! out struct-of-arrays so the replay inner loops touch only the columns
//! they need: hits read/write `dirty`/`refbit`, clock sweeps scan
//! `refbit` alone, and the recency links live in their own `u32` arrays.
//! Its users are the flash cache index (clock) and the page store's LRU
//! and clock policies. The page store's random replacement does not use
//! it: a random victim needs no `key -> slot` index and no reference
//! bits, so that policy keeps a per-page state table of its own.
//!
//! Policy stays with the caller: the kernel exposes victim *mechanisms*
//! ([`clock_victim`](SlotCache::clock_victim),
//! [`lru_victim`](SlotCache::lru_victim)) and the caller decides which to
//! invoke, then hands the chosen slot to [`replace`](SlotCache::replace).
//!
//! # Example
//! ```
//! use wcs_simcore::slotcache::SlotCache;
//! let mut c = SlotCache::new(2, false);
//! assert!(c.lookup(10).is_none());
//! let slot = c.insert(10, false);
//! assert_eq!(c.lookup(10), Some(slot));
//! c.touch_existing(slot, true); // now dirty
//! ```

use crate::table::OpenMap;

/// Sentinel for "no slot" in the recency links.
const NIL: u32 = u32::MAX;

/// The `key -> slot` index of a [`SlotCache`].
///
/// The open-addressed map handles arbitrary `u64` keys; the dense
/// variant is a direct-indexed `Vec<u32>` over a known finite key
/// universe (page numbers below a footprint, extent numbers below a
/// dataset size). Dense lookups are one predictable array access — no
/// hashing, no probe chain — which is where the replay kernels spend
/// most of their per-touch time.
#[derive(Debug, Clone)]
enum KeyIndex {
    Open(OpenMap<u64, u32>),
    Dense(Vec<u32>),
}

impl KeyIndex {
    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        match self {
            KeyIndex::Open(map) => map.get(&key).copied(),
            KeyIndex::Dense(slots) => {
                let s = slots[key as usize];
                (s != NIL).then_some(s)
            }
        }
    }

    #[inline]
    fn set(&mut self, key: u64, slot: u32) {
        match self {
            KeyIndex::Open(map) => {
                map.insert(key, slot);
            }
            KeyIndex::Dense(slots) => slots[key as usize] = slot,
        }
    }

    #[inline]
    fn clear(&mut self, key: u64) {
        match self {
            KeyIndex::Open(map) => {
                map.remove(&key);
            }
            KeyIndex::Dense(slots) => slots[key as usize] = NIL,
        }
    }
}

/// Fixed-capacity cache state: key map, SoA slot columns, clock hand,
/// and an optional intrusive LRU list.
///
/// Slot indices are `u32` (capacities here are at most a few million
/// pages); construction rejects capacities that would not fit.
#[derive(Debug, Clone)]
pub struct SlotCache {
    capacity: usize,
    index: KeyIndex,
    keys: Vec<u64>,
    dirty: Vec<bool>,
    refbit: Vec<bool>,
    // Intrusive LRU list (only maintained when `linked`): head = MRU,
    // tail = eviction victim.
    linked: bool,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    hand: u32,
}

impl SlotCache {
    /// Creates an empty cache holding up to `capacity` keys. Pass
    /// `linked = true` when the caller needs [`lru_victim`](Self::lru_victim)
    /// (the recency list costs two pointer updates per touch).
    ///
    /// # Panics
    /// Panics if `capacity` is zero or does not fit slot indices.
    pub fn new(capacity: usize, linked: bool) -> Self {
        Self::with_index(
            capacity,
            linked,
            KeyIndex::Open(OpenMap::with_capacity(capacity)),
        )
    }

    /// Creates an empty cache whose keys are known to lie in
    /// `0..universe`: the key index is a direct-indexed array (one
    /// predictable load per lookup) instead of a hash map. Behaviour is
    /// otherwise identical to [`new`](Self::new), including every victim
    /// mechanism — only the lookup machinery changes.
    ///
    /// # Panics
    /// Panics on a zero/oversized capacity or a zero universe; keys at
    /// or above `universe` panic at first use (index out of bounds).
    pub fn with_dense_keys(capacity: usize, linked: bool, universe: u64) -> Self {
        assert!(universe > 0, "dense slot cache needs a key universe");
        Self::with_index(
            capacity,
            linked,
            KeyIndex::Dense(vec![NIL; universe as usize]),
        )
    }

    fn with_index(capacity: usize, linked: bool, index: KeyIndex) -> Self {
        assert!(capacity > 0, "slot cache needs capacity");
        assert!(
            capacity < NIL as usize,
            "slot cache capacity must fit u32 slot indices"
        );
        SlotCache {
            capacity,
            index,
            keys: Vec::with_capacity(capacity),
            dirty: Vec::with_capacity(capacity),
            refbit: Vec::with_capacity(capacity),
            linked,
            prev: Vec::with_capacity(if linked { capacity } else { 0 }),
            next: Vec::with_capacity(if linked { capacity } else { 0 }),
            head: NIL,
            tail: NIL,
            hand: 0,
        }
    }

    /// Maximum number of keys the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True once every slot is occupied (misses must evict).
    pub fn is_full(&self) -> bool {
        self.keys.len() >= self.capacity
    }

    /// True if `key` is resident (no policy state update).
    pub fn contains(&self, key: u64) -> bool {
        self.index.get(key).is_some()
    }

    /// The slot holding `key`, if resident (no policy state update).
    #[inline]
    pub fn lookup(&self, key: u64) -> Option<u32> {
        self.index.get(key)
    }

    /// The key resident in `slot`.
    #[inline]
    pub fn key_at(&self, slot: u32) -> u64 {
        self.keys[slot as usize]
    }

    /// Registers a hit on `slot`: sets the reference bit, ORs in the
    /// dirty bit, and (when linked) moves the slot to the recency head.
    #[inline]
    pub fn touch_existing(&mut self, slot: u32, write: bool) {
        let s = slot as usize;
        self.dirty[s] |= write;
        self.refbit[s] = true;
        if self.linked {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Installs `key` into a fresh slot while the cache is filling;
    /// returns the slot. The new entry is referenced, dirty iff `write`,
    /// and (when linked) most-recent.
    ///
    /// # Panics
    /// Panics if the cache is already full — use
    /// [`replace`](Self::replace) with a victim instead.
    pub fn insert(&mut self, key: u64, write: bool) -> u32 {
        assert!(!self.is_full(), "insert on a full slot cache");
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        self.dirty.push(write);
        self.refbit.push(true);
        if self.linked {
            self.prev.push(NIL);
            self.next.push(NIL);
            self.push_front(slot);
        }
        self.index.set(key, slot);
        slot
    }

    /// Evicts the occupant of `slot` and installs `key` in its place,
    /// returning `(old_key, old_dirty)`. The new entry is referenced,
    /// dirty iff `write`, and (when linked) most-recent.
    pub fn replace(&mut self, slot: u32, key: u64, write: bool) -> (u64, bool) {
        let s = slot as usize;
        let old_key = self.keys[s];
        let old_dirty = self.dirty[s];
        self.index.clear(old_key);
        self.keys[s] = key;
        self.dirty[s] = write;
        self.refbit[s] = true;
        self.index.set(key, slot);
        if self.linked {
            self.unlink(slot);
            self.push_front(slot);
        }
        (old_key, old_dirty)
    }

    /// The clock (second-chance) victim: advances the hand, clearing
    /// reference bits, until it finds an unreferenced slot.
    ///
    /// # Panics
    /// Panics if the cache is empty.
    pub fn clock_victim(&mut self) -> u32 {
        assert!(!self.is_empty(), "clock victim on an empty cache");
        let n = self.keys.len() as u32;
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            if self.refbit[slot as usize] {
                self.refbit[slot as usize] = false; // second chance
            } else {
                return slot;
            }
        }
    }

    /// The least-recently-used slot (the recency tail).
    ///
    /// # Panics
    /// Panics if the cache was built without the recency list or is
    /// empty.
    pub fn lru_victim(&self) -> u32 {
        assert!(self.linked, "lru victim needs a linked slot cache");
        assert!(self.tail != NIL, "lru victim on an empty cache");
        self.tail
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = SlotCache::new(4, true);
        let s = c.insert(10, false);
        assert_eq!(c.lookup(10), Some(s));
        assert!(c.contains(10));
        assert_eq!(c.key_at(s), 10);
        assert_eq!(c.len(), 1);
        assert!(!c.is_full());
    }

    #[test]
    fn lru_victim_tracks_recency() {
        let mut c = SlotCache::new(3, true);
        let s1 = c.insert(1, false);
        let _ = c.insert(2, false);
        let _ = c.insert(3, false);
        // 1 is LRU; touching it promotes it, making 2 the victim.
        assert_eq!(c.key_at(c.lru_victim()), 1);
        c.touch_existing(s1, false);
        assert_eq!(c.key_at(c.lru_victim()), 2);
    }

    #[test]
    fn replace_reports_old_entry_and_dirty_bit() {
        let mut c = SlotCache::new(2, true);
        let s = c.insert(1, true);
        let _ = c.insert(2, false);
        let (old, dirty) = c.replace(s, 9, false);
        assert_eq!((old, dirty), (1, true));
        assert!(!c.contains(1));
        assert_eq!(c.lookup(9), Some(s));
        // Replaced entry becomes MRU: victim is 2.
        assert_eq!(c.key_at(c.lru_victim()), 2);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = SlotCache::new(3, false);
        for k in 1..=3u64 {
            c.insert(k, false);
        }
        // All ref bits set: first victim pass clears 1, 2, 3 then evicts
        // slot 0 (key 1) on the wrap.
        let v = c.clock_victim();
        assert_eq!(c.key_at(v), 1);
        // Slot 1 (key 2) still has ref cleared; re-referencing key 3
        // protects it for the next sweep.
        c.touch_existing(c.lookup(3).unwrap(), false);
        let v2 = c.clock_victim();
        assert_eq!(c.key_at(v2), 2);
    }

    #[test]
    fn dirty_bit_ors_across_touches() {
        let mut c = SlotCache::new(2, false);
        let s = c.insert(5, false);
        c.touch_existing(s, false);
        c.touch_existing(s, true);
        c.touch_existing(s, false);
        let (_, dirty) = c.replace(s, 6, false);
        assert!(dirty);
    }

    #[test]
    fn dense_index_behaves_like_open_map() {
        // Same operation sequence through both index kinds must agree on
        // every observable: lookups, victims, replace results.
        let mut open = SlotCache::new(3, true);
        let mut dense = SlotCache::with_dense_keys(3, true, 64);
        let ops: &[(u64, bool)] = &[
            (5, false),
            (9, true),
            (5, false),
            (1, false),
            (7, true),
            (9, false),
            (3, false),
        ];
        for &(key, write) in ops {
            let a = open.lookup(key);
            let b = dense.lookup(key);
            assert_eq!(a, b, "lookup {key}");
            match a {
                Some(slot) => {
                    open.touch_existing(slot, write);
                    dense.touch_existing(slot, write);
                }
                None if !open.is_full() => {
                    assert_eq!(open.insert(key, write), dense.insert(key, write));
                }
                None => {
                    let (vo, vd) = (open.lru_victim(), dense.lru_victim());
                    assert_eq!(vo, vd);
                    assert_eq!(open.replace(vo, key, write), dense.replace(vd, key, write));
                }
            }
            assert_eq!(open.len(), dense.len());
            for k in 0..16u64 {
                assert_eq!(open.contains(k), dense.contains(k), "contains {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn dense_rejects_zero_universe() {
        SlotCache::with_dense_keys(4, false, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        SlotCache::new(0, false);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn rejects_insert_when_full() {
        let mut c = SlotCache::new(1, false);
        c.insert(1, false);
        c.insert(2, false);
    }
}
