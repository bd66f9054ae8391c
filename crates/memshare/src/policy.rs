//! Replacement policies for the local page store.
//!
//! The paper evaluates LRU and random replacement, "expecting that an
//! implementable policy would have performance between these points"; we
//! add clock (the usual implementable policy) to check that expectation.
//!
//! LRU and clock keep their slot bookkeeping (key map, dirty/ref bits,
//! recency links, clock hand) in the shared
//! [`wcs_simcore::slotcache::SlotCache`] kernel — the same machinery the
//! flash cache index uses. Random replacement, the paper's primary
//! policy, needs none of it: a hit only asks "resident?" and sets the
//! dirty bit, and a full-store miss only needs the page in the slot the
//! RNG draws. So it keeps one residency state per page and a slot → page
//! column, with no page → slot index and no reference bits.

use std::fmt::Debug;
use std::mem;

use wcs_simcore::memo::{MemoHash, MemoKey};
use wcs_simcore::slotcache::SlotCache;
use wcs_simcore::table::OpenMap;
use wcs_simcore::SimRng;

/// Which replacement policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PolicyKind {
    /// Least-recently-used (upper bound among the paper's pair).
    Lru,
    /// Random victim (lower bound among the paper's pair).
    Random,
    /// Clock / second-chance (implementable middle ground).
    Clock,
}

impl PolicyKind {
    /// Stable label (also the policy's memoization identity).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Random => "random",
            PolicyKind::Clock => "clock",
        }
    }
}

impl MemoHash for PolicyKind {
    fn memo_hash(&self, key: &mut MemoKey) {
        *key = key.push_str(self.label());
    }
}

/// Result of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The page was resident.
    Hit,
    /// The page was not resident; it has been installed, evicting the
    /// contained victim (None while the store is still filling).
    Miss {
        /// Evicted page and whether it was dirty, if the store was full.
        evicted: Option<(u64, bool)>,
    },
}

/// A fixed-capacity local page store with a pluggable replacement policy.
///
/// Tracks dirty bits so the two-level simulator can count victim
/// writebacks.
///
/// # Example
/// ```
/// use wcs_memshare::policy::{PageStore, PolicyKind, Touch};
/// let mut store = PageStore::new(2, PolicyKind::Lru, 1);
/// assert!(matches!(store.touch(1, false), Touch::Miss { evicted: None }));
/// assert!(matches!(store.touch(1, false), Touch::Hit));
/// ```
#[derive(Debug)]
pub struct PageStore {
    store: Store,
    rng: SimRng,
}

/// The bookkeeping behind each policy.
#[derive(Debug)]
enum Store {
    /// A slot cache with the recency list.
    Lru(SlotCache),
    /// A slot cache without it; the hand scans the reference bits.
    Clock(SlotCache),
    /// Random replacement over a dense page universe.
    RandomDense(RandomStore<DenseStates>),
    /// Random replacement over arbitrary `u64` pages.
    RandomOpen(RandomStore<OpenStates>),
}

impl PageStore {
    /// Creates an empty store holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, kind: PolicyKind, seed: u64) -> Self {
        let store = match kind {
            PolicyKind::Lru => Store::Lru(SlotCache::new(capacity, true)),
            PolicyKind::Clock => Store::Clock(SlotCache::new(capacity, false)),
            PolicyKind::Random => Store::RandomOpen(RandomStore::new(
                capacity,
                OpenStates(OpenMap::with_capacity(capacity)),
            )),
        };
        PageStore::seeded(store, seed)
    }

    /// Creates a store whose page numbers are known to lie in
    /// `[0, universe)`, replacing the hashed page lookup with a dense
    /// direct-index table. Behaviour is identical to [`new`](Self::new) —
    /// slot order, victim choice, and dirty tracking are all unchanged —
    /// only lookups get cheaper.
    ///
    /// # Panics
    /// Panics if `capacity` or `universe` is zero, or if `universe`
    /// exceeds the `u32` page range.
    pub fn with_universe(capacity: usize, kind: PolicyKind, seed: u64, universe: u64) -> Self {
        let store = match kind {
            PolicyKind::Lru => Store::Lru(SlotCache::with_dense_keys(capacity, true, universe)),
            PolicyKind::Clock => {
                Store::Clock(SlotCache::with_dense_keys(capacity, false, universe))
            }
            PolicyKind::Random => {
                Store::RandomDense(RandomStore::new(capacity, DenseStates::new(universe)))
            }
        };
        PageStore::seeded(store, seed)
    }

    fn seeded(store: Store, seed: u64) -> Self {
        PageStore {
            store,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Lru(c) | Store::Clock(c) => c.len(),
            Store::RandomDense(s) => s.slots.len(),
            Store::RandomOpen(s) => s.slots.len(),
        }
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        match &self.store {
            Store::Lru(c) | Store::Clock(c) => c.capacity(),
            Store::RandomDense(s) => s.capacity,
            Store::RandomOpen(s) => s.capacity,
        }
    }

    /// True if `page` is resident (no policy state update).
    pub fn contains(&self, page: u64) -> bool {
        match &self.store {
            Store::Lru(c) | Store::Clock(c) => c.contains(page),
            Store::RandomDense(s) => s.contains(page),
            Store::RandomOpen(s) => s.contains(page),
        }
    }

    /// Touches `page`, marking it dirty when `write` is set. Returns
    /// whether it hit, and on a full-store miss which victim was evicted.
    pub fn touch(&mut self, page: u64, write: bool) -> Touch {
        let rng = &mut self.rng;
        match &mut self.store {
            Store::Lru(c) => slot_touch(c, page, write, |c| c.lru_victim()),
            Store::Clock(c) => slot_touch(c, page, write, SlotCache::clock_victim),
            Store::RandomDense(s) => s.touch(page, write, rng),
            Store::RandomOpen(s) => s.touch(page, write, rng),
        }
    }

    /// The epoch touch pass of the vectorized replay kernel: touches
    /// every access of an SoA chunk (`pages[i]`, write iff
    /// `writes[i] != 0`) and records one outcome-code bitmask byte per
    /// access into `codes` — [`CODE_MISS`] for a charged (full-store)
    /// miss, `| `[`CODE_WRITEBACK`] when the victim was dirty. Hits and
    /// uncharged cold fills record 0.
    ///
    /// Bit-identical to calling [`touch`](Self::touch) per access: the
    /// store dispatch is hoisted out of the loop (one monomorphic loop
    /// per store), but each access runs the same touch, so store
    /// operations and RNG draws happen in exactly the same order.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree.
    pub fn touch_pass(&mut self, pages: &[u32], writes: &[u8], codes: &mut [u8]) {
        assert!(
            pages.len() == writes.len() && pages.len() == codes.len(),
            "SoA chunk length mismatch"
        );
        let rng = &mut self.rng;
        match &mut self.store {
            Store::Lru(c) => pass(c, pages, writes, codes, |c, p, w| {
                slot_touch(c, p, w, |c| c.lru_victim())
            }),
            Store::Clock(c) => pass(c, pages, writes, codes, |c, p, w| {
                slot_touch(c, p, w, SlotCache::clock_victim)
            }),
            Store::RandomDense(s) => pass(s, pages, writes, codes, |s, p, w| s.touch(p, w, rng)),
            Store::RandomOpen(s) => pass(s, pages, writes, codes, |s, p, w| s.touch(p, w, rng)),
        }
    }
}

/// Outcome-code bit: the access faulted against a full store.
pub const CODE_MISS: u8 = 1;
/// Outcome-code bit: the evicted victim was dirty (writeback DMA).
pub const CODE_WRITEBACK: u8 = 2;

/// The shared inner loop of [`PageStore::touch_pass`], monomorphized per
/// store so the per-access dispatch disappears. The store is a parameter
/// rather than a capture of `touch`, so the compiler sees it as the one
/// unaliased `&mut` and keeps its columns' pointers in registers.
#[inline(always)]
fn pass<S>(
    store: &mut S,
    pages: &[u32],
    writes: &[u8],
    codes: &mut [u8],
    mut touch: impl FnMut(&mut S, u64, bool) -> Touch,
) {
    for ((&page, &w), code) in pages.iter().zip(writes).zip(codes.iter_mut()) {
        *code = match touch(store, u64::from(page), w != 0) {
            Touch::Miss {
                evicted: Some((_, dirty)),
            } => CODE_MISS | (u8::from(dirty) * CODE_WRITEBACK),
            Touch::Hit | Touch::Miss { evicted: None } => 0,
        };
    }
}

/// One touch of a slot-cache store; `victim` picks the slot a
/// full-store miss replaces.
#[inline(always)]
fn slot_touch(
    cache: &mut SlotCache,
    page: u64,
    write: bool,
    victim: impl FnOnce(&mut SlotCache) -> u32,
) -> Touch {
    if let Some(slot) = cache.lookup(page) {
        cache.touch_existing(slot, write);
        return Touch::Hit;
    }
    if !cache.is_full() {
        cache.insert(page, write);
        return Touch::Miss { evicted: None };
    }
    let slot = victim(cache);
    Touch::Miss {
        evicted: Some(cache.replace(slot, page, write)),
    }
}

/// The state byte of every page a random-replacement store may hold:
/// 0 when the page is not resident, else [`RESIDENT`] `|` [`DIRTY`]
/// when it is dirty.
trait PageStates: Debug {
    /// How a page is stored in the slot column.
    type Key: Copy + Debug;
    fn key(page: u64) -> Self::Key;
    fn page(key: Self::Key) -> u64;
    fn get(&self, key: Self::Key) -> u8;
    fn set(&mut self, key: Self::Key, state: u8);
}

/// State bit: the page is resident.
const RESIDENT: u8 = 1;
/// State bit: the resident page is dirty.
const DIRTY: u8 = 2;

/// One state byte per page of a `[0, universe)` page range.
#[derive(Debug)]
struct DenseStates(Vec<u8>);

impl DenseStates {
    fn new(universe: u64) -> Self {
        assert!(universe > 0, "dense page store needs a page universe");
        assert!(
            universe <= 1 << 32,
            "dense page universe must fit u32 page numbers"
        );
        DenseStates(vec![0; universe as usize])
    }
}

impl PageStates for DenseStates {
    type Key = u32;

    #[inline]
    fn key(page: u64) -> u32 {
        u32::try_from(page).expect("page outside the dense page universe")
    }

    #[inline]
    fn page(key: u32) -> u64 {
        u64::from(key)
    }

    #[inline]
    fn get(&self, key: u32) -> u8 {
        self.0[key as usize]
    }

    #[inline]
    fn set(&mut self, key: u32, state: u8) {
        self.0[key as usize] = state;
    }
}

/// The state bytes of the resident pages of an unbounded page range.
#[derive(Debug)]
struct OpenStates(OpenMap<u64, u8>);

impl PageStates for OpenStates {
    type Key = u64;

    #[inline]
    fn key(page: u64) -> u64 {
        page
    }

    #[inline]
    fn page(key: u64) -> u64 {
        key
    }

    #[inline]
    fn get(&self, key: u64) -> u8 {
        self.0.get(&key).copied().unwrap_or(0)
    }

    #[inline]
    fn set(&mut self, key: u64, state: u8) {
        if state == 0 {
            self.0.remove(&key);
        } else {
            self.0.insert(key, state);
        }
    }
}

/// Random replacement's store: the page states plus the page held in
/// each slot. Slots fill in miss order; a full-store miss replaces the
/// slot `rng.index(capacity)` draws.
#[derive(Debug)]
struct RandomStore<S: PageStates> {
    capacity: usize,
    states: S,
    slots: Vec<S::Key>,
}

impl<S: PageStates> RandomStore<S> {
    fn new(capacity: usize, states: S) -> Self {
        assert!(capacity > 0, "page store needs capacity");
        RandomStore {
            capacity,
            states,
            slots: Vec::with_capacity(capacity),
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.states.get(S::key(page)) != 0
    }

    #[inline(always)]
    fn touch(&mut self, page: u64, write: bool, rng: &mut SimRng) -> Touch {
        let key = S::key(page);
        let dirty = u8::from(write) * DIRTY;
        let state = self.states.get(key);
        if state != 0 {
            self.states.set(key, state | dirty);
            return Touch::Hit;
        }
        self.states.set(key, RESIDENT | dirty);
        if self.slots.len() < self.capacity {
            self.slots.push(key);
            return Touch::Miss { evicted: None };
        }
        let victim = mem::replace(&mut self.slots[rng.index(self.capacity)], key);
        let victim_state = self.states.get(victim);
        self.states.set(victim, 0);
        Touch::Miss {
            evicted: Some((S::page(victim), victim_state & DIRTY != 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = PageStore::new(2, PolicyKind::Lru, 0);
        s.touch(1, false);
        s.touch(2, false);
        s.touch(1, false); // 1 is now MRU
        let t = s.touch(3, false);
        assert_eq!(
            t,
            Touch::Miss {
                evicted: Some((2, false))
            }
        );
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
    }

    #[test]
    fn dirty_bit_propagates_to_eviction() {
        let mut s = PageStore::new(1, PolicyKind::Lru, 0);
        s.touch(7, true);
        let t = s.touch(8, false);
        assert_eq!(
            t,
            Touch::Miss {
                evicted: Some((7, true))
            }
        );
    }

    #[test]
    fn random_stays_within_capacity() {
        let mut s = PageStore::new(64, PolicyKind::Random, 5);
        for page in 0..10_000u64 {
            s.touch(page % 512, page % 3 == 0);
            assert!(s.len() <= 64);
        }
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut s = PageStore::new(3, PolicyKind::Clock, 0);
        s.touch(1, false);
        s.touch(2, false);
        s.touch(3, false);
        // Re-reference 1 so its ref bit is set; the next miss should
        // evict 2 or 3, never 1 (1 gets a second chance).
        s.touch(1, false);
        // Clear ref bits by forcing a sweep: all have ref=1, so the hand
        // clears 1 then evicts 2 (first with cleared bit after 1's
        // second chance). Either way, 1 must survive exactly this miss.
        s.touch(4, false);
        assert!(s.contains(4));
        assert!(s.len() == 3);
    }

    #[test]
    fn lru_inclusion_property() {
        // A larger LRU store hits whenever a smaller one does (stack
        // property) — checked empirically on a skewed stream.
        let mut small = PageStore::new(32, PolicyKind::Lru, 0);
        let mut large = PageStore::new(128, PolicyKind::Lru, 0);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..20_000 {
            let page = (rng.uniform() * rng.uniform() * 4096.0) as u64;
            let small_hit = matches!(small.touch(page, false), Touch::Hit);
            let large_hit = matches!(large.touch(page, false), Touch::Hit);
            if small_hit {
                assert!(large_hit, "inclusion violated at page {page}");
            }
        }
    }

    #[test]
    fn touch_pass_matches_scalar_touch_for_every_policy_and_index() {
        // The vectorized epoch pass must reproduce, access by access,
        // what the scalar touch API reports — for all three policies and
        // for both key-index kinds.
        let universe = 600u64;
        let mut rng = SimRng::seed_from(0xACE5);
        let n = 8_000;
        let pages: Vec<u32> = (0..n)
            .map(|_| rng.index(universe as usize) as u32)
            .collect();
        let writes: Vec<u8> = (0..n).map(|_| u8::from(rng.chance(0.3))).collect();
        for kind in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let stores = [
                PageStore::new(96, kind, 42),
                PageStore::with_universe(96, kind, 42, universe),
            ];
            for mut soa in stores {
                let mut scalar = PageStore::new(96, kind, 42);
                let mut want = vec![0u8; n];
                for (i, w) in want.iter_mut().enumerate() {
                    *w = match scalar.touch(u64::from(pages[i]), writes[i] != 0) {
                        Touch::Hit | Touch::Miss { evicted: None } => 0,
                        Touch::Miss {
                            evicted: Some((_, dirty)),
                        } => CODE_MISS | (u8::from(dirty) * CODE_WRITEBACK),
                    };
                }
                let mut got = vec![0u8; n];
                // Feed the pass in ragged chunks to cover resume points.
                let mut at = 0;
                for take in [1usize, 7, 512, 4096, n] {
                    let end = (at + take).min(n);
                    soa.touch_pass(&pages[at..end], &writes[at..end], &mut got[at..end]);
                    at = end;
                }
                soa.touch_pass(&pages[at..], &writes[at..], &mut got[at..]);
                assert_eq!(got, want, "{kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        PageStore::new(0, PolicyKind::Lru, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn random_rejects_zero_capacity() {
        PageStore::with_universe(0, PolicyKind::Random, 0, 8);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn random_rejects_zero_universe() {
        PageStore::with_universe(4, PolicyKind::Random, 0, 0);
    }

    /// A deliberately naive random-replacement store: resident pages in
    /// slot order in a `Vec`, dirty bits in a `BTreeMap`, victims drawn
    /// with the same RNG calls as the real store.
    struct RandomModel {
        capacity: usize,
        slots: Vec<u64>,
        dirty: std::collections::BTreeMap<u64, bool>,
        rng: SimRng,
    }

    impl RandomModel {
        fn new(capacity: usize, seed: u64) -> Self {
            RandomModel {
                capacity,
                slots: Vec::new(),
                dirty: std::collections::BTreeMap::new(),
                rng: SimRng::seed_from(seed),
            }
        }

        fn touch(&mut self, page: u64, write: bool) -> Touch {
            if self.slots.contains(&page) {
                *self.dirty.get_mut(&page).unwrap() |= write;
                return Touch::Hit;
            }
            if self.slots.len() < self.capacity {
                self.slots.push(page);
                self.dirty.insert(page, write);
                return Touch::Miss { evicted: None };
            }
            let slot = self.rng.index(self.slots.len());
            let victim = std::mem::replace(&mut self.slots[slot], page);
            let dirty = self.dirty.remove(&victim).unwrap();
            self.dirty.insert(page, write);
            Touch::Miss {
                evicted: Some((victim, dirty)),
            }
        }

        fn code(&mut self, page: u64, write: bool) -> u8 {
            match self.touch(page, write) {
                Touch::Miss {
                    evicted: Some((_, dirty)),
                } => CODE_MISS | (u8::from(dirty) * CODE_WRITEBACK),
                _ => 0,
            }
        }
    }

    /// Checks `len` and `contains` of every page in `[base, base + universe)`.
    fn assert_same_residency(store: &PageStore, model: &RandomModel, base: u64, universe: u64) {
        assert_eq!(store.len(), model.slots.len());
        for page in base..base + universe {
            assert_eq!(
                store.contains(page),
                model.slots.contains(&page),
                "page {page}"
            );
        }
    }

    #[test]
    fn random_store_matches_reference_model() {
        // Capacity 1, small, equal to and above the universe, in both key
        // modes; the open mode also uses pages beyond the u32 range.
        let universe = 48u64;
        let mut ops = SimRng::seed_from(0x5EED);
        for capacity in [1usize, 2, 7, 47, 48, 49, 100] {
            for dense in [true, false] {
                let base = if dense { 0 } else { 1 << 40 };
                let seed = 17 + capacity as u64;
                let mut store = if dense {
                    PageStore::with_universe(capacity, PolicyKind::Random, seed, universe)
                } else {
                    PageStore::new(capacity, PolicyKind::Random, seed)
                };
                let mut model = RandomModel::new(capacity, seed);
                for step in 0..3_000 {
                    let page = base + ops.index(universe as usize) as u64;
                    let write = ops.chance(0.4);
                    assert_eq!(
                        store.touch(page, write),
                        model.touch(page, write),
                        "capacity {capacity} dense {dense} step {step}"
                    );
                    if step % 97 == 0 {
                        assert_same_residency(&store, &model, base, universe);
                    }
                }
                assert_same_residency(&store, &model, base, universe);
            }
        }
    }

    #[test]
    fn random_touch_pass_matches_reference_model_over_ragged_chunks() {
        let universe = 300u64;
        let mut ops = SimRng::seed_from(0xC0FFEE);
        let n = 6_000;
        let pages: Vec<u32> = (0..n)
            .map(|_| ops.index(universe as usize) as u32)
            .collect();
        let writes: Vec<u8> = (0..n).map(|_| u8::from(ops.chance(0.3))).collect();
        for capacity in [1usize, 64, 300, 400] {
            for dense in [true, false] {
                let mut store = if dense {
                    PageStore::with_universe(capacity, PolicyKind::Random, 3, universe)
                } else {
                    PageStore::new(capacity, PolicyKind::Random, 3)
                };
                let mut model = RandomModel::new(capacity, 3);
                let mut at = 0;
                for take in [0usize, 1, 2, 7, 64, 511, 1_000, 4_096].into_iter().cycle() {
                    if at == n {
                        break;
                    }
                    let end = (at + take).min(n);
                    let mut got = vec![0xAA; end - at];
                    store.touch_pass(&pages[at..end], &writes[at..end], &mut got);
                    let want: Vec<u8> = (at..end)
                        .map(|i| model.code(u64::from(pages[i]), writes[i] != 0))
                        .collect();
                    assert_eq!(got, want, "capacity {capacity} dense {dense} at {at}");
                    assert_same_residency(&store, &model, 0, universe);
                    at = end;
                }
            }
        }
    }
}
