//! Trace-driven two-level memory simulator.
//!
//! The replay loop is chunked: accesses are staged into small
//! struct-of-arrays scratch lanes (packed `u32` pages plus write bytes,
//! from the live generator or decoded straight out of a materialized
//! [`MemTraceBuf`]) and consumed by one shared epoch-batch kernel: a
//! monomorphic-per-policy touch pass that records an outcome-code
//! bitmask byte per access ([`crate::policy::PageStore::touch_pass`]),
//! then a branch-free [`wcs_simcore::simd`] fold that pops the code
//! bits into counters. The generator path and the shared-buffer path
//! execute byte-identical simulation code and differ only in where the
//! chunk comes from.

use wcs_simcore::{simd, ThreadPool};
use wcs_workloads::memtrace::{MemTraceBuf, MemTraceGen};

use crate::policy::{PageStore, PolicyKind};

/// Accesses staged per chunk: big enough to amortize the loop switch,
/// small enough that the SoA lanes (16 KiB of pages, 4 KiB of write
/// bytes, 4 KiB of codes) stay in L1/L2 alongside the store's hot
/// columns.
const CHUNK: usize = 4096;

/// Accesses per parallel staging range of [`TwoLevelSim::par_replay`]:
/// 64 epoch chunks, so one pool task decodes enough lanes (1 MiB of
/// pages + 256 KiB of writes) to amortize its scheduling cost.
const PAR_RANGE: usize = 64 * CHUNK;

/// Fixed-size SoA staging lanes for one replay epoch.
#[derive(Debug)]
struct EpochLanes {
    pages: [u32; CHUNK],
    writes: [u8; CHUNK],
    codes: [u8; CHUNK],
}

impl EpochLanes {
    fn new() -> Box<Self> {
        Box::new(EpochLanes {
            pages: [0; CHUNK],
            writes: [0; CHUNK],
            codes: [0; CHUNK],
        })
    }
}

/// Miss statistics from a trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MissStats {
    /// Page touches replayed.
    pub accesses: u64,
    /// Touches that faulted to the remote blade.
    pub misses: u64,
    /// Dirty victims written back during swaps.
    pub writebacks: u64,
}

impl MissStats {
    /// Fraction of touches that faulted.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Component-wise sum — the chunk-merge operation of checkpointed
    /// replay. All counters are integers, so merging per-chunk results
    /// in chunk order is exact for every chunk count.
    #[must_use]
    pub fn merged(&self, other: &MissStats) -> MissStats {
        MissStats {
            accesses: self.accesses + other.accesses,
            misses: self.misses + other.misses,
            writebacks: self.writebacks + other.writebacks,
        }
    }
}

/// The two-level (local + remote-blade) memory simulator.
///
/// Models the paper's exclusive hierarchy: pages live either in local
/// memory or on the blade; a fault swaps the touched page with a local
/// victim (dirty victims cost a writeback DMA). Cold misses while local
/// memory is still filling are not charged — the paper measures steady
/// state.
///
/// # Example
/// ```
/// use wcs_memshare::twolevel::TwoLevelSim;
/// use wcs_memshare::policy::PolicyKind;
/// use wcs_workloads::{memtrace, WorkloadId};
/// let mut gen = memtrace::MemTraceGen::new(memtrace::params_for(WorkloadId::Ytube), 3);
/// let mut sim = TwoLevelSim::new(50_000, PolicyKind::Lru, 9);
/// let stats = sim.run(&mut gen, 100_000);
/// assert!(stats.accesses == 100_000);
/// ```
#[derive(Debug)]
pub struct TwoLevelSim {
    local: PageStore,
    warm: bool,
}

impl TwoLevelSim {
    /// Creates a simulator with `local_pages` of first-level memory.
    ///
    /// # Panics
    /// Panics if `local_pages` is zero.
    pub fn new(local_pages: usize, policy: PolicyKind, seed: u64) -> Self {
        TwoLevelSim {
            local: PageStore::new(local_pages, policy, seed),
            warm: false,
        }
    }

    /// Creates a simulator whose trace pages are known to lie in
    /// `[0, universe)` — the usual case when replaying a synthetic trace
    /// of known footprint — so the store can use a dense direct-index
    /// key map instead of hashing. Statistics are bit-identical to
    /// [`new`](Self::new); only lookups get cheaper.
    ///
    /// # Panics
    /// Panics if `local_pages` or `universe` is zero.
    pub fn with_page_universe(
        local_pages: usize,
        policy: PolicyKind,
        seed: u64,
        universe: u64,
    ) -> Self {
        TwoLevelSim {
            local: PageStore::with_universe(local_pages, policy, seed, universe),
            warm: false,
        }
    }

    /// The shared replay kernel: the monomorphic touch pass walks the
    /// store (pointer-heavy, unpredictable) and records one outcome-code
    /// bitmask byte per access, then the branch-free
    /// [`simd::fold_mask_counts`] pass pops the code bits into the
    /// counters. Keeping the accumulation out of the touch loop lets
    /// the compiler vectorize it and keeps the counters out of the
    /// store's cache-miss shadow.
    fn replay_epoch_batch(
        &mut self,
        pages: &[u32],
        writes: &[u8],
        codes: &mut [u8],
        stats: &mut MissStats,
    ) {
        debug_assert!(pages.len() <= CHUNK);
        debug_assert!(pages.len() == writes.len() && writes.len() == codes.len());
        self.local.touch_pass(pages, writes, codes);
        stats.accesses += pages.len() as u64;
        let counts = simd::fold_mask_counts(codes);
        let (misses, writebacks) = (counts[0], counts[1]);
        self.warm |= misses > 0;
        stats.misses += misses;
        stats.writebacks += writebacks;
    }

    /// Replays `n` touches from the generator, returning steady-state
    /// statistics (the fill phase is replayed but not charged).
    pub fn run(&mut self, gen: &mut MemTraceGen, n: u64) -> MissStats {
        let mut stats = MissStats::default();
        let mut lanes = EpochLanes::new();
        let mut left = n;
        while left > 0 {
            let take = (left as usize).min(CHUNK);
            for j in 0..take {
                let a = gen.next_access();
                debug_assert!(a.page <= u64::from(u32::MAX));
                lanes.pages[j] = a.page as u32;
                lanes.writes[j] = u8::from(a.write);
            }
            self.replay_epoch_batch(
                &lanes.pages[..take],
                &lanes.writes[..take],
                &mut lanes.codes[..take],
                &mut stats,
            );
            left -= take as u64;
        }
        stats
    }

    /// Replays accesses `[start, start + n)` of a materialized trace.
    ///
    /// Bit-identical to [`run`](Self::run) over the same accesses: the
    /// buffer stores exactly what the generator would produce, and both
    /// paths feed the same epoch-batch kernel — the buffer path just
    /// decodes its SoA lanes directly, with no intermediate
    /// `PageAccess` structs.
    ///
    /// Also the checkpointed chunk primitive: calling `run_buf` over
    /// any partition of a range, accumulating the returned integer
    /// counters, yields exactly the totals of one whole-range call —
    /// the simulator itself carries the cache state from chunk to
    /// chunk.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the buffer.
    pub fn run_buf(&mut self, buf: &MemTraceBuf, start: usize, n: u64) -> MissStats {
        let mut stats = MissStats::default();
        let mut lanes = EpochLanes::new();
        let mut at = start;
        let end = start + n as usize;
        while at < end {
            let take = (end - at).min(CHUNK);
            buf.fill_chunk_soa(at, &mut lanes.pages[..take], &mut lanes.writes[..take]);
            self.replay_epoch_batch(
                &lanes.pages[..take],
                &lanes.writes[..take],
                &mut lanes.codes[..take],
                &mut stats,
            );
            at += take;
        }
        stats
    }

    /// [`run_buf`](Self::run_buf) with lane staging fanned out over
    /// `pool`.
    ///
    /// The range splits into deterministic `PAR_RANGE`-sized chunk
    /// ranges whose SoA lanes (packed pages + write bytes) decode in
    /// parallel — pure per-range work with no simulator state. The
    /// cache then consumes the staged lanes strictly in chunk order:
    /// the simulator's own state at each chunk boundary is the
    /// checkpoint the next chunk resumes from, and the per-chunk
    /// integer counters merge exactly ([`MissStats::merged`]). The
    /// result is bit-identical to [`run_buf`](Self::run_buf) at every
    /// pool size.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the buffer.
    pub fn par_replay(
        &mut self,
        buf: &MemTraceBuf,
        start: usize,
        n: u64,
        pool: &ThreadPool,
    ) -> MissStats {
        let end = start + n as usize;
        let ranges: Vec<(usize, usize)> = (start..end)
            .step_by(PAR_RANGE)
            .map(|at| (at, (end - at).min(PAR_RANGE)))
            .collect();
        let staged = pool.par_map(&ranges, |_, &(at, len)| {
            let mut pages = vec![0u32; len];
            let mut writes = vec![0u8; len];
            buf.fill_chunk_soa(at, &mut pages, &mut writes);
            (pages, writes)
        });
        let mut codes = vec![0u8; CHUNK];
        let mut stats = MissStats::default();
        for (pages, writes) in &staged {
            let mut range_stats = MissStats::default();
            for (p, w) in pages.chunks(CHUNK).zip(writes.chunks(CHUNK)) {
                self.replay_epoch_batch(p, w, &mut codes[..p.len()], &mut range_stats);
            }
            stats = stats.merged(&range_stats);
        }
        stats
    }

    /// Convenience: replay `fill` accesses to warm up, then measure over
    /// `measured` accesses.
    pub fn run_steady(&mut self, gen: &mut MemTraceGen, fill: u64, measured: u64) -> MissStats {
        let _ = self.run(gen, fill);
        self.run(gen, measured)
    }

    /// [`run_steady`](Self::run_steady) over a materialized trace, which
    /// must hold at least `fill + measured` accesses.
    pub fn run_steady_buf(&mut self, buf: &MemTraceBuf, fill: u64, measured: u64) -> MissStats {
        let _ = self.run_buf(buf, 0, fill);
        self.run_buf(buf, fill as usize, measured)
    }

    /// Local capacity in pages.
    pub fn local_pages(&self) -> usize {
        self.local.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_workloads::memtrace::{params_for, MemTraceParams};
    use wcs_workloads::WorkloadId;

    fn small_params() -> MemTraceParams {
        MemTraceParams {
            footprint_pages: 10_000,
            zipf_s: 0.8,
            write_fraction: 0.3,
            accesses_per_cpu_sec: 1e5,
        }
    }

    #[test]
    fn bigger_local_memory_misses_less() {
        let p = small_params();
        let mut small = TwoLevelSim::new(1_000, PolicyKind::Random, 1);
        let mut large = TwoLevelSim::new(5_000, PolicyKind::Random, 1);
        let mut g1 = MemTraceGen::new(p, 7);
        let mut g2 = MemTraceGen::new(p, 7);
        let s = small.run_steady(&mut g1, 50_000, 200_000);
        let l = large.run_steady(&mut g2, 50_000, 200_000);
        assert!(
            s.miss_ratio() > l.miss_ratio() * 1.5,
            "{} vs {}",
            s.miss_ratio(),
            l.miss_ratio()
        );
    }

    #[test]
    fn lru_beats_random_on_skewed_traces() {
        let p = MemTraceParams {
            zipf_s: 1.1,
            ..small_params()
        };
        let mut lru = TwoLevelSim::new(2_000, PolicyKind::Lru, 1);
        let mut rnd = TwoLevelSim::new(2_000, PolicyKind::Random, 1);
        let l = lru.run_steady(&mut MemTraceGen::new(p, 3), 50_000, 200_000);
        let r = rnd.run_steady(&mut MemTraceGen::new(p, 3), 50_000, 200_000);
        assert!(
            l.miss_ratio() <= r.miss_ratio() * 1.05,
            "{} vs {}",
            l.miss_ratio(),
            r.miss_ratio()
        );
    }

    #[test]
    fn clock_lands_between_lru_and_random() {
        let p = MemTraceParams {
            zipf_s: 1.0,
            ..small_params()
        };
        let run = |kind| {
            let mut sim = TwoLevelSim::new(2_000, kind, 1);
            sim.run_steady(&mut MemTraceGen::new(p, 5), 50_000, 300_000)
                .miss_ratio()
        };
        let (lru, clock, rnd) = (
            run(PolicyKind::Lru),
            run(PolicyKind::Clock),
            run(PolicyKind::Random),
        );
        // "An implementable policy would have performance between these
        // points" — allow small statistical slack.
        assert!(clock >= lru * 0.95, "clock {clock} vs lru {lru}");
        assert!(clock <= rnd * 1.05, "clock {clock} vs random {rnd}");
    }

    #[test]
    fn writebacks_track_write_fraction() {
        let p = small_params();
        let mut sim = TwoLevelSim::new(1_000, PolicyKind::Random, 1);
        let stats = sim.run_steady(&mut MemTraceGen::new(p, 11), 50_000, 200_000);
        assert!(stats.writebacks > 0);
        assert!(stats.writebacks <= stats.misses);
        // Writeback fraction should be near the steady-state dirty
        // fraction, which exceeds the per-touch write fraction.
        let frac = stats.writebacks as f64 / stats.misses as f64;
        assert!(frac > 0.25, "writeback fraction {frac}");
    }

    #[test]
    fn no_misses_when_footprint_fits() {
        let p = MemTraceParams {
            footprint_pages: 500,
            ..small_params()
        };
        let mut sim = TwoLevelSim::new(1_000, PolicyKind::Lru, 1);
        let stats = sim.run_steady(&mut MemTraceGen::new(p, 13), 10_000, 50_000);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn paper_workload_traces_run() {
        for id in WorkloadId::ALL {
            let mut sim = TwoLevelSim::new(131_072, PolicyKind::Random, 2);
            let stats = sim.run_steady(&mut MemTraceGen::new(params_for(id), 17), 200_000, 200_000);
            assert_eq!(stats.accesses, 200_000, "{id}");
        }
    }

    #[test]
    fn buffer_replay_is_bit_identical_to_generator_replay() {
        let p = small_params();
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let mut from_gen = TwoLevelSim::new(1_500, policy, 21);
            let gen_stats = from_gen.run_steady(&mut MemTraceGen::new(p, 23), 60_000, 140_000);

            let buf = MemTraceBuf::generate(p, 23, 200_000);
            let mut from_buf = TwoLevelSim::new(1_500, policy, 21);
            let buf_stats = from_buf.run_steady_buf(&buf, 60_000, 140_000);

            assert_eq!(gen_stats, buf_stats, "{policy:?}");
        }
    }

    #[test]
    fn soa_kernel_matches_scalar_touch_reference() {
        // Independent scalar re-implementation of the replay semantics,
        // driven access by access through the public touch API — the
        // reference the vectorized kernel is pinned to.
        use crate::policy::{PageStore, Touch};
        let p = small_params();
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let buf = MemTraceBuf::generate(p, 29, 120_000);
            let mut store = PageStore::new(1_200, policy, 31);
            let mut want = MissStats::default();
            for i in 0..buf.len() {
                let a = buf.get(i);
                want.accesses += 1;
                if let Touch::Miss {
                    evicted: Some((_, dirty)),
                } = store.touch(a.page, a.write)
                {
                    want.misses += 1;
                    want.writebacks += u64::from(dirty);
                }
            }
            let mut sim = TwoLevelSim::new(1_200, policy, 31);
            let got = sim.run_buf(&buf, 0, 120_000);
            assert_eq!(got, want, "{policy:?}");
        }
    }

    #[test]
    fn dense_universe_store_replays_identically() {
        let p = small_params();
        let buf = MemTraceBuf::generate(p, 37, 150_000);
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let mut open = TwoLevelSim::new(2_000, policy, 5);
            let mut dense = TwoLevelSim::with_page_universe(2_000, policy, 5, p.footprint_pages);
            assert_eq!(
                open.run_buf(&buf, 0, 150_000),
                dense.run_buf(&buf, 0, 150_000),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn par_replay_is_bit_identical_to_run_buf_at_every_pool_size() {
        let p = small_params();
        // Deliberately not a multiple of PAR_RANGE or CHUNK, with an
        // offset start, so both tails are exercised.
        let buf = MemTraceBuf::generate(p, 43, 700_001);
        for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let mut whole = TwoLevelSim::new(1_500, policy, 11);
            let want = whole.run_buf(&buf, 3, 700_001 - 3);
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads).unwrap();
                let mut sim = TwoLevelSim::new(1_500, policy, 11);
                let got = sim.par_replay(&buf, 3, 700_001 - 3, &pool);
                assert_eq!(got, want, "{policy:?} threads={threads}");
            }
        }
    }

    #[test]
    fn chunked_replay_is_invariant_to_chunk_count() {
        let p = small_params();
        let buf = MemTraceBuf::generate(p, 41, 130_000);
        let mut whole = TwoLevelSim::new(1_500, PolicyKind::Random, 11);
        let want = whole.run_buf(&buf, 0, 130_000);
        for chunks in [1usize, 2, 7, 64] {
            let mut sim = TwoLevelSim::new(1_500, PolicyKind::Random, 11);
            let per = 130_000usize.div_ceil(chunks);
            let mut merged = MissStats::default();
            let mut at = 0usize;
            while at < 130_000 {
                let take = (130_000 - at).min(per);
                merged = merged.merged(&sim.run_buf(&buf, at, take as u64));
                at += take;
            }
            assert_eq!(merged, want, "chunks={chunks}");
        }
    }
}
