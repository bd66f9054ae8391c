//! Synthetic memory page-access traces for the memory-blade study.
//!
//! The paper gathers page traces from full-system simulation of each
//! benchmark and replays them through a two-level memory simulator
//! (Section 3.4). We cannot run the real stacks, so each workload gets a
//! parameterized synthetic trace: Zipf-popular pages over a fixed
//! footprint, with a per-workload access rate per second of CPU work.
//! The two-level simulator in `wcs-memshare` only consumes the trace's
//! page-level reuse distribution, which these parameters control
//! directly.
//!
//! The `zipf_s` skew and footprint were chosen so the two-level miss
//! rates land in the regime of Figure 4(b); the access-rate constant
//! `accesses_per_cpu_sec` is calibrated per workload so the resulting
//! slowdown matches the published table at the paper's PCIe latency.

use wcs_simcore::dist::{RankBatch, Zipf};
use wcs_simcore::memo::{MemoHash, MemoKey};
use wcs_simcore::{SimRng, ThreadPool};

use crate::spec::WorkloadId;

/// Accesses drawn per RNG substream: generation restarts from
/// `SimRng::stream(seed, i)` at every `i * GEN_CHUNK` boundary, making
/// access `i` a pure function of `(params, seed, i / GEN_CHUNK)`-chunk
/// state. Chunks can therefore be materialized independently — in any
/// order, on any number of threads — and always reproduce the
/// sequential stream bit for bit. A multiple of 64 so each chunk owns
/// whole words of the write bitset.
pub const GEN_CHUNK: usize = 1 << 16;

/// One page-granularity memory touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PageAccess {
    /// Page number (4 KiB granularity).
    pub page: u64,
    /// Whether the touch dirties the page.
    pub write: bool,
}

/// Parameters of a workload's synthetic page trace.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemTraceParams {
    /// Distinct 4 KiB pages the workload touches (its footprint).
    pub footprint_pages: u64,
    /// Zipf skew of page popularity (0 = uniform).
    pub zipf_s: f64,
    /// Fraction of touches that are writes.
    pub write_fraction: f64,
    /// Page-granularity touches per second of CPU work — the rate that
    /// converts a miss ratio into a slowdown.
    pub accesses_per_cpu_sec: f64,
}

impl MemTraceParams {
    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        assert!(self.footprint_pages > 0, "footprint must be positive");
        assert!(self.zipf_s.is_finite() && self.zipf_s >= 0.0);
        assert!((0.0..=1.0).contains(&self.write_fraction));
        assert!(self.accesses_per_cpu_sec.is_finite() && self.accesses_per_cpu_sec > 0.0);
    }
}

impl MemoHash for MemTraceParams {
    fn memo_hash(&self, key: &mut MemoKey) {
        *key = key
            .push_u64(self.footprint_pages)
            .push_f64(self.zipf_s)
            .push_f64(self.write_fraction)
            .push_f64(self.accesses_per_cpu_sec);
    }
}

/// The per-workload trace parameters.
///
/// Footprints reflect the benchmark descriptions: `websearch` touches its
/// 1.3 GB index plus query state; `ytube` streams through large media
/// files; `webmail` works over a modest per-session state; the Hadoop
/// jobs stream through task input splits. The access-rate constants are
/// calibration outputs (see module docs).
pub fn params_for(id: WorkloadId) -> MemTraceParams {
    match id {
        WorkloadId::Websearch => MemTraceParams {
            footprint_pages: 480_000, // ~1.9 GiB: index + heap
            zipf_s: 0.65,
            write_fraction: 0.10,
            accesses_per_cpu_sec: 28_000.0,
        },
        WorkloadId::Webmail => MemTraceParams {
            footprint_pages: 400_000,
            zipf_s: 1.05, // strong per-user session locality
            write_fraction: 0.25,
            accesses_per_cpu_sec: 1_500.0,
        },
        WorkloadId::Ytube => MemTraceParams {
            footprint_pages: 500_000, // streams through media files
            zipf_s: 0.70,             // Zipf video popularity
            write_fraction: 0.02,
            accesses_per_cpu_sec: 8_000.0,
        },
        WorkloadId::MapredWc => MemTraceParams {
            footprint_pages: 450_000,
            zipf_s: 0.90,
            write_fraction: 0.20,
            accesses_per_cpu_sec: 5_000.0,
        },
        WorkloadId::MapredWr => MemTraceParams {
            footprint_pages: 450_000,
            zipf_s: 0.90,
            write_fraction: 0.60, // write-dominated
            accesses_per_cpu_sec: 5_000.0,
        },
    }
}

/// A deterministic generator of [`PageAccess`]es for one workload.
///
/// Accesses are produced a [`GEN_CHUNK`] at a time through the same
/// chunk kernel [`MemTraceBuf::generate_par`] runs, then handed out one
/// by one.
///
/// # Example
/// ```
/// use wcs_workloads::{memtrace, WorkloadId};
/// let mut gen = memtrace::MemTraceGen::new(memtrace::params_for(WorkloadId::Websearch), 1);
/// let a = gen.next_access();
/// assert!(a.page < 480_000);
/// ```
#[derive(Debug)]
pub struct MemTraceGen {
    params: MemTraceParams,
    zipf: Zipf,
    seed: u64,
    pos: u64,
    batch: RankBatch,
    /// The current chunk: packed pages plus its write bitset.
    pages: Vec<u32>,
    writes: Vec<u64>,
}

impl MemTraceGen {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the parameters are invalid or the footprint does not
    /// fit the compact `u32` page representation.
    pub fn new(params: MemTraceParams, seed: u64) -> Self {
        MemTraceGen {
            params,
            zipf: trace_zipf(&params),
            seed,
            pos: 0,
            batch: RankBatch::default(),
            pages: vec![0; GEN_CHUNK],
            writes: vec![0; GEN_CHUNK / 64],
        }
    }

    /// The parameters this generator uses.
    pub fn params(&self) -> &MemTraceParams {
        &self.params
    }

    /// Draws the next page touch.
    ///
    /// Chunk `i` is drawn from `SimRng::stream(seed, i)` when the
    /// generator reaches access `i * GEN_CHUNK`, so the sequential stream
    /// matches what independent per-chunk generation produces (see
    /// [`MemTraceBuf::generate_par`]).
    #[inline]
    pub fn next_access(&mut self) -> PageAccess {
        let k = (self.pos % GEN_CHUNK as u64) as usize;
        if k == 0 {
            let mut rng = SimRng::stream(self.seed, self.pos / GEN_CHUNK as u64);
            self.writes.fill(0);
            draw_chunk(
                &self.zipf,
                &self.params,
                &mut rng,
                &mut self.batch,
                &mut self.pages,
                &mut self.writes,
            );
        }
        self.pos += 1;
        PageAccess {
            page: u64::from(self.pages[k]),
            write: (self.writes[k >> 6] >> (k & 63)) & 1 == 1,
        }
    }

    /// Generates `n` accesses as a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<PageAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

/// Validates `params` and builds the page-popularity distribution.
fn trace_zipf(params: &MemTraceParams) -> Zipf {
    params.validate();
    assert!(
        params.footprint_pages <= u64::from(u32::MAX),
        "footprint too large for compact trace pages"
    );
    Zipf::new(params.footprint_pages as usize, params.zipf_s).expect("validated parameters")
}

/// Scrambles a Zipf rank into a page number so popular pages are
/// scattered across the address space (multiplicative hashing, full
/// period because the multiplier is odd).
#[inline]
fn page_of(rank: u32, footprint_pages: u64) -> u32 {
    (u64::from(rank)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D)
        % footprint_pages) as u32
}

/// Draws one chunk of accesses from `rng` into `pages` and the
/// zero-initialized bitset `writes`. Each access consumes a Zipf uniform
/// then a write coin, in access order; the ranks are then resolved as a
/// block in guide-bucket order (see [`RankBatch`]), which reads the
/// Zipf tables front to back instead of missing cache on every draw.
fn draw_chunk(
    zipf: &Zipf,
    params: &MemTraceParams,
    rng: &mut SimRng,
    batch: &mut RankBatch,
    pages: &mut [u32],
    writes: &mut [u64],
) {
    for i in 0..pages.len() {
        batch.push(zipf, rng.uniform());
        writes[i >> 6] |= u64::from(rng.chance(params.write_fraction)) << (i & 63);
    }
    batch.resolve(zipf, |i, rank| {
        pages[i] = page_of(rank, params.footprint_pages);
    });
}

/// A materialized memory trace in compact, shareable form.
///
/// Sweeps replay the same `(params, seed)` trace through many cache
/// configurations; materializing it once and sharing the buffer (behind
/// an `Arc`) removes the per-point generator cost. Storage is
/// struct-of-arrays and packed — `u32` page numbers (footprints are a
/// few hundred thousand pages, far below `u32::MAX`) plus a write
/// bitset — so a 4-million-access trace costs ~16.5 MB instead of the
/// 64 MB a `Vec<PageAccess>` would.
///
/// [`MemTraceBuf::get`] returns exactly what the generator's `i`-th
/// [`MemTraceGen::next_access`] call returned, so replaying from the
/// buffer is bit-identical to replaying from the generator.
#[derive(Debug, Clone)]
pub struct MemTraceBuf {
    pages: Box<[u32]>,
    writes: Box<[u64]>,
}

impl MemTraceBuf {
    /// Materializes the first `n` accesses of the `(params, seed)`
    /// trace.
    ///
    /// # Panics
    /// Panics if the parameters are invalid or the footprint does not
    /// fit the compact `u32` page representation.
    pub fn generate(params: MemTraceParams, seed: u64, n: usize) -> Self {
        Self::generate_par(params, seed, n, &ThreadPool::serial())
    }

    /// [`generate`](Self::generate) with the per-[`GEN_CHUNK`] substreams
    /// materialized on `pool`'s threads.
    ///
    /// Bit-identical to the sequential path for every pool size: chunk
    /// `i` draws from `SimRng::stream(seed, i)` exactly as the
    /// sequential generator does when it crosses the `i * GEN_CHUNK`
    /// boundary, and chunks are stitched back together in index order.
    ///
    /// # Panics
    /// Panics if the parameters are invalid or the footprint does not
    /// fit the compact `u32` page representation.
    pub fn generate_par(params: MemTraceParams, seed: u64, n: usize, pool: &ThreadPool) -> Self {
        let zipf = trace_zipf(&params);
        let chunks: Vec<usize> = (0..n.div_ceil(GEN_CHUNK)).collect();
        let parts = pool.par_map_with(&chunks, RankBatch::default, |batch, _, &chunk| {
            let len = (n - chunk * GEN_CHUNK).min(GEN_CHUNK);
            let mut pages = vec![0u32; len];
            // GEN_CHUNK is a multiple of 64, so every chunk owns whole
            // words of the write bitset and concatenation is exact.
            let mut writes = vec![0u64; len.div_ceil(64)];
            let mut rng = SimRng::stream(seed, chunk as u64);
            draw_chunk(&zipf, &params, &mut rng, batch, &mut pages, &mut writes);
            (pages, writes)
        });
        let mut pages = Vec::with_capacity(n);
        let mut writes = Vec::with_capacity(n.div_ceil(64));
        for (p, w) in parts {
            pages.extend_from_slice(&p);
            writes.extend_from_slice(&w);
        }
        MemTraceBuf {
            pages: pages.into_boxed_slice(),
            writes: writes.into_boxed_slice(),
        }
    }

    /// Number of accesses stored.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The `i`-th access.
    #[inline]
    pub fn get(&self, i: usize) -> PageAccess {
        PageAccess {
            page: u64::from(self.pages[i]),
            write: self.write_flag(i) == 1,
        }
    }

    /// The write flag of access `i`, as 0 or 1.
    #[inline]
    fn write_flag(&self, i: usize) -> u8 {
        ((self.writes[i >> 6] >> (i & 63)) & 1) as u8
    }

    /// Decodes accesses `[start, start + out.len())` into `out`, the
    /// chunked-replay entry point: callers decode a cache-sized chunk
    /// into scratch and run the same SoA kernel the generator path uses.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the trace.
    pub fn fill_chunk(&self, start: usize, out: &mut [PageAccess]) {
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = self.get(start + j);
        }
    }

    /// Decodes accesses `[start, start + pages.len())` straight into SoA
    /// scratch — packed `u32` page numbers plus one write byte (0/1) per
    /// access — the staging step of the vectorized replay kernels, which
    /// never materialize `PageAccess` structs.
    ///
    /// # Panics
    /// Panics if the two slices disagree in length or the range runs
    /// past the end of the trace.
    pub fn fill_chunk_soa(&self, start: usize, pages: &mut [u32], writes: &mut [u8]) {
        assert_eq!(pages.len(), writes.len(), "SoA scratch length mismatch");
        pages.copy_from_slice(&self.pages[start..start + pages.len()]);
        // Flags one at a time up to a byte boundary of the bit column,
        // then eight at a time from one byte of it, then the tail.
        let head = ((8 - start % 8) % 8).min(writes.len());
        let (head_out, body) = writes.split_at_mut(head);
        for (j, w) in head_out.iter_mut().enumerate() {
            *w = self.write_flag(start + j);
        }
        let mut i = start + head;
        let mut octets = body.chunks_exact_mut(8);
        for out in octets.by_ref() {
            let byte = (self.writes[i >> 6] >> (i & 63)) & 0xFF;
            out.copy_from_slice(&spread_bits(byte).to_le_bytes());
            i += 8;
        }
        for (j, w) in octets.into_remainder().iter_mut().enumerate() {
            *w = self.write_flag(i + j);
        }
    }
}

/// Spreads the eight bits of `byte` over the eight byte lanes of a
/// `u64`, bit `j` to lane `j` as 0 or 1: the multiply copies the byte
/// into every lane, the mask keeps bit `j` in lane `j`, and adding 0x7F
/// carries any kept bit to the lane's top bit (no lane overflows).
fn spread_bits(byte: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let kept = byte.wrapping_mul(ONES) & 0x8040_2010_0804_0201;
    ((kept + 0x7F7F_7F7F_7F7F_7F7F) >> 7) & ONES
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-draw reference recipe: Zipf rank by scalar lookup,
    /// rank-scramble, write coin. The batch kernel must reproduce it
    /// access for access.
    fn chunk_access(zipf: &Zipf, rng: &mut SimRng, params: &MemTraceParams) -> PageAccess {
        let rank = zipf.sample_rank(rng) as u32;
        let page = u64::from(page_of(rank, params.footprint_pages));
        let write = rng.chance(params.write_fraction);
        PageAccess { page, write }
    }

    #[test]
    fn pages_stay_in_footprint() {
        let mut g = MemTraceGen::new(params_for(WorkloadId::Webmail), 3);
        for _ in 0..10_000 {
            let a = g.next_access();
            assert!(a.page < 400_000);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = MemTraceGen::new(params_for(WorkloadId::Websearch), 7);
        let mut b = MemTraceGen::new(params_for(WorkloadId::Websearch), 7);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn write_fraction_roughly_respected() {
        let mut g = MemTraceGen::new(params_for(WorkloadId::MapredWr), 11);
        let n = 20_000;
        let writes = (0..n).filter(|_| g.next_access().write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn popular_pages_repeat() {
        // With Zipf skew, a short trace must contain repeated pages.
        let mut g = MemTraceGen::new(params_for(WorkloadId::Webmail), 13);
        let trace = g.take_vec(50_000);
        let distinct: std::collections::HashSet<u64> = trace.iter().map(|a| a.page).collect();
        assert!(distinct.len() < trace.len());
    }

    #[test]
    fn all_workloads_have_params() {
        for id in WorkloadId::ALL {
            params_for(id).validate();
        }
    }

    #[test]
    fn materialized_buffer_matches_generator() {
        let params = params_for(WorkloadId::Websearch);
        let buf = MemTraceBuf::generate(params, 21, 5_000);
        let mut gen = MemTraceGen::new(params, 21);
        assert_eq!(buf.len(), 5_000);
        for i in 0..buf.len() {
            assert_eq!(buf.get(i), gen.next_access(), "access {i}");
        }
    }

    #[test]
    fn fill_chunk_decodes_ranges() {
        let params = params_for(WorkloadId::Webmail);
        let buf = MemTraceBuf::generate(params, 4, 1_000);
        let mut scratch = vec![
            PageAccess {
                page: 0,
                write: false
            };
            130
        ];
        buf.fill_chunk(500, &mut scratch);
        for (j, a) in scratch.iter().enumerate() {
            assert_eq!(*a, buf.get(500 + j));
        }
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_sequential() {
        let params = params_for(WorkloadId::Ytube);
        // Cover: sub-chunk, exact multiple, ragged multi-chunk.
        for n in [1_000usize, 2 * GEN_CHUNK, 2 * GEN_CHUNK + 777] {
            let seq = MemTraceBuf::generate(params, 31, n);
            let pool = wcs_simcore::ThreadPool::new(3).unwrap();
            let par = MemTraceBuf::generate_par(params, 31, n, &pool);
            assert_eq!(seq.len(), par.len(), "n={n}");
            for i in 0..n {
                assert_eq!(seq.get(i), par.get(i), "n={n} access {i}");
            }
        }
    }

    #[test]
    fn generator_reseeds_at_chunk_boundaries() {
        // Accesses at and after a chunk boundary must be reproducible by
        // a fresh generator-free stream — the contract generate_par
        // relies on.
        let params = params_for(WorkloadId::Webmail);
        let mut gen = MemTraceGen::new(params, 77);
        let mut all = Vec::new();
        for _ in 0..GEN_CHUNK + 50 {
            all.push(gen.next_access());
        }
        let zipf = Zipf::new(params.footprint_pages as usize, params.zipf_s).unwrap();
        let mut rng = SimRng::stream(77, 1);
        for (j, want) in all[GEN_CHUNK..].iter().enumerate() {
            assert_eq!(chunk_access(&zipf, &mut rng, &params), *want, "offset {j}");
        }
    }

    #[test]
    fn soa_chunk_decode_matches_get() {
        let params = params_for(WorkloadId::MapredWc);
        let buf = MemTraceBuf::generate(params, 9, 2_000);
        let mut pages = [0u32; 300];
        let mut writes = [0u8; 300];
        buf.fill_chunk_soa(700, &mut pages, &mut writes);
        for j in 0..300 {
            let a = buf.get(700 + j);
            assert_eq!(u64::from(pages[j]), a.page, "access {j}");
            assert_eq!(writes[j] != 0, a.write, "access {j}");
        }
    }

    #[test]
    fn soa_chunk_decode_matches_get_at_every_alignment() {
        let params = params_for(WorkloadId::MapredWr);
        let buf = MemTraceBuf::generate(params, 11, 1_000);
        for start in [0usize, 1, 5, 7, 8, 9, 63, 64, 65, 700] {
            for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 300] {
                let mut pages = vec![0u32; len];
                let mut writes = vec![9u8; len];
                buf.fill_chunk_soa(start, &mut pages, &mut writes);
                for (j, (&page, &write)) in pages.iter().zip(&writes).enumerate() {
                    let a = buf.get(start + j);
                    assert_eq!(u64::from(page), a.page, "start {start} len {len} at {j}");
                    assert_eq!(write, u8::from(a.write), "start {start} len {len} at {j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn rejects_zero_footprint() {
        MemTraceParams {
            footprint_pages: 0,
            zipf_s: 1.0,
            write_fraction: 0.1,
            accesses_per_cpu_sec: 1.0,
        }
        .validate();
    }

    /// FNV-1a 64 over each access's page (`u32`, little-endian) followed
    /// by its write bit (one byte).
    fn trace_fnv64(buf: &MemTraceBuf) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..buf.len() {
            let a = buf.get(i);
            for b in (a.page as u32)
                .to_le_bytes()
                .into_iter()
                .chain([u8::from(a.write)])
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn golden_trace_pins() {
        // Digests of the five paper traces, recorded from the per-draw
        // generator before chunks were resolved in guide-bucket order.
        // The length spans four chunk boundaries plus a partial tail.
        const PINS: [(WorkloadId, u64); 5] = [
            (WorkloadId::Websearch, 0x4db5_8cc7_8821_51ce),
            (WorkloadId::Webmail, 0xf090_17f5_8ce5_c9c7),
            (WorkloadId::Ytube, 0x742e_be14_b317_51d2),
            (WorkloadId::MapredWc, 0x860f_d7cd_37b1_e110),
            (WorkloadId::MapredWr, 0xc963_4a67_7cff_a564),
        ];
        let n = 4 * GEN_CHUNK + 1234;
        for threads in [1, 2] {
            let pool = wcs_simcore::ThreadPool::new(threads).unwrap();
            for (id, want) in PINS {
                let buf = MemTraceBuf::generate_par(params_for(id), 0xB1ADE ^ 0xD15C, n, &pool);
                let got = trace_fnv64(&buf);
                assert_eq!(got, want, "{id:?} at {threads} threads: {got:#018x}");
            }
        }
    }
}
