//! Golden replay pins: the exact `MissStats` of the two-level simulator
//! on the five paper traces, for every replacement policy and both key
//! modes, plus websearch at the full paper-default configuration.
//!
//! The scalar-versus-pass property tests compare one implementation of
//! the page store with another; these constants compare it with the
//! numbers the simulator produced before any store rewrite, so a change
//! of victim order, dirty tracking or fill accounting shows up here even
//! when every implementation agrees with every other. Never edit the
//! constants to make a change pass: a mismatch means replay behaviour
//! moved.

use wcs_memshare::policy::PolicyKind;
use wcs_memshare::slowdown::{
    estimate_slowdown, estimate_slowdown_pooled, estimate_slowdown_with, ReplayMemo, SlowdownConfig,
};
use wcs_memshare::twolevel::{MissStats, TwoLevelSim};
use wcs_simcore::ThreadPool;
use wcs_workloads::memtrace::{params_for, MemTraceBuf};
use wcs_workloads::WorkloadId;

/// Local pages of the reduced runs (1/16 of the 2 GiB baseline), so the
/// store is full well inside the fill window and every policy evicts.
const LOCAL: usize = 32_768;
/// Reduced fill and measured windows.
const FILL: u64 = 200_000;
const MEASURED: u64 = 200_000;
/// The paper-default seeds (`SlowdownConfig::paper_default`).
const POLICY_SEED: u64 = 0xB1ADE;
const TRACE_SEED: u64 = 0xB1ADE ^ 0xD15C;

fn stats(accesses: u64, misses: u64, writebacks: u64) -> MissStats {
    MissStats {
        accesses,
        misses,
        writebacks,
    }
}

/// `(workload, [random, lru, clock])` at `LOCAL`/`FILL`/`MEASURED`.
fn reduced_pins() -> [(WorkloadId, [MissStats; 3]); 5] {
    [
        (
            WorkloadId::Websearch,
            [
                stats(200_000, 151_400, 18_507),
                stats(200_000, 146_610, 17_692),
                stats(200_000, 148_361, 18_016),
            ],
        ),
        (
            WorkloadId::Webmail,
            [
                stats(200_000, 42_266, 14_944),
                stats(200_000, 36_996, 11_310),
                stats(200_000, 38_508, 12_021),
            ],
        ),
        (
            WorkloadId::Ytube,
            [
                stats(200_000, 141_413, 3_686),
                stats(200_000, 135_699, 3_501),
                stats(200_000, 137_567, 3_545),
            ],
        ),
        (
            WorkloadId::MapredWc,
            [
                stats(200_000, 87_126, 23_255),
                stats(200_000, 79_500, 19_882),
                stats(200_000, 81_696, 20_904),
            ],
        ),
        (
            WorkloadId::MapredWr,
            [
                stats(200_000, 87_126, 58_334),
                stats(200_000, 79_500, 52_167),
                stats(200_000, 81_696, 54_289),
            ],
        ),
    ]
}

const POLICIES: [PolicyKind; 3] = [PolicyKind::Random, PolicyKind::Lru, PolicyKind::Clock];

#[test]
fn reduced_replays_match_golden_stats_in_both_key_modes() {
    let mut wrong = Vec::new();
    for (id, want) in reduced_pins() {
        let params = params_for(id);
        let buf = MemTraceBuf::generate(params, TRACE_SEED, (FILL + MEASURED) as usize);
        for (policy, want) in POLICIES.into_iter().zip(want) {
            let mut dense =
                TwoLevelSim::with_page_universe(LOCAL, policy, POLICY_SEED, params.footprint_pages);
            let mut open = TwoLevelSim::new(LOCAL, policy, POLICY_SEED);
            for (mode, got) in [
                ("dense", dense.run_steady_buf(&buf, FILL, MEASURED)),
                ("open", open.run_steady_buf(&buf, FILL, MEASURED)),
            ] {
                if got != want {
                    wrong.push(format!(
                        "{id} {policy:?} {mode}: got {got:?}, pinned {want:?}"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "replay moved:\n{}", wrong.join("\n"));
}

/// Websearch at the full paper default: 25% local, random replacement,
/// 2M fill + 2M measured accesses.
const WEBSEARCH_PAPER_DEFAULT: MissStats = MissStats {
    accesses: 2_000_000,
    misses: 878_231,
    writebacks: 159_531,
};

#[test]
fn websearch_paper_default_matches_golden_stats_on_every_path() {
    let cfg = SlowdownConfig::paper_default();
    let cold = estimate_slowdown(WorkloadId::Websearch, &cfg).unwrap();
    assert_eq!(cold.stats, WEBSEARCH_PAPER_DEFAULT, "generator path");
    let memo = ReplayMemo::new();
    let serial = estimate_slowdown_with(WorkloadId::Websearch, &cfg, &memo).unwrap();
    assert_eq!(serial.stats, WEBSEARCH_PAPER_DEFAULT, "shared-buffer path");
    let pool = ThreadPool::new(2).unwrap();
    let pooled =
        estimate_slowdown_pooled(WorkloadId::Websearch, &cfg, &ReplayMemo::new(), &pool).unwrap();
    assert_eq!(pooled.stats, WEBSEARCH_PAPER_DEFAULT, "pooled path");
}
