//! The traced run: a cold pass whose layers are called one at a time,
//! in dependency order, on the evaluator's own memo, with a span around
//! each call.
//!
//! 1. `ReplayMemo::trace_par`: memory-trace generation.
//! 2. `estimate_slowdown_pooled`: the trace is cached by now, so this
//!    times the memshare replay alone.
//! 3. `StorageMemo::replay`: flash-cache storage replay.
//! 4. `TcoModel::server_tco`.
//! 5. The batch cells (mapred, dag-analytics) through
//!    `evaluate_scenario`, which shares the study's memo keys.
//! 6. The study's own calls. Their remainder is the closed-loop QoS
//!    search; for `traffic_chaos` the calls are split into the steady
//!    evaluations, the plain non-steady packs (open loop) and the armed
//!    packs (resilient loop).
//!
//! Stages 5 and 6 must find every replay and storage result already in
//! the memo; [`check_consistency`] fails the run otherwise, because the
//! spans would then not be the work the study does.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use wcs_core::designs::DesignPoint;
use wcs_core::evaluate::Evaluator;
use wcs_core::scenario::ScenarioEval;
use wcs_core::sweeps::sweep_platforms;
use wcs_memshare::slowdown::{estimate_slowdown_pooled, SlowdownConfig};
use wcs_simcore::memo::MemoStats;
use wcs_simcore::obs::{MetricValue, Registry, Snapshot};
use wcs_tco::TcoModel;
use wcs_workloads::{disktrace, memtrace, registry, ScenarioSpec, TrafficPack, WorkloadId};

use crate::{armed, guarded, is_batch, Inputs, Outcome, Workload};

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn count(snap: &Snapshot, name: &str) -> u64 {
    snap.count(name).unwrap_or(0)
}

/// Sum of a timer's spans, in nanoseconds.
pub fn timer_sum_ns(snap: &Snapshot, name: &str) -> u64 {
    match snap.metrics.get(name).map(|m| &m.value) {
        Some(MetricValue::Histogram { sum, .. }) => *sum,
        _ => 0,
    }
}

fn minus(a: MemoStats, b: MemoStats) -> MemoStats {
    MemoStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
    }
}

/// Hits and misses of one memo lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lane {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed.
    pub misses: u64,
}

impl Lane {
    /// Hits over lookups (0 with no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The memo lanes, in report order.
pub const LANES: [&str; 6] = [
    "eval_perf",
    "replay",
    "storage",
    "scenario",
    "traffic",
    "resilient",
];

/// What one traced pass measured, layer by layer. Times are host
/// seconds; counts are exact at one thread.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Trace generation time.
    pub memtrace_s: f64,
    /// Accesses generated.
    pub memtrace_accesses: u64,
    /// Memshare replay time.
    pub replay_s: f64,
    /// Accesses replayed, fill window included.
    pub replay_accesses: u64,
    /// Remote page faults counted in the measured windows.
    pub replay_faults: u64,
    /// Storage replay time.
    pub storage_s: f64,
    /// Storage requests replayed.
    pub storage_requests: u64,
    /// Requests the flash cache served.
    pub storage_flash_hits: u64,
    /// TCO pricing time.
    pub tco_s: f64,
    /// `server_tco` calls.
    pub tco_calls: u64,
    /// Batch-makespan cells time.
    pub batch_s: f64,
    /// Batch cells evaluated.
    pub batch_cells: u64,
    /// Closed-loop QoS search time (the study calls' remainder).
    pub qos_s: f64,
    /// QoS cells evaluated.
    pub qos_cells: u64,
    /// Events the QoS cells scheduled.
    pub qos_events: u64,
    /// Deepest event queue seen by the end of the QoS stage.
    pub qos_max_depth: u64,
    /// Open-loop (plain non-steady pack) time.
    pub open_s: f64,
    /// Open-loop runs.
    pub open_runs: u64,
    /// Requests the open-loop runs completed.
    pub open_requests: u64,
    /// Resilient (armed pack) time.
    pub resilient_s: f64,
    /// Resilient runs.
    pub resilient_runs: u64,
    /// Requests offered to the resilient runs.
    pub resilient_requests: u64,
    /// Requests shed by admission control.
    pub resilient_shed: u64,
    /// Retries the budget granted.
    pub resilient_retries: u64,
    /// Circuit-breaker trips.
    pub resilient_trips: u64,
    /// Memo lanes at the end of the pass, in [`LANES`] order.
    pub lanes: [Lane; 6],
    /// Replay-lane misses in stages 5 and 6.
    pub late_replay_misses: u64,
    /// Storage-lane misses in stages 5 and 6.
    pub late_storage_misses: u64,
    /// The whole pass, evaluator build included, as the untraced pass
    /// is timed.
    pub total_s: f64,
}

/// Fails unless stages 5 and 6 found every replay and storage result
/// already staged.
///
/// # Errors
/// Names the lane that computed again.
pub fn check_consistency(late_replay_misses: u64, late_storage_misses: u64) -> Result<(), String> {
    if late_replay_misses == 0 && late_storage_misses == 0 {
        Ok(())
    } else {
        Err(format!(
            "staged layers missed their keys: the study calls computed {late_replay_misses} \
             replay and {late_storage_misses} storage results again"
        ))
    }
}

/// The paper workloads whose traces a design's cells replay: the suite
/// itself, or each scenario's calibration anchor.
pub fn trace_ids(inputs: &Inputs) -> Vec<WorkloadId> {
    if inputs.specs.is_empty() {
        return WorkloadId::ALL.to_vec();
    }
    let ids: BTreeSet<WorkloadId> = inputs
        .specs
        .iter()
        .filter_map(|s| registry::resolve(s.workload).map(|e| e.workload.id))
        .collect();
    ids.into_iter().collect()
}

/// Stage 1: materializes every memory trace the memshare designs'
/// replays read. Returns the accesses generated.
pub fn stage_memtrace(eval: &Evaluator, designs: &[DesignPoint], ids: &[WorkloadId]) -> u64 {
    if !designs.iter().any(|d| d.memshare.is_some()) {
        return 0;
    }
    // The trace key holds the workload and the seed only, so designs
    // share one trace per workload.
    let cfg = SlowdownConfig::paper_default();
    let n = (cfg.fill + cfg.measured) as usize;
    ids.iter()
        .map(|&id| {
            let buf = eval.memo.replay().trace_par(
                memtrace::params_for(id),
                cfg.seed ^ 0xD15C,
                n,
                &eval.pool,
            );
            buf.len() as u64
        })
        .sum()
}

/// Stage 2: the memshare replays, as the evaluator configures them.
/// Returns (accesses, page faults).
pub fn stage_replay(eval: &Evaluator, designs: &[DesignPoint], ids: &[WorkloadId]) -> (u64, u64) {
    let mut seen = BTreeSet::new();
    let (mut accesses, mut faults) = (0, 0);
    for ms in designs.iter().filter_map(|d| d.memshare.as_ref()) {
        let cfg = SlowdownConfig {
            local_fraction: ms.provisioning.local_fraction,
            link: ms.link,
            ..SlowdownConfig::paper_default()
        };
        for &id in ids {
            if !seen.insert((id, cfg.local_fraction.to_bits())) {
                continue;
            }
            let r = estimate_slowdown_pooled(id, &cfg, eval.memo.replay(), &eval.pool)
                .expect("catalog designs have local_fraction in (0, 1]");
            // The replay walks the fill window too; the statistics count
            // the measured window only.
            accesses += cfg.fill + cfg.measured;
            faults += r.stats.misses;
        }
    }
    (accesses, faults)
}

/// Stage 3: the storage replays of the designs with a storage scenario.
/// Returns (requests, flash hits).
pub fn stage_storage(eval: &Evaluator, designs: &[DesignPoint], ids: &[WorkloadId]) -> (u64, u64) {
    let mut seen = BTreeSet::new();
    let (mut requests, mut hits) = (0, 0);
    for s in designs.iter().filter_map(|d| d.storage.as_ref()) {
        for &id in ids {
            if !seen.insert((s.name, id)) {
                continue;
            }
            let stats = eval.memo.storage().replay(
                &s.disk,
                s.flash.as_ref(),
                disktrace::params_for(id),
                eval.measure.seed ^ 0xD15C,
                eval.storage_replay,
            );
            requests += stats.requests;
            hits += stats.flash_hits;
        }
    }
    (requests, hits)
}

/// Stage 4: prices each design. Returns the calls made.
pub fn stage_tco(eval: &Evaluator, designs: &[DesignPoint]) -> u64 {
    for d in designs {
        let burdened = eval.burdened.with_cooling_scale(d.cooling.cooling_scale);
        black_box(TcoModel::new(eval.rack, burdened).server_tco(&d.effective_platform()));
    }
    designs.len() as u64
}

/// The lookups of every lane but replay and storage.
fn upper_lanes(eval: &Evaluator) -> MemoStats {
    minus(
        minus(eval.memo.stats(), eval.memo.replay().stats()),
        eval.memo.storage().stats(),
    )
}

/// Runs `f` as one span and returns its result with its seconds and the
/// registry before and after.
fn span<T>(obs: &Registry, f: impl FnOnce() -> T) -> (T, f64, Snapshot, Snapshot) {
    let before = obs.snapshot();
    let t = Instant::now();
    let v = f();
    let s = secs(t);
    (v, s, before, obs.snapshot())
}

fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    count(after, name) - count(before, name)
}

/// Runs one traced pass at one thread, recording into `obs` (which must
/// be enabled), and returns the study's outcome with the layer report.
pub fn staged_pass(inputs: &Inputs, obs: &Registry) -> (Outcome, LayerReport) {
    let t0 = Instant::now();
    let eval = inputs.evaluator(1, obs.clone());
    let mut r = LayerReport::default();
    let designs = &inputs.designs;
    let ids = trace_ids(inputs);

    let t = Instant::now();
    r.memtrace_accesses = stage_memtrace(&eval, designs, &ids);
    r.memtrace_s = secs(t);

    let t = Instant::now();
    (r.replay_accesses, r.replay_faults) = stage_replay(&eval, designs, &ids);
    r.replay_s = secs(t);

    let t = Instant::now();
    (r.storage_requests, r.storage_flash_hits) = stage_storage(&eval, designs, &ids);
    r.storage_s = secs(t);

    let t = Instant::now();
    r.tco_calls = stage_tco(&eval, designs);
    r.tco_s = secs(t);

    let replay_before = eval.memo.replay().stats();
    let storage_before = eval.memo.storage().stats();
    let outcome = match inputs.workload {
        Workload::Fig5Cold | Workload::Fig2cGrid => suite_stages(inputs, &eval, obs, &mut r),
        Workload::TrafficChaos => traffic_stages(inputs, &eval, obs, &mut r),
    };
    r.late_replay_misses = eval.memo.replay().stats().misses - replay_before.misses;
    r.late_storage_misses = eval.memo.storage().stats().misses - storage_before.misses;
    r.total_s = secs(t0);

    eval.export_obs();
    let snap = obs.snapshot();
    let lane = |name: &str| Lane {
        hits: count(&snap, &format!("memo.{name}.hits")),
        misses: count(&snap, &format!("memo.{name}.misses")),
    };
    // The program exports the scenario, traffic and resilient lanes as
    // one `memo.scenario` series; `traffic_stages` measured the traffic
    // and resilient shares, and the rest is the scenario lane.
    let merged = lane("scenario");
    let (traffic, resilient) = (r.lanes[4], r.lanes[5]);
    r.lanes = [
        lane("perf"),
        lane("replay"),
        lane("storage"),
        Lane {
            hits: merged.hits.saturating_sub(traffic.hits + resilient.hits),
            misses: merged
                .misses
                .saturating_sub(traffic.misses + resilient.misses),
        },
        traffic,
        resilient,
    ];
    (outcome, r)
}

/// Stages 5 and 6 of `fig5_cold` and `fig2c_grid`: the batch cells
/// through `evaluate_scenario`, then the study's own calls.
fn suite_stages(inputs: &Inputs, eval: &Evaluator, obs: &Registry, r: &mut LayerReport) -> Outcome {
    let batch_specs: Vec<ScenarioSpec> = WorkloadId::ALL
        .iter()
        .map(|&id| ScenarioSpec::from_id(id))
        .filter(|s| is_batch(s.workload))
        .collect();
    // A batch cell that fails here fails again, and is reported, in the
    // study's own call below.
    let ((), batch_s, b0, b1) = span(obs, || {
        for d in &inputs.designs {
            let _ = guarded(|| eval.evaluate_scenarios(d, &batch_specs));
        }
    });
    r.batch_s = batch_s;
    r.batch_cells = (inputs.designs.len() * batch_specs.len()) as u64;

    let (outcome, qos_s, q0, q1) = span(obs, || match inputs.workload {
        Workload::Fig5Cold => Outcome::Fig5(
            inputs
                .designs
                .iter()
                .map(|d| guarded(|| eval.evaluate(d)))
                .collect(),
        ),
        _ => Outcome::Fig2c(guarded(|| sweep_platforms(eval))),
    });
    r.qos_s = qos_s;
    r.qos_cells = (inputs.designs.len() * (WorkloadId::ALL.len() - batch_specs.len())) as u64;
    // The study's calls export the queue counters of every cell, the
    // cached batch cells included; the batch stage exported those once.
    r.qos_events = delta(&q1, &q0, "queue.scheduled") - delta(&b1, &b0, "queue.scheduled");
    r.qos_max_depth = count(&q1, "queue.max_depth");
    outcome
}

/// Stages 5 and 6 of `traffic_chaos`: steady batch cells, steady QoS
/// cells, plain non-steady packs, then the armed packs.
fn traffic_stages(
    inputs: &Inputs,
    eval: &Evaluator,
    obs: &Registry,
    r: &mut LayerReport,
) -> Outcome {
    let specs = &inputs.specs;
    let steady = |s: &ScenarioSpec| s.traffic == TrafficPack::Steady;
    let pick = |keep: &dyn Fn(&ScenarioSpec) -> bool| -> Vec<usize> {
        (0..specs.len()).filter(|&i| keep(&specs[i])).collect()
    };
    let batch_idx = pick(&|s| steady(s) && is_batch(s.workload));
    let qos_idx = pick(&|s| steady(s) && !is_batch(s.workload));
    let open_idx = pick(&|s| !steady(s));
    let all_idx: Vec<usize> = (0..specs.len()).collect();
    let armed = armed(eval);

    // One call per design over the chosen specs, results slotted back
    // into spec order.
    let mut slots: Vec<Vec<Option<ScenarioEval>>> =
        vec![vec![None; specs.len()]; 2 * inputs.designs.len()];
    let mut failure: Option<String> = None;
    let mut run = |e: &Evaluator, offset: usize, idx: &[usize]| {
        let chosen: Vec<ScenarioSpec> = idx.iter().map(|&i| specs[i]).collect();
        for (di, d) in inputs.designs.iter().enumerate() {
            match guarded(|| e.evaluate_scenarios(d, &chosen)) {
                Ok(evals) => {
                    for (&i, ev) in idx.iter().zip(evals) {
                        slots[offset + di][i] = Some(ev);
                    }
                }
                Err(msg) => failure = Some(msg),
            }
        }
    };
    let evals_of = |idx: &[usize]| (idx.len() * inputs.designs.len()) as u64;
    let plain = 0;
    let armed_offset = inputs.designs.len();

    let ((), s, _, _) = span(obs, || run(eval, plain, &batch_idx));
    r.batch_s = s;
    r.batch_cells = evals_of(&batch_idx);

    let ((), s, q0, q1) = span(obs, || run(eval, plain, &qos_idx));
    r.qos_s = s;
    r.qos_cells = evals_of(&qos_idx);
    r.qos_events = delta(&q1, &q0, "queue.scheduled");
    r.qos_max_depth = count(&q1, "queue.max_depth");

    // Each pack evaluation looks its steady capacity up once (a hit:
    // the steady stages computed it) and its own run once; the lookups
    // beyond those steady hits are the traffic or resilient lane.
    let upper = upper_lanes(eval);
    let ((), s, o0, o1) = span(obs, || run(eval, plain, &open_idx));
    let d = minus(upper_lanes(eval), upper);
    r.lanes[4] = Lane {
        hits: d.hits.saturating_sub(evals_of(&open_idx)),
        misses: d.misses,
    };
    r.open_s = s;
    r.open_runs = delta(&o1, &o0, "scenario.traffic_runs");
    r.open_requests = delta(&o1, &o0, "scenario.requests");

    let upper = upper_lanes(eval);
    let ((), s, a0, a1) = span(obs, || run(&armed, armed_offset, &all_idx));
    let d = minus(upper_lanes(eval), upper);
    r.lanes[5] = Lane {
        hits: d.hits.saturating_sub(evals_of(&all_idx)),
        misses: d.misses,
    };
    r.resilient_s = s;
    r.resilient_runs = delta(&a1, &a0, "resilience.runs");
    r.resilient_requests = delta(&a1, &a0, "resilience.requests");
    r.resilient_shed = delta(&a1, &a0, "resilience.shed");
    r.resilient_retries = delta(&a1, &a0, "resilience.retries_spent");
    r.resilient_trips = delta(&a1, &a0, "resilience.breaker_trips");

    if let Some(msg) = failure {
        return Outcome::Traffic(vec![Err(msg)]);
    }
    Outcome::Traffic(
        slots
            .into_iter()
            .map(|call| {
                Ok(call
                    .into_iter()
                    .map(|e| e.expect("every spec ran"))
                    .collect())
            })
            .collect(),
    )
}
