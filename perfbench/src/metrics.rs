//! Metric names, units and values, as `BENCHMARK.json` declares them.

use crate::staged::{LayerReport, LANES};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn per(ns_total_s: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns_total_s * 1e9 / count as f64
    }
}

/// The end-to-end numbers a run measures in process. `setup_s` is
/// measured from outside, by the runner that starts the process.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median seconds per cold pass at one thread.
    pub wall_s: f64,
    /// Median seconds per cold pass at `nproc` threads.
    pub wall_s_par: f64,
    /// The process's peak resident set after one cold pass at one
    /// thread, MiB.
    pub peak_rss_mib: f64,
    /// Mean absolute deviation of N1/N2 HMean Perf/TCO-$ from 1.5/2.0.
    pub fig5_anchor_err: f64,
    /// Figure 2(c) grid RMSE with the scorecard's exclusions.
    pub fig2c_rmse: f64,
}

impl EndToEnd {
    /// The metrics, in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            m("wall_s", self.wall_s, "s"),
            m("wall_s_par", self.wall_s_par, "s"),
            m("peak_rss_mib", self.peak_rss_mib, "MiB"),
            m("fig5_anchor_err", self.fig5_anchor_err, "ratio"),
            m("fig2c_rmse", self.fig2c_rmse, "ratio"),
        ]
    }
}

/// Per-layer numbers measured outside the staged pass.
#[derive(Debug, Clone, Copy)]
pub struct RunLayers {
    /// Pool tasks recorded by an observed `nproc` pass.
    pub pool_tasks: u64,
    /// Sum of the `pool.task_wall_ns` spans of that pass, seconds.
    pub pool_busy_s: f64,
    /// Memo misses at `nproc` threads minus misses at one thread.
    pub dup_computes: f64,
    /// Traced total against the untraced `wall_s`, percent.
    pub overhead_pct: f64,
}

/// The per-layer metrics, in declaration order.
#[rustfmt::skip]
pub fn per_layer(r: &LayerReport, run: &RunLayers) -> Vec<Metric> {
    let mut out = vec![
        m("workloads.memtrace.time_s", r.memtrace_s, "s"),
        m("workloads.memtrace.accesses", r.memtrace_accesses as f64, "count"),
        m("workloads.memtrace.ns_per_access", per(r.memtrace_s, r.memtrace_accesses), "ns"),
        m("memshare.replay.time_s", r.replay_s, "s"),
        m("memshare.replay.accesses", r.replay_accesses as f64, "count"),
        m("memshare.replay.page_faults", r.replay_faults as f64, "count"),
        m("memshare.replay.ns_per_access", per(r.replay_s, r.replay_accesses), "ns"),
        m("flashcache.replay.time_s", r.storage_s, "s"),
        m("flashcache.replay.requests", r.storage_requests as f64, "count"),
        m("flashcache.replay.flash_hits", r.storage_flash_hits as f64, "count"),
        m("simserver.qos_search.time_s", r.qos_s, "s"),
        m("simserver.qos_search.cells", r.qos_cells as f64, "count"),
        m("simserver.qos_search.events", r.qos_events as f64, "count"),
        m("simserver.qos_search.ns_per_event", per(r.qos_s, r.qos_events), "ns"),
        m("simserver.qos_search.queue_max_depth", r.qos_max_depth as f64, "count"),
        m("simserver.batch.time_s", r.batch_s, "s"),
        m("simserver.batch.cells", r.batch_cells as f64, "count"),
        m("simserver.open_loop.time_s", r.open_s, "s"),
        m("simserver.open_loop.runs", r.open_runs as f64, "count"),
        m("simserver.open_loop.requests", r.open_requests as f64, "count"),
        m("simserver.open_loop.ns_per_request", per(r.open_s, r.open_requests), "ns"),
        m("simserver.resilient.time_s", r.resilient_s, "s"),
        m("simserver.resilient.runs", r.resilient_runs as f64, "count"),
        m("simserver.resilient.requests", r.resilient_requests as f64, "count"),
        m("simserver.resilient.shed", r.resilient_shed as f64, "count"),
        m("simserver.resilient.retries_spent", r.resilient_retries as f64, "count"),
        m("simserver.resilient.breaker_trips", r.resilient_trips as f64, "count"),
        m("tco.time_s", r.tco_s, "s"),
        m("tco.calls", r.tco_calls as f64, "count"),
    ];
    for (name, lane) in LANES.iter().zip(r.lanes) {
        out.push(m(format!("core.memo.{name}.hits"), lane.hits as f64, "count"));
        out.push(m(format!("core.memo.{name}.misses"), lane.misses as f64, "count"));
        out.push(m(format!("core.memo.{name}.hit_ratio"), lane.hit_ratio(), "ratio"));
    }
    out.extend([
        m("core.memo.dup_computes", run.dup_computes, "count"),
        m("simcore.pool.tasks", run.pool_tasks as f64, "count"),
        m("simcore.pool.busy_s", run.pool_busy_s, "s"),
        m("trace.overhead_pct", run.overhead_pct, "%"),
    ]);
    out
}

/// Renders `metrics` as the JSON object the runner reports.
pub fn to_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
