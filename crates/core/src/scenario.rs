//! Scenario evaluation: registered workloads under traffic packs.
//!
//! [`Evaluator::evaluate_scenario`] is the open-world counterpart of
//! [`Evaluator::evaluate`]: instead of iterating the closed paper suite
//! it resolves one [`ScenarioSpec`] through the workload registry and
//! runs whatever family is registered there — a paper benchmark (via the
//! exact pre-registry code path, so `TrafficPack::Steady` results are
//! bit-identical to [`Evaluator::evaluate`]), a FaaS tenant mix whose
//! warm pool trades memory-blade capacity against cold starts, or a DAG
//! analytics job with stragglers.
//!
//! Non-steady packs additionally render a [`wcs_simserver::RateProfile`]
//! at the measured steady capacity and drive the open-loop simulator
//! with it, reporting the tail behaviour the paper's sustained-load
//! methodology cannot see (overload during a flash crowd, the latency
//! cost of a failover surge).
//!
//! Everything is deterministic: a [`ScenarioEval`]'s `Debug` render is
//! bit-identical across thread counts and memo on/off, because it
//! contains only pure functions of the spec, the design, and the
//! measurement config (queue occupancy counters stay out of the render
//! and feed observability only).

use std::fmt;

use wcs_simcore::event::QueueObs;
use wcs_simcore::faults::{self, FaultProcess};
use wcs_simcore::memo::MemoKey;
use wcs_simcore::{ConfigError, SimDuration, SimRng};
use wcs_simserver::{
    run_open_loop_profiled, run_open_loop_resilient, AdmissionConfig, BreakerConfig, QosSpec,
    RateProfile, ResilienceConfig, RetryBudgetConfig, RetryPolicy,
};
use wcs_tco::{AvailabilityModel, AvailableEfficiency, Efficiency, TcoReport};
use wcs_workloads::perf::{measure_perf_with_demand, MeasureConfig};
use wcs_workloads::registry::{self, Family};
use wcs_workloads::service::PlatformDemand;
use wcs_workloads::{dag, faas, Metric, ScenarioSpec, TrafficPack, WorkloadId};

use crate::designs::DesignPoint;
use crate::error::WcsError;
use crate::evaluate::Evaluator;
use crate::memo::PerfSample;

/// A memoized open-loop traffic run: the deterministic evaluation plus
/// the event-queue occupancy counters, cached together so the
/// `queue.*` observability series stay identical with the memo on or
/// off.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSample {
    /// The pure-numeric evaluation (rendered into [`ScenarioEval`]).
    pub eval: TrafficEval,
    /// Event-queue occupancy of the run. Excluded from every render:
    /// it is observability data, not a result.
    pub queue: QueueObs,
}

/// What an open-loop traffic-pack run measured. Every field is a pure
/// function of the scenario, design, and measurement config — safe to
/// render and to compare byte-for-byte across thread counts and memo
/// settings.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEval {
    /// The pack's catalog name.
    pub pack: &'static str,
    /// Offered load at the profile's peak segment, requests/second.
    pub offered_peak_rps: f64,
    /// Time-average offered load over one profile cycle, requests/second.
    pub offered_mean_rps: f64,
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Sustained completion rate over the window, requests/second.
    pub throughput_rps: f64,
    /// Mean request latency, seconds.
    pub mean_latency_secs: f64,
    /// Median request latency, seconds.
    pub p50_latency_secs: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_secs: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_latency_secs: f64,
    /// Fraction of measured requests meeting the workload's QoS bound
    /// (`None` for batch metrics, which have no per-request bound).
    pub qos_attainment: Option<f64>,
    /// Busiest-resource utilization over the run.
    pub peak_utilization: f64,
}

impl TrafficEval {
    /// Requests that missed the QoS bound (zero for batch metrics).
    pub fn qos_violations(&self) -> u64 {
        match self.qos_attainment {
            Some(att) => ((1.0 - att) * self.completed as f64).round() as u64,
            None => 0,
        }
    }
}

/// A chaos plan: seeded blade outages scaled to the traffic run's
/// expected span and, optionally, co-varied with its rate profile so
/// faults concentrate where offered load is high (the compound failure
/// mode — flash crowd plus blade loss — that steady-state availability
/// math averages away).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Mean time to failure, as a fraction of the expected run span.
    pub mttf_span: f64,
    /// Mean repair time, as a fraction of the expected run span.
    pub mttr_span: f64,
    /// Thin the fault hazard by the traffic profile's rate multipliers:
    /// outages become proportionally likelier in high-traffic segments.
    /// Flat profiles are unaffected (hazard thinning at full weight
    /// consumes no draw).
    pub co_vary: bool,
}

impl ChaosPlan {
    /// The standard wave: roughly one-to-two blade outages per run, each
    /// taking out the blade for ~8% of the span, landing preferentially
    /// under peak load.
    pub fn blade_fault() -> Self {
        ChaosPlan {
            mttf_span: 0.45,
            mttr_span: 0.08,
            co_vary: true,
        }
    }

    fn validate(&self) {
        assert!(
            self.mttf_span.is_finite() && self.mttf_span > 0.0,
            "chaos MTTF fraction must be positive"
        );
        assert!(
            self.mttr_span.is_finite() && self.mttr_span > 0.0,
            "chaos MTTR fraction must be positive"
        );
    }
}

/// Capacity-relative resilience layer for scenario traffic runs.
///
/// Every knob scales off the design's measured steady capacity, so one
/// spec is meaningful across designs whose capacities differ by an
/// order of magnitude; [`ResilienceSpec::config_at`] renders it into
/// the absolute [`wcs_simserver::ResilienceConfig`] for a given run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceSpec {
    /// Admission rate as a multiple of steady capacity (`None` disables
    /// admission control).
    pub admission_x: Option<f64>,
    /// Fraction of arrivals classed low priority (sheddable first).
    pub low_fraction: f64,
    /// Retry-budget accrual ratio (`None` disables the budget, leaving
    /// retries bounded only by `max_retries`).
    pub retry_ratio: Option<f64>,
    /// Enable the circuit breaker in front of the blade.
    pub breaker: bool,
    /// Per-request retry ceiling for failed attempts.
    pub max_retries: u32,
    /// Seeded fault waves to run under (`None` for fault-free runs).
    pub chaos: Option<ChaosPlan>,
}

impl ResilienceSpec {
    /// The standard layer: 1.2x admission with a 20% low-priority
    /// class, a 10% retry budget, breakers on, and the co-varying
    /// blade-fault chaos wave.
    pub fn standard() -> Self {
        ResilienceSpec {
            admission_x: Some(1.2),
            low_fraction: 0.2,
            retry_ratio: Some(0.1),
            breaker: true,
            max_retries: 3,
            chaos: Some(ChaosPlan::blade_fault()),
        }
    }

    /// Overrides the retry-budget ratio.
    #[must_use]
    pub fn with_retry_ratio(mut self, ratio: f64) -> Self {
        self.retry_ratio = Some(ratio);
        self
    }

    /// Renders the capacity-relative spec into absolute simulator
    /// configuration for a run at `capacity_rps` whose expected length
    /// is `span`.
    pub fn config_at(&self, capacity_rps: f64, span: SimDuration) -> ResilienceConfig {
        ResilienceConfig {
            admission: self.admission_x.map(|x| AdmissionConfig {
                rate_rps: capacity_rps * x,
                burst: (capacity_rps * 0.25).max(8.0),
                low_reserve: (capacity_rps * 0.05).max(2.0),
                low_fraction: self.low_fraction,
            }),
            retry_budget: self.retry_ratio.map(|ratio| RetryBudgetConfig {
                ratio,
                initial: 8.0,
                cap: 64.0,
            }),
            breaker: self.breaker.then(|| BreakerConfig {
                failure_threshold: 3,
                open_for: SimDuration::from_secs_f64((span.as_secs_f64() * 0.02).max(1e-6)),
                jitter: 0.2,
                half_open_probes: 2,
            }),
        }
    }

    /// Folds every field into a memo key; the key changes whenever any
    /// knob does, so distinct specs never alias a cache entry.
    fn fold_key(&self, key: MemoKey) -> MemoKey {
        let key = match self.admission_x {
            None => key.push_u64(0),
            Some(x) => key.push_u64(1).push_f64(x),
        };
        let key = key.push_f64(self.low_fraction);
        let key = match self.retry_ratio {
            None => key.push_u64(0),
            Some(r) => key.push_u64(1).push_f64(r),
        };
        let key = key.push_bool(self.breaker).push_u32(self.max_retries);
        match self.chaos {
            None => key.push_u64(0),
            Some(c) => key
                .push_u64(1)
                .push_f64(c.mttf_span)
                .push_f64(c.mttr_span)
                .push_bool(c.co_vary),
        }
    }
}

/// What the resilience layer did during a traffic run: SLO attainment,
/// shed/goodput accounting, retry-budget spend, breaker activity, and
/// the chaos wave it ran under. Every field is a pure function of the
/// scenario, design, measurement config, and [`ResilienceSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceEval {
    /// Logical requests that reached the admission point (whole run).
    pub offered: u64,
    /// Requests admitted past the token bucket (whole run).
    pub admitted: u64,
    /// Requests shed by admission control (whole run).
    pub shed: u64,
    /// Shed fraction of offered load.
    pub shed_fraction: f64,
    /// Successfully completed requests per second over the measurement
    /// window.
    pub goodput_rps: f64,
    /// Requests dropped after exhausting retries, measurement window.
    pub dropped: u64,
    /// Completed / (completed + dropped) over the measurement window.
    pub availability: f64,
    /// Retry attempts granted by the budget (whole run).
    pub retries_spent: u64,
    /// Retry attempts the budget refused (whole run).
    pub retries_denied: u64,
    /// (admitted + retries) / admitted — the work-amplification factor
    /// the budget holds down under concurrent faults.
    pub retry_amplification: f64,
    /// Breaker trips across the run.
    pub breaker_trips: u64,
    /// Requests failed fast by an open breaker (no backend attempt).
    pub breaker_fast_fails: u64,
    /// Fraction of the expected span the breaker spent open.
    pub breaker_open_fraction: f64,
    /// The latency SLO scored against, seconds (the workload's QoS
    /// bound, or 10x its unloaded latency for batch metrics).
    pub slo_secs: f64,
    /// p99 latency over the SLO (>1 means the tail violates it).
    pub p99_over_slo: f64,
    /// Fraction of measured completions at or under the SLO.
    pub slo_attainment: f64,
    /// Outage windows the chaos plan scheduled within the horizon.
    pub chaos_outages: u32,
    /// Fraction of the expected span the blade spent down.
    pub chaos_down_fraction: f64,
}

/// A memoized resilient traffic run: the traffic sample plus the
/// resilience evaluation, cached together in their own lane so
/// resilient runs never alias plain traffic runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientSample {
    /// The open-loop traffic measurements (pack, latency, throughput).
    pub traffic: TrafficSample,
    /// What the resilience layer did.
    pub eval: ResilienceEval,
}

/// Family-specific detail of a scenario evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyEval {
    /// A paper benchmark ran through the exact pre-registry pipeline.
    Paper {
        /// Which of the five suite workloads.
        workload: WorkloadId,
    },
    /// A FaaS tenant mix: the warm pool the design's memory could hold
    /// and the cold-start burden the remainder imposed.
    Faas {
        /// Warm-pool capacity: local keep-alive DRAM plus the memory
        /// blade's share when the design attaches one, GiB.
        pool_gib: f64,
        /// Functions whose snapshots stayed resident.
        resident_functions: u32,
        /// Fraction of invocations served warm.
        warm_fraction: f64,
        /// Fraction of invocations paying a cold start.
        cold_fraction: f64,
        /// CPU inflation the cold starts imposed on the warm demand.
        cpu_inflation: f64,
    },
    /// A DAG analytics job under list scheduling.
    Dag {
        /// Tasks executed.
        tasks: u32,
        /// Straggling tasks among them.
        stragglers: u32,
        /// Service-weighted critical path, seconds.
        critical_path_secs: f64,
        /// Achieved makespan, seconds.
        makespan_secs: f64,
    },
}

/// The evaluation of one scenario on one design: the steady metric, the
/// family detail, the optional traffic-pack run, and the priced bill of
/// materials.
#[derive(Clone)]
pub struct ScenarioEval {
    /// Design name.
    pub design: String,
    /// The scenario, rendered `workload/pack`.
    pub scenario: String,
    /// The steady performance metric (the same value
    /// [`Evaluator::evaluate`] reports for paper workloads).
    pub value: f64,
    /// Unit label ("RPS" or "1/s").
    pub unit: &'static str,
    /// Family-specific detail.
    pub family: FamilyEval,
    /// The open-loop traffic run, for non-steady packs (always present
    /// when the evaluator carries a [`ResilienceSpec`]).
    pub traffic: Option<TrafficEval>,
    /// The resilience evaluation, when the evaluator carries a
    /// [`ResilienceSpec`].
    pub resilience: Option<ResilienceEval>,
    /// The priced bill of materials.
    pub report: TcoReport,
    /// The evaluator's fault burden, carried for
    /// [`ScenarioEval::available_efficiency`].
    pub availability: Option<AvailabilityModel>,
}

// Hand-written so the `resilience` field only appears when populated:
// evaluators without a resilience spec render byte-identically to
// builds that predate the field (the determinism fixture pins this).
impl fmt::Debug for ScenarioEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ScenarioEval");
        d.field("design", &self.design)
            .field("scenario", &self.scenario)
            .field("value", &self.value)
            .field("unit", &self.unit)
            .field("family", &self.family)
            .field("traffic", &self.traffic);
        if let Some(res) = &self.resilience {
            d.field("resilience", res);
        }
        d.field("report", &self.report)
            .field("availability", &self.availability)
            .finish()
    }
}

impl ScenarioEval {
    /// Efficiency bundle for the steady metric.
    pub fn efficiency(&self) -> Efficiency {
        Efficiency::new(self.value, self.report.clone())
    }

    /// Efficiency burdened with the evaluator's fault model (perfect
    /// availability when none was configured) over `years` of operation.
    ///
    /// # Errors
    /// Rejects a non-positive depreciation period.
    pub fn available_efficiency(&self, years: f64) -> Result<AvailableEfficiency, ConfigError> {
        AvailableEfficiency::new(
            self.efficiency(),
            self.availability.unwrap_or_else(AvailabilityModel::perfect),
            years,
        )
    }
}

impl fmt::Display for ScenarioEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.2} {}",
            self.scenario, self.design, self.value, self.unit
        )
    }
}

impl Evaluator {
    /// Evaluates one scenario on one design: resolves the workload
    /// through the registry, measures its steady metric through the
    /// family's pipeline (storage scenario and memory-sharing slowdown
    /// included, exactly as [`Evaluator::evaluate`] applies them), and —
    /// for non-steady packs — drives the open-loop simulator with the
    /// pack's rate profile rendered at the measured capacity.
    ///
    /// Paper workloads under [`TrafficPack::Steady`] share the suite's
    /// memo lane and are bit-identical to [`Evaluator::evaluate`];
    /// FaaS/DAG measurements and traffic runs cache in their own
    /// `scenario-*` lanes.
    ///
    /// # Errors
    /// [`WcsError::UnknownScenario`] when the name is not registered
    /// (the error lists every registered name);
    /// [`WcsError::Measure`] when the QoS bound is infeasible.
    pub fn evaluate_scenario(
        &self,
        design: &DesignPoint,
        spec: &ScenarioSpec,
    ) -> Result<ScenarioEval, WcsError> {
        let entry = registry::resolve(spec.workload).ok_or_else(|| WcsError::UnknownScenario {
            name: spec.workload.name().to_owned(),
            known: registry::names(),
        })?;
        let platform = design.effective_platform();
        let report = self.design_report(design, &platform);
        let wl = &entry.workload;

        let (sample, family, demand) = match &entry.family {
            // The paper path replicates `workload_perf` exactly — same
            // demand pipeline, same "eval-perf" memo lane and key — so a
            // steady paper scenario cannot differ from the closed API by
            // a single bit (and shares its cache entries).
            Family::Paper(id) => {
                let demand = self.demand_for(design, &platform, wl, *id);
                let s = self.memo.perf(*id, &demand, &self.measure, || {
                    measure_perf_with_demand(wl, &demand, &self.measure).map(|r| PerfSample {
                        value: r.value,
                        queue: r.queue,
                    })
                })?;
                (s, FamilyEval::Paper { workload: *id }, demand)
            }
            Family::Faas(params) => {
                let mut demand = self.demand_for(design, &platform, wl, wl.id);
                // The warm pool is the local keep-alive budget plus the
                // memory blade's share when the design attaches one:
                // disaggregated capacity buys down the cold-start rate.
                let pool_gib = params.keepalive_local_gib
                    + design.memshare.as_ref().map_or(0.0, |ms| {
                        design.platform.memory.capacity_gib * ms.provisioning.remote_fraction
                    });
                let pool = faas::warm_pool(params, pool_gib);
                let inflation =
                    faas::cold_inflation(params, wl.demand.cpu_ghz_s, pool.cold_fraction());
                demand.inflate_cpu(inflation);
                let key = MemoKey::new("scenario-perf")
                    .push(&spec.workload)
                    .push(params)
                    .push(&demand)
                    .push(&self.measure)
                    .finish();
                let s = self.memo.scenario_perf(key, || {
                    measure_perf_with_demand(wl, &demand, &self.measure).map(|r| PerfSample {
                        value: r.value,
                        queue: r.queue,
                    })
                })?;
                let family = FamilyEval::Faas {
                    pool_gib,
                    resident_functions: pool.resident_functions,
                    warm_fraction: pool.warm_fraction,
                    cold_fraction: pool.cold_fraction(),
                    cpu_inflation: inflation,
                };
                (s, family, demand)
            }
            Family::Dag(params) => {
                let demand = self.demand_for(design, &platform, wl, wl.id);
                let mean_task = SimDuration::from_secs_f64(demand.single_client_latency_secs());
                let slots = params.slots_per_core * demand.server_spec().cores;
                // Generation + scheduling are cheap pure functions, so
                // they recompute unconditionally (keeping the family
                // detail available on cache hits); the memo lane still
                // serves the sample for hit/miss parity with FaaS.
                let stats = dag::execute(
                    &dag::generate(params, mean_task, self.measure.seed ^ 0xDA6),
                    slots,
                );
                let key = MemoKey::new("scenario-perf")
                    .push(&spec.workload)
                    .push(params)
                    .push(&demand)
                    .push(&self.measure)
                    .finish();
                let s = self.memo.scenario_perf(key, || {
                    Ok(PerfSample {
                        value: stats.perf(),
                        queue: stats.queue,
                    })
                })?;
                let family = FamilyEval::Dag {
                    tasks: stats.tasks,
                    stragglers: stats.stragglers,
                    critical_path_secs: stats.critical_path_secs,
                    makespan_secs: stats.makespan_secs,
                };
                (s, family, demand)
            }
        };

        let unit = match wl.metric {
            Metric::ThroughputQos(_) => "RPS",
            Metric::Batch { .. } => "1/s",
        };
        // Non-steady packs replay the pack's rate profile at the
        // measured steady capacity through the open loop. An evaluator
        // carrying a resilience spec instead routes every pack — steady
        // included, as a constant profile — through the resilient open
        // loop, co-varying the chaos wave with the profile.
        let (traffic, resilience) = if let Some(rspec) = &self.resilience {
            let (capacity_rps, qos) = match wl.metric {
                Metric::ThroughputQos(q) => (sample.value, Some(q)),
                Metric::Batch { tasks, .. } => (sample.value * f64::from(tasks), None),
            };
            let total = self.measure.warmup + self.measure.measured;
            let profile = match spec.traffic {
                TrafficPack::Steady => RateProfile::constant(),
                pack => pack
                    .profile(capacity_rps, total)
                    .expect("non-steady packs render a profile"),
            };
            let key = rspec
                .fold_key(
                    MemoKey::new("scenario-resilience")
                        .push(spec)
                        .push(&demand)
                        .push(&self.measure)
                        .push_f64(capacity_rps),
                )
                .finish();
            let rs = self.memo.resilient(key, || {
                run_resilient_traffic(
                    &demand,
                    qos,
                    capacity_rps,
                    spec.traffic.label(),
                    &profile,
                    &self.measure,
                    rspec,
                )
            });
            // Exact-class: every count comes out of the (possibly
            // cached) sample, never from worker scheduling.
            self.obs.counter("scenario.traffic_runs").inc();
            self.obs
                .counter("scenario.requests")
                .add(rs.traffic.eval.completed);
            self.obs
                .counter("scenario.qos_violations")
                .add(rs.traffic.eval.qos_violations());
            self.obs.counter("resilience.runs").inc();
            self.obs.counter("resilience.requests").add(rs.eval.offered);
            self.obs.counter("resilience.shed").add(rs.eval.shed);
            self.obs
                .counter("resilience.retries_spent")
                .add(rs.eval.retries_spent);
            self.obs
                .counter("resilience.retries_denied")
                .add(rs.eval.retries_denied);
            self.obs
                .counter("resilience.breaker_trips")
                .add(rs.eval.breaker_trips);
            self.obs
                .counter("resilience.fast_fails")
                .add(rs.eval.breaker_fast_fails);
            rs.traffic.queue.export(&self.obs);
            (Some(rs.traffic.eval), Some(rs.eval))
        } else {
            let traffic = match spec.traffic {
                TrafficPack::Steady => None,
                pack => {
                    let (capacity_rps, qos) = match wl.metric {
                        Metric::ThroughputQos(q) => (sample.value, Some(q)),
                        // Batch metrics complete `tasks` tasks per makespan:
                        // the per-task completion rate is the open-loop
                        // capacity analogue.
                        Metric::Batch { tasks, .. } => (sample.value * f64::from(tasks), None),
                    };
                    let total = self.measure.warmup + self.measure.measured;
                    let profile = pack
                        .profile(capacity_rps, total)
                        .expect("non-steady packs render a profile");
                    let key = MemoKey::new("scenario-traffic")
                        .push(spec)
                        .push(&demand)
                        .push(&self.measure)
                        .push_f64(capacity_rps)
                        .finish();
                    let ts = self.memo.traffic(key, || {
                        run_traffic(
                            &demand,
                            qos,
                            capacity_rps,
                            pack.label(),
                            &profile,
                            &self.measure,
                        )
                    });
                    // Exact-class: completed/violation counts come out of the
                    // (possibly cached) sample, never from worker scheduling.
                    self.obs.counter("scenario.traffic_runs").inc();
                    self.obs.counter("scenario.requests").add(ts.eval.completed);
                    self.obs
                        .counter("scenario.qos_violations")
                        .add(ts.eval.qos_violations());
                    ts.queue.export(&self.obs);
                    Some(ts.eval)
                }
            };
            (traffic, None)
        };

        self.obs.counter("scenario.evals").inc();
        match &family {
            FamilyEval::Paper { .. } => {}
            FamilyEval::Faas {
                resident_functions,
                cold_fraction,
                ..
            } => {
                self.obs
                    .counter("scenario.faas_resident")
                    .add(u64::from(*resident_functions));
                self.obs
                    .histogram("scenario.faas_cold_x1000")
                    .record((cold_fraction * 1000.0).round() as u64);
            }
            FamilyEval::Dag {
                tasks, stragglers, ..
            } => {
                self.obs
                    .counter("scenario.dag_tasks")
                    .add(u64::from(*tasks));
                self.obs
                    .counter("scenario.dag_stragglers")
                    .add(u64::from(*stragglers));
            }
        }
        sample.queue.export(&self.obs);

        Ok(ScenarioEval {
            design: design.name.clone(),
            scenario: spec.to_string(),
            value: sample.value,
            unit,
            family,
            traffic,
            resilience,
            report,
            availability: self.availability,
        })
    }

    /// Evaluates many scenarios on one design, fanning them out over the
    /// pool. Results are in input order and bit-identical to calling
    /// [`Evaluator::evaluate_scenario`] in a loop.
    ///
    /// # Errors
    /// Returns the first (lowest-index) scenario's error, exactly as the
    /// serial loop would.
    pub fn evaluate_scenarios(
        &self,
        design: &DesignPoint,
        specs: &[ScenarioSpec],
    ) -> Result<Vec<ScenarioEval>, WcsError> {
        let evals = self.pool.try_par_map(specs, |_, spec| {
            let _span = self.obs.timer("pool.task_wall_ns").start();
            self.evaluate_scenario(design, spec)
        })?;
        self.obs.counter("pool.tasks").add(evals.len() as u64);
        Ok(evals)
    }
}

/// One open-loop run of a rendered traffic profile. Pure function of
/// its arguments (the seed lane is derived from the measurement seed),
/// so memoized and cold runs are byte-identical.
fn run_traffic(
    demand: &PlatformDemand,
    qos: Option<QosSpec>,
    capacity_rps: f64,
    pack: &'static str,
    profile: &RateProfile,
    cfg: &MeasureConfig,
) -> TrafficSample {
    let mut source = demand.source(0x7AFF);
    let stats = run_open_loop_profiled(
        demand.server_spec(),
        &mut source,
        capacity_rps,
        profile,
        cfg.warmup,
        cfg.measured,
        cfg.seed ^ 0x007A_FF1C,
    );
    let percentile = |p: f64| stats.latency.percentile(p).unwrap_or(0.0);
    TrafficSample {
        eval: TrafficEval {
            pack,
            offered_peak_rps: capacity_rps * profile.peak(),
            offered_mean_rps: capacity_rps * profile.mean(),
            completed: stats.completed,
            throughput_rps: stats.throughput_rps(),
            mean_latency_secs: stats.latency.mean(),
            p50_latency_secs: percentile(50.0),
            p95_latency_secs: percentile(95.0),
            p99_latency_secs: percentile(99.0),
            qos_attainment: qos.map(|q| stats.latency.fraction_at_or_below(q.bound.as_secs_f64())),
            peak_utilization: stats.utilization.iter().copied().fold(0.0, f64::max),
        },
        queue: stats.queue,
    }
}

/// One resilient open-loop run: renders the chaos wave (co-varied with
/// the profile when the plan asks), runs the traffic through admission
/// control, the retry budget, and the breaker, and scores the outcome
/// against the workload's SLO. Pure function of its arguments — the
/// chaos schedule comes from the pure [`SimRng::stream`], the run seed
/// from the measurement seed — so memoized and cold runs are
/// byte-identical.
fn run_resilient_traffic(
    demand: &PlatformDemand,
    qos: Option<QosSpec>,
    capacity_rps: f64,
    pack: &'static str,
    profile: &RateProfile,
    cfg: &MeasureConfig,
    rspec: &ResilienceSpec,
) -> ResilientSample {
    let total = cfg.warmup + cfg.measured;
    let span_secs = total as f64 / (capacity_rps * profile.mean());
    let span = SimDuration::from_secs_f64(span_secs);
    let config = rspec.config_at(capacity_rps, span);
    let retry = RetryPolicy {
        timeout: None,
        max_retries: rspec.max_retries,
        backoff: SimDuration::from_secs_f64((span_secs * 0.002).max(1e-6)),
    };

    // The horizon doubles the expected span so outages keep landing if
    // overload stretches the run past its nominal length.
    let mut outages = Vec::new();
    if let Some(chaos) = &rspec.chaos {
        chaos.validate();
        let process = FaultProcess::exponential(
            SimDuration::from_secs_f64(span_secs * chaos.mttf_span),
            SimDuration::from_secs_f64(span_secs * chaos.mttr_span),
        )
        .expect("chaos plan durations are positive");
        let horizon = SimDuration::from_secs_f64(span_secs * 2.0);
        let mut rng = SimRng::stream(cfg.seed ^ 0x000C_4A05, capacity_rps.to_bits());
        outages = if chaos.co_vary && !profile.is_constant() {
            let (seg_dur, weights) = profile.segments();
            process.windows_weighted(horizon, seg_dur, weights, &mut rng)
        } else {
            process.windows(horizon, &mut rng)
        };
    }

    let mut source = demand.source(0x7AFF);
    let (stats, res) = run_open_loop_resilient(
        demand.server_spec(),
        &mut source,
        capacity_rps,
        profile,
        cfg.warmup,
        cfg.measured,
        cfg.seed ^ 0x007A_FF1C,
        &outages,
        &retry,
        &config,
    );

    let percentile = |p: f64| stats.latency.percentile(p).unwrap_or(0.0);
    let p99 = percentile(99.0);
    // Batch metrics carry no per-request bound; score against 10x the
    // unloaded latency so degraded-mode tails still register.
    let slo_secs = qos.map_or_else(
        || 10.0 * demand.single_client_latency_secs(),
        |q| q.bound.as_secs_f64(),
    );
    let eval = ResilienceEval {
        offered: res.offered,
        admitted: res.admitted,
        shed: res.shed(),
        shed_fraction: res.shed_fraction(),
        goodput_rps: stats.goodput_rps(),
        dropped: stats.faults.dropped,
        availability: stats.completed as f64 / stats.faults.offered.max(1) as f64,
        retries_spent: res.retries_spent,
        retries_denied: res.retries_denied,
        retry_amplification: res.retry_amplification(),
        breaker_trips: res.breaker_trips,
        breaker_fast_fails: res.breaker_fast_fails,
        breaker_open_fraction: (res.breaker_open_ns as f64 / span.as_nanos() as f64).min(1.0),
        slo_secs,
        p99_over_slo: if slo_secs > 0.0 { p99 / slo_secs } else { 0.0 },
        slo_attainment: stats.latency.fraction_at_or_below(slo_secs),
        chaos_outages: outages.len() as u32,
        chaos_down_fraction: 1.0 - faults::availability(&outages, span),
    };
    let traffic = TrafficSample {
        eval: TrafficEval {
            pack,
            offered_peak_rps: capacity_rps * profile.peak(),
            offered_mean_rps: capacity_rps * profile.mean(),
            completed: stats.completed,
            throughput_rps: stats.throughput_rps(),
            mean_latency_secs: stats.latency.mean(),
            p50_latency_secs: percentile(50.0),
            p95_latency_secs: percentile(95.0),
            p99_latency_secs: percentile(99.0),
            qos_attainment: qos.map(|q| stats.latency.fraction_at_or_below(q.bound.as_secs_f64())),
            peak_utilization: stats.utilization.iter().copied().fold(0.0, f64::max),
        },
        queue: stats.queue,
    };
    ResilientSample { traffic, eval }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_platforms::PlatformId;
    use wcs_workloads::WorkloadKey;

    #[test]
    fn steady_paper_scenarios_match_the_closed_api() {
        let eval = Evaluator::quick();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let suite = eval.evaluate(&design).unwrap();
        for id in [WorkloadId::Websearch, WorkloadId::MapredWc] {
            let s = eval
                .evaluate_scenario(&design, &ScenarioSpec::from_id(id))
                .unwrap();
            assert_eq!(
                s.value.to_bits(),
                suite.perf[&id].to_bits(),
                "{id}: scenario vs suite"
            );
            assert!(s.traffic.is_none());
            assert!(matches!(s.family, FamilyEval::Paper { workload } if workload == id));
            assert_eq!(format!("{:?}", s.report), format!("{:?}", suite.report));
        }
    }

    #[test]
    fn unknown_scenario_lists_the_registry() {
        let eval = Evaluator::quick();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let err = eval
            .evaluate_scenario(&design, &ScenarioSpec::steady("tsunami-xyz"))
            .unwrap_err();
        let WcsError::UnknownScenario { name, known } = &err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(name, "tsunami-xyz");
        assert!(known.contains(&"faas"), "{known:?}");
        assert!(known.contains(&"websearch"), "{known:?}");
        assert!(err.to_string().contains("dag-analytics"));
    }

    #[test]
    fn faas_pool_grows_with_a_memory_blade() {
        let eval = Evaluator::quick();
        let spec = ScenarioSpec::steady("faas");
        let local = eval
            .evaluate_scenario(&DesignPoint::baseline(PlatformId::Emb1), &spec)
            .unwrap();
        let bladed = eval.evaluate_scenario(&DesignPoint::n2(), &spec).unwrap();
        let warm = |e: &ScenarioEval| match e.family {
            FamilyEval::Faas {
                warm_fraction,
                cpu_inflation,
                ..
            } => (warm_fraction, cpu_inflation),
            ref other => panic!("not faas: {other:?}"),
        };
        let (w_local, infl_local) = warm(&local);
        let (w_blade, infl_blade) = warm(&bladed);
        assert!(
            w_blade > w_local,
            "blade warms the pool: {w_blade} vs {w_local}"
        );
        assert!(
            infl_blade < infl_local,
            "fewer cold starts inflate less: {infl_blade} vs {infl_local}"
        );
        assert_eq!(local.unit, "RPS");
        assert!(local.value > 0.0);
    }

    #[test]
    fn dag_scenario_reports_the_graph() {
        let eval = Evaluator::quick();
        let s = eval
            .evaluate_scenario(
                &DesignPoint::baseline(PlatformId::Desk),
                &ScenarioSpec::steady("dag-analytics"),
            )
            .unwrap();
        let FamilyEval::Dag {
            tasks,
            stragglers,
            critical_path_secs,
            makespan_secs,
        } = s.family
        else {
            panic!("not dag: {:?}", s.family);
        };
        assert_eq!(tasks, 256);
        assert!(stragglers > 0, "5% tail over 256 tasks");
        assert!(makespan_secs >= critical_path_secs - 1e-9);
        assert_eq!(s.unit, "1/s");
        assert!((s.value - 1.0 / makespan_secs).abs() < 1e-12);
    }

    #[test]
    fn traffic_packs_run_and_report_overload() {
        let eval = Evaluator::quick();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let spec = ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd());
        let s = eval.evaluate_scenario(&design, &spec).unwrap();
        let t = s.traffic.expect("non-steady pack ran the open loop");
        assert_eq!(t.pack, "flash-crowd");
        assert!(t.completed > 0);
        assert!(t.offered_peak_rps > t.offered_mean_rps);
        assert!(t.offered_peak_rps > s.value, "spike exceeds capacity");
        let att = t.qos_attainment.expect("QoS workload");
        assert!((0.0..=1.0).contains(&att), "{att}");
        assert!(t.p99_latency_secs >= t.p50_latency_secs);

        // The failover surge holds overload longer: tail at least as bad.
        let surge = eval
            .evaluate_scenario(
                &design,
                &ScenarioSpec::steady("faas").with_traffic(TrafficPack::failover_surge()),
            )
            .unwrap();
        assert!(surge.traffic.unwrap().completed > 0);
    }

    #[test]
    fn scenario_renders_are_bit_identical_across_knobs() {
        let design = DesignPoint::n2();
        let specs = [
            ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
            ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ];
        let render = |threads: usize, memo: bool| {
            let eval = Evaluator::builder()
                .quick()
                .threads(threads)
                .unwrap()
                .memo(memo)
                .build()
                .unwrap();
            let evals = eval.evaluate_scenarios(&design, &specs).unwrap();
            format!("{evals:?}")
        };
        let want = render(1, true);
        for threads in [2usize, 8] {
            for memo in [true, false] {
                assert_eq!(want, render(threads, memo), "threads={threads} memo={memo}");
            }
        }
    }

    #[test]
    fn scenario_obs_counters_record() {
        use wcs_simcore::obs::Registry;
        let reg = Registry::new();
        let eval = Evaluator::builder()
            .quick()
            .obs(reg.clone())
            .build()
            .unwrap();
        let design = DesignPoint::baseline(PlatformId::Desk);
        eval.evaluate_scenario(
            &design,
            &ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        )
        .unwrap();
        eval.evaluate_scenario(&design, &ScenarioSpec::steady("dag-analytics"))
            .unwrap();
        eval.export_obs();
        let snap = reg.snapshot();
        assert_eq!(snap.count("scenario.evals"), Some(2));
        assert_eq!(snap.count("scenario.traffic_runs"), Some(1));
        assert!(snap.count("scenario.requests").unwrap_or(0) > 0);
        assert!(snap.count("scenario.dag_tasks").unwrap_or(0) >= 256);
        assert!(snap.metrics.contains_key("memo.scenario.hits"));
    }

    #[test]
    fn resilient_flash_crowd_sheds_and_stays_within_budget() {
        let rspec = ResilienceSpec::standard();
        let eval = Evaluator::builder()
            .quick()
            .resilience(rspec)
            .build()
            .unwrap();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let spec = ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd());
        let s = eval.evaluate_scenario(&design, &spec).unwrap();
        let r = s.resilience.expect("resilient evaluator populates eval");
        let t = s.traffic.expect("resilient evaluator runs traffic");
        assert_eq!(t.pack, "flash-crowd");
        assert!(r.offered > 0);
        assert_eq!(r.offered, r.admitted + r.shed);
        assert!((0.0..1.0).contains(&r.shed_fraction), "{}", r.shed_fraction);
        assert!(r.goodput_rps > 0.0);
        assert!((0.0..=1.0).contains(&r.availability));
        assert!((0.0..=1.0).contains(&r.slo_attainment));
        // The retry-budget invariant: spend never exceeds the accrual
        // ceiling, so amplification stays bounded no matter how the
        // chaos wave lands.
        let ratio = rspec.retry_ratio.unwrap();
        let ceiling = 8.0 + ratio * r.offered as f64;
        assert!(
            (r.retries_spent as f64) <= ceiling,
            "spent {} > ceiling {ceiling}",
            r.retries_spent
        );
        assert!(r.retry_amplification >= 1.0);
        assert!(r.retry_amplification <= 1.0 + ratio + 8.0 / r.admitted.max(1) as f64);
        assert!(r.slo_secs > 0.0);
        assert!((0.0..=1.0).contains(&r.chaos_down_fraction));
    }

    #[test]
    fn resilient_steady_runs_a_constant_profile() {
        let eval = Evaluator::builder()
            .quick()
            .resilience(ResilienceSpec::standard())
            .build()
            .unwrap();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let s = eval
            .evaluate_scenario(&design, &ScenarioSpec::steady("websearch"))
            .unwrap();
        let t = s.traffic.expect("steady runs under resilience too");
        assert_eq!(t.pack, "steady");
        assert_eq!(t.offered_peak_rps.to_bits(), t.offered_mean_rps.to_bits());
        assert!(s.resilience.is_some());
    }

    #[test]
    fn resilient_renders_are_bit_identical_across_knobs() {
        let design = DesignPoint::n2();
        let specs = [
            ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
            ScenarioSpec::steady("websearch").with_traffic(TrafficPack::failover_surge()),
            ScenarioSpec::steady("dag-analytics").with_traffic(TrafficPack::diurnal()),
        ];
        let render = |threads: usize, memo: bool| {
            let eval = Evaluator::builder()
                .quick()
                .threads(threads)
                .unwrap()
                .memo(memo)
                .resilience(ResilienceSpec::standard())
                .build()
                .unwrap();
            let evals = eval.evaluate_scenarios(&design, &specs).unwrap();
            format!("{evals:?}")
        };
        let want = render(1, true);
        assert!(want.contains("resilience"), "render carries the eval");
        for threads in [2usize, 8] {
            for memo in [true, false] {
                assert_eq!(want, render(threads, memo), "threads={threads} memo={memo}");
            }
        }
    }

    #[test]
    fn no_resilience_render_omits_the_field() {
        let eval = Evaluator::quick();
        let design = DesignPoint::baseline(PlatformId::Desk);
        let spec = ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd());
        let s = eval.evaluate_scenario(&design, &spec).unwrap();
        assert!(s.resilience.is_none());
        let render = format!("{s:?}");
        assert!(
            !render.contains("resilience"),
            "disabled layer must not perturb the render"
        );
    }

    #[test]
    fn resilience_obs_counters_record() {
        use wcs_simcore::obs::Registry;
        let reg = Registry::new();
        let eval = Evaluator::builder()
            .quick()
            .obs(reg.clone())
            .resilience(ResilienceSpec::standard())
            .build()
            .unwrap();
        let design = DesignPoint::baseline(PlatformId::Desk);
        eval.evaluate_scenario(
            &design,
            &ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd()),
        )
        .unwrap();
        eval.export_obs();
        let snap = reg.snapshot();
        assert_eq!(snap.count("resilience.runs"), Some(1));
        assert!(snap.count("resilience.requests").unwrap_or(0) > 0);
        assert!(snap.metrics.contains_key("resilience.shed"));
        assert!(snap.metrics.contains_key("resilience.retries_spent"));
        assert!(snap.metrics.contains_key("resilience.breaker_trips"));
    }

    #[test]
    fn chaos_co_varies_with_the_profile() {
        // Same spec with and without co-variation: schedules differ
        // under a non-flat profile, and both are deterministic.
        let design = DesignPoint::baseline(PlatformId::Desk);
        let spec = ScenarioSpec::steady("faas").with_traffic(TrafficPack::flash_crowd());
        let run = |co_vary: bool| {
            let mut rspec = ResilienceSpec::standard();
            rspec.chaos = Some(ChaosPlan {
                co_vary,
                ..ChaosPlan::blade_fault()
            });
            let eval = Evaluator::builder()
                .quick()
                .resilience(rspec)
                .build()
                .unwrap();
            let s = eval.evaluate_scenario(&design, &spec).unwrap();
            format!("{:?}", s.resilience.unwrap())
        };
        assert_eq!(run(true), run(true), "co-varying wave is deterministic");
        assert_eq!(run(false), run(false), "plain wave is deterministic");
        assert_ne!(run(true), run(false), "thinning consumes draws");
    }

    #[test]
    fn key_spec_bridge_matches_ids() {
        let key = WorkloadKey::from(WorkloadId::Webmail);
        let spec = ScenarioSpec {
            workload: key,
            traffic: TrafficPack::Steady,
        };
        assert_eq!(spec.to_string(), "webmail/steady");
    }
}
