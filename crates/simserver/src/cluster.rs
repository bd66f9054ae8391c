//! Cluster-level simulation: many servers behind a load balancer.
//!
//! The paper's performance model "makes the simplifying assumption that
//! cluster-level performance can be approximated by the aggregation of
//! single-machine benchmarks" and flags validation of that assumption as
//! future work (Section 4). This module does the validation: it
//! simulates `n` identical servers behind a dispatcher and compares the
//! cluster's QoS-constrained throughput against `n x` the single-server
//! result, including a configurable scale-out overhead (the Amdahl-style
//! costs the paper lists: bigger data structures, more coordination,
//! higher latency variability).
//!
//! The cluster is also where the availability layer lives
//! ([`run_closed_loop_faulted`](Cluster::run_closed_loop_faulted)):
//! servers go down and come back per a [`ClusterFaults`] plan, the
//! dispatcher fails over around dead servers, and a [`RetryPolicy`]
//! governs per-request timeouts and bounded, backed-off retries. With a
//! fail-free plan and a no-op policy the fault-aware path reproduces the
//! plain run bit for bit.

use std::collections::VecDeque;

#[cfg(test)]
use wcs_simcore::SimDuration;
use wcs_simcore::{ConfigError, EventQueue, SimRng, SimTime};

use crate::engine::{RunStats, ServerSpec};
use crate::failover::{check_windows, ClusterFaults, RetryPolicy};
use crate::kernel::{may_retry, utilization, Attempt, Slots, StageSpan, Stations, Window};
use crate::request::{RequestSource, Resource, Stage};
use crate::resilience::{CircuitBreaker, ResilienceConfig, ResilienceStats, RetryBudget};

/// Dispatch policy of the front-end load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Dispatch {
    /// Round-robin across servers.
    RoundRobin,
    /// Join the server with the fewest requests in flight.
    LeastLoaded,
    /// Uniformly random server.
    Random,
}

/// A cluster of identical servers behind a dispatcher.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Per-server capacity.
    pub spec: ServerSpec,
    /// Number of servers.
    pub servers: u32,
    /// Dispatch policy.
    pub dispatch: Dispatch,
    /// Fractional per-request demand inflation per doubling of cluster
    /// size (the scale-out overhead: routing, fan-out, bigger metadata).
    pub scaleout_overhead: f64,
}

/// An attempt dispatched to a server.
struct Flight {
    attempt: Attempt,
    next_stage: usize,
    server: usize,
    /// The client gave up on this attempt (timeout); the work keeps
    /// draining on the server but no longer counts.
    abandoned: bool,
}

/// Cluster-run events.
enum CEv {
    /// A stage finished on a server. `gen` must match the slot's current
    /// generation; otherwise the work was voided by a crash or already
    /// freed.
    Done {
        slot: usize,
        gen: u64,
        server: usize,
        resource: Resource,
    },
    /// A dispatched attempt's timeout expired.
    Timeout { slot: usize, gen: u64 },
    /// A server fails.
    Down { server: usize },
    /// A server finishes repair.
    Up { server: usize },
    /// A backed-off retry re-enters the dispatcher.
    Retry(Attempt),
}

impl Cluster {
    /// A cluster with no scale-out overhead (the paper's idealized
    /// aggregation assumption).
    ///
    /// # Errors
    /// Rejects an empty cluster.
    pub fn ideal(spec: ServerSpec, servers: u32) -> Result<Self, ConfigError> {
        if servers == 0 {
            return Err(ConfigError::ZeroCount { param: "servers" });
        }
        Ok(Cluster {
            spec,
            servers,
            dispatch: Dispatch::LeastLoaded,
            scaleout_overhead: 0.0,
        })
    }

    /// Demand inflation factor for this cluster size.
    pub fn inflation(&self) -> f64 {
        1.0 + self.scaleout_overhead * (self.servers as f64).log2()
    }

    /// Runs `n_clients` closed-loop clients against the cluster until
    /// `warmup + measured` completions; reports cluster-wide stats.
    ///
    /// Equivalent to
    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted) with a
    /// fail-free plan and no-op retry policy — and bit-identical to it.
    ///
    /// # Errors
    /// Rejects zero `n_clients` or zero `measured`.
    pub fn run_closed_loop(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
    ) -> Result<RunStats, ConfigError> {
        self.run_closed_loop_faulted(
            source,
            n_clients,
            warmup,
            measured,
            seed,
            &ClusterFaults::fail_free(),
            &RetryPolicy::none(),
        )
    }

    /// Runs the closed loop under a fault plan: servers go down and come
    /// back per `faults`, the dispatcher routes around dead servers, and
    /// `retry` governs per-request timeouts and bounded retries.
    ///
    /// Failure semantics:
    ///
    /// * When a server dies, everything queued or in service there fails
    ///   immediately (fail-fast); each failed request retries after
    ///   backoff if budget remains, else it is dropped and its client
    ///   moves on.
    /// * When an attempt times out, the client abandons it and retries
    ///   (or drops), but the server keeps draining the zombie work —
    ///   the wasted-work effect of real datacenter timeouts.
    /// * While every server is down, new work parks at the dispatcher
    ///   and re-enters on the next repair.
    ///
    /// If faults prevent the run from ever reaching `warmup + measured`
    /// completions, the run ends when no events remain (after the last
    /// scheduled repair) and reports whatever completed — degraded, not
    /// panicking.
    ///
    /// # Errors
    /// Rejects zero `n_clients` or `measured`, a fault plan that names
    /// more servers than the cluster has, and, as
    /// [`ConfigError::OutOfRange`], a server whose outage windows are
    /// not ordered and disjoint (`down_at <= up_at <= next.down_at`).
    #[allow(clippy::too_many_arguments)]
    pub fn run_closed_loop_faulted(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
        faults: &ClusterFaults,
        retry: &RetryPolicy,
    ) -> Result<RunStats, ConfigError> {
        self.run_closed_loop_resilient(
            source,
            n_clients,
            warmup,
            measured,
            seed,
            faults,
            retry,
            &ResilienceConfig::disabled(),
        )
        .map(|(stats, _)| stats)
    }

    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted) with an
    /// overload-resilience layer: a global [`RetryBudget`] gates every
    /// retry the [`RetryPolicy`] would otherwise grant unconditionally,
    /// and per-server [`CircuitBreaker`]s steer the dispatcher away from
    /// backends on a failure streak (admission control lives at the
    /// open-loop entry — see
    /// [`run_open_loop_resilient`](crate::run_open_loop_resilient) — not
    /// here, where closed-loop clients self-limit).
    ///
    /// When every live server's breaker refuses, the dispatcher routes
    /// anyway (counted in
    /// [`breaker_fast_fails`](ResilienceStats::breaker_fast_fails)):
    /// breakers are overload protection, and parking behind them would
    /// deadlock a closed loop whose only servers are all on a streak.
    ///
    /// With [`ResilienceConfig::disabled`] this is bit-identical to
    /// [`run_closed_loop_faulted`](Self::run_closed_loop_faulted): no
    /// extra RNG draws, no event-schedule changes. [`ResilienceStats`]
    /// counters cover the whole run (warmup included), unlike
    /// [`FaultStats`](crate::FaultStats), which covers the measurement window.
    ///
    /// # Errors
    /// As [`run_closed_loop_faulted`](Self::run_closed_loop_faulted).
    #[allow(clippy::too_many_arguments)]
    pub fn run_closed_loop_resilient(
        &self,
        source: &mut dyn RequestSource,
        n_clients: u32,
        warmup: u64,
        measured: u64,
        seed: u64,
        faults: &ClusterFaults,
        retry: &RetryPolicy,
        resilience: &ResilienceConfig,
    ) -> Result<(RunStats, ResilienceStats), ConfigError> {
        resilience.validate();
        if n_clients == 0 {
            return Err(ConfigError::ZeroCount { param: "n_clients" });
        }
        if measured == 0 {
            return Err(ConfigError::ZeroCount { param: "measured" });
        }
        if faults.planned_servers() > self.servers as usize {
            return Err(ConfigError::CapacityExceeded {
                what: "fault plan servers",
                requested: faults.planned_servers() as u64,
                available: self.servers as u64,
            });
        }
        for server in 0..faults.planned_servers() {
            check_windows(faults.windows_for(server))?;
        }
        let s = self.servers as usize;
        let mut rng = SimRng::seed_from(seed);
        let mut dispatch_rng = rng.fork(99);

        // Resilience state: absent mechanisms cost nothing — the
        // disabled path below executes exactly the statements of the
        // plain faulted run (the bit-for-bit guarantee).
        let mut budget: Option<RetryBudget> = resilience.retry_budget.map(RetryBudget::new);
        let mut breakers: Option<Vec<CircuitBreaker>> = resilience.breaker.map(|cfg| {
            (0..s)
                .map(|srv| CircuitBreaker::new(cfg, seed ^ 0xB4EA_0001, srv as u64))
                .collect()
        });
        let mut res_stats = ResilienceStats::default();
        // All-closed fast path: until the first recorded failure every
        // breaker is Closed, so `admits` is vacuously true and
        // `note_dispatch` a no-op — dispatch reads `up` directly and
        // skips the per-request eligibility scan. `elig_buf` is reused
        // across dispatches once a breaker has been touched.
        let mut breakers_touched = false;
        let mut elig_buf: Vec<bool> = vec![true; s];

        // Pre-size for the steady state: at most one service event and
        // one timeout per client in flight, plus the outage plan.
        let fault_events: usize = (0..s).map(|srv| faults.windows_for(srv).len() * 2).sum();
        let mut events: EventQueue<CEv> =
            EventQueue::with_capacity(n_clients as usize * 2 + fault_events);
        // All stage lists for the run live here; events and attempts
        // carry `Copy` handles. The pool grows with the run's logical
        // request count (a few stages each) and is dropped wholesale at
        // the end — one append per request instead of one `Rc`
        // allocation plus refcount churn on every retry and zombie.
        let mut stage_pool: Vec<Stage> = Vec::with_capacity(n_clients as usize * 8);
        let mut inflight: Slots<Flight> = Slots::new();
        let mut stations: Vec<Stations> = (0..s).map(|_| Stations::new(&self.spec)).collect();
        let mut in_flight_per_server: Vec<u32> = vec![0; s];
        let mut up: Vec<bool> = vec![true; s];
        let mut parked: VecDeque<Attempt> = VecDeque::new();
        let mut rr_next = 0usize;

        // Pre-schedule the whole outage plan; zero windows => zero
        // events. The plan is checked ordered and disjoint above, and
        // the clock still reads zero, so every edge schedules.
        for server in 0..s {
            for w in faults.windows_for(server) {
                events.schedule(w.down_at, CEv::Down { server });
                events.schedule(w.up_at, CEv::Up { server });
            }
        }

        let inflation = self.inflation();
        let target = warmup + measured;
        let mut window = Window::new(warmup);
        // Drops over the whole run (never reset): drops count toward the
        // termination target so a run where faults starve completions
        // still ends instead of generating retry work forever.
        let mut dropped_total = 0u64;

        macro_rules! try_start {
            ($srv:expr, $res:expr, $now:expr) => {{
                let (server, resource, now) = ($srv, $res, $now);
                stations[server].start(resource, |slot| {
                    let f = &inflight[slot];
                    let svc = f.attempt.stages.of(&stage_pool)[f.next_stage].service;
                    let gen = inflight.gen(slot);
                    let done = CEv::Done {
                        slot,
                        gen,
                        server,
                        resource,
                    };
                    events.schedule(now + svc, done);
                    svc
                });
            }};
        }

        // Picks an eligible server per the dispatch policy; `None` when
        // none is eligible. With `elig == up` (no breakers) this draws
        // exactly what the plain run draws (the bit-for-bit guarantee).
        macro_rules! pick_eligible {
            ($elig:expr) => {{
                let elig: &[bool] = $elig;
                match self.dispatch {
                    Dispatch::RoundRobin => {
                        let mut chosen = None;
                        for _ in 0..s {
                            rr_next = (rr_next + 1) % s;
                            if elig[rr_next] {
                                chosen = Some(rr_next);
                                break;
                            }
                        }
                        chosen
                    }
                    Dispatch::Random => {
                        if elig.iter().all(|&u| u) {
                            Some(dispatch_rng.index(s))
                        } else {
                            let ups: Vec<usize> = (0..s).filter(|&i| elig[i]).collect();
                            if ups.is_empty() {
                                None
                            } else {
                                Some(ups[dispatch_rng.index(ups.len())])
                            }
                        }
                    }
                    Dispatch::LeastLoaded => {
                        let mut best: Option<usize> = None;
                        for i in 0..s {
                            if !elig[i] {
                                continue;
                            }
                            match best {
                                Some(b) if in_flight_per_server[i] >= in_flight_per_server[b] => {}
                                _ => best = Some(i),
                            }
                        }
                        best
                    }
                }
            }};
        }

        // Breaker-aware dispatch: skip servers whose breaker refuses;
        // when every live server refuses, route anyway rather than park
        // (breakers shed failure streaks, they do not model outages).
        macro_rules! pick_server {
            ($now:expr) => {{
                match &mut breakers {
                    None => pick_eligible!(&up),
                    Some(_) if !breakers_touched => pick_eligible!(&up),
                    Some(bs) => {
                        for i in 0..s {
                            elig_buf[i] = up[i] && bs[i].admits($now);
                        }
                        if !elig_buf.iter().any(|&e| e) && up.iter().any(|&u| u) {
                            res_stats.breaker_fast_fails += 1;
                            elig_buf.copy_from_slice(&up);
                        }
                        let picked = pick_eligible!(&elig_buf);
                        if let Some(srv) = picked {
                            bs[srv].note_dispatch();
                        }
                        picked
                    }
                }
            }};
        }

        macro_rules! enqueue {
            ($attempt:expr, $now:expr) => {{
                let attempt: Attempt = $attempt;
                match pick_server!($now) {
                    None => parked.push_back(attempt),
                    Some(server) => {
                        in_flight_per_server[server] += 1;
                        let first = attempt.stages.of(&stage_pool)[0].resource;
                        let slot = inflight.insert(Flight {
                            attempt,
                            next_stage: 0,
                            server,
                            abandoned: false,
                        });
                        if let Some(t) = retry.timeout {
                            let gen = inflight.gen(slot);
                            events.schedule($now + t, CEv::Timeout { slot, gen });
                        }
                        stations[server].push(first, slot);
                        try_start!(server, first, $now);
                    }
                }
            }};
        }

        macro_rules! launch {
            ($now:expr) => {{
                'gen: while window.completed + dropped_total < target {
                    let mut stages = source.next_request(&mut rng);
                    if let Some(b) = &mut budget {
                        b.on_request();
                        res_stats.offered += 1;
                        res_stats.admitted += 1;
                    }
                    if stages.is_empty() {
                        window.complete($now, $now);
                        continue 'gen;
                    }
                    for st in &mut stages {
                        *st = Stage::new(st.resource, st.service * inflation);
                    }
                    let span = StageSpan::push(&mut stage_pool, &stages);
                    enqueue!(Attempt::first(span, $now), $now);
                    break 'gen;
                }
            }};
        }

        // A dispatched attempt failed (crash or timeout): retry with
        // backoff while the per-request attempt budget AND the global
        // retry budget both allow it, else drop and free the client.
        macro_rules! fail_attempt {
            ($attempt:expr, $now:expr) => {{
                let attempt: Attempt = $attempt;
                if may_retry(retry, &mut budget, attempt.no) {
                    window.faults.retries += 1;
                    let delay = retry.backoff_for(attempt.no);
                    events.schedule($now + delay, CEv::Retry(attempt.next()));
                } else {
                    window.faults.dropped += 1;
                    dropped_total += 1;
                    launch!($now);
                }
            }};
        }

        for _ in 0..n_clients {
            launch!(SimTime::ZERO);
        }

        while let Some((now, ev)) = events.pop() {
            match ev {
                CEv::Down { server } => {
                    up[server] = false;
                    // Fail-fast: everything queued or running here dies.
                    let victims: Vec<usize> = (0..inflight.len())
                        .filter(|&slot| inflight.is_live(slot) && inflight[slot].server == server)
                        .collect();
                    stations[server].clear();
                    in_flight_per_server[server] = 0;
                    for slot in victims {
                        inflight.release(slot); // voids pending Done/Timeout
                        if let Some(bs) = &mut breakers {
                            breakers_touched = true;
                            bs[server].record_failure(now);
                        }
                        if !inflight[slot].abandoned {
                            fail_attempt!(inflight[slot].attempt, now);
                        }
                    }
                }
                CEv::Up { server } => {
                    up[server] = true;
                    // Work parked while everything was down re-enters now.
                    while let Some(attempt) = parked.pop_front() {
                        enqueue!(attempt, now);
                    }
                }
                CEv::Timeout { slot, gen } => {
                    if inflight.gen(slot) != gen || inflight[slot].abandoned {
                        continue;
                    }
                    inflight[slot].abandoned = true;
                    window.faults.timeouts += 1;
                    if let Some(bs) = &mut breakers {
                        breakers_touched = true;
                        bs[inflight[slot].server].record_failure(now);
                    }
                    // The zombie keeps draining on the server; the client
                    // moves on sharing the same stage list (the `Attempt`
                    // is copied, nothing is allocated).
                    fail_attempt!(inflight[slot].attempt, now);
                }
                CEv::Retry(attempt) => enqueue!(attempt, now),
                CEv::Done {
                    slot,
                    gen,
                    server,
                    resource,
                } => {
                    if inflight.gen(slot) != gen {
                        continue; // voided by a crash
                    }
                    stations[server].release(resource);
                    inflight[slot].next_stage += 1;
                    let f = &inflight[slot];
                    if f.next_stage >= f.attempt.stages.len() {
                        let (abandoned, started) = (f.abandoned, f.attempt.started);
                        in_flight_per_server[server] -= 1;
                        inflight.release(slot); // voids a pending Timeout
                        if !abandoned {
                            if let Some(bs) = &mut breakers {
                                bs[server].record_success(now);
                            }
                            window.complete(started, now);
                            launch!(now);
                        }
                    } else {
                        let r = f.attempt.stages.of(&stage_pool)[f.next_stage].resource;
                        stations[server].push(r, slot);
                        try_start!(server, r, now);
                    }
                    try_start!(server, resource, now);
                }
            }
            // Drops count toward the target: a fault-starved run ends
            // after the drop budget instead of looping forever.
            if window.completed + dropped_total >= target {
                break;
            }
        }

        let end = events.now();
        let breakers = breakers.as_deref().unwrap_or_default();
        res_stats.finish(budget.as_ref(), breakers, end);
        window.faults.offered = window.measured + window.faults.dropped;
        let utilization = utilization(&stations, end);
        let stats = window.stats(end, utilization, events.obs_stats());
        Ok((stats, res_stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerSim;

    fn exp_cpu(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(us)),
            )]
        }
    }

    #[test]
    fn ideal_cluster_aggregates_single_server_throughput() {
        // The paper's aggregation assumption: 4 ideal servers ~= 4x one.
        let single = ServerSim::new(ServerSpec::new(2))
            .run_closed_loop(&mut exp_cpu(1000), 16, 300, 4000, 7)
            .throughput_rps();
        let cluster = Cluster::ideal(ServerSpec::new(2), 4)
            .unwrap()
            .run_closed_loop(&mut exp_cpu(1000), 64, 300, 8000, 7)
            .unwrap()
            .throughput_rps();
        let ratio = cluster / single;
        assert!((3.7..=4.3).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn scaleout_overhead_erodes_aggregation() {
        let mut lossy = Cluster::ideal(ServerSpec::new(2), 8).unwrap();
        lossy.scaleout_overhead = 0.05; // 5% per doubling
        let ideal = Cluster::ideal(ServerSpec::new(2), 8)
            .unwrap()
            .run_closed_loop(&mut exp_cpu(1000), 128, 300, 8000, 3)
            .unwrap()
            .throughput_rps();
        let eroded = lossy
            .run_closed_loop(&mut exp_cpu(1000), 128, 300, 8000, 3)
            .unwrap()
            .throughput_rps();
        let loss = 1.0 - eroded / ideal;
        // log2(8) * 5% = 15% inflation -> ~13% throughput loss.
        assert!((0.08..=0.20).contains(&loss), "loss {loss}");
    }

    #[test]
    fn least_loaded_beats_random_on_tail_latency() {
        let run = |dispatch| {
            let mut c = Cluster::ideal(ServerSpec::new(1), 8).unwrap();
            c.dispatch = dispatch;
            let stats = c
                .run_closed_loop(&mut exp_cpu(1000), 12, 500, 8000, 11)
                .unwrap();
            stats.latency.percentile(99.0).unwrap()
        };
        let ll = run(Dispatch::LeastLoaded);
        let rnd = run(Dispatch::Random);
        assert!(ll < rnd, "p99: least-loaded {ll} vs random {rnd}");
    }

    #[test]
    fn round_robin_balances_perfectly_with_uniform_work() {
        let c = Cluster {
            dispatch: Dispatch::RoundRobin,
            ..Cluster::ideal(ServerSpec::new(1), 4).unwrap()
        };
        let mut fixed =
            |_rng: &mut SimRng| vec![Stage::new(Resource::Cpu, SimDuration::from_micros(500))];
        let stats = c.run_closed_loop(&mut fixed, 4, 100, 2000, 5).unwrap();
        // 4 clients over 4 servers at 500 us: 8000 RPS, no queueing.
        assert!((stats.throughput_rps() - 8000.0).abs() < 100.0);
        let p95 = stats.latency.percentile(95.0).unwrap();
        assert!(p95 < 6e-4, "p95 {p95}");
    }

    #[test]
    fn inflation_formula() {
        let mut c = Cluster::ideal(ServerSpec::new(1), 16).unwrap();
        c.scaleout_overhead = 0.1;
        assert!((c.inflation() - 1.4).abs() < 1e-12);
        assert_eq!(
            Cluster::ideal(ServerSpec::new(1), 16).unwrap().inflation(),
            1.0
        );
    }

    #[test]
    fn rejects_empty_cluster() {
        assert!(matches!(
            Cluster::ideal(ServerSpec::new(1), 0),
            Err(ConfigError::ZeroCount { param: "servers" })
        ));
    }

    #[test]
    fn rejects_zero_clients_and_window() {
        let c = Cluster::ideal(ServerSpec::new(1), 2).unwrap();
        assert!(c.run_closed_loop(&mut exp_cpu(100), 0, 1, 1, 1).is_err());
        assert!(c.run_closed_loop(&mut exp_cpu(100), 1, 1, 0, 1).is_err());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use wcs_simcore::faults::FaultProcess;

    fn exp_cpu(us: u64) -> impl FnMut(&mut SimRng) -> Vec<Stage> {
        move |rng: &mut SimRng| {
            vec![Stage::new(
                Resource::Cpu,
                rng.exp_duration(SimDuration::from_micros(us)),
            )]
        }
    }

    fn fingerprint(stats: &RunStats) -> (u64, u64, String, String) {
        (
            stats.completed,
            stats.window.as_nanos(),
            format!("{:?}", stats.latency),
            format!("{:?}", stats.utilization),
        )
    }

    #[test]
    fn fail_free_plan_is_bit_identical_to_plain_run() {
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::Random,
        ] {
            let mut c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
            c.dispatch = dispatch;
            let plain = c
                .run_closed_loop(&mut exp_cpu(800), 16, 200, 3000, 21)
                .unwrap();
            let faulted = c
                .run_closed_loop_faulted(
                    &mut exp_cpu(800),
                    16,
                    200,
                    3000,
                    21,
                    &ClusterFaults::fail_free(),
                    &RetryPolicy::none(),
                )
                .unwrap();
            assert_eq!(fingerprint(&plain), fingerprint(&faulted));
            assert_eq!(faulted.faults.timeouts, 0);
            assert_eq!(faulted.faults.dropped, 0);
            assert_eq!(faulted.faults.offered, faulted.completed);
        }
    }

    #[test]
    fn single_server_outage_degrades_but_does_not_stop() {
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        // Server 0 dies at 0.5 s for 1 s, in the middle of the run.
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_secs(1),
        );
        let retry =
            RetryPolicy::new(SimDuration::from_millis(50), 3, SimDuration::from_millis(1)).unwrap();
        let stats = c
            .run_closed_loop_faulted(&mut exp_cpu(1000), 32, 200, 8000, 9, &faults, &retry)
            .unwrap();
        assert_eq!(stats.completed, 8000, "run still completes");
        // The crash kills in-flight work exactly once; retries recover it.
        assert!(stats.faults.retries > 0, "crash should trigger retries");
        assert!(stats.goodput_rps() > 0.0);
        assert!(stats.offered_rps() >= stats.goodput_rps());
    }

    #[test]
    fn dropped_requests_widen_offered_over_goodput() {
        let c = Cluster::ideal(ServerSpec::new(1), 2).unwrap();
        // Both servers down together for a stretch; no retry budget, so
        // crash victims are dropped.
        let mut faults = ClusterFaults::fail_free();
        for srv in 0..2 {
            faults.set_windows(
                srv,
                vec![wcs_simcore::faults::DownWindow {
                    down_at: SimTime::ZERO + SimDuration::from_millis(100),
                    up_at: SimTime::ZERO + SimDuration::from_millis(400),
                }],
            );
        }
        let stats = c
            .run_closed_loop_faulted(
                &mut exp_cpu(1000),
                8,
                100,
                4000,
                13,
                &faults,
                &RetryPolicy::none(),
            )
            .unwrap();
        assert!(stats.faults.dropped > 0, "crash victims are dropped");
        assert_eq!(stats.faults.offered, stats.completed + stats.faults.dropped);
        assert!(stats.offered_rps() > stats.goodput_rps());
    }

    #[test]
    fn timeouts_fire_on_slow_requests() {
        let c = Cluster::ideal(ServerSpec::new(1), 1).unwrap();
        // 10 eager clients on one 1-core server: queueing delay ~10 ms,
        // but the timeout is 3 ms, so waits blow the budget constantly.
        let retry = RetryPolicy::new(
            SimDuration::from_millis(3),
            1,
            SimDuration::from_micros(100),
        )
        .unwrap();
        let stats = c
            .run_closed_loop_faulted(
                &mut exp_cpu(1000),
                10,
                100,
                2000,
                5,
                &ClusterFaults::fail_free(),
                &retry,
            )
            .unwrap();
        assert!(stats.faults.timeouts > 0, "timeouts {:?}", stats.faults);
        assert!(stats.faults.retries > 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let p =
            FaultProcess::exponential(SimDuration::from_millis(300), SimDuration::from_millis(40))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(30), 77);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(20), 2, SimDuration::from_millis(1)).unwrap();
        let run = || {
            c.run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 4000, 31, &faults, &retry)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.window, b.window);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn disabled_resilience_is_bit_identical_to_faulted_run() {
        use crate::resilience::ResilienceConfig;
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let p =
            FaultProcess::exponential(SimDuration::from_millis(300), SimDuration::from_millis(40))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(30), 77);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(20), 2, SimDuration::from_millis(1)).unwrap();
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::Random,
        ] {
            let mut cl = c.clone();
            cl.dispatch = dispatch;
            let plain = cl
                .run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 4000, 31, &faults, &retry)
                .unwrap();
            let (run, res) = cl
                .run_closed_loop_resilient(
                    &mut exp_cpu(900),
                    24,
                    200,
                    4000,
                    31,
                    &faults,
                    &retry,
                    &ResilienceConfig::disabled(),
                )
                .unwrap();
            assert_eq!(fingerprint(&plain), fingerprint(&run));
            assert_eq!(plain.faults, run.faults);
            assert_eq!(res, crate::resilience::ResilienceStats::default());
        }
    }

    #[test]
    fn retry_budget_caps_amplification_under_fault_storm() {
        use crate::resilience::{ResilienceConfig, RetryBudgetConfig};
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        // Churning faults + a generous per-request retry allowance: the
        // unconditional path would amplify; the budget must hold the line.
        let p =
            FaultProcess::exponential(SimDuration::from_millis(120), SimDuration::from_millis(30))
                .unwrap();
        let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(60), 5);
        let retry =
            RetryPolicy::new(SimDuration::from_millis(10), 8, SimDuration::from_millis(1)).unwrap();
        let budget = RetryBudgetConfig {
            ratio: 0.01,
            initial: 2.0,
            cap: 8.0,
        };
        let cfg = ResilienceConfig {
            retry_budget: Some(budget),
            ..ResilienceConfig::disabled()
        };
        let (stats, res) = c
            .run_closed_loop_resilient(&mut exp_cpu(900), 24, 200, 6000, 31, &faults, &retry, &cfg)
            .unwrap();
        assert!(res.offered > 0);
        let ceiling = budget.initial + budget.ratio * res.offered as f64;
        assert!(
            (res.retries_spent as f64) <= ceiling + 1e-9,
            "spent {} > ceiling {ceiling}",
            res.retries_spent
        );
        assert!(res.retries_denied > 0, "storm must exhaust the budget");
        assert!(stats.completed > 0);
        // Unbudgeted comparison run: strictly more retries granted.
        let unbudgeted = c
            .run_closed_loop_faulted(&mut exp_cpu(900), 24, 200, 6000, 31, &faults, &retry)
            .unwrap();
        assert!(
            unbudgeted.faults.retries + unbudgeted.faults.dropped > 0,
            "storm is real"
        );
    }

    #[test]
    fn breakers_trip_on_outage_and_run_recovers() {
        use crate::resilience::{BreakerConfig, ResilienceConfig};
        let c = Cluster::ideal(ServerSpec::new(2), 4).unwrap();
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(200),
            SimDuration::from_millis(800),
        );
        let retry =
            RetryPolicy::new(SimDuration::from_millis(30), 3, SimDuration::from_millis(1)).unwrap();
        let cfg = ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_for: SimDuration::from_millis(50),
                jitter: 0.2,
                half_open_probes: 2,
            }),
            ..ResilienceConfig::disabled()
        };
        let (stats, res) = c
            .run_closed_loop_resilient(&mut exp_cpu(1000), 32, 200, 6000, 9, &faults, &retry, &cfg)
            .unwrap();
        assert_eq!(stats.completed, 6000, "run completes despite the trip");
        assert!(res.breaker_trips > 0, "outage victims trip the breaker");
        assert!(res.breaker_open_ns > 0);
        // Determinism of the resilient path.
        let (stats2, res2) = c
            .run_closed_loop_resilient(&mut exp_cpu(1000), 32, 200, 6000, 9, &faults, &retry, &cfg)
            .unwrap();
        assert_eq!(stats.completed, stats2.completed);
        assert_eq!(stats.window, stats2.window);
        assert_eq!(res, res2);
    }

    fn window(down_ms: u64, up_ms: u64) -> wcs_simcore::faults::DownWindow {
        wcs_simcore::faults::DownWindow {
            down_at: SimTime::ZERO + SimDuration::from_millis(down_ms),
            up_at: SimTime::ZERO + SimDuration::from_millis(up_ms),
        }
    }

    #[test]
    fn malformed_outage_plans_are_rejected() {
        let c = Cluster::ideal(ServerSpec::new(1), 2).unwrap();
        let inverted = vec![window(300, 100)];
        let overlapping = vec![window(100, 300), window(200, 400)];
        for windows in [inverted, overlapping] {
            let mut faults = ClusterFaults::fail_free();
            faults.set_windows(1, windows);
            let run = c.run_closed_loop_faulted(
                &mut exp_cpu(500),
                4,
                50,
                500,
                3,
                &faults,
                &RetryPolicy::none(),
            );
            assert!(
                matches!(run, Err(ConfigError::OutOfRange { .. })),
                "{run:?}"
            );
        }
        // Touching windows and zero-length outages are well formed.
        let mut faults = ClusterFaults::fail_free();
        faults.set_windows(
            1,
            vec![window(100, 100), window(100, 200), window(200, 300)],
        );
        let run = c.run_closed_loop_faulted(
            &mut exp_cpu(500),
            4,
            50,
            500,
            3,
            &faults,
            &RetryPolicy::none(),
        );
        assert_eq!(run.unwrap().faults.plan_skipped, 0);
    }

    #[test]
    fn whole_cluster_outage_parks_and_recovers() {
        let c = Cluster::ideal(ServerSpec::new(1), 1).unwrap();
        let faults = ClusterFaults::single_outage(
            0,
            SimTime::ZERO + SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        );
        let retry = RetryPolicy::new(
            SimDuration::from_millis(500),
            5,
            SimDuration::from_millis(1),
        )
        .unwrap();
        // With a generous timeout and retry budget, all work eventually
        // completes after the repair.
        let stats = c
            .run_closed_loop_faulted(&mut exp_cpu(500), 4, 50, 1000, 3, &faults, &retry)
            .unwrap();
        assert_eq!(stats.completed, 1000);
        assert!(stats.faults.retries > 0);
    }
}
