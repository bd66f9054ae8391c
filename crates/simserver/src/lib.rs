//! Queueing-network server performance simulator.
//!
//! This crate plays the role the COTSon full-system simulator plays in the
//! paper: given a platform and a workload, it produces the sustainable
//! throughput under the workload's QoS bound.
//!
//! A server is modelled as four service stations:
//!
//! * **CPU** — an `m`-server FCFS queue (`m` = hardware cores),
//! * **Memory** — a single-server station modelling capacity-driven
//!   admission work (buffer-cache churn, index residency),
//! * **Disk** and **NIC** — single-server FCFS queues.
//!
//! A request visits stations in a workload-defined stage sequence. Clients
//! are **closed-loop**: `n` concurrent clients each keep exactly one
//! request in flight, mirroring the paper's client driver, which "adapts
//! the number of simultaneous clients according to recently observed QoS
//! results, to achieve the highest level of throughput without
//! overloading the servers". [`driver::find_max_throughput`] performs that
//! adaptation: it searches for the largest client count whose p95 latency
//! still meets the QoS bound and reports the throughput there.
//!
//! # Drivers
//!
//! Four drivers run this model. Each owns its event loop and its arrival
//! process; all of them queue, start and account for work through one
//! shared station kernel, so the FCFS station logic is written once.
//!
//! * [`ServerSim`] — the closed loop, with optional think time.
//!   [`trace_closed_loop`] is the same loop, watched through a visit hook.
//! * [`Cluster`] — many servers behind a dispatcher, with outage plans,
//!   timeouts, retries and the resilience layer.
//! * [`run_open_loop`], [`run_open_loop_profiled`] and
//!   [`run_open_loop_resilient`] — Poisson arrivals, optionally
//!   rate-modulated, against one blade that may fail. The first two are
//!   the resilient loop with no outages and the layer disabled.
//! * [`run_batch`] — a fixed task set run to completion (makespan).
//!
//! # Example
//! ```
//! use wcs_simcore::{SimDuration, SimRng};
//! use wcs_simserver::{Resource, ServerSpec, Stage, ServerSim, RequestSource};
//!
//! struct Fixed;
//! impl RequestSource for Fixed {
//!     fn next_request(&mut self, _rng: &mut SimRng) -> Vec<Stage> {
//!         vec![Stage::new(Resource::Cpu, SimDuration::from_micros(500))]
//!     }
//! }
//!
//! let spec = ServerSpec::new(2); // two cores
//! let stats = ServerSim::new(spec).run_closed_loop(&mut Fixed, 4, 100, 1000, 7);
//! assert!(stats.throughput_rps() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cluster;
pub mod driver;
mod engine;
pub mod failover;
mod kernel;
pub mod openloop;
mod request;
pub mod resilience;
pub mod tracing;

pub use batch::{run_batch, BatchResult};
pub use cluster::{Cluster, Dispatch};
pub use driver::{find_max_throughput, QosSpec, ThroughputResult};
pub use engine::{RunStats, ServerSim, ServerSpec};
pub use failover::{ClusterFaults, FaultStats, RetryPolicy};
pub use openloop::{run_open_loop, run_open_loop_profiled, run_open_loop_resilient, RateProfile};
pub use request::{RequestSource, Resource, Stage};
pub use resilience::{
    AdmissionConfig, BreakerConfig, CircuitBreaker, Priority, ResilienceConfig, ResilienceStats,
    RetryBudget, RetryBudgetConfig, TokenBucket,
};
pub use tracing::{trace_closed_loop, RequestTrace, StageVisit};
