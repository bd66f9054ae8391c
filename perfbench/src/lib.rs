//! Cold-study benchmark of the wcs evaluation pipeline.
//!
//! Three workloads, each a closed loop of cold study passes issued one at
//! a time from a single process:
//!
//! * `fig5_cold`: `evaluate` on srvr1, then N1, then N2, the calls the
//!   `fig5` bin makes. Memory-trace generation and memshare replay
//!   dominate it.
//! * `fig2c_grid`: `sweep_platforms`, every catalog platform times the
//!   five paper workloads. Closed-loop QoS search and batch makespan
//!   only; no memshare or storage replay, so a change to those layers
//!   predicts no change here.
//! * `traffic_chaos`: five workloads under every default traffic pack on
//!   srvr1 and N1, once plain and once under the standard resilience
//!   spec, both evaluators sharing one memo. The open-loop and resilient
//!   simulator loops dominate it.
//!
//! Every pass builds a fresh [`Evaluator`], so its memo starts empty.
//! The pass's results are rendered (one `Debug` line per result, as the
//! repository's own determinism tests render them) and hashed; a
//! [`DigestGate`] requires the digest to repeat across passes and thread
//! counts and, at the default seed, to equal a pinned value.

pub mod metrics;
pub mod probe;
pub mod staged;

use std::fmt::{Debug, Display, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};

use wcs_core::designs::DesignPoint;
use wcs_core::evaluate::{DesignEval, EvalBuilder, Evaluator};
use wcs_core::scenario::{ResilienceSpec, ScenarioEval};
use wcs_core::sweeps::{sweep_platforms, Sweep};
use wcs_platforms::PlatformId;
use wcs_simcore::obs::Registry;
use wcs_workloads::calib::{rmse, Residual, GRID_PLATFORMS, PAPER_PERF_GRID};
use wcs_workloads::{Metric, ScenarioSpec, TrafficPack, WorkloadId, WorkloadKey};

/// The evaluator's default measurement seed; renders at this seed are
/// pinned in [`pinned_digest`].
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The paper's Figure 5 anchors: HMean Perf/TCO-$ of N1 and N2 relative
/// to srvr1.
pub const FIG5_ANCHORS: [f64; 2] = [1.5, 2.0];

/// The workloads of `traffic_chaos`, in render order.
pub const TRAFFIC_WORKLOADS: [&str; 5] = ["websearch", "webmail", "ytube", "faas", "dag-analytics"];

/// FNV-1a over a render.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5: srvr1, N1, N2 through `evaluate`.
    Fig5Cold,
    /// Figure 2(c): `sweep_platforms`.
    Fig2cGrid,
    /// Traffic packs, plain and under the resilience layer.
    TrafficChaos,
}

impl Workload {
    /// Every workload, in the order the benchmark declares them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Cold,
        Workload::Fig2cGrid,
        Workload::TrafficChaos,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Cold => "fig5_cold",
            Workload::Fig2cGrid => "fig2c_grid",
            Workload::TrafficChaos => "traffic_chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulation effort of every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's full-accuracy profile (what the study bins run).
    Paper,
    /// The reduced-effort profile, for the benchmark's own tests.
    Quick,
}

/// What one pass's study calls returned. A call that failed or
/// panicked is kept as its message, so a failure renders (and counts)
/// instead of aborting the run.
#[derive(Debug)]
pub enum Outcome {
    /// srvr1, N1, N2 in that order.
    Fig5(Vec<Result<DesignEval, String>>),
    /// The platform sweep.
    Fig2c(Result<Sweep, String>),
    /// One entry per `(mode, design)`: every plain design first, then
    /// every armed one; each holds the evaluations in spec order.
    Traffic(Vec<Result<Vec<ScenarioEval>, String>>),
}

/// Runs `f`, turning an error or a panic into its message.
pub fn guarded<T, E: Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(match panic.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match panic.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_owned(),
            },
        }),
    }
}

fn render_line<T: Debug>(out: &mut String, r: &Result<T, String>) {
    match r {
        Ok(v) => {
            let _ = writeln!(out, "{v:?}");
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

impl Outcome {
    /// The canonical byte-comparable render.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Outcome::Fig5(evals) => evals.iter().for_each(|r| render_line(&mut out, r)),
            Outcome::Fig2c(sweep) => render_line(&mut out, sweep),
            Outcome::Traffic(calls) => {
                for call in calls {
                    match call {
                        Ok(evals) => evals.iter().for_each(|e| render_line(&mut out, &Ok(e))),
                        Err(e) => render_line::<()>(&mut out, &Err(e.clone())),
                    }
                }
            }
        }
        out
    }

    /// Cells that failed or panicked, given the cells of one call.
    pub fn failed_cells(&self, inputs: &Inputs) -> u64 {
        let per_call = inputs.cells_per_call();
        let failed_calls = match self {
            Outcome::Fig5(evals) => evals.iter().filter(|r| r.is_err()).count(),
            Outcome::Fig2c(sweep) => usize::from(sweep.is_err()),
            Outcome::Traffic(calls) => calls.iter().filter(|r| r.is_err()).count(),
        };
        failed_calls as u64 * per_call
    }

    /// Mean absolute deviation of N1's and N2's HMean Perf/TCO-$ (vs
    /// srvr1) from the paper's 1.5 and 2.0, when this is a complete
    /// Figure 5 pass.
    pub fn fig5_anchor_err(&self) -> Option<f64> {
        let Outcome::Fig5(evals) = self else {
            return None;
        };
        let [Ok(base), Ok(n1), Ok(n2)] = evals.as_slice() else {
            return None;
        };
        let err: f64 = [n1, n2]
            .iter()
            .zip(FIG5_ANCHORS)
            .map(|(e, paper)| (e.compare(base).hmean(|r| r.perf_per_tco) - paper).abs())
            .sum();
        Some(err / FIG5_ANCHORS.len() as f64)
    }

    /// RMSE of the sweep's relative performance against the paper's
    /// Figure 2(c) grid, with the scorecard's exclusions (emb2, and mobl
    /// on mapred-wr), when this is a complete sweep pass.
    pub fn fig2c_rmse(&self) -> Option<f64> {
        let Outcome::Fig2c(Ok(sweep)) = self else {
            return None;
        };
        let mut residuals: Vec<Residual> = Vec::new();
        for (wi, &w) in WorkloadId::ALL.iter().enumerate() {
            let base = sweep.baseline.perf[&w];
            for (pi, &p) in GRID_PLATFORMS.iter().enumerate() {
                let point = sweep.points.iter().find(|pt| pt.label == p.label())?;
                residuals.push(Residual {
                    workload: w,
                    platform: p,
                    paper: PAPER_PERF_GRID[wi][pi],
                    measured: point.eval.perf[&w] / base,
                });
            }
        }
        residuals.retain(|r| {
            r.platform != PlatformId::Emb2
                && !(r.platform == PlatformId::Mobl && r.workload == WorkloadId::MapredWr)
        });
        Some(rmse(&residuals))
    }
}

/// Everything a pass needs, built once before the first pass: this is
/// the benchmark's set-up.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Simulation effort.
    pub profile: Profile,
    /// The workload seed, passed to `EvalBuilder::seed`.
    pub seed: u64,
    /// The designs the study evaluates, in call order. For
    /// `fig2c_grid` this is the list `sweep_platforms` evaluates.
    pub designs: Vec<DesignPoint>,
    /// `traffic_chaos` only: workload x pack, in render order.
    pub specs: Vec<ScenarioSpec>,
}

impl Inputs {
    /// Builds the inputs of `workload` for `seed`.
    pub fn new(workload: Workload, profile: Profile, seed: u64) -> Inputs {
        let (designs, specs) = match workload {
            Workload::Fig5Cold => (
                vec![
                    DesignPoint::baseline_srvr1(),
                    DesignPoint::n1(),
                    DesignPoint::n2(),
                ],
                Vec::new(),
            ),
            Workload::Fig2cGrid => {
                let mut designs = vec![DesignPoint::baseline_srvr1()];
                designs.extend(PlatformId::ALL.iter().map(|&id| DesignPoint::baseline(id)));
                (designs, Vec::new())
            }
            Workload::TrafficChaos => {
                let specs = TRAFFIC_WORKLOADS
                    .iter()
                    .flat_map(|name| {
                        TrafficPack::defaults()
                            .into_iter()
                            .map(move |pack| ScenarioSpec::steady(name).with_traffic(pack))
                    })
                    .collect();
                (
                    vec![DesignPoint::baseline_srvr1(), DesignPoint::n1()],
                    specs,
                )
            }
        };
        Inputs {
            workload,
            profile,
            seed,
            designs,
            specs,
        }
    }

    /// A fresh evaluator (empty memo) with `threads` pool threads,
    /// recording into `obs`.
    pub fn evaluator(&self, threads: usize, obs: Registry) -> Evaluator {
        let mut b = EvalBuilder::paper();
        if self.profile == Profile::Quick {
            b = b.quick();
        }
        b.threads(threads)
            .expect("thread count is positive")
            .obs(obs)
            .seed(self.seed)
            .build()
            .expect("benchmark evaluator configuration is valid")
    }

    /// Cells one study call covers: a design's five workloads, a whole
    /// sweep, or one design's scenario slate.
    pub fn cells_per_call(&self) -> u64 {
        match self.workload {
            Workload::Fig5Cold => WorkloadId::ALL.len() as u64,
            Workload::Fig2cGrid => (self.designs.len() * WorkloadId::ALL.len()) as u64,
            Workload::TrafficChaos => self.specs.len() as u64,
        }
    }

    /// Cells one pass attempts.
    pub fn cells(&self) -> u64 {
        let calls = match self.workload {
            Workload::Fig5Cold => self.designs.len(),
            Workload::Fig2cGrid => 1,
            Workload::TrafficChaos => 2 * self.designs.len(),
        };
        calls as u64 * self.cells_per_call()
    }

    /// Runs one pass of the study on `eval`.
    pub fn pass(&self, eval: &Evaluator) -> Outcome {
        match self.workload {
            Workload::Fig5Cold => Outcome::Fig5(
                self.designs
                    .iter()
                    .map(|d| guarded(|| eval.evaluate(d)))
                    .collect(),
            ),
            Workload::Fig2cGrid => Outcome::Fig2c(guarded(|| sweep_platforms(eval))),
            Workload::TrafficChaos => {
                let armed = armed(eval);
                let mut calls = Vec::new();
                for e in [eval, &armed] {
                    for d in &self.designs {
                        calls.push(guarded(|| e.evaluate_scenarios(d, &self.specs)));
                    }
                }
                Outcome::Traffic(calls)
            }
        }
    }
}

/// The plain evaluator under the standard resilience spec, sharing its
/// memo, pool and registry, so each steady capacity is searched once.
pub fn armed(plain: &Evaluator) -> Evaluator {
    Evaluator {
        resilience: Some(ResilienceSpec::standard()),
        ..plain.clone()
    }
}

/// Whether a paper or registry workload is scored by batch makespan
/// (mapred, dag-analytics) rather than by closed-loop QoS search.
pub fn is_batch(key: WorkloadKey) -> bool {
    wcs_workloads::registry::resolve(key)
        .is_some_and(|entry| matches!(entry.workload.metric, Metric::Batch { .. }))
}

/// The digest of the default-seed render, per workload and profile.
/// Only a change that alters simulated results may move these.
pub fn pinned_digest(workload: Workload, profile: Profile, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    Some(match (workload, profile) {
        (Workload::Fig5Cold, Profile::Paper) => 0xd887_aed0_0d1b_12b7,
        (Workload::Fig2cGrid, Profile::Paper) => 0x66fd_9cf0_a792_df22,
        (Workload::TrafficChaos, Profile::Paper) => 0x8687_fe05_9c0a_6285,
        (Workload::Fig5Cold, Profile::Quick) => 0x05a6_a711_4244_9bac,
        (Workload::Fig2cGrid, Profile::Quick) => 0x7884_2936_522e_3ef2,
        (Workload::TrafficChaos, Profile::Quick) => 0xcfd1_9952_0aca_fa63,
    })
}

/// The correctness gate: every pass's render digest must equal the
/// first one, and the pinned digest when there is one.
#[derive(Debug, Default)]
pub struct DigestGate {
    pin: Option<u64>,
    first: Option<u64>,
    failures: Vec<String>,
}

impl DigestGate {
    /// A gate expecting `pin` (if any).
    pub fn new(pin: Option<u64>) -> DigestGate {
        DigestGate {
            pin,
            ..DigestGate::default()
        }
    }

    /// Checks one pass's digest; `label` names the pass in a failure.
    pub fn check(&mut self, label: &str, digest: u64) {
        let first = *self.first.get_or_insert(digest);
        if digest != first {
            self.failures.push(format!(
                "{label}: digest {digest:016x} != first pass {first:016x}"
            ));
        }
        if let Some(pin) = self.pin.filter(|&p| p != digest) {
            self.failures.push(format!(
                "{label}: digest {digest:016x} != pinned {pin:016x}"
            ));
        }
    }

    /// The first digest seen.
    pub fn digest(&self) -> Option<u64> {
        self.first
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
