//! Golden pins for every simserver driver.
//!
//! Each test renders a driver's full result with `Debug` and pins the
//! FNV-64 of that render. The constants were captured from the
//! hand-rolled event loops that predate the shared station kernel, so
//! they prove a refactor of the loops leaves every schedule, RNG draw
//! and accounting edge where it was. A pin moves only when a driver's
//! behaviour is meant to change.
//!
//! The request source mixes empty requests (which complete on arrival)
//! with requests that touch all four stations, on a server whose
//! stations have different server counts.

use wcs_simcore::faults::{DownWindow, FaultProcess};
use wcs_simcore::{SimDuration, SimRng, SimTime};
use wcs_simserver::{
    run_batch, run_open_loop_profiled, run_open_loop_resilient, trace_closed_loop, AdmissionConfig,
    BreakerConfig, Cluster, ClusterFaults, Dispatch, RateProfile, ResilienceConfig, Resource,
    RetryBudgetConfig, RetryPolicy, ServerSim, ServerSpec, Stage,
};

/// FNV-1a over a render.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_pin(name: &str, render: &str, want: u64) {
    let got = fnv64(render);
    assert_eq!(
        got, want,
        "{name}: render fnv64 {got:#018x}, pinned {want:#018x}"
    );
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn at_ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// Two cores, one memory channel, two disks, one NIC.
fn spec() -> ServerSpec {
    ServerSpec {
        cores: 2,
        memory_channels: 1,
        disks: 2,
        nics: 1,
    }
}

/// One request in ten is empty; the rest run CPU, then maybe memory,
/// maybe disk, then the NIC.
fn mixed(rng: &mut SimRng) -> Vec<Stage> {
    if rng.chance(0.1) {
        return Vec::new();
    }
    let mut stages = vec![Stage::new(Resource::Cpu, rng.exp_duration(us(400)))];
    if rng.chance(0.5) {
        stages.push(Stage::new(Resource::Memory, rng.exp_duration(us(150))));
    }
    if rng.chance(0.3) {
        stages.push(Stage::new(Resource::Disk, rng.exp_duration(us(900))));
    }
    stages.push(Stage::new(Resource::Net, rng.exp_duration(us(120))));
    stages
}

#[test]
fn closed_loop_pins() {
    let sim = ServerSim::new(spec());
    let eager = sim.run_closed_loop_think(&mut mixed, 6, None, 300, 3000, 11);
    assert_pin(
        "closed loop, no think",
        &format!("{eager:?}"),
        0x6effc41d1d0d05ca,
    );
    let thinking = sim.run_closed_loop_think(&mut mixed, 12, Some(us(2500)), 300, 3000, 12);
    assert_pin(
        "closed loop, think",
        &format!("{thinking:?}"),
        0x3fb94c5ad2e4afc3,
    );
}

#[test]
fn trace_pins() {
    let traces = trace_closed_loop(spec(), &mut mixed, 5, 1500, 13);
    assert_pin("trace", &format!("{traces:?}"), 0x2503d0961c95bacd);
    let one = trace_closed_loop(ServerSpec::new(1), &mut mixed, 1, 200, 14);
    assert_pin("trace, one client", &format!("{one:?}"), 0x9dfd21203b58d420);
}

#[test]
fn open_loop_profiled_pins() {
    let constant = run_open_loop_profiled(
        spec(),
        &mut mixed,
        1800.0,
        &RateProfile::constant(),
        300,
        4000,
        15,
    );
    assert_pin(
        "open loop, constant",
        &format!("{constant:?}"),
        0x98534bbf6c2bd6b2,
    );
    let profile = RateProfile::new(SimDuration::from_millis(250), vec![0.5, 1.0, 2.5, 0.8]);
    let shaped = run_open_loop_profiled(spec(), &mut mixed, 1500.0, &profile, 300, 4000, 16);
    assert_pin(
        "open loop, 4 segments",
        &format!("{shaped:?}"),
        0xe5277dbebdd7e11b,
    );
}

#[test]
fn open_loop_resilient_pin() {
    let outages = [
        DownWindow {
            down_at: at_ms(400),
            up_at: at_ms(700),
        },
        DownWindow {
            down_at: at_ms(1200),
            up_at: at_ms(1350),
        },
    ];
    let retry =
        RetryPolicy::new(SimDuration::from_millis(50), 3, SimDuration::from_millis(2)).unwrap();
    let cfg = ResilienceConfig {
        admission: Some(AdmissionConfig {
            rate_rps: 1900.0,
            burst: 48.0,
            low_reserve: 6.0,
            low_fraction: 0.25,
        }),
        retry_budget: Some(RetryBudgetConfig {
            ratio: 0.05,
            initial: 4.0,
            cap: 32.0,
        }),
        breaker: Some(BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_millis(400),
            jitter: 0.2,
            half_open_probes: 2,
        }),
    };
    let profile = RateProfile::new(SimDuration::from_millis(300), vec![1.0, 1.6, 0.7]);
    let run = run_open_loop_resilient(
        spec(),
        &mut mixed,
        1700.0,
        &profile,
        300,
        4000,
        17,
        &outages,
        &retry,
        &cfg,
    );
    assert_pin(
        "open loop, resilient",
        &format!("{run:?}"),
        0xd602ebd7daee11c3,
    );
}

#[test]
fn cluster_pins() {
    let p = FaultProcess::exponential(SimDuration::from_millis(120), SimDuration::from_millis(60))
        .unwrap();
    let faults = ClusterFaults::from_processes(&[p, p, p, p], SimDuration::from_secs(30), 18);
    let retry =
        RetryPolicy::new(SimDuration::from_millis(4), 2, SimDuration::from_millis(1)).unwrap();
    let guarded = ResilienceConfig {
        retry_budget: Some(RetryBudgetConfig {
            ratio: 0.02,
            initial: 3.0,
            cap: 16.0,
        }),
        breaker: Some(BreakerConfig {
            failure_threshold: 2,
            open_for: SimDuration::from_millis(20),
            jitter: 0.25,
            half_open_probes: 1,
        }),
        ..ResilienceConfig::disabled()
    };
    let cases = [
        (
            "fail-free",
            ClusterFaults::fail_free(),
            RetryPolicy::none(),
            ResilienceConfig::disabled(),
        ),
        (
            "faulted",
            faults.clone(),
            retry,
            ResilienceConfig::disabled(),
        ),
        ("budget+breaker", faults, retry, guarded),
    ];
    // Rows: round-robin, least-loaded, random. Columns: `cases`.
    let pins: [[u64; 3]; 3] = [
        [0x3249d69fe6cc239a, 0xf859ceabd18896f2, 0x087445840759a815],
        [0x7fd5939a088322d2, 0x7282caebbbad7f0a, 0xe6ce078823499cd2],
        [0x177009d2e9347718, 0x4b226c4f1aef1eec, 0x363fac89cad02a08],
    ];
    for (d, dispatch) in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::Random,
    ]
    .into_iter()
    .enumerate()
    {
        let cluster = Cluster {
            dispatch,
            scaleout_overhead: 0.03,
            ..Cluster::ideal(spec(), 4).unwrap()
        };
        for (c, (name, plan, retry, res)) in cases.iter().enumerate() {
            let run = cluster
                .run_closed_loop_resilient(&mut mixed, 24, 300, 3000, 19, plan, retry, res)
                .unwrap();
            assert_pin(
                &format!("cluster {dispatch:?} {name}"),
                &format!("{run:?}"),
                pins[d][c],
            );
        }
    }
}

#[test]
fn batch_pins() {
    let mut rng = SimRng::seed_from(20);
    let drawn: Vec<Vec<Stage>> = (0..400).map(|_| mixed(&mut rng)).collect();
    let drawn_run = run_batch(spec(), drawn, 6);
    assert_pin(
        "batch, drawn tasks",
        &format!("{drawn_run:?}"),
        0xd3c5b442adbfa6ad,
    );

    // Equal service times make every completion instant an epoch of
    // many events.
    let equal: Vec<Vec<Stage>> = (0..96)
        .map(|i| {
            let mut t = vec![Stage::new(Resource::Cpu, us(1000))];
            if i % 2 == 0 {
                t.push(Stage::new(Resource::Disk, us(500)));
            }
            t.push(Stage::new(Resource::Net, us(250)));
            t
        })
        .collect();
    let dense = run_batch(spec(), equal, 8);
    assert_pin(
        "batch, equal service",
        &format!("{dense:?}"),
        0xf864d47ce62a6f87,
    );

    let with_empty: Vec<Vec<Stage>> = (0..40)
        .map(|i| {
            if i % 3 == 0 {
                Vec::new()
            } else {
                vec![
                    Stage::new(Resource::Memory, us(200)),
                    Stage::new(Resource::Cpu, us(300 + 10 * i)),
                ]
            }
        })
        .collect();
    let sparse = run_batch(ServerSpec::new(1), with_empty, 3);
    assert_pin(
        "batch, empty tasks",
        &format!("{sparse:?}"),
        0xf3707b7a987c04c3,
    );
}
