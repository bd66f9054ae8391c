//! The benchmark process: one workload, one seed.
//!
//! ```text
//! perfbench setup --workload <name> --seed <n> [--quick]
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --scratch <dir> [--quick]
//! ```
//!
//! Both modes print `ready` once the inputs are built; `setup` then
//! exits, so the runner can time set-up from process start. `run` then
//! measures cold passes for `--seconds`, each in a fresh empty directory
//! under `--scratch`, and prints a context line and, last, the result
//! line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones (all but
//! `setup_s`, which the runner adds), pass times scaled to the reference
//! host speed by the probe in `perfbench::probe`; with `--trace 1` they
//! are the per-layer ones.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::metrics::{self, EndToEnd, RunLayers};
use perfbench::probe::{at_reference_speed, probe_secs};
use perfbench::staged::{check_consistency, staged_pass, timer_sum_ns, LayerReport};
use perfbench::{fnv64, pinned_digest, DigestGate, Inputs, Outcome, Profile, Workload};
use wcs_core::validate::run_scorecard;
use wcs_simcore::memo::MemoStats;
use wcs_simcore::obs::Registry;

struct Args {
    setup_only: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: Option<PathBuf>,
    profile: Profile,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let setup_only = match it.next().as_deref() {
        Some("setup") => true,
        Some("run") => false,
        other => return Err(format!("expected `setup` or `run`, got {other:?}")),
    };
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
        (None, None, None, None, None);
    let mut profile = Profile::Paper;
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            profile = Profile::Quick;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if setup_only {
        return Ok(Args {
            setup_only,
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            scratch: None,
            profile,
        });
    }
    Ok(Args {
        setup_only,
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: Some(scratch.ok_or("--scratch is required")?),
        profile,
    })
}

/// Runs each pass in a fresh empty directory and fails the pass if it
/// leaves anything there, so no on-disk state can warm a later pass.
struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    fn new(root: PathBuf) -> Result<Scratch, String> {
        fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let root = root
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    fn run<T>(&mut self, f: impl FnOnce() -> T) -> Result<T, String> {
        let dir = self.root.join(format!("pass-{}", self.next));
        self.next += 1;
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        fs::create_dir(&dir).map_err(io)?;
        std::env::set_current_dir(&dir).map_err(io)?;
        let v = f();
        std::env::set_current_dir(&self.root).map_err(io)?;
        let left = fs::read_dir(&dir).map_err(io)?.count();
        fs::remove_dir_all(&dir).map_err(io)?;
        if left > 0 {
            return Err(format!(
                "a pass left {left} entries in its working directory"
            ));
        }
        Ok(v)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Everything the run accumulates across passes.
struct Run {
    inputs: Inputs,
    scratch: Scratch,
    gate: DigestGate,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// One timed cold pass.
struct Pass {
    secs: f64,
    outcome: Outcome,
    memo: MemoStats,
}

impl Run {
    fn check(&mut self, label: &str, outcome: &Outcome) {
        self.gate.check(label, fnv64(&outcome.render()));
        self.attempted += self.inputs.cells();
        self.failed += outcome.failed_cells(&self.inputs);
    }

    /// A cold pass at `threads`, timed from evaluator build to the last
    /// study call.
    fn pass(&mut self, threads: usize, obs: Registry) -> Option<Pass> {
        let inputs = &self.inputs;
        let pass = self.scratch.run(|| {
            let t = Instant::now();
            let eval = inputs.evaluator(threads, obs);
            let outcome = inputs.pass(&eval);
            Pass {
                secs: t.elapsed().as_secs_f64(),
                outcome,
                memo: eval.memo.stats(),
            }
        });
        match pass {
            Ok(p) => {
                self.check(&format!("t{threads} pass"), &p.outcome);
                Some(p)
            }
            Err(e) => {
                self.errors.push(e);
                None
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.workload, args.profile, args.seed);
    println!("ready");
    let _ = std::io::stdout().flush();
    if args.setup_only {
        return ExitCode::SUCCESS;
    }
    match run(&args, inputs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, inputs: Inputs) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pin = pinned_digest(args.workload, args.profile, args.seed);
    let scratch = Scratch::new(args.scratch.clone().expect("run mode has a scratch dir"))?;
    let mut run = Run {
        inputs,
        scratch,
        gate: DigestGate::new(pin),
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    // Trace-0 passes: (raw seconds, probe seconds) per thread count.
    let (mut raw1, mut rawn) = (Vec::new(), Vec::new());
    let mut first: Option<Outcome> = None;
    let mut peak = None;
    let metrics = if !args.trace {
        // Interleave the thread counts, alternating which goes first, so
        // drift in the machine's load reaches both medians alike, and time
        // a host-speed probe around each pass to report it at the
        // reference host speed.
        // The first probe in a process runs slow; discard it. Each pass is
        // then bracketed by probes and scaled by their mean.
        probe_secs();
        let mut before = probe_secs();
        for k in 0.. {
            let order = if k % 2 == 0 { [1, nproc] } else { [nproc, 1] };
            for threads in order {
                let Some(p) = run.pass(threads, Registry::disabled()) else {
                    return Err(run.errors.join("; "));
                };
                let after = probe_secs();
                let probe = (before + after) / 2.0;
                before = after;
                let (scaled, raw) = if threads == 1 {
                    (&mut t1, &mut raw1)
                } else {
                    (&mut tn, &mut rawn)
                };
                scaled.push(at_reference_speed(p.secs, probe));
                raw.push((p.secs, probe));
                first.get_or_insert(p.outcome);
                // The process peak after the first pass, which runs at one
                // thread: at `nproc` the allocator's per-thread arenas make
                // the peak vary from run to run.
                if peak.is_none() {
                    peak = Some(peak_rss_mib()?);
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        if nproc == 1 {
            tn = t1.clone();
            rawn = raw1.clone();
        }
        let (anchor, rmse) = scorecard_accuracy(&mut run, first.as_ref(), nproc)?;
        let e2e = EndToEnd {
            wall_s: median(&mut t1.clone()),
            wall_s_par: median(&mut tn.clone()),
            peak_rss_mib: peak.expect("one pass ran"),
            fig5_anchor_err: anchor,
            fig2c_rmse: rmse,
        };
        e2e.metrics()
    } else {
        let mut reports: Vec<LayerReport> = Vec::new();
        let (mut pool_tasks, mut pool_busy, mut dups) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let Some(plain) = run.pass(1, Registry::disabled()) else {
                return Err(run.errors.join("; "));
            };
            t1.push(plain.secs);
            let obs = Registry::new();
            let (outcome, report) = run.scratch.run(|| staged_pass(&run.inputs, &obs))?;
            run.check("traced pass", &outcome);
            if let Err(e) = check_consistency(report.late_replay_misses, report.late_storage_misses)
            {
                run.errors.push(e);
            }
            reports.push(report);
            let obs = Registry::new();
            let Some(par) = run.pass(nproc, obs.clone()) else {
                return Err(run.errors.join("; "));
            };
            tn.push(par.secs);
            let snap = obs.snapshot();
            pool_tasks.push(snap.count("pool.tasks").unwrap_or(0));
            pool_busy.push(timer_sum_ns(&snap, "pool.task_wall_ns") as f64 * 1e-9);
            dups.push(par.memo.misses as f64 - plain.memo.misses as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
        // Counts repeat exactly at one thread; times are medians.
        let mut report = reports.last().expect("one traced pass ran").clone();
        let med =
            |f: fn(&LayerReport) -> f64| median(&mut reports.iter().map(f).collect::<Vec<_>>());
        report.memtrace_s = med(|r| r.memtrace_s);
        report.replay_s = med(|r| r.replay_s);
        report.storage_s = med(|r| r.storage_s);
        report.tco_s = med(|r| r.tco_s);
        report.batch_s = med(|r| r.batch_s);
        report.qos_s = med(|r| r.qos_s);
        report.open_s = med(|r| r.open_s);
        report.resilient_s = med(|r| r.resilient_s);
        report.total_s = med(|r| r.total_s);
        let untraced = median(&mut t1.clone());
        let layers = RunLayers {
            // An exact-class count: the same in every iteration.
            pool_tasks: *pool_tasks.last().expect("one observed pass ran"),
            pool_busy_s: median(&mut pool_busy),
            dup_computes: median(&mut dups),
            overhead_pct: (report.total_s - untraced) / untraced * 100.0,
        };
        metrics::per_layer(&report, &layers)
    };

    let correct = run.gate.passed() && run.errors.is_empty() && run.failed == 0;
    for e in run.gate.failures().iter().chain(&run.errors) {
        eprintln!("perfbench: {e}");
    }
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"profile\": \"{:?}\", \"nproc\": {}, \
         \"threads\": [1, {}], \"passes_t1\": {}, \"passes_par\": {}, \"digest\": \"{:016x}\", \
         \"pinned\": {}, \"t1_s\": {:?}, \"par_s\": {:?}, \"t1_raw_probe_s\": {:?}, \
         \"par_raw_probe_s\": {:?}}}}}",
        args.workload.name(),
        args.seed,
        args.profile,
        nproc,
        nproc,
        t1.len(),
        tn.len(),
        run.gate.digest().unwrap_or(0),
        pin.is_some(),
        t1,
        tn,
        raw1.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>(),
        rawn.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics::to_json(&metrics)
    );
    Ok(())
}

/// The simulator's accuracy at this seed, from the repository's own
/// scorecard on a fresh evaluator: Figure 5 anchor error and Figure 2(c)
/// RMSE. Where this workload's passes compute the same figure, the two
/// must agree exactly.
fn scorecard_accuracy(
    run: &mut Run,
    first: Option<&Outcome>,
    nproc: usize,
) -> Result<(f64, f64), String> {
    let inputs = &run.inputs;
    let card = run
        .scratch
        .run(|| run_scorecard(&inputs.evaluator(nproc, Registry::disabled())))?;
    let fig5: Vec<f64> = card
        .checks
        .iter()
        .filter(|c| c.anchor == "Fig 5")
        .map(|c| (c.measured - c.paper).abs())
        .collect();
    let rmse = card
        .checks
        .iter()
        .find(|c| c.anchor == "Fig 2(c)")
        .map(|c| c.measured)
        .ok_or("scorecard has no Fig 2(c) check")?;
    if fig5.len() != 2 {
        return Err(format!(
            "scorecard has {} Fig 5 checks, expected 2",
            fig5.len()
        ));
    }
    let anchor = fig5.iter().sum::<f64>() / 2.0;
    if let Some(outcome) = first {
        if let Some(a) = outcome.fig5_anchor_err().filter(|&a| a != anchor) {
            run.errors
                .push(format!("pass Fig 5 anchor error {a} != scorecard {anchor}"));
        }
        if let Some(r) = outcome.fig2c_rmse().filter(|&r| r != rmse) {
            run.errors
                .push(format!("pass Fig 2(c) RMSE {r} != scorecard {rmse}"));
        }
    }
    Ok((anchor, rmse))
}
