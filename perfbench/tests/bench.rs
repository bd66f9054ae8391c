//! The benchmark's own tests, at the quick profile.

use std::path::PathBuf;
use std::process::Command;

use perfbench::staged::{check_consistency, stage_memtrace, stage_replay, staged_pass, trace_ids};
use perfbench::{fnv64, pinned_digest, DigestGate, Inputs, Profile, Workload, DEFAULT_SEED};
use wcs_core::designs::DesignPoint;
use wcs_core::validate::run_scorecard;
use wcs_simcore::obs::Registry;
use wcs_workloads::{disktrace, WorkloadId};

/// `(name, unit)` of every metric in one section of BENCHMARK.json,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for key in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(key) {
                current = key;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    out
}

/// The string value of `"key": "..."` on a line.
fn field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_owned())
}

/// `(name, unit)` of every metric in a result line.
fn emitted(result: &str) -> Vec<(String, String)> {
    result
        .split("}, \"")
        .filter_map(|chunk| {
            let at = chunk.find("\": {\"value\": ")?;
            let name = chunk[..at].rsplit('"').next()?.to_owned();
            let unit = field(chunk, "unit")?;
            Some((name, unit))
        })
        .collect()
}

fn run_bin(workload: Workload, trace: u8) -> String {
    let scratch =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{trace}", workload.name()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "run",
            "--workload",
            workload.name(),
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--quick", "--scratch"])
        .arg(&scratch)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

/// One pass per workload emits every declared metric with its unit;
/// `setup_s` is the runner's, measured from outside the process.
#[test]
fn every_workload_emits_every_declared_metric() {
    let mut end_to_end = declared("end_to_end");
    end_to_end.retain(|(name, _)| name != "setup_s");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in Workload::ALL {
        for (trace, want) in [(0, &end_to_end), (1, &per_layer)] {
            let line = run_bin(workload, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            assert_eq!(&emitted(&line), want, "{} --trace {trace}", workload.name());
        }
    }
}

#[test]
fn digest_gate_fires_on_a_mismatch() {
    let mut gate = DigestGate::new(None);
    gate.check("a", 1);
    gate.check("b", 1);
    assert!(gate.passed());
    gate.check("c", 2);
    assert!(!gate.passed());

    let mut pinned = DigestGate::new(Some(7));
    pinned.check("a", 8);
    assert!(!pinned.passed());

    // A pass at another seed is a deliberately mismatched input.
    let render = |seed| {
        let inputs = Inputs::new(Workload::Fig2cGrid, Profile::Quick, seed);
        inputs
            .pass(&inputs.evaluator(1, Registry::disabled()))
            .render()
    };
    let mut gate = DigestGate::new(pinned_digest(
        Workload::Fig2cGrid,
        Profile::Quick,
        DEFAULT_SEED,
    ));
    gate.check("default seed", fnv64(&render(DEFAULT_SEED)));
    assert!(gate.passed(), "{:?}", gate.failures());
    gate.check("other seed", fnv64(&render(DEFAULT_SEED + 1)));
    assert_eq!(gate.failures().len(), 2, "{:?}", gate.failures());
}

/// The pinned digests hold at one thread and at two.
#[test]
fn quick_renders_match_their_pins() {
    for workload in Workload::ALL {
        let inputs = Inputs::new(workload, Profile::Quick, DEFAULT_SEED);
        let mut gate = DigestGate::new(pinned_digest(workload, Profile::Quick, DEFAULT_SEED));
        for threads in [1, 2] {
            let outcome = inputs.pass(&inputs.evaluator(threads, Registry::disabled()));
            gate.check(
                &format!("{} t{threads}", workload.name()),
                fnv64(&outcome.render()),
            );
        }
        assert!(gate.passed(), "{:?}", gate.failures());
    }
}

/// The staged pass does the study's work with the study's keys: its
/// render equals the untraced one and the study calls compute no replay
/// or storage result again.
#[test]
fn staged_pass_matches_the_untraced_pass() {
    for workload in Workload::ALL {
        let inputs = Inputs::new(workload, Profile::Quick, 3);
        let plain = inputs.pass(&inputs.evaluator(1, Registry::disabled()));
        let (staged, report) = staged_pass(&inputs, &Registry::new());
        assert_eq!(staged.render(), plain.render(), "{}", workload.name());
        check_consistency(report.late_replay_misses, report.late_storage_misses).unwrap();
    }
}

/// Staging storage replays under the wrong seed leaves the study call
/// to compute them again, and the consistency check fires.
#[test]
fn consistency_check_fires_on_mismatched_staging() {
    let inputs = Inputs::new(Workload::Fig5Cold, Profile::Quick, 3);
    let eval = inputs.evaluator(1, Registry::new());
    let ids = trace_ids(&inputs);
    stage_memtrace(&eval, &inputs.designs, &ids);
    stage_replay(&eval, &inputs.designs, &ids);
    let n2 = DesignPoint::n2();
    let storage = n2.storage.as_ref().expect("N2 has a storage scenario");
    for &id in &ids {
        eval.memo.storage().replay(
            &storage.disk,
            storage.flash.as_ref(),
            disktrace::params_for(id),
            eval.measure.seed ^ 0xD15C ^ 1,
            eval.storage_replay,
        );
    }
    let (replay, store) = (eval.memo.replay().stats(), eval.memo.storage().stats());
    eval.evaluate(&n2).expect("N2 evaluates");
    let late_replay = eval.memo.replay().stats().misses - replay.misses;
    let late_storage = eval.memo.storage().stats().misses - store.misses;
    assert_eq!(late_replay, 0);
    assert!(late_storage >= WorkloadId::ALL.len() as u64);
    assert!(check_consistency(late_replay, late_storage).is_err());
}

/// At the same seed the Figure 2(c) RMSE of a sweep pass equals the
/// scorecard's.
#[test]
fn fig2c_rmse_equals_the_scorecard() {
    let inputs = Inputs::new(Workload::Fig2cGrid, Profile::Quick, DEFAULT_SEED);
    let eval = inputs.evaluator(1, Registry::disabled());
    let rmse = inputs.pass(&eval).fig2c_rmse().expect("a complete sweep");
    let card = run_scorecard(&eval);
    let check = card
        .checks
        .iter()
        .find(|c| c.anchor == "Fig 2(c)")
        .expect("the scorecard checks Fig 2(c)");
    assert_eq!(rmse, check.measured);
}
