#!/usr/bin/env python3
"""Runs one workload of the wcs study benchmark and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 20 --trace 0

The benchmark is the cargo package in this directory. This script builds
it into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
times set-up by starting the benchmark process several times until it
reports its inputs ready, then runs the workload in one process of its
own for --seconds and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). The line before it records the run's context:
nproc, thread counts, seed, render digest, git sha and a digest of the
sources. The exit code is 0 only when the run finished and its outputs
were correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig5_cold", "fig2c_grid", "traffic_chaos")
# Set-up is about a millisecond of process start, so the run reports the
# median over many starts, half of them before the measured process and
# half after, so that both ends of the run's machine load are sampled.
SETUP_SAMPLES = 16
BUILD_TIMEOUT_S = 850
# The measured process runs --seconds of passes plus one pass that may
# straddle the deadline and the untimed scorecard.
RUN_SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 unsigned bits")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    return args


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(root, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def start(cmd, root):
    """Starts the benchmark process; returns it and its seconds to `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    secs = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail(f"benchmark process did not report ready (got {line!r})")
    return proc, secs


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []

    def sample_setup(n):
        for _ in range(n if args.trace == 0 else 0):
            proc, secs = start([binary, "setup", *common], root)
            if proc.wait() != 0:
                fail("set-up process failed")
            setup.append(secs)

    sample_setup(SETUP_SAMPLES // 2)

    scratch_root = os.path.join(root, ".perfbench_scratch")
    scratch = os.path.join(scratch_root, f"{args.workload}-{os.getpid()}")
    proc = None
    try:
        proc, secs = start([binary, "run", *common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--scratch", scratch], root)
        setup.append(secs)
        try:
            out, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
        except subprocess.TimeoutExpired:
            fail("benchmark process timed out")
        if proc.returncode != 0:
            fail(f"benchmark process exited with code {proc.returncode}")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(scratch_root) and not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    lines = out.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark process printed no result")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    context.update(setup_samples=len(setup), git_sha=git_sha(root),
                   source_digest=source_digest(root))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
