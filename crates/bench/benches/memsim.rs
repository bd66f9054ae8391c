//! Benchmarks of the two-level memory simulator (Figure 4's engine):
//! trace replay throughput per replacement policy, and materializing a
//! trace the way studies do.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wcs_memshare::policy::PolicyKind;
use wcs_memshare::twolevel::TwoLevelSim;
use wcs_workloads::memtrace::{params_for, MemTraceBuf, MemTraceGen};
use wcs_workloads::WorkloadId;

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("twolevel_replay_100k");
    for policy in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut sim = TwoLevelSim::new(131_072, policy, 7);
                    let mut gen = MemTraceGen::new(params_for(WorkloadId::Websearch), 9);
                    black_box(sim.run(&mut gen, 100_000))
                })
            },
        );
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("memtrace_generate_100k", |b| {
        b.iter(|| {
            black_box(MemTraceBuf::generate(params_for(WorkloadId::Ytube), 11, 100_000).len())
        })
    });
}

criterion_group!(benches, bench_policies, bench_trace_generation);
criterion_main!(benches);
