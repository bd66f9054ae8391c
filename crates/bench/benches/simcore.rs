//! Microbenchmarks of the simulation substrate: event queue, Zipf
//! sampling, histogram recording.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wcs_simcore::dist::{Distribution, Zipf};
use wcs_simcore::stats::Histogram;
use wcs_simcore::{EventQueue, SimRng, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    c.bench_function("event_queue_presized_push_pop_1k", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1000);
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    // The dispatch idiom the cluster engine leans on: pop an event, then
    // schedule its follow-up at the very same timestamp — the immediate
    // buffer turns the second half into a VecDeque push.
    c.bench_function("event_queue_same_instant_pop_push_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            for i in 0..64u64 {
                q.schedule(SimTime::from_nanos(i * 100), i);
            }
            let mut sum = 0u64;
            let mut hops = 0u32;
            while let Some((t, e)) = q.pop() {
                sum = sum.wrapping_add(e);
                if hops < 1000 {
                    hops += 1;
                    q.schedule(t, e ^ hops as u64);
                }
            }
            black_box(sum)
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(500_000, 0.9).unwrap();
    let mut rng = SimRng::seed_from(2);
    c.bench_function("zipf_sample_500k_ranks", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut h = Histogram::new();
    let mut rng = SimRng::seed_from(3);
    c.bench_function("histogram_record", |b| {
        b.iter(|| h.record(black_box(rng.uniform() * 0.5)))
    });
    for i in 0..100_000 {
        h.record((i as f64).sqrt() * 1e-4);
    }
    c.bench_function("histogram_p95_query", |b| {
        b.iter(|| black_box(h.percentile(95.0)))
    });
}

criterion_group!(benches, bench_event_queue, bench_zipf, bench_histogram);
criterion_main!(benches);
