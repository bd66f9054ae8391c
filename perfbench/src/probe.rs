//! The host-speed probe.
//!
//! On a shared machine the host's speed drifts: the same cold pass takes
//! 15-25% longer from one minute to the next while other tenants load
//! the caches and cores. A fixed event-queue churn (binary-heap
//! pushes and pops driven by a xorshift stream, the shape of the
//! simulator's hot loop) slows down with it, and it does not depend on
//! the program under test. Timing the probe right before and right after
//! each pass and scaling the pass by `PROBE_REF_S` over the mean of the
//! two turns host seconds into seconds at the reference host speed. On
//! the 2-core reference box this cut the interquartile spread of medians
//! over blocks of identical back-to-back passes from 9% to 2%
//! (`fig2c_grid`, 40 passes a block), 17% to 4% (`fig5_cold`, 9 passes)
//! and 22% to 8% (`traffic_chaos`, 40 passes).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Heap operations per probe.
const PROBE_OPS: u64 = 1_000_000;

/// The probe's nominal time: the reference host speed that scaled
/// times are expressed at, about the probe's median on the 2-core
/// reference box.
pub const PROBE_REF_S: f64 = 0.04;

fn churn(ops: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(64);
    for _ in 0..16 {
        heap.push(Reverse(next() % 1000));
    }
    let mut acc = 0;
    for _ in 0..ops {
        let Reverse(now) = heap.pop().expect("the heap never empties");
        acc ^= now;
        heap.push(Reverse(now + 1 + next() % 1000));
        if next() % 3 == 0 {
            heap.push(Reverse(now + next() % 500));
            heap.pop();
        }
    }
    acc
}

/// Seconds one probe takes on this host, now.
pub fn probe_secs() -> f64 {
    let t = Instant::now();
    black_box(churn(black_box(PROBE_OPS)));
    t.elapsed().as_secs_f64()
}

/// `secs` measured while a probe took `probe_s`, expressed at the
/// reference host speed.
pub fn at_reference_speed(secs: f64, probe_s: f64) -> f64 {
    secs * PROBE_REF_S / probe_s
}
