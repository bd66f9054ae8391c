//! The station kernel: the one copy of the FCFS station logic that every
//! driver (closed loop, cluster, open loop, batch) runs on.
//!
//! A driver owns its event loop, its arrival process and its in-flight
//! records. The kernel owns what they share: how work queues at a
//! server's four stations, when it starts and what busy time it charges
//! ([`Stations`], [`utilization`]), the warmup/measurement accounting
//! ([`Window`]) and the in-flight free list ([`Slots`]). For the two
//! fault-aware drivers (cluster and resilient open loop) it also holds
//! the attempt a failure hands to its retry ([`Attempt`], with its
//! [`StageSpan`] into a run-local stage pool) and the retry decision
//! ([`may_retry`]).

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use wcs_simcore::event::QueueObs;
use wcs_simcore::stats::Histogram;
use wcs_simcore::{SimDuration, SimTime};

use crate::engine::{RunStats, ServerSpec};
use crate::failover::{FaultStats, RetryPolicy};
use crate::request::{Resource, Stage};
use crate::resilience::{CircuitBreaker, ResilienceStats, RetryBudget};

/// One server's four m-server FCFS stations.
pub(crate) struct Stations {
    cap: [u32; 4],
    queues: [VecDeque<usize>; 4],
    busy: [u32; 4],
    busy_ns: [u128; 4],
}

impl Stations {
    /// Idle stations with `spec`'s server counts.
    pub(crate) fn new(spec: &ServerSpec) -> Self {
        Stations {
            cap: Resource::ALL.map(|r| spec.servers_at(r)),
            queues: Default::default(),
            busy: [0; 4],
            busy_ns: [0; 4],
        }
    }

    /// Queues work item `slot` at `res`.
    pub(crate) fn push(&mut self, res: Resource, slot: usize) {
        self.queues[res.index()].push_back(slot);
    }

    /// Starts queued work at `res`, oldest first, while a server is free.
    /// `begin(slot)` schedules the item's completion and returns its
    /// service time, which is charged as busy time at the start.
    #[inline]
    pub(crate) fn start(&mut self, res: Resource, mut begin: impl FnMut(usize) -> SimDuration) {
        let ri = res.index();
        while self.busy[ri] < self.cap[ri] {
            let Some(slot) = self.queues[ri].pop_front() else {
                break;
            };
            self.busy[ri] += 1;
            self.busy_ns[ri] += begin(slot).as_nanos() as u128;
        }
    }

    /// Frees the server a finished stage held at `res`.
    pub(crate) fn release(&mut self, res: Resource) {
        self.busy[res.index()] -= 1;
    }

    /// An outage: drops every queued item and frees every server. Busy
    /// time already charged stays charged.
    pub(crate) fn clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.busy = [0; 4];
    }
}

/// Per-station busy fraction of identical servers over `[0, end]`,
/// normalized by server count and clamped to 1: busy time is charged
/// when service starts, so work still running at `end` can push the raw
/// ratio just past 1.
pub(crate) fn utilization(servers: &[Stations], end: SimTime) -> [f64; 4] {
    let span = end.saturating_sub(SimTime::ZERO).as_nanos() as f64;
    let mut out = [0.0; 4];
    for r in Resource::ALL {
        let ri = r.index();
        let busy: u128 = servers.iter().map(|s| s.busy_ns[ri]).sum();
        let denom = span * servers[0].cap[ri] as f64 * servers.len() as f64;
        if denom > 0.0 {
            out[ri] = (busy as f64 / denom).min(1.0);
        }
    }
    out
}

/// Warmup and measurement-window accounting over completions.
pub(crate) struct Window {
    warmup: u64,
    /// Completions so far, warmup included.
    pub(crate) completed: u64,
    /// Completions after warmup.
    pub(crate) measured: u64,
    /// Fault counters of the measurement window: the drivers count into
    /// it from the start, and it restarts from zero when the window opens.
    pub(crate) faults: FaultStats,
    start: SimTime,
    latency: Histogram,
}

impl Window {
    /// A window that opens after `warmup` completions.
    pub(crate) fn new(warmup: u64) -> Self {
        Window {
            warmup,
            completed: 0,
            measured: 0,
            faults: FaultStats::default(),
            start: SimTime::ZERO,
            latency: Histogram::new(),
        }
    }

    /// Records a completion at `now` of work that started at `started`.
    /// The completion that ends the warmup opens the window.
    pub(crate) fn complete(&mut self, started: SimTime, now: SimTime) {
        self.completed += 1;
        if self.completed == self.warmup {
            self.start = now;
            self.latency = Histogram::new();
            self.faults = FaultStats::default();
        }
        if self.completed > self.warmup {
            self.measured += 1;
        }
        self.latency.record_duration(now.saturating_sub(started));
    }

    /// The run's statistics for a run that ended at `end`.
    pub(crate) fn stats(self, end: SimTime, utilization: [f64; 4], queue: QueueObs) -> RunStats {
        RunStats {
            completed: self.measured,
            window: end.saturating_sub(self.start),
            latency: self.latency,
            utilization,
            faults: self.faults,
            queue,
        }
    }
}

/// In-flight records addressed by slot, with a free list. Each slot has
/// a generation that is odd while the slot is live and moves on every
/// insert and release, so an event that captured it is stale once the
/// slot was released, even if the slot was reused since.
pub(crate) struct Slots<T> {
    items: Vec<T>,
    gen: Vec<u64>,
    free: Vec<usize>,
}

impl<T> Slots<T> {
    pub(crate) fn new() -> Self {
        Slots {
            items: Vec::new(),
            gen: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `item` in the most recently freed slot, or a new one.
    pub(crate) fn insert(&mut self, item: T) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                self.items[s] = item;
                s
            }
            None => {
                self.items.push(item);
                self.gen.push(0);
                self.items.len() - 1
            }
        };
        self.gen[slot] += 1;
        slot
    }

    /// Frees `slot` for reuse.
    pub(crate) fn release(&mut self, slot: usize) {
        self.gen[slot] += 1;
        self.free.push(slot);
    }

    pub(crate) fn gen(&self, slot: usize) -> u64 {
        self.gen[slot]
    }

    pub(crate) fn is_live(&self, slot: usize) -> bool {
        self.gen[slot] % 2 == 1
    }

    /// Number of slots ever allocated, live or free.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;
    fn index(&self, slot: usize) -> &T {
        &self.items[slot]
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.items[slot]
    }
}

/// A `Copy` handle to one request's stage list in a run-local pool (a
/// `Vec<Stage>` every request appends to).
///
/// A timeout, crash or outage hands the same stage list to the retry by
/// copying 8 bytes: no refcount traffic, no `Vec` per attempt.
#[derive(Clone, Copy)]
pub(crate) struct StageSpan {
    start: u32,
    len: u32,
}

impl StageSpan {
    /// Appends `stages` to `pool` and returns their handle.
    pub(crate) fn push(pool: &mut Vec<Stage>, stages: &[Stage]) -> StageSpan {
        let start = pool.len();
        pool.extend_from_slice(stages);
        let to_u32 = |n: usize| u32::try_from(n).expect("stage pool overflowed u32 indexing");
        StageSpan {
            start: to_u32(start),
            len: to_u32(stages.len()),
        }
    }

    /// The stages this handle spans (bounds-checked).
    pub(crate) fn of(self, pool: &[Stage]) -> &[Stage] {
        &pool[self.start as usize..][..self.len as usize]
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// One attempt at a logical request, as the fault-aware drivers hand it
/// from dispatch to failure to retry.
#[derive(Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) stages: StageSpan,
    /// When the logical request arrived, so latency spans its retries.
    pub(crate) started: SimTime,
    /// 0-based attempt number (0 = first try).
    pub(crate) no: u32,
}

impl Attempt {
    pub(crate) fn first(stages: StageSpan, now: SimTime) -> Self {
        Attempt {
            stages,
            started: now,
            no: 0,
        }
    }

    /// The retry that follows this attempt.
    pub(crate) fn next(self) -> Self {
        Attempt {
            no: self.no + 1,
            ..self
        }
    }
}

/// Whether failed attempt `attempt_no` (0-based) may retry: the policy's
/// per-request allowance must have room, and then the global budget, if
/// any, must grant a token.
pub(crate) fn may_retry(
    retry: &RetryPolicy,
    budget: &mut Option<RetryBudget>,
    attempt_no: u32,
) -> bool {
    attempt_no < retry.max_retries && budget.as_mut().is_none_or(RetryBudget::try_spend)
}

impl ResilienceStats {
    /// Copies the run's final budget and breaker counters in at `end`.
    pub(crate) fn finish(
        &mut self,
        budget: Option<&RetryBudget>,
        breakers: &[CircuitBreaker],
        end: SimTime,
    ) {
        if let Some(b) = budget {
            self.retries_spent = b.spent();
            self.retries_denied = b.denied();
        }
        self.breaker_trips = breakers.iter().map(CircuitBreaker::trips).sum();
        self.breaker_open_ns = breakers.iter().map(|b| b.open_ns(end)).sum();
    }
}
