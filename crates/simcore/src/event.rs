//! Deterministic future-event list.

use std::collections::VecDeque;

use crate::error::ConfigError;
use crate::SimTime;

/// A pending event: payload plus firing time plus insertion sequence.
struct Scheduled<E> {
    when: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// Events order by `(when, seq)`: nondecreasing time, FIFO among
    /// ties. Smaller keys pop first.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.when, self.seq)
    }
}

/// A future-event list: the core of every discrete-event simulator in this
/// workspace.
///
/// Events pop in nondecreasing time order. Events scheduled for the same
/// instant pop in the order they were scheduled (FIFO), which keeps
/// simulations deterministic regardless of scheduler internals.
///
/// Internally the queue runs two lanes, both totally ordered by
/// `(when, seq)` so any event may live in either lane without affecting
/// pop order (see `DESIGN.md` §11 for the full argument):
///
/// * **Epoch buffer (front lane)** — a FIFO holding events for a single
///   epoch `imm_time`. An empty buffer adopts the next scheduled event's
///   timestamp as its epoch, and while it is non-empty every schedule at
///   exactly `imm_time` appends to it. Ordering is unaffected: a heap
///   entry at `imm_time` was necessarily scheduled before every current
///   buffer entry (while the buffer is non-empty, same-epoch events are
///   routed to the buffer, never the heap), so the pop path drains heap
///   entries at `imm_time` before touching the buffer. Two real
///   scheduling patterns ride this buffer with zero comparisons, counted
///   by the `fast_path` statistic: runs of events landing on *one shared
///   instant* (identical batch tasks, fixed retry timeouts), and the
///   *pure event chain* — pop one event, schedule its successor, repeat.
/// * **Heap (ordering lane)** — an indexed 4-ary min-heap on
///   `(when, seq)` holding every event that misses the buffer.
///
/// [`with_capacity`](EventQueue::with_capacity) pre-sizes the heap arena
/// so steady-state runs never reallocate.
pub struct EventQueue<E> {
    /// 4-ary min-heap on `(when, seq)`.
    heap: Vec<Scheduled<E>>,
    /// FIFO of events all firing at the shared epoch `imm_time`. Every
    /// entry was sequenced after every heap entry with `when ==
    /// imm_time`, so draining the heap's `imm_time` entries first
    /// preserves global FIFO order.
    immediate: VecDeque<E>,
    /// The epoch of the `immediate` buffer; meaningful only while the
    /// buffer is non-empty. Always `>= now` then (the pop path never
    /// advances the clock past a pending buffer).
    imm_time: SimTime,
    next_seq: u64,
    now: SimTime,
    /// Schedules that took an O(1) buffer path with no heap comparison:
    /// same-epoch appends, plus adoptions while the heap was empty.
    fast_path: u64,
    /// Largest pending-event count ever reached.
    max_depth: u64,
}

/// Occupancy counters of an [`EventQueue`], exported to the
/// observability layer after a run. Derived purely from the simulated
/// event stream, so the values are bit-identical for identical runs at
/// any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueObs {
    /// Events scheduled over the queue's lifetime.
    pub scheduled: u64,
    /// Schedules that bypassed the heap through the epoch buffer with
    /// zero comparisons: same-instant appends at the buffer's epoch, and
    /// epoch adoptions while the heap was empty (the pure pop-schedule
    /// chain of a single-client probe or a drain tail).
    pub fast_path: u64,
    /// High-water mark of pending events.
    pub max_depth: u64,
}

impl QueueObs {
    /// Component-wise accumulation (sums, max for the high-water mark) —
    /// commutative and associative, like every obs merge.
    #[must_use]
    pub fn merged(&self, other: &QueueObs) -> QueueObs {
        QueueObs {
            scheduled: self.scheduled + other.scheduled,
            fast_path: self.fast_path + other.fast_path,
            max_depth: self.max_depth.max(other.max_depth),
        }
    }

    /// Records this queue's counters into `registry` under the standard
    /// `queue.*` names.
    pub fn export(&self, registry: &crate::obs::Registry) {
        registry.counter("queue.scheduled").add(self.scheduled);
        registry.counter("queue.fast_path").add(self.fast_path);
        registry
            .max_gauge("queue.max_depth")
            .observe(self.max_depth);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const ARITY: usize = 4;

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// a steady-state simulation never reallocates the event arena.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            immediate: VecDeque::new(),
            imm_time: SimTime::ZERO,
            next_seq: 0,
            now: SimTime::ZERO,
            fast_path: 0,
            max_depth: 0,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `when`, rejecting events in the
    /// past.
    ///
    /// # Errors
    /// Returns [`ConfigError::PastEvent`] when `when` is before the
    /// current clock — scheduling into the past is always a simulator
    /// bug, but library callers driving a queue from external input can
    /// surface it gracefully instead of panicking.
    pub fn try_schedule(&mut self, when: SimTime, payload: E) -> Result<(), ConfigError> {
        if when < self.now {
            return Err(ConfigError::PastEvent {
                when_ns: when.as_nanos(),
                now_ns: self.now.as_nanos(),
            });
        }
        self.next_seq += 1;
        if self.immediate.is_empty() {
            // An empty buffer adopts this event's timestamp as the new
            // epoch: an O(1) append with no sift. With the heap also
            // empty this is the pure event-chain mode — the whole
            // schedule/pop cycle runs on the deque without a single
            // comparison, so it counts as a fast-path schedule.
            self.imm_time = when;
            self.immediate.push_back(payload);
            if self.heap.is_empty() {
                self.fast_path += 1;
            }
        } else if when == self.imm_time {
            // Fast path: fires at the buffer's epoch, after everything
            // already pending for that instant. O(1) instead of a sift.
            self.immediate.push_back(payload);
            self.fast_path += 1;
        } else {
            let seq = self.next_seq;
            self.heap.push(Scheduled { when, seq, payload });
            self.sift_up(self.heap.len() - 1);
        }
        let depth = self.len() as u64;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
        Ok(())
    }

    /// Occupancy counters accumulated since construction; a pure
    /// function of the simulated event stream.
    pub fn obs_stats(&self) -> QueueObs {
        QueueObs {
            scheduled: self.next_seq,
            fast_path: self.fast_path,
            max_depth: self.max_depth,
        }
    }

    /// Schedules `payload` to fire at `when`.
    ///
    /// # Panics
    /// Panics if `when` is before the current clock: scheduling into the
    /// past is always a simulator bug. Use
    /// [`try_schedule`](Self::try_schedule) to handle it as a
    /// [`ConfigError`] instead.
    pub fn schedule(&mut self, when: SimTime, payload: E) {
        if let Err(e) = self.try_schedule(when, payload) {
            panic!("{e}");
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// firing time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Heap entries at `when == imm_time` predate everything in the
        // immediate buffer (while the buffer is non-empty, same-epoch
        // schedules are routed to the buffer), so they pop first; heap
        // entries at earlier times pop first by time order.
        let heap_t = self.heap.first().map(|s| s.when);
        if !self.immediate.is_empty() && heap_t.is_none_or(|t| t > self.imm_time) {
            let payload = self.immediate.pop_front().expect("checked non-empty");
            self.now = self.imm_time;
            return Some((self.now, payload));
        }
        if self.heap.is_empty() {
            return None;
        }
        let s = self.pop_heap();
        debug_assert!(s.when >= self.now);
        self.now = s.when;
        Some((s.when, s.payload))
    }

    /// Drains *every* event firing at the earliest pending instant into
    /// `out` (cleared first), in exact pop order, advancing the clock to
    /// that instant. Returns the epoch's firing time, or `None` when the
    /// queue is empty.
    ///
    /// This is the batched delivery path: one lane comparison per epoch
    /// instead of one per event. Events the caller schedules *while
    /// processing* the batch carry higher sequence numbers than
    /// everything drained, so delivering them in a follow-up epoch (same
    /// instant or later) reproduces exactly the one-at-a-time
    /// [`pop`](Self::pop) order.
    pub fn pop_epoch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let t = self.peek_time()?;
        // The heap's run at `t` pops in seq order; buffer entries carry
        // the highest seqs at this instant, so they follow.
        while self.heap.first().is_some_and(|s| s.when == t) {
            out.push(self.pop_heap().payload);
        }
        if !self.immediate.is_empty() && self.imm_time == t {
            out.extend(self.immediate.drain(..));
        }
        debug_assert!(t >= self.now);
        self.now = t;
        Some(t)
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_t = self.heap.first().map(|s| s.when);
        if self.immediate.is_empty() {
            return heap_t;
        }
        // A heap entry may fire before the buffer's epoch; the earliest
        // pending time is the minimum of the two.
        Some(match heap_t {
            Some(h) if h < self.imm_time => h,
            _ => self.imm_time,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.immediate.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.immediate.is_empty()
    }

    /// Drops all pending events, leaving the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.immediate.clear();
    }

    /// Removes the heap's root. The heap must be non-empty.
    fn pop_heap(&mut self) -> Scheduled<E> {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let s = self.heap.pop().expect("checked non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        s
    }

    /// Moves the entry at `i` toward the root until its parent is no
    /// larger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Moves the entry at `i` toward the leaves until no child is
    /// smaller.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + ARITY).min(len);
            for c in (first_child + 1)..last_child {
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            if self.heap[i].key() <= self.heap[best].key() {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "broke FIFO");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn try_schedule_reports_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        let err = q.try_schedule(SimTime::from_nanos(5), 2).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::PastEvent {
                when_ns: 5,
                now_ns: 10
            }
        ));
        // The failed schedule left the queue untouched.
        assert!(q.is_empty());
        assert!(q.try_schedule(SimTime::from_nanos(10), 3).is_ok());
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 3)));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(3), 1);
        q.schedule(SimTime::from_nanos(1), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for &t in &[9u64, 2, 2, 7, 4, 4, 4, 1] {
            a.schedule(SimTime::from_nanos(t), t);
            b.schedule(SimTime::from_nanos(t), t);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_fast_path_preserves_fifo() {
        // Mix buffered and lane entries at one instant: earlier-scheduled
        // must still pop first, wherever each entry landed internally.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a"); // starts the epoch buffer
        q.schedule(SimTime::from_nanos(10), "b"); // same epoch: O(1) append
        q.schedule(SimTime::from_nanos(20), "later"); // different time: lane
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        q.schedule(SimTime::from_nanos(10), "c");
        q.schedule(SimTime::from_nanos(10), "d");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "c")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "d")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fast_path_fires_on_future_time_ties() {
        // Regression: the pre-epoch fast path required `when == now`
        // exactly, which no engine ever does (every stage has positive
        // service time), so the counter sat at zero. A batch of events
        // landing on one *future* timestamp must now take the O(1) path.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(1_000);
        for i in 0..64 {
            q.schedule(t, i);
        }
        assert!(
            q.obs_stats().fast_path > 0,
            "same-epoch schedules must take the fast path"
        );
        // The lanes-empty adoption counts, and so does every follower.
        assert_eq!(q.obs_stats().fast_path, 64);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "FIFO preserved");
    }

    #[test]
    fn pure_event_chain_never_touches_the_lanes() {
        // The dominant single-client pattern: pop the only pending event,
        // schedule its successor at a strictly later (untied) time. The
        // buffer absorbs every schedule with the heap empty throughout,
        // so each one counts as a fast-path schedule.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(3), 0u64);
        for i in 1..100u64 {
            let (t, e) = q.pop().expect("chain event pending");
            assert_eq!(e, i - 1);
            q.schedule(t + crate::SimDuration::from_nanos(2 * i + 1), i);
        }
        assert_eq!(q.obs_stats().fast_path, 100, "every chain schedule is O(1)");
        // Once a second event makes the heap non-empty, adoption stops
        // counting: ordering work is back on the table.
        q.schedule(SimTime::from_nanos(1 << 40), 1000);
        let (_, e) = q.pop().expect("pending");
        assert_eq!(e, 99);
        q.schedule(SimTime::from_nanos(1 << 41), 1001); // adopts, heap busy
        assert_eq!(
            q.obs_stats().fast_path,
            100,
            "heap-backed adoption is not fast"
        );
    }

    #[test]
    fn epoch_buffer_restart_respects_older_lane_entries() {
        // A lane entry at time T scheduled while the buffer held an
        // earlier epoch must pop before buffer entries from a *restarted*
        // epoch at T.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), "early"); // epoch 5
        q.schedule(SimTime::from_nanos(10), "lane@10"); // lane (epoch is 5)
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early")));
        q.schedule(SimTime::from_nanos(10), "buf@10"); // buffer restarts at 10
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "lane@10")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "buf@10")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn epoch_buffer_matches_reference_model_with_heavy_ties() {
        // Exhaustive order check against a naive (when, seq) reference
        // model, on a tie-heavy interleaved schedule/pop workload — the
        // pattern batch engines and fixed retry timeouts produce.
        let mut rng = crate::SimRng::seed_from(4242);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (when, seq)
        let mut seq = 0u64;
        let mut fast = 0u64;
        for _ in 0..4000 {
            if rng.chance(0.55) || q.is_empty() {
                // Few distinct offsets => many exact ties, some at `now`.
                let when = q.now().as_nanos() + [0u64, 3, 3, 7][rng.next_u64() as usize % 4];
                q.schedule(SimTime::from_nanos(when), seq);
                model.push((when, seq));
                seq += 1;
            } else {
                let (t, e) = q.pop().unwrap();
                let min = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &k)| k)
                    .map(|(i, _)| i)
                    .unwrap();
                let want = model.remove(min);
                assert_eq!((t.as_nanos(), e), want, "pop order diverged from model");
            }
            fast = q.obs_stats().fast_path;
        }
        while let Some((t, e)) = q.pop() {
            let min = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)
                .unwrap();
            let want = model.remove(min);
            assert_eq!((t.as_nanos(), e), want, "drain order diverged from model");
        }
        assert!(model.is_empty());
        assert!(fast > 0, "tie-heavy schedule must exercise the fast path");
    }

    #[test]
    fn immediate_buffer_counts_and_clears() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1); // immediate at t = 0
        q.schedule(SimTime::from_nanos(5), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn randomized_order_matches_reference_sort() {
        // Heavier mixed workload: interleaved schedules and pops must
        // reproduce a stable (when, seq) sort.
        let mut rng = crate::SimRng::seed_from(99);
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for _ in 0..2000 {
            if rng.chance(0.6) || q.is_empty() {
                let when = q.now().as_nanos() + rng.next_u64() % 50;
                q.schedule(SimTime::from_nanos(when), id);
                pending.push((when, id));
                id += 1;
            } else {
                let (t, e) = q.pop().unwrap();
                popped.push((t.as_nanos(), e));
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t.as_nanos(), e));
        }
        // Times nondecreasing; ties FIFO by id *within a batch*: verify
        // against a full stable sort of the reference schedule is not
        // possible (pops interleave with schedules), so check the
        // invariants directly.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
        assert_eq!(popped.len(), pending.len());
    }

    // ------------------------------------------------------------------
    // pop_epoch: batched delivery must replay exactly the pop order.
    // ------------------------------------------------------------------

    #[test]
    fn pop_epoch_matches_pop_order() {
        let mut rng = crate::SimRng::seed_from(2024);
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for id in 0..3000u64 {
            let when = [0u64, 0, 3, 17, 1 << 20][rng.next_u64() as usize % 5];
            let t = SimTime::from_nanos(a.now().as_nanos() + when);
            a.schedule(t, id);
            b.schedule(t, id);
            if rng.chance(0.3) {
                if let Some((t, e)) = a.pop() {
                    let mut epoch = Vec::new();
                    // Single-event epochs via pop must match the head
                    // of b's epoch; drain b one epoch at a time and
                    // compare against a popped one-by-one.
                    let bt = b.pop_epoch(&mut epoch).expect("same pending set");
                    assert_eq!(t, bt);
                    assert_eq!(e, epoch[0]);
                    for want in &epoch[1..] {
                        let (t2, e2) = a.pop().expect("epoch peer pending");
                        assert_eq!(t2, bt);
                        assert_eq!(e2, *want);
                    }
                }
            }
        }
        let mut epoch = Vec::new();
        while let Some(t) = b.pop_epoch(&mut epoch) {
            for want in &epoch {
                let (t2, e2) = a.pop().expect("epoch peer pending");
                assert_eq!(t2, t, "epoch time diverged");
                assert_eq!(e2, *want, "epoch order diverged");
            }
        }
        assert_eq!(a.pop(), None, "pop lane had extra events");
    }

    #[test]
    fn pop_epoch_drains_ties_across_both_lanes() {
        // One instant torn across the heap and the epoch buffer must
        // come out as a single seq-ordered batch: the heap's run first
        // (scheduled while the buffer held an earlier epoch), then the
        // buffer entries of the restarted epoch.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(500);
        q.schedule(SimTime::from_nanos(100), 0u64); // adopts the buffer epoch
        let mut want = Vec::new();
        let mut id = 1u64;
        // The buffer's epoch is 100, so these land on the heap.
        for _ in 0..8 {
            q.schedule(t, id);
            want.push(id);
            id += 1;
        }
        q.schedule(SimTime::from_nanos(900), 99); // later instant, heap
        let mut epoch = Vec::new();
        assert_eq!(q.pop_epoch(&mut epoch), Some(SimTime::from_nanos(100)));
        assert_eq!(epoch, vec![0]);
        // The buffer is empty again: the next schedule restarts it at
        // `t`, and every follower appends to it.
        for _ in 0..8 {
            q.schedule(t, id);
            want.push(id);
            id += 1;
        }
        assert_eq!(q.pop_epoch(&mut epoch), Some(t));
        assert_eq!(epoch, want, "heap run + buffer must merge FIFO");
        assert_eq!(q.pop_epoch(&mut epoch), Some(SimTime::from_nanos(900)));
        assert_eq!(epoch, vec![99]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_epoch_on_empty_queue_returns_none() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut epoch = vec![1, 2, 3];
        assert_eq!(q.pop_epoch(&mut epoch), None);
        assert!(epoch.is_empty(), "pop_epoch clears the scratch");
    }

    #[test]
    fn obs_merge_accumulates_all_counters() {
        let a = QueueObs {
            scheduled: 10,
            fast_path: 4,
            max_depth: 7,
        };
        let b = QueueObs {
            scheduled: 5,
            fast_path: 1,
            max_depth: 9,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            QueueObs {
                scheduled: 15,
                fast_path: 5,
                max_depth: 9,
            }
        );
    }
}
