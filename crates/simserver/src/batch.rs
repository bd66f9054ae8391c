//! Batch-job execution: run a fixed set of tasks to completion and report
//! the makespan (for the `mapreduce` benchmarks, whose metric is
//! execution time rather than throughput).

use wcs_simcore::event::QueueObs;
use wcs_simcore::{EventQueue, SimDuration, SimTime};

use crate::engine::ServerSpec;
use crate::kernel::{utilization, Stations};
use crate::request::{Resource, Stage};

/// Result of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Time from start until the last task completed.
    pub makespan: SimDuration,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Per-resource busy fraction over the makespan, indexed by
    /// [`Resource::index`].
    pub utilization: [f64; 4],
    /// Event-queue occupancy counters for the run — a pure function of
    /// the task set, so safe to record as exact-class observability.
    pub queue: QueueObs,
}

impl BatchResult {
    /// The batch performance metric: 1 / makespan-seconds (bigger is
    /// better, consistent with the throughput metrics).
    pub fn perf(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s > 0.0 {
            1.0 / s
        } else {
            f64::INFINITY
        }
    }
}

struct Task {
    stages: Vec<Stage>,
    next_stage: usize,
}

#[derive(Clone, Copy)]
struct StageDone {
    task: usize,
    resource: Resource,
}

/// Executes `tasks` on the server with at most `concurrency` tasks in
/// flight (Hadoop's task-slot model; the paper uses 4 slots per CPU).
///
/// Tasks are admitted in order as slots free up; each task's stages run
/// serially, queueing FCFS at each station.
///
/// # Panics
/// Panics if `concurrency` is zero.
pub fn run_batch(spec: ServerSpec, tasks: Vec<Vec<Stage>>, concurrency: u32) -> BatchResult {
    assert!(concurrency > 0, "need at least one task slot");
    let n_tasks = tasks.len();
    let mut tasks: Vec<Task> = tasks
        .into_iter()
        .map(|stages| Task {
            stages,
            next_stage: 0,
        })
        .collect();

    let mut events: EventQueue<StageDone> = EventQueue::new();
    let mut stations = Stations::new(&spec);
    let mut next_admit = 0usize;
    let mut inflight = 0u32;

    // Queues a task's current stage; returns false when the task has no
    // stages left (it is complete).
    fn enqueue(tasks: &[Task], stations: &mut Stations, id: usize) -> bool {
        let t = &tasks[id];
        let Some(stage) = t.stages.get(t.next_stage) else {
            return false;
        };
        stations.push(stage.resource, id);
        true
    }

    // Admits waiting tasks in order while a task slot is free (empty
    // tasks complete on admission).
    let mut admit = |stations: &mut Stations, tasks: &[Task], inflight: &mut u32| {
        while next_admit < n_tasks && *inflight < concurrency {
            if enqueue(tasks, stations, next_admit) {
                *inflight += 1;
            }
            next_admit += 1;
        }
    };

    // Batch starts every station after every event, not only the ones
    // the event touched.
    let start_all = |stations: &mut Stations, tasks: &[Task], events: &mut EventQueue<_>| {
        let now = events.now();
        for resource in Resource::ALL {
            stations.start(resource, |task| {
                let service = tasks[task].stages[tasks[task].next_stage].service;
                events.schedule(now + service, StageDone { task, resource });
                service
            });
        }
    };

    // The initial window is admitted before any station starts.
    admit(&mut stations, &tasks, &mut inflight);
    start_all(&mut stations, &tasks, &mut events);

    // Batched epoch delivery: identical-service task batches make this
    // engine epoch-dense, so draining each instant as one slice replaces
    // a lane comparison per event with one per epoch. Each event is
    // still processed (and every station started) in exact pop order, so
    // the schedule-call sequence — and with it every seq tie-break — is
    // bit-identical to the one-at-a-time loop.
    let mut epoch: Vec<StageDone> = Vec::new();
    while events.pop_epoch(&mut epoch).is_some() {
        for ev in epoch.drain(..) {
            stations.release(ev.resource);
            tasks[ev.task].next_stage += 1;
            if !enqueue(&tasks, &mut stations, ev.task) {
                inflight -= 1;
                admit(&mut stations, &tasks, &mut inflight);
            }
            start_all(&mut stations, &tasks, &mut events);
        }
    }
    debug_assert!(next_admit == n_tasks && inflight == 0);
    debug_assert!(tasks.iter().all(|t| t.next_stage == t.stages.len()));

    let makespan = events.now().saturating_sub(SimTime::ZERO);
    BatchResult {
        makespan,
        tasks: n_tasks,
        utilization: utilization(std::slice::from_ref(&stations), events.now()),
        queue: events.obs_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_task(ms: u64) -> Vec<Stage> {
        vec![Stage::new(Resource::Cpu, SimDuration::from_millis(ms))]
    }

    #[test]
    fn serial_tasks_sum_on_one_core() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(10); 10], 4);
        assert_eq!(res.makespan, SimDuration::from_millis(100));
        assert_eq!(res.tasks, 10);
    }

    #[test]
    fn cores_divide_makespan() {
        let one = run_batch(ServerSpec::new(1), vec![cpu_task(10); 16], 16);
        let four = run_batch(ServerSpec::new(4), vec![cpu_task(10); 16], 16);
        assert_eq!(one.makespan.as_nanos(), 4 * four.makespan.as_nanos());
    }

    #[test]
    fn concurrency_limits_overlap() {
        // Two-stage tasks: disk 10 ms then CPU 10 ms. With concurrency 1
        // nothing overlaps: 8 tasks x 20 ms = 160 ms. With concurrency 2,
        // disk and CPU pipeline: ~90 ms.
        let task = || {
            vec![
                Stage::new(Resource::Disk, SimDuration::from_millis(10)),
                Stage::new(Resource::Cpu, SimDuration::from_millis(10)),
            ]
        };
        let tasks: Vec<_> = (0..8).map(|_| task()).collect();
        let serial = run_batch(ServerSpec::new(1), tasks.clone(), 1);
        let piped = run_batch(ServerSpec::new(1), tasks, 2);
        assert_eq!(serial.makespan, SimDuration::from_millis(160));
        assert!(piped.makespan < SimDuration::from_millis(100));
    }

    #[test]
    fn perf_is_reciprocal_makespan() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(500)], 1);
        assert!((res.perf() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_tasks() {
        let res = run_batch(ServerSpec::new(2), vec![], 4);
        assert_eq!(res.tasks, 0);
        assert_eq!(res.makespan, SimDuration::ZERO);
        let res = run_batch(ServerSpec::new(2), vec![vec![], vec![], cpu_task(1)], 1);
        assert_eq!(res.tasks, 3);
        assert_eq!(res.makespan, SimDuration::from_millis(1));
    }

    #[test]
    fn utilization_reported() {
        let res = run_batch(ServerSpec::new(1), vec![cpu_task(10); 4], 4);
        assert!((res.utilization[Resource::Cpu.index()] - 1.0).abs() < 1e-9);
        assert_eq!(res.utilization[Resource::Disk.index()], 0.0);
    }

    #[test]
    #[should_panic(expected = "task slot")]
    fn rejects_zero_concurrency() {
        run_batch(ServerSpec::new(1), vec![], 0);
    }
}
