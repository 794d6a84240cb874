//! Concurrent instance-pool scheduler.
//!
//! A long-running service front-end (a BEAST server, a web API, an MC³
//! driver) has many independent likelihood sessions and a small fleet of
//! heterogeneous backend instances. Giving every session its own instance
//! wastes device memory; sharing one instance behind a mutex serializes the
//! fleet. [`Pool`] multiplexes sessions over N worker threads, each owning
//! one instance, with:
//!
//! * a **bounded submission queue** with backpressure ([`PoolHandle::submit`]
//!   blocks when full, [`PoolHandle::try_submit`] fails fast with
//!   [`PoolError::Full`]),
//! * **two priority lanes** ([`Lane::Interactive`] always dequeues before
//!   [`Lane::Batch`]),
//! * **work stealing**: each worker prefers its own deque front and steals
//!   from the back of its neighbours' when idle,
//! * **health supervision**: before taking more work a worker whose
//!   implementation's circuit breaker has opened is rebuilt onto a healthy
//!   implementation ([`WorkerSupervisor`]); a job that kills its worker can
//!   evict it and requeue itself once,
//! * **observability**: wait/service latency histograms, steal and eviction
//!   counters, per-worker utilization ([`PoolStats`]) and journal events
//!   ([`crate::obs::EventKind::PoolWorkerEvicted`] etc.),
//! * **clean shutdown**: [`Pool::shutdown_drain`] finishes queued work under
//!   a [`Deadline`]; [`Pool::shutdown_abort`] drops it (outstanding
//!   [`Ticket`]s resolve to [`PoolError::Lost`]).
//!
//! The pool is generic over the worker type `W` so non-instance fleets (e.g.
//! MC³ likelihood engines) can reuse the scheduler; [`InstancePool`] — built
//! with [`PoolBuilder`] from an [`InstanceSpec`] — is the
//! `Box<dyn BeagleInstance>` specialization, where workers are created from
//! the ranked [`ImplementationManager::benchmark_resources`] output (or
//! pinned to named implementations) and supervised against the manager's
//! [`crate::health::HealthRegistry`].
//!
//! ```no_run
//! use beagle_core::{InstanceSpec, ImplementationManager, Lane, PoolBuilder};
//! use std::sync::Arc;
//! let manager = Arc::new(ImplementationManager::new());
//! let pool = PoolBuilder::from_spec(InstanceSpec::for_tree(16, 1000, 4, 4))
//!     .workers(4)
//!     .build(&manager)
//!     .unwrap();
//! let handle = pool.handle();
//! let ticket = handle
//!     .submit(Lane::Interactive, |inst| inst.details().implementation_name.clone())
//!     .unwrap();
//! let name = ticket.wait().unwrap();
//! # let _ = name;
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::api::{BeagleInstance, BufferId, ScalingMode};
use crate::deadline::Deadline;
use crate::error::Result;
use crate::flags::Flags;
use crate::health::Outcome;
use crate::manager::{outcome_of, ImplementationManager};
use crate::obs::{Event, EventKind, Recorder};
use crate::ops::Operation;
use crate::spec::InstanceSpec;

/// Default bound on the number of queued (not yet running) jobs.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Submission priority. Interactive jobs always dequeue before batch jobs,
/// both on a worker's own deque and when stealing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Latency-sensitive: served first.
    Interactive,
    /// Throughput work: served when no interactive job is waiting.
    Batch,
}

impl Lane {
    fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
        }
    }
}

/// Why a submission or a [`Ticket`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// `try_submit` found the bounded queue full. The job was dropped —
    /// resubmit it (or use the blocking `submit`) to run it.
    Full,
    /// The pool is draining or aborted; no new work is accepted.
    ShuttingDown,
    /// The job was dropped before producing a result (abort shutdown, or a
    /// worker died with no requeue budget left).
    Lost,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Full => write!(f, "pool queue full"),
            PoolError::ShuttingDown => write!(f, "pool is shutting down"),
            PoolError::Lost => write!(f, "job dropped before completion"),
        }
    }
}

impl std::error::Error for PoolError {}

// ---------------------------------------------------------------------------
// Ticket: a one-shot future for a job's result.
// ---------------------------------------------------------------------------

enum Slot<T> {
    Pending,
    Done(T),
    Lost,
}

struct TicketCell<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

/// The pool's half of a [`Ticket`]: fulfils it, or — when dropped
/// unfulfilled (job discarded by an abort, worker lost) — resolves it to
/// [`PoolError::Lost`] so waiters never hang.
struct TicketSender<T> {
    cell: Arc<TicketCell<T>>,
}

impl<T> TicketSender<T> {
    fn send(&mut self, value: T) {
        *self.cell.slot.lock() = Slot::Done(value);
        self.cell.ready.notify_all();
    }
}

impl<T> Drop for TicketSender<T> {
    fn drop(&mut self) {
        let mut slot = self.cell.slot.lock();
        if matches!(*slot, Slot::Pending) {
            *slot = Slot::Lost;
            self.cell.ready.notify_all();
        }
    }
}

/// A future-like handle to one submitted job's result.
pub struct Ticket<T> {
    cell: Arc<TicketCell<T>>,
}

impl<T> Ticket<T> {
    fn channel() -> (Self, TicketSender<T>) {
        let cell = Arc::new(TicketCell {
            slot: Mutex::new(Slot::Pending),
            ready: Condvar::new(),
        });
        (
            Self {
                cell: Arc::clone(&cell),
            },
            TicketSender { cell },
        )
    }

    /// Block until the job finishes; [`PoolError::Lost`] if it was dropped.
    pub fn wait(self) -> std::result::Result<T, PoolError> {
        let mut slot = self.cell.slot.lock();
        loop {
            match std::mem::replace(&mut *slot, Slot::Pending) {
                Slot::Done(value) => return Ok(value),
                Slot::Lost => return Err(PoolError::Lost),
                Slot::Pending => self.cell.ready.wait(&mut slot),
            }
        }
    }

    /// Has the job finished (successfully or not)?
    pub fn is_ready(&self) -> bool {
        !matches!(*self.cell.slot.lock(), Slot::Pending)
    }
}

// ---------------------------------------------------------------------------
// Supervision.
// ---------------------------------------------------------------------------

/// Health policy for a pool's workers. Implementations are consulted by
/// worker threads: before taking more work ([`Self::healthy`]), after every
/// job ([`Self::record`]), and when a worker must be replaced
/// ([`Self::rebuild`]).
pub trait WorkerSupervisor<W>: Send + Sync {
    /// May the worker labelled `label` keep receiving work?
    fn healthy(&self, _label: &str) -> bool {
        true
    }

    /// Score one job outcome against `label`.
    fn record(&self, _label: &str, _outcome: Outcome) {}

    /// Replace a dead or quarantined worker. `dead` is the old worker (for
    /// checkpoint extraction); returning `None` keeps it in service
    /// (fail-open — a pool with no healthy replacement must still drain).
    fn rebuild(&self, _label: &str, _dead: &mut W) -> Option<(String, W)> {
        None
    }
}

/// No-op supervisor for plain worker fleets (no health tracking).
pub struct NullSupervisor;

impl<W> WorkerSupervisor<W> for NullSupervisor {}

/// Supervisor for [`InstancePool`]: delegates health to the manager's
/// [`crate::health::HealthRegistry`] (so pool evictions and instance-creation
/// failures share one set of circuit breakers) and rebuilds workers by
/// checkpoint journal-replay when possible, ranked fresh creation otherwise.
pub struct ManagerSupervisor {
    manager: Arc<ImplementationManager>,
    /// Unpinned base spec: fresh rebuilds rank the remaining healthy
    /// implementations instead of recreating the worker's original pin.
    spec: InstanceSpec,
}

impl ManagerSupervisor {
    /// Supervisor rebuilding workers on `manager` from `spec` (any
    /// implementation pin is cleared; rebuilds must be free to move).
    pub fn new(manager: Arc<ImplementationManager>, mut spec: InstanceSpec) -> Self {
        spec.implementation = None;
        Self { manager, spec }
    }
}

impl WorkerSupervisor<Box<dyn BeagleInstance>> for ManagerSupervisor {
    fn healthy(&self, label: &str) -> bool {
        self.manager.health().available(label)
    }

    fn record(&self, label: &str, outcome: Outcome) {
        self.manager.health().record(label, outcome);
    }

    fn rebuild(
        &self,
        label: &str,
        dead: &mut Box<dyn BeagleInstance>,
    ) -> Option<(String, Box<dyn BeagleInstance>)> {
        // Journal replay first: a checkpointable worker whose implementation
        // is still admitted restores bit-exactly onto fresh buffers.
        if self.manager.health().available(label) {
            if let Some(ckpt) = dead.checkpoint() {
                if let Ok(inst) = ckpt.restore(&self.manager) {
                    let name = inst.details().implementation_name.clone();
                    return Some((name, Box::new(inst)));
                }
            }
        }
        // Otherwise ranked fresh creation, which skips open breakers.
        let inst = self.manager.create_from_spec(&self.spec).ok()?;
        let name = inst.details().implementation_name.clone();
        Some((name, inst))
    }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

const HIST_BUCKETS: usize = 26;

/// Log₂-microsecond latency histogram: bucket `b` covers `[2^(b−1), 2^b)` µs
/// (bucket 0 is `< 1 µs`), topping out above ~33 s.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// Sample counts per power-of-two microsecond bucket.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (for means).
    pub total: Duration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total: Duration::ZERO,
        }
    }
}

impl LatencyHistogram {
    fn record(&mut self, sample: Duration) {
        let micros = sample.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total += sample;
    }

    /// Mean sample.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            let nanos = self.total.as_nanos() / u128::from(self.count);
            Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64)
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_micros(1u64 << b);
            }
        }
        Duration::from_micros(1u64 << (HIST_BUCKETS - 1))
    }
}

/// One worker's share of the pool's work.
#[derive(Clone, Debug)]
pub struct WorkerUtilization {
    /// Implementation name (updated when the worker is rebuilt).
    pub label: String,
    /// Jobs completed by this worker.
    pub jobs: u64,
    /// Total service time spent in jobs.
    pub busy: Duration,
}

/// Snapshot of a pool's counters and latency distributions.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// `try_submit` calls rejected with [`PoolError::Full`].
    pub rejected: u64,
    /// Jobs that ran to completion with [`Outcome::Success`].
    pub completed: u64,
    /// Jobs that finished with a non-success outcome.
    pub failed: u64,
    /// Jobs a worker took from another worker's deque.
    pub stolen: u64,
    /// Jobs requeued after their worker was evicted mid-job.
    pub requeued: u64,
    /// Workers evicted (breaker-open or fatal job verdict).
    pub evictions: u64,
    /// Evicted workers successfully replaced.
    pub rebuilds: u64,
    /// High-water mark of queued (not yet running) jobs.
    pub max_queue_depth: usize,
    /// Time from submission to dequeue.
    pub wait: LatencyHistogram,
    /// Time from dequeue to job completion.
    pub service: LatencyHistogram,
    /// Per-worker utilization, indexed by worker.
    pub workers: Vec<WorkerUtilization>,
}

impl PoolStats {
    /// JSON object (stable key order) for reports and benchmarks.
    pub fn to_json(&self) -> String {
        let worker_json: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"label\":\"{}\",\"jobs\":{},\"busy_us\":{}}}",
                    w.label,
                    w.jobs,
                    w.busy.as_micros()
                )
            })
            .collect();
        format!(
            "{{\"submitted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\
             \"stolen\":{},\"requeued\":{},\"evictions\":{},\"rebuilds\":{},\
             \"max_queue_depth\":{},\
             \"wait_us\":{{\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"service_us\":{{\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}},\
             \"workers\":[{}]}}",
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.stolen,
            self.requeued,
            self.evictions,
            self.rebuilds,
            self.max_queue_depth,
            self.wait.mean().as_micros(),
            self.wait.quantile(0.50).as_micros(),
            self.wait.quantile(0.95).as_micros(),
            self.wait.quantile(0.99).as_micros(),
            self.service.mean().as_micros(),
            self.service.quantile(0.50).as_micros(),
            self.service.quantile(0.95).as_micros(),
            self.service.quantile(0.99).as_micros(),
            worker_json.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Internal queue structures.
// ---------------------------------------------------------------------------

/// A job's answer to the scheduler: how did it leave the worker?
enum Verdict {
    /// The job is finished; score `outcome` against the worker.
    Done(Outcome),
    /// The worker is unusable. `requeue` pushes this same job back for
    /// another attempt elsewhere (the closure keeps its own retry budget).
    Evict { requeue: bool, outcome: Outcome },
}

type JobFn<W> = Box<dyn FnMut(&mut W) -> Verdict + Send>;

struct QueuedJob<W> {
    run: JobFn<W>,
    lane: Lane,
    enqueued: Instant,
}

struct WorkerSlot<W> {
    /// `[interactive, batch]` deques. Owner pops the front; thieves pop the
    /// back.
    lanes: [VecDeque<QueuedJob<W>>; 2],
    label: String,
    jobs: u64,
    busy: Duration,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Abort,
}

struct PoolState<W> {
    slots: Vec<WorkerSlot<W>>,
    /// Jobs sitting in deques (excludes running jobs).
    queued: usize,
    /// Round-robin cursor for submissions.
    next: usize,
    phase: Phase,
    /// Worker threads that have not yet exited.
    alive: usize,
    stats: PoolStats,
    recorder: Recorder,
    /// Workers handed back by exiting threads, in no particular order.
    retired: Vec<W>,
}

struct Shared<W> {
    state: Mutex<PoolState<W>>,
    /// Signalled on submission/requeue and on phase changes.
    work_ready: Condvar,
    /// Signalled when a queue slot frees up.
    space_ready: Condvar,
    /// Signalled by each exiting worker thread.
    idle: Condvar,
    capacity: usize,
    supervisor: Arc<dyn WorkerSupervisor<W>>,
}

fn take_job<W>(state: &mut PoolState<W>, me: usize) -> Option<(QueuedJob<W>, bool)> {
    for lane in 0..2 {
        if let Some(job) = state.slots[me].lanes[lane].pop_front() {
            return Some((job, false));
        }
    }
    let n = state.slots.len();
    for lane in 0..2 {
        for k in 1..n {
            let other = (me + k) % n;
            if let Some(job) = state.slots[other].lanes[lane].pop_back() {
                return Some((job, true));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

/// A fixed fleet of worker threads, each owning one `W`, executing jobs
/// submitted through [`PoolHandle`]s. See the module docs for the scheduling
/// contract.
pub struct Pool<W: Send + 'static> {
    shared: Arc<Shared<W>>,
    threads: Vec<JoinHandle<()>>,
}

/// Cloneable submission handle for a [`Pool`].
pub struct PoolHandle<W: Send + 'static> {
    shared: Arc<Shared<W>>,
}

impl<W: Send + 'static> Clone for PoolHandle<W> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<W: Send + 'static> Pool<W> {
    /// Pool over `workers` with no health supervision (see
    /// [`NullSupervisor`]) and the default queue capacity. Labels are
    /// `worker-0`, `worker-1`, …
    pub fn with_workers(workers: Vec<W>) -> Self {
        let labeled = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| (format!("worker-{i}"), w))
            .collect();
        Self::with_supervisor(
            labeled,
            DEFAULT_QUEUE_CAPACITY,
            Arc::new(NullSupervisor),
            false,
        )
    }

    /// Fully configured pool: labelled workers, bounded queue capacity, a
    /// supervisor, and whether scheduler events are journalled.
    pub fn with_supervisor(
        workers: Vec<(String, W)>,
        capacity: usize,
        supervisor: Arc<dyn WorkerSupervisor<W>>,
        journal: bool,
    ) -> Self {
        assert!(!workers.is_empty(), "pool needs at least one worker");
        let n = workers.len();
        let mut slots = Vec::with_capacity(n);
        let mut fleet = Vec::with_capacity(n);
        for (label, worker) in workers {
            slots.push(WorkerSlot {
                lanes: [VecDeque::new(), VecDeque::new()],
                label,
                jobs: 0,
                busy: Duration::ZERO,
            });
            fleet.push(worker);
        }
        let stats = PoolStats {
            workers: slots
                .iter()
                .map(|s| WorkerUtilization {
                    label: s.label.clone(),
                    jobs: 0,
                    busy: Duration::ZERO,
                })
                .collect(),
            ..PoolStats::default()
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                slots,
                queued: 0,
                next: 0,
                phase: Phase::Running,
                alive: n,
                stats,
                recorder: if journal {
                    Recorder::new(true)
                } else {
                    Recorder::disabled()
                },
                retired: Vec::new(),
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
            supervisor,
        });
        let threads = fleet
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("beagle-pool-{index}"))
                    .spawn(move || worker_main(shared, index, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, threads }
    }

    /// A new submission handle (cloneable, sendable across threads).
    pub fn handle(&self) -> PoolHandle<W> {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.state.lock().slots.len()
    }

    /// Snapshot of the pool's counters and histograms.
    pub fn stats(&self) -> PoolStats {
        snapshot_stats(&self.shared)
    }

    /// Drain the scheduler journal (worker evictions/rebuilds, shutdown).
    pub fn take_journal(&self) -> Vec<Event> {
        self.shared.state.lock().recorder.take_journal()
    }

    /// Stop accepting work, finish everything already queued, then join the
    /// workers. `deadline` bounds the drain (measured from this call);
    /// exceeding it aborts the remainder, resolving outstanding tickets to
    /// [`PoolError::Lost`]. Returns `(drained_fully, workers)`.
    ///
    /// The fleet is handed back **unconditionally** — a deadline expiring
    /// mid-drain aborts the remaining sessions (every undone ticket/callback
    /// resolves `Lost`, never hangs) but still joins every worker thread and
    /// returns all N instances, so callers can always inspect, checkpoint,
    /// or reuse them. `tests::drain_deadline_mid_drain_returns_full_fleet`
    /// pins this down.
    pub fn shutdown_drain(mut self, deadline: Option<Deadline>) -> (bool, Vec<W>) {
        let start = Instant::now();
        let mut drained = true;
        let mut undone: Vec<QueuedJob<W>> = Vec::new();
        {
            let mut state = self.shared.state.lock();
            state.phase = Phase::Draining;
            self.shared.work_ready.notify_all();
            self.shared.space_ready.notify_all();
            while state.alive > 0 {
                match deadline {
                    Some(d) => {
                        let elapsed = start.elapsed();
                        if d.exceeded_by(elapsed) {
                            state.phase = Phase::Abort;
                            self.shared.work_ready.notify_all();
                            drained = false;
                            while state.alive > 0 {
                                self.shared.idle.wait(&mut state);
                            }
                            break;
                        }
                        self.shared.idle.wait_for(&mut state, d.budget() - elapsed);
                    }
                    None => self.shared.idle.wait(&mut state),
                }
            }
            // A drain that aborted leaves undone jobs in the deques; they
            // are dropped below, *outside* the state lock, because dropping
            // a session job fires its Lost callback (which may do real work,
            // like writing a response frame to a socket).
            for slot in &mut state.slots {
                drained &= slot.lanes[0].is_empty() && slot.lanes[1].is_empty();
                undone.extend(slot.lanes[0].drain(..));
                undone.extend(slot.lanes[1].drain(..));
            }
            state.queued = 0;
            let completed = state.stats.completed;
            state.recorder.event(EventKind::PoolShutdown, || {
                format!("mode=drain complete={drained} jobs_completed={completed}")
            });
        }
        drop(undone);
        let workers = self.join_and_retire();
        (drained, workers)
    }

    /// Abort immediately: queued jobs are dropped (tickets resolve to
    /// [`PoolError::Lost`]); jobs already running finish. Returns the fleet.
    pub fn shutdown_abort(mut self) -> Vec<W> {
        let mut undone: Vec<QueuedJob<W>> = Vec::new();
        {
            let mut state = self.shared.state.lock();
            state.phase = Phase::Abort;
            self.shared.work_ready.notify_all();
            self.shared.space_ready.notify_all();
            while state.alive > 0 {
                self.shared.idle.wait(&mut state);
            }
            for slot in &mut state.slots {
                undone.extend(slot.lanes[0].drain(..));
                undone.extend(slot.lanes[1].drain(..));
            }
            state.queued = 0;
            let completed = state.stats.completed;
            state.recorder.event(EventKind::PoolShutdown, || {
                format!("mode=abort jobs_completed={completed}")
            });
        }
        // Dropped outside the lock: job drops fire Lost callbacks.
        drop(undone);
        self.join_and_retire()
    }

    fn join_and_retire(&mut self) -> Vec<W> {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        std::mem::take(&mut self.shared.state.lock().retired)
    }
}

impl<W: Send + 'static> Drop for Pool<W> {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return; // already shut down
        }
        {
            let mut state = self.shared.state.lock();
            state.phase = Phase::Abort;
            self.shared.work_ready.notify_all();
            self.shared.space_ready.notify_all();
        }
        let _ = self.join_and_retire();
    }
}

fn snapshot_stats<W>(shared: &Shared<W>) -> PoolStats {
    let state = shared.state.lock();
    let mut stats = state.stats.clone();
    stats.workers = state
        .slots
        .iter()
        .map(|s| WorkerUtilization {
            label: s.label.clone(),
            jobs: s.jobs,
            busy: s.busy,
        })
        .collect();
    stats
}

impl<W: Send + 'static> PoolHandle<W> {
    /// Queue depth right now (jobs waiting, not running).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().queued
    }

    /// Snapshot of the pool's counters and histograms.
    pub fn stats(&self) -> PoolStats {
        snapshot_stats(&self.shared)
    }

    /// Submit a closure job, blocking while the queue is full. The closure
    /// runs with exclusive access to one worker; its return value resolves
    /// the [`Ticket`].
    pub fn submit<T, F>(&self, lane: Lane, f: F) -> std::result::Result<Ticket<T>, PoolError>
    where
        T: Send + 'static,
        F: FnOnce(&mut W) -> T + Send + 'static,
    {
        self.submit_inner(lane, f, true)
    }

    /// Non-blocking [`Self::submit`]: a full queue fails with
    /// [`PoolError::Full`] and the closure is dropped.
    pub fn try_submit<T, F>(&self, lane: Lane, f: F) -> std::result::Result<Ticket<T>, PoolError>
    where
        T: Send + 'static,
        F: FnOnce(&mut W) -> T + Send + 'static,
    {
        self.submit_inner(lane, f, false)
    }

    fn submit_inner<T, F>(
        &self,
        lane: Lane,
        f: F,
        block: bool,
    ) -> std::result::Result<Ticket<T>, PoolError>
    where
        T: Send + 'static,
        F: FnOnce(&mut W) -> T + Send + 'static,
    {
        let (ticket, sender) = Ticket::channel();
        let mut f = Some(f);
        let mut sender = Some(sender);
        let run: JobFn<W> = Box::new(move |worker| {
            let f = f.take().expect("closure job runs once");
            let value = f(worker);
            if let Some(mut s) = sender.take() {
                s.send(value);
            }
            Verdict::Done(Outcome::Success)
        });
        self.enqueue(run, lane, block).map_err(|(e, _job)| e)?;
        Ok(ticket)
    }

    /// Queue a raw job. On rejection the job is handed back with the error
    /// so callers with side-effecting drop guards (see
    /// [`Self::submit_session_with`]) can disarm them before the closure is
    /// dropped. A rejected `try_submit` is counted in
    /// [`PoolStats::rejected`], which is part of the stats JSON so server
    /// `Busy` responses stay auditable from a stats snapshot.
    fn enqueue(
        &self,
        run: JobFn<W>,
        lane: Lane,
        block: bool,
    ) -> std::result::Result<(), (PoolError, JobFn<W>)> {
        let shared = &self.shared;
        let mut state = shared.state.lock();
        loop {
            if state.phase != Phase::Running {
                return Err((PoolError::ShuttingDown, run));
            }
            if state.queued < shared.capacity {
                break;
            }
            if !block {
                state.stats.rejected += 1;
                return Err((PoolError::Full, run));
            }
            shared.space_ready.wait(&mut state);
        }
        let slot = state.next % state.slots.len();
        state.next = state.next.wrapping_add(1);
        state.slots[slot].lanes[lane.index()].push_back(QueuedJob {
            run,
            lane,
            enqueued: Instant::now(),
        });
        state.queued += 1;
        state.stats.submitted += 1;
        state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queued);
        drop(state);
        shared.work_ready.notify_one();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Worker loop.
// ---------------------------------------------------------------------------

fn worker_main<W: Send + 'static>(shared: Arc<Shared<W>>, index: usize, mut worker: W) {
    let mut label = shared.state.lock().slots[index].label.clone();
    loop {
        // Take a job (or exit on drain/abort).
        let mut job = {
            let mut state = shared.state.lock();
            loop {
                if state.phase == Phase::Abort {
                    return exit_worker(&shared, state, worker);
                }
                if let Some((job, stolen)) = take_job(&mut state, index) {
                    state.queued -= 1;
                    if stolen {
                        state.stats.stolen += 1;
                    }
                    state.stats.wait.record(job.enqueued.elapsed());
                    shared.space_ready.notify_one();
                    break job;
                }
                if state.phase == Phase::Draining {
                    return exit_worker(&shared, state, worker);
                }
                shared.work_ready.wait(&mut state);
            }
        };

        // Breaker consultation: a quarantined implementation stops receiving
        // work — swap to a healthy one before running the job. Fail-open:
        // if no replacement exists, the old worker keeps serving.
        if !shared.supervisor.healthy(&label) {
            let quarantined = label.clone();
            if let Some((new_label, new_worker)) = shared.supervisor.rebuild(&label, &mut worker) {
                worker = new_worker;
                let mut state = shared.state.lock();
                state.stats.evictions += 1;
                state.stats.rebuilds += 1;
                state.recorder.event(EventKind::PoolWorkerEvicted, || {
                    format!("worker={index} impl={quarantined} reason=breaker_open")
                });
                state.recorder.event(EventKind::PoolWorkerRebuilt, || {
                    format!("worker={index} impl={new_label}")
                });
                state.slots[index].label = new_label.clone();
                label = new_label;
            }
        }

        let started = Instant::now();
        let verdict = (job.run)(&mut worker);
        let service = started.elapsed();

        match verdict {
            Verdict::Done(outcome) => {
                shared.supervisor.record(&label, outcome);
                let mut state = shared.state.lock();
                state.stats.service.record(service);
                if outcome == Outcome::Success {
                    state.stats.completed += 1;
                } else {
                    state.stats.failed += 1;
                }
                let slot = &mut state.slots[index];
                slot.jobs += 1;
                slot.busy += service;
            }
            Verdict::Evict { requeue, outcome } => {
                shared.supervisor.record(&label, outcome);
                let dead = label.clone();
                let rebuilt = shared.supervisor.rebuild(&label, &mut worker);
                let mut state = shared.state.lock();
                state.stats.service.record(service);
                state.stats.evictions += 1;
                state.recorder.event(EventKind::PoolWorkerEvicted, || {
                    format!("worker={index} impl={dead} outcome={outcome:?}")
                });
                if let Some((new_label, new_worker)) = rebuilt {
                    worker = new_worker;
                    state.stats.rebuilds += 1;
                    state.recorder.event(EventKind::PoolWorkerRebuilt, || {
                        format!("worker={index} impl={new_label}")
                    });
                    state.slots[index].label = new_label.clone();
                    label = new_label;
                }
                if requeue {
                    // Hand the job to the next worker's front so the retry
                    // prefers a different instance; its closure keeps its own
                    // retry budget.
                    let n = state.slots.len();
                    let target = (index + 1) % n;
                    job.enqueued = Instant::now();
                    let lane = job.lane.index();
                    state.slots[target].lanes[lane].push_front(job);
                    state.queued += 1;
                    state.stats.requeued += 1;
                    state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queued);
                    drop(state);
                    shared.work_ready.notify_all();
                } else {
                    state.stats.failed += 1;
                }
            }
        }
    }
}

fn exit_worker<W>(
    shared: &Shared<W>,
    mut state: parking_lot::MutexGuard<'_, PoolState<W>>,
    worker: W,
) {
    state.retired.push(worker);
    state.alive -= 1;
    drop(state);
    // Every exit is broadcast: shutdown waits for alive == 0, and fellow
    // workers blocked in work_ready must re-check the phase.
    shared.idle.notify_all();
    shared.work_ready.notify_all();
}

// ---------------------------------------------------------------------------
// The BeagleInstance specialization.
// ---------------------------------------------------------------------------

/// A [`Pool`] whose workers are boxed [`BeagleInstance`]s.
pub type InstancePool = Pool<Box<dyn BeagleInstance>>;

/// A self-contained typed likelihood session: all model inputs plus the
/// operation schedule, evaluable on *any* pool worker sized for it (which is
/// what makes requeue-after-eviction safe — the session carries everything
/// it needs and overwrites whatever the previous session left behind).
#[derive(Clone, Debug, Default)]
pub struct SessionRequest {
    /// Per-tip compact state sequences (`tip_states[t]` loads tip `t`).
    pub tip_states: Vec<Vec<u32>>,
    /// Site pattern weights.
    pub pattern_weights: Vec<f64>,
    /// Rate-category rates.
    pub category_rates: Vec<f64>,
    /// Rate-category weights (loaded into weight buffer 0).
    pub category_weights: Vec<f64>,
    /// Equilibrium state frequencies (loaded into frequency buffer 0).
    pub frequencies: Vec<f64>,
    /// Eigen decomposition `(vectors, inverse_vectors, values)` for eigen
    /// buffer 0; `None` if `matrices` is empty (matrices set elsewhere).
    pub eigen: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    /// `(matrix buffer, branch length)` pairs derived from eigen buffer 0.
    pub matrices: Vec<(usize, f64)>,
    /// Dependency-ordered partials schedule.
    pub operations: Vec<Operation>,
    /// Root partials buffer to integrate.
    pub root: BufferId,
    /// Rescale partials and integrate with cumulative scaling (the
    /// operations must carry matching `dest_scale_write` indices).
    pub scaled: bool,
    /// Per-request deadline: when set, [`Self::evaluate`] installs it on the
    /// worker for the duration of this session (the watchdog cancels calls
    /// that exceed it with [`crate::error::BeagleError::Timeout`]) and then
    /// resets the worker to its driver-default deadline. Rides the wire in
    /// remote submissions (`core::wire`).
    pub deadline: Option<Deadline>,
}

impl SessionRequest {
    /// Run the full session on `inst` and return the root log-likelihood.
    /// Mirrors the canonical evaluation protocol: load model, update
    /// matrices, update partials, (reset + accumulate scale factors),
    /// integrate the root.
    ///
    /// A session carrying a [`Self::deadline`] installs it before the first
    /// call and — success or failure — resets the worker to the driver
    /// default (`set_deadline(None)`) afterwards, so a tight per-request
    /// budget cannot leak onto later sessions sharing the worker.
    pub fn evaluate(&self, inst: &mut dyn BeagleInstance) -> Result<f64> {
        match self.deadline {
            None => self.evaluate_inner(inst),
            Some(deadline) => {
                inst.set_deadline(Some(deadline));
                let result = self.evaluate_inner(inst);
                inst.set_deadline(None);
                result
            }
        }
    }

    fn evaluate_inner(&self, inst: &mut dyn BeagleInstance) -> Result<f64> {
        if let Some((vectors, inverse, values)) = &self.eigen {
            inst.set_eigen_decomposition(0, vectors, inverse, values)?;
        }
        inst.set_state_frequencies(0, &self.frequencies)?;
        inst.set_category_rates(&self.category_rates)?;
        inst.set_category_weights(0, &self.category_weights)?;
        inst.set_pattern_weights(&self.pattern_weights)?;
        for (tip, states) in self.tip_states.iter().enumerate() {
            inst.set_tip_states(tip, states)?;
        }
        if !self.matrices.is_empty() {
            let (indices, lengths): (Vec<usize>, Vec<f64>) = self.matrices.iter().copied().unzip();
            inst.update_transition_matrices(0, &indices, &lengths)?;
        }
        inst.update_partials(&self.operations)?;
        let scaling = if self.scaled {
            let cumulative = inst.config().scale_buffer_count - 1;
            inst.reset_scale_factors(cumulative)?;
            let buffers: Vec<usize> = self.operations.iter().map(|o| o.destination).collect();
            inst.accumulate_scale_factors(&buffers, cumulative)?;
            ScalingMode::cumulative(cumulative)
        } else {
            ScalingMode::None
        };
        inst.integrate_root(self.root, BufferId(0), BufferId(0), scaling)
    }
}

/// How a session submitted through [`PoolHandle::submit_session_with`]
/// ended: the evaluation's own result, or [`PoolError::Lost`] when the pool
/// dropped the job before completion (abort shutdown, drain deadline, a dead
/// worker with no requeue budget left). Exactly one of these reaches the
/// callback, exactly once.
pub type SessionOutcome = std::result::Result<Result<f64>, PoolError>;

type SessionCallback = Box<dyn FnOnce(SessionOutcome) + Send>;

/// Shared slot for a session's completion callback. The job closure fires it
/// on completion; if the closure is instead *dropped* while the callback is
/// still armed (the job never ran to completion), [`Drop`] fires it with
/// [`PoolError::Lost`] — so a remote client waiting on the session always
/// gets an answer, exactly once.
struct SessionCompletion {
    slot: Arc<Mutex<Option<SessionCallback>>>,
}

impl SessionCompletion {
    fn complete(&self, outcome: SessionOutcome) {
        if let Some(callback) = self.slot.lock().take() {
            callback(outcome);
        }
    }
}

impl Drop for SessionCompletion {
    fn drop(&mut self) {
        if let Some(callback) = self.slot.lock().take() {
            callback(Err(PoolError::Lost));
        }
    }
}

impl PoolHandle<Box<dyn BeagleInstance>> {
    /// Submit a typed likelihood session, blocking while the queue is full.
    /// Unlike closure jobs, session jobs feed real outcomes to the health
    /// registry, and a session whose worker dies (timeout / permanent fault)
    /// is requeued once onto another worker before its ticket fails.
    pub fn submit_session(
        &self,
        lane: Lane,
        session: SessionRequest,
    ) -> std::result::Result<Ticket<Result<f64>>, PoolError> {
        let (ticket, sender) = Ticket::channel();
        self.submit_session_with(lane, session, move |outcome| {
            // Err(Lost) drops the sender unfulfilled, which resolves the
            // ticket to PoolError::Lost — same contract as closure jobs.
            if let Ok(result) = outcome {
                let mut sender = sender;
                sender.send(result);
            }
        })?;
        Ok(ticket)
    }

    /// [`Self::submit_session`] in continuation-passing style: instead of a
    /// [`Ticket`] to wait on, `on_done` runs — on whichever worker thread
    /// finishes the session — with the [`SessionOutcome`]. This is the
    /// server front-end's hook: the callback writes the response frame back
    /// to the client socket, so no thread blocks per in-flight session.
    ///
    /// Delivery is exactly-once: a session the pool accepts either completes
    /// (callback gets its result) or is dropped in a shutdown/abort
    /// (callback gets `Err(PoolError::Lost)`). A session the pool *rejects*
    /// (`Err` return here) never fires the callback.
    pub fn submit_session_with<F>(
        &self,
        lane: Lane,
        session: SessionRequest,
        on_done: F,
    ) -> std::result::Result<(), PoolError>
    where
        F: FnOnce(SessionOutcome) + Send + 'static,
    {
        self.submit_session_inner(lane, session, Box::new(on_done), true)
    }

    /// Non-blocking [`Self::submit_session_with`]: a full queue fails fast
    /// with [`PoolError::Full`] (counted in [`PoolStats::rejected`]) and the
    /// callback is dropped un-fired.
    pub fn try_submit_session_with<F>(
        &self,
        lane: Lane,
        session: SessionRequest,
        on_done: F,
    ) -> std::result::Result<(), PoolError>
    where
        F: FnOnce(SessionOutcome) + Send + 'static,
    {
        self.submit_session_inner(lane, session, Box::new(on_done), false)
    }

    fn submit_session_inner(
        &self,
        lane: Lane,
        session: SessionRequest,
        on_done: SessionCallback,
        block: bool,
    ) -> std::result::Result<(), PoolError> {
        let slot = Arc::new(Mutex::new(Some(on_done)));
        let completion = SessionCompletion {
            slot: Arc::clone(&slot),
        };
        let mut retried = false;
        let run: JobFn<Box<dyn BeagleInstance>> =
            Box::new(move |inst| match session.evaluate(inst.as_mut()) {
                Ok(lnl) => {
                    completion.complete(Ok(Ok(lnl)));
                    Verdict::Done(Outcome::Success)
                }
                Err(e) => {
                    let outcome = outcome_of(&e);
                    let fatal = matches!(outcome, Outcome::Timeout | Outcome::Permanent);
                    if fatal && !retried {
                        retried = true;
                        Verdict::Evict {
                            requeue: true,
                            outcome,
                        }
                    } else {
                        completion.complete(Ok(Err(e)));
                        if fatal {
                            Verdict::Evict {
                                requeue: false,
                                outcome,
                            }
                        } else {
                            Verdict::Done(outcome)
                        }
                    }
                }
            });
        self.enqueue(run, lane, block).map_err(|(error, job)| {
            // Disarm before the rejected closure (and its completion guard)
            // drops: a rejected submission reports its error here and must
            // not also fire the callback with Lost.
            slot.lock().take();
            drop(job);
            error
        })
    }
}

/// Builder for an [`InstancePool`]: the [`InstanceSpec`] idiom extended to a
/// whole fleet. Workers are pinned to named implementations with
/// [`Self::pin`], or placed on the top-ranked implementations from
/// [`ImplementationManager::benchmark_resources`] otherwise. The spec's
/// [`Flags::INSTANCE_STATS`] preference also enables the pool's own
/// scheduler journal.
pub struct PoolBuilder {
    spec: InstanceSpec,
    workers: usize,
    pinned: Vec<String>,
    capacity: usize,
}

impl PoolBuilder {
    /// Start from the spec every worker instance is created from.
    pub fn from_spec(spec: InstanceSpec) -> Self {
        Self {
            spec,
            workers: 2,
            pinned: Vec::new(),
            capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }

    /// Number of worker instances (default 2).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Pin workers to these implementation names instead of benchmark
    /// ranking; cycled when there are more workers than names.
    pub fn pin<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pinned = names.into_iter().map(Into::into).collect();
        self
    }

    /// Bound on queued (not yet running) jobs (default
    /// [`DEFAULT_QUEUE_CAPACITY`]).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.capacity = n.max(1);
        self
    }

    /// Create the workers and start the pool.
    pub fn build(self, manager: &Arc<ImplementationManager>) -> Result<InstancePool> {
        let names: Vec<String> = if self.pinned.is_empty() {
            manager
                .benchmark_resources(&self.spec.config, self.spec.requirements)
                .into_iter()
                .filter(|b| b.error.is_none())
                .map(|b| b.implementation)
                .collect()
        } else {
            self.pinned.clone()
        };
        if names.is_empty() {
            return Err(crate::error::BeagleError::NoImplementationFound);
        }
        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let name = &names[i % names.len()];
            let inst = self.spec.clone().named(name.clone()).instantiate(manager)?;
            workers.push((inst.details().implementation_name.clone(), inst));
        }
        let journal = self.spec.preferences.contains(Flags::INSTANCE_STATS);
        let supervisor = Arc::new(ManagerSupervisor::new(
            Arc::clone(manager),
            self.spec.clone(),
        ));
        Ok(Pool::with_supervisor(
            workers,
            self.capacity,
            supervisor,
            journal,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_jobs_round_trip() {
        let pool = Pool::with_workers(vec![0u64, 0u64]);
        let handle = pool.handle();
        let tickets: Vec<_> = (0..32)
            .map(|i| {
                handle
                    .submit(Lane::Batch, move |counter: &mut u64| {
                        *counter += 1;
                        i * 2
                    })
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), (i as u64) * 2);
        }
        // Tickets resolve inside the job closure, slightly before the worker
        // books the completion — counters are exact only after the drain.
        let stats = pool.stats();
        assert_eq!(stats.submitted, 32);
        let (drained, workers) = pool.shutdown_drain(None);
        assert!(drained);
        assert_eq!(workers.iter().sum::<u64>(), 32);
    }

    #[test]
    fn try_submit_full_queue_rejects() {
        // One worker, capacity 1; park the worker on a gate so the queue
        // stays observable.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Pool::with_supervisor(
            vec![("w0".to_string(), ())],
            1,
            Arc::new(NullSupervisor),
            false,
        );
        let handle = pool.handle();
        let g = Arc::clone(&gate);
        let _blocker = handle
            .submit(Lane::Batch, move |_: &mut ()| {
                let (lock, cv) = &*g;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            })
            .unwrap();
        // Wait for the worker to dequeue the blocker — until then it still
        // occupies the single queue slot and try_submit would reject at once.
        while handle.queue_depth() > 0 {
            std::thread::yield_now();
        }
        // Fill the single queue slot, then overflow it.
        let mut filled = None;
        let mut rejected = false;
        for _ in 0..50 {
            match handle.try_submit(Lane::Batch, |_: &mut ()| 7) {
                Ok(t) if filled.is_none() => filled = Some(t),
                Ok(_) => {}
                Err(PoolError::Full) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected, "bounded queue never reported Full");
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        assert_eq!(filled.unwrap().wait(), Ok(7));
        assert!(pool.stats().rejected >= 1);
        pool.shutdown_drain(None);
    }

    #[test]
    fn interactive_lane_preempts_batch() {
        // Single worker parked on a gate; batch jobs queued first,
        // interactive after — interactive must still run first.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        let pool = Pool::with_workers(vec![()]);
        let handle = pool.handle();
        let g = Arc::clone(&gate);
        let _blocker = handle
            .submit(Lane::Batch, move |_: &mut ()| {
                let (lock, cv) = &*g;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
            })
            .unwrap();
        for i in 0..3 {
            let order = Arc::clone(&order);
            handle
                .submit(Lane::Batch, move |_: &mut ()| {
                    order.lock().push(("batch", i))
                })
                .unwrap();
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            handle
                .submit(Lane::Interactive, move |_: &mut ()| {
                    order.lock().push(("interactive", i))
                })
                .unwrap();
        }
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        let (drained, _) = pool.shutdown_drain(None);
        assert!(drained);
        let order = Arc::try_unwrap(order).unwrap().into_inner();
        assert_eq!(
            order,
            vec![
                ("interactive", 0),
                ("interactive", 1),
                ("interactive", 2),
                ("batch", 0),
                ("batch", 1),
                ("batch", 2)
            ]
        );
    }

    #[test]
    fn stealing_balances_idle_workers() {
        // Four workers, many slow-ish jobs; with round-robin placement and
        // stealing, every worker should end up doing some of the work.
        let pool = Pool::with_workers(vec![(), (), (), ()]);
        let handle = pool.handle();
        let tickets: Vec<_> = (0..64)
            .map(|_| {
                handle
                    .submit(Lane::Batch, |_: &mut ()| {
                        std::thread::sleep(Duration::from_micros(200));
                    })
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        pool.shutdown_drain(None);
        let stats = handle.stats();
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.workers.iter().map(|w| w.jobs).sum::<u64>(), 64);
    }

    #[test]
    fn abort_resolves_tickets_lost() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Pool::with_workers(vec![()]);
        let handle = pool.handle();
        let g = Arc::clone(&gate);
        let blocker = handle
            .submit(Lane::Batch, move |_: &mut ()| {
                let (lock, cv) = &*g;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                1
            })
            .unwrap();
        let queued = handle.submit(Lane::Batch, |_: &mut ()| 2).unwrap();
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        // The blocker may or may not finish before the abort lands; the
        // queued job must either run or resolve Lost — never hang.
        let pool_workers = pool.shutdown_abort();
        assert_eq!(pool_workers.len(), 1);
        let _ = blocker.wait();
        match queued.wait() {
            Ok(2) | Err(PoolError::Lost) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let pool = Pool::with_workers(vec![()]);
        let handle = pool.handle();
        pool.shutdown_drain(None);
        assert!(matches!(
            handle.submit(Lane::Batch, |_: &mut ()| ()),
            Err(PoolError::ShuttingDown)
        ));
    }

    #[test]
    fn eviction_requeues_and_rebuilds() {
        // Worker type: a flag that says whether the instance is broken.
        struct Flaky {
            broken: bool,
        }
        struct Reviver;
        impl WorkerSupervisor<Flaky> for Reviver {
            fn rebuild(&self, _label: &str, _dead: &mut Flaky) -> Option<(String, Flaky)> {
                Some(("revived".to_string(), Flaky { broken: false }))
            }
        }
        let pool = Pool::with_supervisor(
            vec![("flaky".to_string(), Flaky { broken: true })],
            DEFAULT_QUEUE_CAPACITY,
            Arc::new(Reviver),
            true,
        );
        let handle = pool.handle();
        // A raw verdict job via submit_inner is private; emulate a session's
        // evict-requeue with a closure retry budget instead.
        let attempts = Arc::new(Mutex::new(0u32));
        let a = Arc::clone(&attempts);
        let (ticket, sender) = Ticket::channel();
        let mut sender = Some(sender);
        let run: JobFn<Flaky> = Box::new(move |w| {
            *a.lock() += 1;
            if w.broken {
                Verdict::Evict {
                    requeue: true,
                    outcome: Outcome::Permanent,
                }
            } else {
                if let Some(mut s) = sender.take() {
                    s.send("ok");
                }
                Verdict::Done(Outcome::Success)
            }
        });
        handle
            .enqueue(run, Lane::Interactive, true)
            .map_err(|(e, _job)| e)
            .unwrap();
        assert_eq!(ticket.wait(), Ok("ok"));
        assert_eq!(*attempts.lock(), 2);
        let stats = pool.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.requeued, 1);
        assert_eq!(stats.workers[0].label, "revived");
        let journal = pool.take_journal();
        let kinds: Vec<_> = journal.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::PoolWorkerEvicted));
        assert!(kinds.contains(&EventKind::PoolWorkerRebuilt));
        pool.shutdown_drain(None);
    }

    #[test]
    fn drain_deadline_aborts_stragglers() {
        let pool = Pool::with_workers(vec![()]);
        let handle = pool.handle();
        let _slow = handle
            .submit(Lane::Batch, |_: &mut ()| {
                std::thread::sleep(Duration::from_millis(50));
            })
            .unwrap();
        let queued: Vec<_> = (0..4)
            .map(|_| {
                handle
                    .submit(Lane::Batch, |_: &mut ()| {
                        std::thread::sleep(Duration::from_millis(50));
                    })
                    .unwrap()
            })
            .collect();
        let (drained, _) = pool.shutdown_drain(Some(Deadline::new(Duration::from_millis(5))));
        assert!(!drained, "5ms deadline cannot drain 250ms of work");
        // Undone jobs must resolve, not hang.
        let mut lost = 0;
        for t in queued {
            if t.wait().is_err() {
                lost += 1;
            }
        }
        assert!(lost >= 1);
    }

    #[test]
    fn drain_deadline_mid_drain_returns_full_fleet() {
        // Satellite check for `shutdown_drain`: a deadline expiring while
        // the drain is still working through the queue must (a) abort the
        // remaining sessions — every outstanding ticket resolves, none
        // hang — and (b) still hand back the complete worker fleet.
        let pool = Pool::with_workers(vec![0u64, 0u64]);
        let handle = pool.handle();
        // Enough 30 ms jobs that two workers cannot finish them within the
        // 10 ms drain budget; the first job on each worker is already
        // running when the drain starts, the rest are mid-drain stragglers.
        let tickets: Vec<_> = (0..12)
            .map(|_| {
                handle
                    .submit(Lane::Batch, |counter: &mut u64| {
                        std::thread::sleep(Duration::from_millis(30));
                        *counter += 1;
                    })
                    .unwrap()
            })
            .collect();
        let (drained, fleet) = pool.shutdown_drain(Some(Deadline::new(Duration::from_millis(10))));
        assert!(!drained, "10ms cannot drain ~360ms of queued work");
        assert_eq!(
            fleet.len(),
            2,
            "an aborted drain must still return every worker"
        );
        let mut done = 0;
        let mut lost = 0;
        for t in tickets {
            match t.wait() {
                Ok(()) => done += 1,
                Err(PoolError::Lost) => lost += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(lost >= 1, "the aborted remainder must resolve Lost");
        assert_eq!(
            fleet.iter().sum::<u64>(),
            done,
            "workers' own counters must agree with the completed tickets"
        );
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(3)); // bucket 2 → upper bound 4 µs
        }
        h.record(Duration::from_millis(40)); // the tail outlier
        assert_eq!(h.quantile(0.5), Duration::from_micros(4));
        assert_eq!(h.quantile(0.95), Duration::from_micros(4));
        assert!(h.quantile(1.0) >= Duration::from_millis(32));
        assert_eq!(h.count, 100);
    }

    #[test]
    fn histogram_mean_survives_counts_beyond_u32() {
        // Counts above u32::MAX, multiples of 2^32 included, must divide
        // exactly rather than truncate the count.
        for count in [1u64 << 32, (1u64 << 32) + 5, u64::from(u32::MAX) * 3] {
            let h = LatencyHistogram {
                count,
                total: Duration::from_nanos(7 * count),
                ..LatencyHistogram::default()
            };
            assert_eq!(h.mean(), Duration::from_nanos(7), "count {count}");
        }
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(5));
        assert_eq!(h.mean(), Duration::from_micros(4));
    }
}
