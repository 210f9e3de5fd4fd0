//! The DataCell scheduler — a Petri-net execution model.
//!
//! "The execution of the factories is orchestrated by the DataCell
//! scheduler, which implements a Petri-net model. The firing condition is
//! aligned to arrival of events; once there are tuples that may be relevant
//! to a waiting query, we trigger its evaluation." (paper §2)
//!
//! Places are baskets, transitions are factories. A factory is *enabled*
//! when its firing condition holds (enough unconsumed tuples in all input
//! baskets, or — for time-based windows — the clock passed the next window
//! boundary). The one [`Scheduler`] owns
//!
//! * the **factory slots**. A factory leaves its slot as an owned
//!   `Box<dyn Factory>` for as long as it fires, so a transition can never
//!   fire on two threads at once — mutual exclusion by ownership instead
//!   of locks;
//! * a **dependency map** from input streams (places) to the factories
//!   reading them (transitions) — the Petri-net edges. Together with the
//!   per-stream **growth marks** it narrows each readiness scan to the
//!   readers of baskets that grew, and it bounds the basket-expiry scan in
//!   [`Scheduler::min_consumed`] to actual readers;
//! * the **executor**, fixed by the worker count the scheduler is built
//!   with (`EngineConfig::workers` / `DATACELL_WORKERS`): a persistent
//!   pool of worker threads fed by a work queue, or — with one worker, the
//!   default — the calling thread itself, with no thread, queue or channel
//!   in between. Either way a dispatched factory runs the same
//!   `fire_to_quiescence`: it fires until its firing condition fails and
//!   then returns to its slot.
//!
//! There is one drain loop ([`Scheduler::run_until_idle`]): scan for
//! enabled transitions, execute them, handle the replies that are back
//! (requeue a transition that stayed enabled), and rescan — a receptor
//! thread may have appended in the meantime — until a scan finds nothing
//! with nothing in flight.
//!
//! Factories sharing a basket still see consistent oid-ordered reads: all
//! basket access goes through the shared-basket mutex, each factory
//! owns its private consumption cursor, and tuples are only expired
//! between drains (`&mut self` on the drain excludes `min_consumed`
//! callers at compile time), so a slower concurrent consumer can never
//! lose an unconsumed oid to garbage collection.
//!
//! Receptors append to a stream's one basket ([`ShardedBasket`]) under
//! its lock, from any thread, and each append is readable once it
//! returns. The scheduler polls every basket's `end_oid` at each
//! readiness scan, so a receptor append wakes its readers at the next
//! scan, however many receptors append concurrently.

use crate::error::DataCellError;
use crate::factory::{Factory, FireOutcome};
use crate::metrics::SlideMetrics;
use datacell_basket::{ShardedBasket, Timestamp};
use datacell_kernel::Oid;
use datacell_plan::ResultSet;
use datacell_telemetry::{Counter, Gauge, Histogram};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Identifier of a registered factory (continuous query).
pub type FactoryId = usize;

/// A produced result, tagged with its factory.
#[derive(Debug)]
pub struct Emission {
    /// Which factory produced it.
    pub factory: FactoryId,
    /// The window result.
    pub result: ResultSet,
    /// The engine clock when it was produced.
    pub at: Timestamp,
    /// The slide's cost decomposition (paper Fig. 7: main plan vs. merge,
    /// rows emitted), carried along from the factory's
    /// [`FireOutcome::Produced`] so the engine can fold it into the
    /// per-query telemetry series at the one deterministic collection
    /// point.
    pub metrics: SlideMetrics,
}

/// A dispatched transition: the factory is moved out of its slot for the
/// duration, which is what makes firing exclusive.
struct Job {
    id: FactoryId,
    factory: Box<dyn Factory>,
    clock: Timestamp,
    /// When the job entered the work queue — the start of the wake-to-fire
    /// latency window. `None` when the calling thread fires the job itself
    /// (nothing waits) and under the telemetry kill switch.
    enqueued: Option<Instant>,
}

/// The factory comes home.
struct Done {
    id: FactoryId,
    factory: Box<dyn Factory>,
    /// Individual `Factory::fire` calls made.
    fires: u64,
    /// Whether any fire call consumed input or produced output (drives the
    /// requeue decision).
    progressed: bool,
    error: Option<DataCellError>,
}

/// What pool workers send back to the draining thread.
enum Reply {
    /// A window result (streamed as produced, before the factory returns).
    Emission(Emission),
    Done(Done),
}

/// The shared work queue: pending jobs plus a shutdown flag, under one
/// mutex so workers can sleep on the condvar until either changes. A
/// poisoned lock is recovered: the workspace's one poison policy, stated
/// under *Lock order* in `datacell_basket::sharded`.
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Jobs pushed but not yet popped. The gauge handle is shared with
    /// the scheduler, which reads it; it is kept outside the mutex
    /// (atomics only), so the reading is monotone-consistent but
    /// momentarily ahead of/behind the queue by at most one in-flight
    /// push/pop.
    depth: Gauge,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl WorkQueue {
    fn new(depth: Gauge) -> WorkQueue {
        WorkQueue { state: Mutex::new(QueueState::default()), ready: Condvar::new(), depth }
    }

    fn push(&self, job: Job) {
        self.depth.inc();
        self.state.lock().unwrap_or_else(PoisonError::into_inner).jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Block until a job is available or shutdown is signalled.
    fn pop(&self) -> Option<Job> {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if g.shutdown {
                return None;
            }
            if let Some(j) = g.jobs.pop_front() {
                self.depth.dec();
                return Some(j);
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.ready.notify_all();
    }
}

/// Per-worker utilization counters, shared between the worker thread and
/// the scheduler (read by `Engine::telemetry_snapshot`). Fire counts are
/// unconditional; busy/idle time obeys the `DATACELL_TELEMETRY` kill
/// switch, like every timed signal.
#[derive(Default)]
pub struct WorkerStats {
    fires: Counter,
    busy_ns: Counter,
    idle_ns: Counter,
}

impl WorkerStats {
    /// Individual `Factory::fire` calls this worker executed.
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.fires.get()
    }

    /// Nanoseconds spent firing factories (dispatch to factory-return).
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    /// Nanoseconds spent waiting on the work queue between jobs. Recorded
    /// only when a wait actually yields a job — never while still blocked
    /// — so a quiesced pool reports stable totals between reads.
    #[must_use]
    pub fn idle_ns(&self) -> u64 {
        self.idle_ns.get()
    }
}

/// Persistent worker threads popping the shared queue. Lives across drains
/// so thread spawn cost is paid once per engine, not per scheduling round.
struct WorkerPool {
    queue: Arc<WorkQueue>,
    reply_rx: mpsc::Receiver<Reply>,
    handles: Vec<JoinHandle<()>>,
    /// One entry per worker thread, index-aligned with `handles`.
    stats: Vec<Arc<WorkerStats>>,
}

impl WorkerPool {
    fn new(size: usize, depth: Gauge, wake_to_fire: Histogram) -> WorkerPool {
        let queue = Arc::new(WorkQueue::new(depth));
        let (reply_tx, reply_rx) = mpsc::channel();
        let stats: Vec<Arc<WorkerStats>> =
            (0..size).map(|_| Arc::new(WorkerStats::default())).collect();
        let handles = (0..size)
            .map(|i| {
                let q = Arc::clone(&queue);
                let tx = reply_tx.clone();
                let st = Arc::clone(&stats[i]);
                let wake = wake_to_fire.clone();
                std::thread::Builder::new()
                    .name(format!("datacell-worker-{i}"))
                    .spawn(move || worker_loop(&q, &tx, &st, &wake))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { queue, reply_rx, handles, stats }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One pool worker: pop a job, run it, stream its emissions and hand the
/// factory back.
fn worker_loop(
    queue: &WorkQueue,
    replies: &mpsc::Sender<Reply>,
    stats: &WorkerStats,
    wake_to_fire: &Histogram,
) {
    loop {
        let wait = datacell_telemetry::timer();
        let Some(job) = queue.pop() else { return };
        stats.idle_ns.add_nanos_since(wait);
        wake_to_fire.record_since(job.enqueued);
        let busy = datacell_telemetry::timer();
        let done = run_job(job, |e| replies.send(Reply::Emission(e)).is_ok());
        stats.busy_ns.add_nanos_since(busy);
        stats.fires.add(done.fires);
        // A failed send means the draining side hung up: stop the worker.
        if replies.send(Reply::Done(done)).is_err() {
            return;
        }
    }
}

/// Execute one dispatched transition — the body shared by the pool workers
/// and the calling thread — and package the factory's return.
///
/// A panicking factory must come home like any other: the drain counts on
/// one [`Done`] per dispatch for quiescence, and the caller of
/// [`Scheduler::run_until_idle`] (the network server's loop thread, for
/// one) must get a typed error, not an unwind. The panic is caught here,
/// at every worker count.
fn run_job(job: Job, mut emit: impl FnMut(Emission) -> bool) -> Done {
    let Job { id, mut factory, clock, .. } = job;
    let mut fires = 0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fire_to_quiescence(id, factory.as_mut(), clock, &mut emit, &mut fires)
    }));
    let (progressed, error) = outcome.unwrap_or_else(|panic| {
        let msg = panic_message(panic.as_ref());
        (false, Some(DataCellError::Unsupported(format!("factory {id} panicked: {msg}"))))
    });
    Done { id, factory, fires, progressed, error }
}

/// Fire `factory` until its firing condition fails, handing each produced
/// window to `emit` (which returns `false` once nobody is listening).
/// Emissions of one factory come from exactly one such call per dispatch,
/// so per-query result order is preserved whatever the executor. Returns
/// `(progressed, first_error)`.
fn fire_to_quiescence(
    id: FactoryId,
    factory: &mut dyn Factory,
    clock: Timestamp,
    emit: &mut impl FnMut(Emission) -> bool,
    fires: &mut u64,
) -> (bool, Option<DataCellError>) {
    let mut progressed = false;
    while factory.ready(clock) {
        *fires += 1;
        match factory.fire(clock) {
            Ok(FireOutcome::Produced { result, metrics }) => {
                progressed = true;
                if !emit(Emission { factory: id, result, at: clock, metrics }) {
                    break;
                }
            }
            Ok(FireOutcome::Progressed) => progressed = true,
            Ok(FireOutcome::NotReady) => break,
            Err(e) => return (progressed, Some(e)),
        }
    }
    (progressed, None)
}

/// Best-effort text of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The Petri-net scheduler.
///
/// **Ordering contract.** The results of one query are emitted in the order
/// its windows complete, at every worker count. The order of emissions
/// *across* queries is unspecified at every worker count, one included: a
/// dispatched factory fires until its firing condition fails before the
/// next one runs, and which enabled factory goes first is an
/// implementation detail.
///
/// **Failure contract.** A factory that returns an error or panics aborts
/// the drain with a typed [`DataCellError`] once every dispatched factory
/// is back in its slot. The windows completed before the abort are
/// returned beside the error — their input is consumed, so dropping them
/// would lose data — and the next drain rechecks every transition from
/// scratch. Every transition enabled at a scan is fired before any reply
/// is examined, so a factory that fails on every drain costs its
/// neighbours the rearm rounds of that drain, never their windows.
pub struct Scheduler {
    /// Factory slots; `None` while deregistered or out firing.
    factories: Vec<Option<Box<dyn Factory>>>,
    /// Petri-net edges: stream (place) → ids of factories reading it.
    deps: HashMap<String, Vec<FactoryId>>,
    /// Shared handle per input stream, with the `end_oid` observed at the
    /// last candidate scan. A basket whose end moved past its mark wakes
    /// its readers via `deps`.
    baskets: HashMap<String, (ShardedBasket, Oid)>,
    /// Factories registered since the last drain (always scanned once).
    fresh: Vec<FactoryId>,
    /// Clock of the last scan; a clock change re-enables time-based
    /// transitions, so it forces a full readiness scan.
    last_clock: Option<Timestamp>,
    workers: usize,
    /// The worker threads, spawned at the first drain when `workers > 1`
    /// and kept until the scheduler drops; `None` with one worker (the
    /// calling thread fires) and before the first drain.
    pool: Option<WorkerPool>,
    /// Work-queue depth (jobs dispatched, not yet popped); always 0 when
    /// the scheduler is quiesced.
    queue_depth: Gauge,
    /// Wake-to-fire latency: time a dispatched job spent in the queue
    /// before a worker picked it up.
    wake_to_fire: Histogram,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(1)
    }
}

impl Scheduler {
    /// An empty scheduler with the given worker count (min 1).
    pub fn new(workers: usize) -> Scheduler {
        Scheduler {
            factories: Vec::new(),
            deps: HashMap::new(),
            baskets: HashMap::new(),
            fresh: Vec::new(),
            last_clock: None,
            workers: workers.max(1),
            pool: None,
            queue_depth: Gauge::new(),
            wake_to_fire: Histogram::new(),
        }
    }

    /// Current depth of the shared work queue: transitions dispatched to
    /// the pool but not yet picked up by a worker. Always 0 between
    /// drains (quiescence means nothing is queued or in flight).
    #[must_use]
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.get()
    }

    /// Wake-to-fire latency distribution: time each dispatched job spent
    /// in the work queue before a worker popped it. Empty when the
    /// telemetry kill switch is on or no pooled drain has run.
    #[must_use]
    pub fn wake_to_fire(&self) -> datacell_telemetry::HistogramSnapshot {
        self.wake_to_fire.snapshot()
    }

    /// Per-worker utilization counters for the live pool, index-aligned
    /// with worker ids. Empty with one worker (the calling thread is not
    /// a pool worker) or before the first pooled drain.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<Arc<WorkerStats>> {
        self.pool.as_ref().map(|p| p.stats.clone()).unwrap_or_default()
    }

    /// The worker count the scheduler was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The id the next [`Scheduler::register`] will return. Ids count
    /// registrations and are never reused, so the engine derives query
    /// labels from them.
    pub fn next_id(&self) -> FactoryId {
        self.factories.len()
    }

    /// Register a factory, recording its Petri-net input edges.
    /// `basket_of` resolves each of the factory's input streams to its
    /// shared handle (the engine passes its basket registry).
    pub fn register(
        &mut self,
        f: Box<dyn Factory>,
        mut basket_of: impl FnMut(&str) -> Option<ShardedBasket>,
    ) -> FactoryId {
        let streams = f.input_streams();
        self.factories.push(Some(f));
        let id = self.factories.len() - 1;
        for s in streams {
            if let Some(b) = basket_of(&s) {
                // Mark at the current end so only *future* growth fires
                // the stream's wake-up edge. The factory's own cursor may
                // start below the mark (resident backlog at `base_oid`);
                // the `fresh` list guarantees the one readiness check that
                // dispatches it, and the dispatch drains to quiescence.
                self.baskets.entry(s.clone()).or_insert_with(|| {
                    let mark = b.end_oid();
                    (b, mark)
                });
            }
            self.deps.entry(s).or_default().push(id);
        }
        self.fresh.push(id);
        id
    }

    /// Remove a factory (the continuous query is dropped) and its
    /// dependency edges. The id is never reused.
    pub fn deregister(&mut self, id: FactoryId) -> Result<(), DataCellError> {
        match self.factories.get_mut(id) {
            Some(slot @ Some(_)) => *slot = None,
            _ => return Err(DataCellError::UnknownQuery(id)),
        }
        self.deps.retain(|_, readers| {
            readers.retain(|&r| r != id);
            !readers.is_empty()
        });
        self.baskets.retain(|s, _| self.deps.contains_key(s));
        self.fresh.retain(|&r| r != id);
        Ok(())
    }

    /// Access a factory.
    pub fn factory(&self, id: FactoryId) -> Result<&dyn Factory, DataCellError> {
        self.factories.get(id).and_then(|f| f.as_deref()).ok_or(DataCellError::UnknownQuery(id))
    }

    /// Ids of all live factories.
    pub fn ids(&self) -> Vec<FactoryId> {
        self.factories.iter().enumerate().filter_map(|(i, f)| f.as_ref().map(|_| i)).collect()
    }

    /// Is any factory enabled?
    pub fn any_ready(&self, clock: Timestamp) -> bool {
        self.factories.iter().flatten().any(|f| f.ready(clock))
    }

    /// Ids of the factories reading `stream` (the Petri-net edge set).
    pub fn readers(&self, stream: &str) -> &[FactoryId] {
        self.deps.get(stream).map_or(&[], Vec::as_slice)
    }

    /// Minimum consumed position across the factories that read `stream`
    /// (`None` when nothing reads it) — the basket expiry bound.
    ///
    /// Race-free by construction: the borrow checker excludes calls while
    /// a drain (`&mut self`) has factories out on worker threads, so the
    /// bound always reflects fully-settled cursors and can never expire a
    /// tuple a mid-fire consumer still needs. The dependency map keeps the
    /// scan to actual readers instead of every registered factory. Cursors
    /// never pass the basket's `end_oid`, so neither does the bound.
    pub fn min_consumed(&self, stream: &str) -> Option<Oid> {
        self.deps
            .get(stream)
            .into_iter()
            .flatten()
            .filter_map(|&id| self.factory(id).ok().and_then(|f| f.consumed_upto(stream)))
            .min()
    }

    // -- the drain ----------------------------------------------------------

    /// Run until no factory is enabled. Returns every emission of the drain
    /// and, beside them, whether the drain ran to its fixpoint or was
    /// aborted; see the type-level docs for the ordering and failure
    /// contracts.
    pub fn run_until_idle(
        &mut self,
        clock: Timestamp,
    ) -> (Vec<Emission>, Result<(), DataCellError>) {
        if self.workers > 1 {
            self.pool.get_or_insert_with(|| {
                WorkerPool::new(self.workers, self.queue_depth.clone(), self.wake_to_fire.clone())
            });
        }
        let mut emissions = Vec::new();
        let mut first_err: Option<DataCellError> = None;
        // Factories out of their slot whose `Done` has not been handled.
        let mut outstanding = 0usize;
        // `Done`s waiting to be handled: of the jobs the calling thread
        // fired itself, or received from the pool.
        let mut returned: VecDeque<Done> = VecDeque::new();

        loop {
            // Scan for transitions enabled since the last scan — at the
            // start, and after every round of replies: a receptor may have
            // appended meanwhile, and without the rescan one busy factory
            // rearming forever would starve every factory enabled after
            // the first scan. (In-flight factories whose streams grew are
            // covered by the rearm check below, so consuming their growth
            // marks here loses nothing.) After an error only collect what
            // is out.
            if first_err.is_none() {
                for id in self.scan_candidates(clock) {
                    outstanding += self.execute(id, clock, &mut emissions, &mut returned);
                }
            }
            if outstanding == 0 {
                break; // fixpoint: nothing enabled, nothing in flight
            }
            if !self.collect_returned(&mut emissions, &mut returned) {
                first_err.get_or_insert(DataCellError::Unsupported(
                    "scheduler worker pool disconnected".into(),
                ));
                break;
            }
            // Handle every factory that is back before scanning again: a
            // scan polls every basket, so scans per drain must
            // track scheduling rounds, not factories. A factory rearmed
            // here joins the next round, after that scan.
            for _ in 0..returned.len() {
                let Some(done) = returned.pop_front() else { break };
                outstanding -= 1;
                let Done { id, factory, progressed, error, .. } = done;
                // Re-check before deciding: a receptor may have refilled
                // the basket mid-fire.
                let rearm =
                    error.is_none() && first_err.is_none() && progressed && factory.ready(clock);
                self.factories[id] = Some(factory);
                if let Some(e) = error {
                    first_err.get_or_insert(e);
                } else if rearm {
                    outstanding += self.execute(id, clock, &mut emissions, &mut returned);
                }
            }
        }

        match first_err {
            Some(e) => {
                self.reset_scan_state();
                (emissions, Err(e))
            }
            None => (emissions, Ok(())),
        }
    }

    /// Move factory `id` out of its slot and execute it: onto the work
    /// queue when there is a pool, right here on the calling thread when
    /// there is not (emissions go straight into `emissions`, the `Done`
    /// into `returned`). Returns how many jobs were dispatched — 0 when
    /// the factory is already out.
    fn execute(
        &mut self,
        id: FactoryId,
        clock: Timestamp,
        emissions: &mut Vec<Emission>,
        returned: &mut VecDeque<Done>,
    ) -> usize {
        let Some(factory) = self.factories.get_mut(id).and_then(Option::take) else { return 0 };
        match &self.pool {
            Some(pool) => {
                pool.queue.push(Job { id, factory, clock, enqueued: datacell_telemetry::timer() });
            }
            None => {
                let job = Job { id, factory, clock, enqueued: None };
                returned.push_back(run_job(job, |e| {
                    emissions.push(e);
                    true
                }));
            }
        }
        1
    }

    /// Move every reply the pool has ready into `emissions` and `returned`,
    /// blocking for the first `Done` only when none is waiting. `false`
    /// when no factory is back and none can come (the pool is gone).
    fn collect_returned(
        &self,
        emissions: &mut Vec<Emission>,
        returned: &mut VecDeque<Done>,
    ) -> bool {
        if let Some(pool) = &self.pool {
            loop {
                let reply = if returned.is_empty() {
                    pool.reply_rx.recv().ok()
                } else {
                    pool.reply_rx.try_recv().ok()
                };
                match reply {
                    Some(Reply::Emission(e)) => emissions.push(e),
                    Some(Reply::Done(done)) => returned.push_back(done),
                    None => break,
                }
            }
        }
        !returned.is_empty()
    }

    /// Forget all scan bookkeeping after an aborted drain so the next
    /// drain rechecks every transition from scratch (an abort leaves
    /// enabled factories behind that no growth mark would rediscover).
    fn reset_scan_state(&mut self) {
        self.last_clock = None;
        self.fresh = self.ids();
    }

    /// Transitions to (re)check for readiness: fresh registrations, the
    /// readers of every basket that grew past its mark and — when the
    /// clock moved — every factory (time-based firing conditions).
    fn scan_candidates(&mut self, clock: Timestamp) -> Vec<FactoryId> {
        let clock_moved = self.last_clock != Some(clock);
        self.last_clock = Some(clock);
        let mut cand: Vec<FactoryId> = std::mem::take(&mut self.fresh);
        if clock_moved {
            cand.extend(self.ids());
        }
        for (s, (b, mark)) in &mut self.baskets {
            let end = b.end_oid();
            if end > *mark {
                *mark = end;
                if let Some(readers) = self.deps.get(s) {
                    cand.extend(readers);
                }
            }
        }
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&id| self.factory(id).is_ok_and(|f| f.ready(clock)));
        cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::StreamInput;
    use datacell_basket::Basket;
    use datacell_kernel::{Column, DataType};

    /// Every test that drains runs at each of these worker counts: one
    /// (the calling thread fires) and two pool sizes.
    const WORKERS: [usize; 3] = [1, 2, 4];

    fn shared(name: &str) -> ShardedBasket {
        ShardedBasket::new(Basket::new(name, &[("x", DataType::Int)]))
    }

    /// A factory that consumes `step`-sized batches from one stream and
    /// emits their sum — enough behaviour to exercise scheduling.
    struct SumFactory {
        label: String,
        input: StreamInput,
        step: usize,
    }

    impl SumFactory {
        fn new(label: &str, basket: ShardedBasket, step: usize) -> SumFactory {
            SumFactory { label: label.into(), input: StreamInput::new(label, basket), step }
        }
    }

    impl Factory for SumFactory {
        fn label(&self) -> &str {
            &self.label
        }

        fn ready(&self, _clock: Timestamp) -> bool {
            self.input.available() >= self.step
        }

        fn fire(&mut self, _clock: Timestamp) -> Result<FireOutcome, DataCellError> {
            let w = self.input.take(self.step)?;
            let sum: i64 = w.col(0).unwrap().as_int().unwrap().iter().sum();
            let result = ResultSet::new(vec!["sum".into()], vec![Column::Int(vec![sum])]).unwrap();
            Ok(FireOutcome::Produced { result, metrics: SlideMetrics::default() })
        }

        fn consumed_upto(&self, stream: &str) -> Option<Oid> {
            (stream == self.input.name).then_some(self.input.consumed)
        }

        fn input_streams(&self) -> Vec<String> {
            vec![self.input.name.clone()]
        }
    }

    /// How a [`BrokenFactory`] fails when fired.
    #[derive(Clone, Copy)]
    enum Failure {
        Error,
        Panic,
    }

    /// A factory whose fire always fails (error- and panic-path testing).
    struct BrokenFactory {
        input: StreamInput,
        failure: Failure,
    }

    impl BrokenFactory {
        fn register(s: &mut Scheduler, basket: &ShardedBasket, failure: Failure) -> FactoryId {
            let b = basket.clone();
            let input = StreamInput::new("x", basket.clone());
            s.register(Box::new(BrokenFactory { input, failure }), move |_| Some(b.clone()))
        }
    }

    impl Factory for BrokenFactory {
        fn label(&self) -> &str {
            "broken"
        }

        fn ready(&self, _clock: Timestamp) -> bool {
            self.input.available() > 0
        }

        fn fire(&mut self, _clock: Timestamp) -> Result<FireOutcome, DataCellError> {
            match self.failure {
                Failure::Error => Err(DataCellError::Unsupported("boom".into())),
                Failure::Panic => panic!("factory exploded"),
            }
        }

        fn consumed_upto(&self, stream: &str) -> Option<Oid> {
            (stream == self.input.name).then_some(self.input.consumed)
        }

        fn input_streams(&self) -> Vec<String> {
            vec![self.input.name.clone()]
        }
    }

    fn register_sum(s: &mut Scheduler, label: &str, b: &ShardedBasket, step: usize) -> FactoryId {
        let bc = b.clone();
        s.register(Box::new(SumFactory::new(label, b.clone(), step)), move |_| Some(bc.clone()))
    }

    fn ints(n: usize, v: i64) -> Vec<Column> {
        vec![Column::Int(vec![v; n])]
    }

    /// A drain that must reach its fixpoint.
    fn drain(s: &mut Scheduler) -> Vec<Emission> {
        let (emissions, outcome) = s.run_until_idle(0);
        outcome.unwrap();
        emissions
    }

    fn sums_of(emissions: &[Emission], id: FactoryId) -> Vec<i64> {
        emissions
            .iter()
            .filter(|e| e.factory == id)
            .map(|e| e.result.rows()[0][0].as_i64().unwrap())
            .collect()
    }

    #[test]
    fn factory_lookup() {
        let mut s = Scheduler::new(1);
        let a = register_sum(&mut s, "alpha", &shared("alpha"), 1);
        assert_eq!(s.factory(a).unwrap().label(), "alpha");
        assert!(s.factory(99).is_err());
    }

    #[test]
    fn per_factory_order_is_kept_cross_factory_order_is_unspecified() {
        // The ordering contract: each factory's windows come out in the
        // order they completed; nothing is promised about how the two
        // factories' emissions interleave, at any worker count.
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let (a, b) = (shared("a"), shared("b"));
            let fa = register_sum(&mut s, "a", &a, 1);
            let fb = register_sum(&mut s, "b", &b, 1);
            a.append(&[Column::Int(vec![1, 2])], 0).unwrap();
            b.append(&[Column::Int(vec![10, 20, 30])], 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 5, "workers={workers}");
            assert_eq!(sums_of(&e, fa), vec![1, 2], "workers={workers}");
            assert_eq!(sums_of(&e, fb), vec![10, 20, 30], "workers={workers}");
            assert!(!s.any_ready(0));
        }
    }

    #[test]
    fn pooled_drain_matches_sequential_results() {
        // Same workload through 1 worker (the calling thread) and 4
        // workers; per-factory emissions must be identical.
        let run = |workers: usize| {
            let mut s = Scheduler::new(workers);
            let baskets: Vec<ShardedBasket> = (0..3).map(|i| shared(&format!("s{i}"))).collect();
            let mut ids = Vec::new();
            for (i, b) in baskets.iter().enumerate() {
                let f = SumFactory::new(&format!("s{i}"), b.clone(), 2);
                let bc = b.clone();
                ids.push(s.register(Box::new(f), |_| Some(bc.clone())));
            }
            for (i, b) in baskets.iter().enumerate() {
                b.append(&ints(6, i as i64 + 1), 0).unwrap();
            }
            let emissions = drain(&mut s);
            let mut per: HashMap<FactoryId, Vec<Vec<Vec<datacell_kernel::Value>>>> = HashMap::new();
            for e in emissions {
                per.entry(e.factory).or_default().push(e.result.rows());
            }
            assert!(!s.any_ready(0));
            (ids, per)
        };
        let (ids1, seq) = run(1);
        let (ids4, par) = run(4);
        assert_eq!(ids1, ids4);
        for id in ids1 {
            assert_eq!(seq.get(&id), par.get(&id), "factory {id} diverged");
            assert_eq!(seq[&id].len(), 3); // 6 tuples / step 2
        }
    }

    #[test]
    fn growth_marks_wake_only_readers_and_requeue_drains_backlog() {
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let (a, b) = (shared("a"), shared("b"));
            let fa = register_sum(&mut s, "a", &a, 1);
            let fb = register_sum(&mut s, "b", &b, 1);
            assert_eq!(s.readers("a"), &[fa]);
            assert_eq!(s.readers("b"), &[fb]);

            a.append(&ints(4, 1), 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 4, "workers={workers}");
            assert!(e.iter().all(|e| e.factory == fa));

            // Quiescent; now only b grows — only fb fires.
            b.append(&ints(2, 7), 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 2, "workers={workers}");
            assert!(e.iter().all(|e| e.factory == fb));

            // Nothing new: immediate quiescence.
            assert!(drain(&mut s).is_empty());
            // One pool, built at the first drain and kept across the
            // others: its per-worker fire counts cover all three.
            let stats = s.worker_stats();
            let fires: u64 = stats.iter().map(|w| w.fires()).sum();
            let expect = if workers > 1 { (workers, 6) } else { (0, 0) };
            assert_eq!((stats.len(), fires), expect, "workers={workers}");
        }
    }

    #[test]
    fn appends_through_a_cloned_handle_wake_readers() {
        // Receptor appends through a clone of the registered handle, with
        // no seal or other publishing step, must fire their readers.
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let b = shared("s");
            let id = register_sum(&mut s, "s", &b, 2);
            let receptor = b.clone();
            receptor.append(&ints(2, 5), 0).unwrap();
            receptor.append(&ints(2, 7), 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 2, "workers={workers}");
            assert!(e.iter().all(|e| e.factory == id));
            // Quiescent again: growth after the drain re-arms the mark.
            receptor.append(&ints(2, 1), 0).unwrap();
            assert_eq!(drain(&mut s).len(), 1, "workers={workers}");
            assert_eq!(drain(&mut s).len(), 0, "workers={workers}");
        }
    }

    #[test]
    fn min_consumed_follows_dependency_edges_and_deregistration() {
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let b = shared("s");
            let fast = register_sum(&mut s, "s", &b, 1);
            let slow = register_sum(&mut s, "s", &b, 4);
            b.append(&ints(6, 1), 0).unwrap();
            drain(&mut s);
            // fast consumed 6; slow consumed 4 (one step, 2 left over):
            // the GC bound is the slower reader's cursor.
            assert_eq!(s.min_consumed("s"), Some(4), "workers={workers}");
            assert_eq!(s.min_consumed("ghost"), None);
            // Dropping the slow reader frees the bound.
            s.deregister(slow).unwrap();
            assert_eq!(s.min_consumed("s"), Some(6));
            assert!(s.deregister(slow).is_err());
            assert_eq!(s.ids(), vec![fast]);
            assert_eq!(s.readers("s"), &[fast]);
        }
    }

    #[test]
    fn factory_error_aborts_drain_and_recovers() {
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let (good, bad) = (shared("g"), shared("x"));
            let fg = register_sum(&mut s, "g", &good, 1);
            let fx = BrokenFactory::register(&mut s, &bad, Failure::Error);
            good.append(&ints(2, 1), 0).unwrap();
            bad.append(&ints(1, 1), 0).unwrap();
            let (kept, outcome) = s.run_until_idle(0);
            let err = outcome.unwrap_err();
            assert!(matches!(err, DataCellError::Unsupported(_)), "workers={workers}");
            // Both factories are back in their slots and the scheduler is
            // usable. The neighbour's windows come back beside the error,
            // as their input is consumed:
            assert!(s.factory(fg).is_ok());
            assert!(s.factory(fx).is_ok());
            assert_eq!(s.min_consumed("g"), Some(2), "workers={workers}");
            assert_eq!(sums_of(&kept, fg), vec![1, 1], "workers={workers}");
            // A transition that fails on every drain costs its neighbour
            // no window.
            good.append(&ints(1, 5), 0).unwrap();
            let (kept, outcome) = s.run_until_idle(0);
            assert!(outcome.is_err(), "workers={workers}");
            assert_eq!(sums_of(&kept, fg), vec![5], "workers={workers}");
            // Dropping the failing transition lets fresh input drain normally.
            s.deregister(fx).unwrap();
            good.append(&ints(1, 2), 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 1);
            assert_eq!(e[0].factory, fg);
        }
    }

    #[test]
    fn panicking_factory_surfaces_as_error_not_deadlock() {
        // One panic policy: caught and typed on the calling thread
        // (workers = 1) exactly as on a pool worker.
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let b = shared("x");
            let id = BrokenFactory::register(&mut s, &b, Failure::Panic);
            b.append(&ints(1, 1), 0).unwrap();
            let err = s.run_until_idle(0).1.unwrap_err();
            assert!(err.to_string().contains("panicked"), "workers={workers} got: {err}");
            // The factory's slot is intact and the scheduler still drains
            // others.
            assert!(s.factory(id).is_ok());
            s.deregister(id).unwrap();
            let g = shared("g");
            let ok = register_sum(&mut s, "g", &g, 1);
            g.append(&ints(2, 3), 0).unwrap();
            let e = drain(&mut s);
            assert_eq!(e.len(), 2, "workers={workers}");
            assert!(e.iter().all(|e| e.factory == ok));
        }
    }

    #[test]
    fn aborted_drain_does_not_strand_enabled_factories() {
        // A factory whose fire errored is still enabled, but its stream
        // sits exactly at its growth mark and the clock has not moved:
        // only the error-path reset of the scan bookkeeping lets the next
        // drain find it again.
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let bad = shared("x");
            let fx = BrokenFactory::register(&mut s, &bad, Failure::Error);
            bad.append(&ints(1, 1), 0).unwrap();
            assert!(s.run_until_idle(0).1.is_err());
            assert!(s.run_until_idle(0).1.is_err(), "workers={workers}: stranded");
            s.deregister(fx).unwrap();
            assert!(drain(&mut s).is_empty());
        }
    }

    #[test]
    fn shared_basket_consumers_fire_without_loss() {
        // Two transitions on one place at different speeds: every oid
        // must be summed exactly once per factory.
        for workers in WORKERS {
            let mut s = Scheduler::new(workers);
            let b = shared("s");
            let f1 = register_sum(&mut s, "s", &b, 1);
            let f2 = register_sum(&mut s, "s", &b, 5);
            for _ in 0..8 {
                b.append(&[Column::Int((0..5).collect())], 0).unwrap();
                drain(&mut s);
                // Between drains the expiry bound is settled and safe.
                let upto = s.min_consumed("s").unwrap();
                b.with(|bk| bk.expire_upto(upto));
            }
            b.append(&[Column::Int((0..5).collect())], 0).unwrap();
            let e = drain(&mut s);
            // Last drain: f1 sums 5 fresh tuples one by one, f2 one window.
            assert_eq!(sums_of(&e, f1), vec![0, 1, 2, 3, 4], "workers={workers}");
            assert_eq!(sums_of(&e, f2), vec![10], "workers={workers}");
        }
    }
}
