//! Query serving: one event-driven core, two front ends.
//!
//! The paper positions Airphant as a cloud index for read-oriented
//! workloads under "heavy traffic from millions of users": Searchers are
//! lightweight and stateless, so a serving node scales by pointing many
//! queries at one shared [`SearchEngine`] (usually a
//! [`Searcher`](crate::Searcher) over a shared byte-budgeted
//! [`CachedStore`](airphant_storage::CachedStore)), each query paying one
//! postings batch and one documents batch (§III-C).
//!
//! ## The core
//!
//! One core executes every query. Storage latencies in this reproduction
//! are *data, not sleeps* (see `airphant-storage`), so the core is a
//! discrete-event loop on the simulated clock: a query whose batch is in
//! flight waits on an event heap, not on an OS thread. The core
//!
//! * runs a [`StagedEngine`] (see [`SearchEngine::staged`]) through the
//!   staged planner halves in `crate::plan`, suspending between dispatch
//!   and completion; every other engine (the baselines,
//!   [`ShardedSearcher`](crate::ShardedSearcher), test doubles) runs one
//!   [`SearchEngine::execute`] on an executor thread and finishes at
//!   `arrival + trace.total()`;
//! * holds a **swappable engine slot**: every query keeps the engine it
//!   was submitted on, so a refresh (e.g. a reopened
//!   [`SegmentedSearcher`](crate::SegmentedSearcher) after an append or
//!   compaction) has zero downtime and in-flight queries finish on their
//!   own generation;
//! * contains engine panics: the query fails with an error and the
//!   executor thread keeps serving;
//! * enforces an optional **per-query deadline** on the simulated service
//!   time: later queries surface [`StorageError::Timeout`] and count as
//!   timed out;
//! * admits through an [`AdmissionController`] and can hedge straggling
//!   batches ([`HedgeConfig`]).
//!
//! ## Two front ends
//!
//! * [`AsyncQueryServer`] — **open loop**: callers submit at virtual
//!   arrival times, admission sheds with typed
//!   [`SubmitError::Overloaded`], and latency is the sojourn from arrival
//!   to completion.
//! * [`QueryServer`] — **closed loop**: `workers` executor threads and at
//!   most `workers + queue_capacity` queries in flight.
//!   [`QueryServer::try_submit`] rejects past that with
//!   [`SubmitError::QueueFull`] and [`QueryServer::submit`] blocks
//!   (backpressure instead of unbounded memory).
//!
//! ## Throughput on the virtual clock
//!
//! Serving throughput is reported on the simulated clock too. The
//! closed-loop front end replays the served queries' simulated service
//! times through `workers` model servers (each serving one query at a
//! time, every finished query immediately replaced by the next) and
//! derives QPS from that makespan; the open-loop front end divides by the
//! span from first arrival to last completion. This keeps throughput
//! numbers deterministic under a seed and independent of the host's core
//! count; wall-clock QPS is reported alongside.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, Priority};
use crate::engine::{SearchEngine, StagedEngine};
use crate::error::AirphantError;
use crate::plan::{
    complete_documents, complete_postings, keep_parts, plan_documents, plan_postings, DocPlan,
    KeptParts, PostingsPlan, SegmentAtomPostings,
};
use crate::query::{Query, QueryOptions};
use crate::result::SearchResult;
use crate::Result;
use airphant_storage::{
    BatchFetch, ObjectStore, PhaseKind, QueryTrace, RangeRequest, ReplicatedStore,
    ReplicationStats, SimDuration, StorageError,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing and policy knobs for a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads, and the model servers of the closed-loop
    /// throughput model.
    pub workers: usize,
    /// Queries that may wait beyond the `workers` being served: past
    /// `workers + queue_capacity` in flight, submissions are refused.
    pub queue_capacity: usize,
    /// Per-query deadline on the simulated clock; `None` disables it.
    pub deadline: Option<SimDuration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            deadline: None,
        }
    }
}

impl ServerConfig {
    /// Default configuration (4 workers, queue of 64, no deadline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the executor thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set how many queries may wait beyond the served ones.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the per-query simulated-clock deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Typed rejection from [`QueryServer::try_submit`] or the async
/// admission path ([`AsyncQueryServer::try_submit`]).
///
/// `#[non_exhaustive]`: match with a wildcard arm — new rejection
/// variants are additive, not breaking (see the stability contract in
/// the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// A [`QueryServer`] already holds `workers + queue_capacity`
    /// queries — shed load or retry later.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// Admission control shed this query (overload, quota, or deadline
    /// infeasibility). Always typed — never a panic or a silent drop.
    Overloaded {
        /// Priority class of the shed query.
        class: Priority,
        /// Hint: how long until the shedding condition is expected to
        /// clear (virtual time).
        retry_after: SimDuration,
    },
    /// The server has shut down and accepts no further queries.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::Overloaded { class, retry_after } => {
                write!(f, "shed {class}-priority query (retry after {retry_after})")
            }
            SubmitError::ShutDown => write!(f, "query server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A pending [`QueryServer`] query's completion handle.
pub struct Ticket {
    inner: AsyncTicket,
}

impl Ticket {
    /// Block until the query completes and return its result. Deadline
    /// violations arrive as [`StorageError::Timeout`].
    pub fn wait(self) -> Result<SearchResult> {
        match self.inner.wait().result {
            Ok(result) => Ok(result),
            Err(ServeError::Failed(e)) => Err(e),
            // QueryServer admits at submission; no admitted query is
            // rejected later.
            Err(ServeError::Rejected(e)) => unreachable!("admitted query rejected: {e}"),
        }
    }
}

/// Aggregate serving statistics (see the module docs for the throughput
/// model).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Executor threads serving the queries (for [`QueryServer`], also
    /// the closed-loop model servers).
    pub workers: usize,
    /// Queries answered successfully.
    pub completed: u64,
    /// Submissions rejected: [`SubmitError::QueueFull`] from
    /// [`QueryServer::try_submit`], [`SubmitError::Overloaded`] from the
    /// async admission path.
    pub rejected: u64,
    /// Queries past the simulated deadline.
    pub timed_out: u64,
    /// Queries that failed with an engine/storage error.
    pub failed: u64,
    /// Engine swaps installed via [`QueryServer::refresh`].
    pub refreshes: u64,
    /// Simulated makespan of every *served* query — including timed-out
    /// ones, whose service time was still spent. Closed-loop for
    /// [`QueryServer`]; first arrival to last completion for
    /// [`AsyncQueryServer`].
    pub sim_makespan: SimDuration,
    /// Successfully completed queries per simulated second (timed-out
    /// service time counts against the makespan but not the numerator).
    pub qps_sim: f64,
    /// Completed queries per wall-clock second (host-dependent).
    pub qps_wall: f64,
    /// Median simulated lookup wait, ms (all served queries).
    pub wait_p50_ms: f64,
    /// 95th-percentile simulated lookup wait, ms.
    pub wait_p95_ms: f64,
    /// 99th-percentile simulated lookup wait, ms.
    pub wait_p99_ms: f64,
    /// Median simulated end-to-end latency, ms: service time for
    /// [`QueryServer`], arrival-to-completion sojourn for
    /// [`AsyncQueryServer`].
    pub latency_p50_ms: f64,
    /// 95th-percentile simulated end-to-end latency, ms.
    pub latency_p95_ms: f64,
    /// 99th-percentile simulated end-to-end latency, ms.
    pub latency_p99_ms: f64,
    /// `(hits, misses)` of the shared cache, when one is attached.
    pub cache: Option<(u64, u64)>,
    /// Peak concurrently admitted queries: at most `workers +
    /// queue_capacity` for [`QueryServer`]; for [`AsyncQueryServer`] the
    /// true peak of suspended queries (tens of thousands over a handful of
    /// threads).
    pub peak_in_flight: u64,
    /// Hedged duplicate storage batches dispatched
    /// ([`AsyncQueryServer`] with a [`HedgeConfig`] only; 0 otherwise).
    pub hedges: u64,
    /// Hedges whose duplicate beat the original request.
    pub hedge_wins: u64,
    /// Primary (non-hedge) storage batches dispatched — the denominator
    /// the hedge budget is enforced against: `hedges <= budget_fraction *
    /// primary_dispatches` always holds. Only staged engines dispatch
    /// batches.
    pub primary_dispatches: u64,
    /// Hedges re-dispatched to the next-nearest *region* of an attached
    /// [`ReplicatedStore`] (a subset of `hedges`;
    /// [`AsyncQueryServer::with_region_backend`] only, 0 otherwise).
    pub region_hedges: u64,
    /// Replication counters of the attached [`ReplicatedStore`] —
    /// per-region read routing, demotions, recoveries — when a region
    /// backend is attached ([`AsyncQueryServer`] only; `None` otherwise).
    pub replication: Option<ReplicationStats>,
    /// Admission-control counters. [`QueryServer`] admits as the High
    /// class under a `workers + queue_capacity` cap, so its
    /// [`SubmitError::QueueFull`] rejections count as `shed_high`.
    pub admission: Option<AdmissionStats>,
}

impl ServerStats {
    /// Shared-cache hit rate in `[0, 1]`, when a cache is attached and saw
    /// traffic.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache.and_then(|(h, m)| {
            let total = h + m;
            (total > 0).then(|| h as f64 / total as f64)
        })
    }
}

/// Nearest-rank percentile of an ascending sample, `q ∈ [0, 1]`.
fn percentile(sorted: &[SimDuration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_millis_f64()
}

/// Closed-loop makespan of serving `latencies` on `workers` model servers:
/// each query goes to the earliest-free server, in the order given
/// ([`QueryServer::stats`] passes them sorted ascending).
fn closed_loop_makespan(latencies: &[SimDuration], workers: usize) -> SimDuration {
    let workers = workers.max(1);
    // Min-heap of server free times (BinaryHeap is a max-heap: reverse).
    let mut free: BinaryHeap<std::cmp::Reverse<SimDuration>> = (0..workers)
        .map(|_| std::cmp::Reverse(SimDuration::ZERO))
        .collect();
    let mut makespan = SimDuration::ZERO;
    for &lat in latencies {
        let std::cmp::Reverse(t) = free.pop().expect("workers >= 1");
        let done = t + lat;
        makespan = makespan.max(done);
        free.push(std::cmp::Reverse(done));
    }
    makespan
}

/// Closed-loop front end over the serving core: `workers` executor
/// threads over one shared engine, at most `workers + queue_capacity`
/// queries in flight.
///
/// Dropping the server shuts it down (queries already submitted are still
/// served first).
pub struct QueryServer {
    core: AsyncQueryServer,
    queue_capacity: usize,
}

impl QueryServer {
    /// Start `workers` executor threads over `engine`.
    pub fn start(engine: Arc<dyn SearchEngine>, config: ServerConfig) -> Self {
        assert!(config.workers >= 1, "a server needs at least one worker");
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        let core = AsyncQueryServer::start(
            engine,
            AsyncServerConfig {
                executor_threads: config.workers,
                storage_slots: 0,
                deadline: config.deadline,
                admission: AdmissionConfig::with_max_in_flight(
                    config.workers + config.queue_capacity,
                ),
                hedge: None,
            },
        );
        QueryServer {
            core,
            queue_capacity: config.queue_capacity,
        }
    }

    /// Attach a shared-cache counter source (e.g.
    /// `move || cache.hit_stats()`) so [`ServerStats::cache`] is populated.
    pub fn with_cache_stats(self, stats: impl Fn() -> (u64, u64) + Send + Sync + 'static) -> Self {
        QueryServer {
            core: self.core.with_cache_stats(stats),
            ..self
        }
    }

    /// Swap in a fresh engine with zero downtime: queries already
    /// submitted finish on the engine they were submitted on; every query
    /// submitted after this call runs on `engine`. This is the live-index
    /// refresh hook — after a
    /// [`SegmentManager::append`](crate::SegmentManager::append) or a
    /// [`Compactor::compact`](crate::Compactor::compact), reopen the
    /// segmented searcher and install it here instead of restarting the
    /// server.
    pub fn refresh(&self, engine: Arc<dyn SearchEngine>) {
        let mut core = self.core.shared.lock_core();
        core.engine = engine;
        core.refreshes += 1;
    }

    /// The engine currently serving queries (the latest
    /// [`QueryServer::refresh`], or the one passed to
    /// [`QueryServer::start`]).
    pub fn engine(&self) -> Arc<dyn SearchEngine> {
        self.core.shared.lock_core().engine.clone()
    }

    /// Submit without blocking. With `workers + queue_capacity` queries
    /// already in flight this rejects with [`SubmitError::QueueFull`],
    /// counted in [`ServerStats::rejected`].
    pub fn try_submit(
        &self,
        query: Query,
        opts: QueryOptions,
    ) -> std::result::Result<Ticket, SubmitError> {
        let mut core = self.core.shared.lock_core();
        match self.core.admit(&mut core, query, opts, Self::spec()) {
            Ok(inner) => Ok(Ticket { inner }),
            Err(SubmitError::Overloaded { .. }) => Err(SubmitError::QueueFull {
                capacity: self.queue_capacity,
            }),
            Err(e) => Err(e),
        }
    }

    /// Submit, blocking while `workers + queue_capacity` queries are in
    /// flight (closed-loop submission: the caller inherits the
    /// backpressure, and waiting is not a rejection).
    pub fn submit(
        &self,
        query: Query,
        opts: QueryOptions,
    ) -> std::result::Result<Ticket, SubmitError> {
        let shared = &self.core.shared;
        let mut core = shared.lock_core();
        while !core.shutting_down
            && core.admission.in_flight() >= core.admission.config().max_in_flight
        {
            core = shared.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
        let inner = self.core.admit(&mut core, query, opts, Self::spec())?;
        Ok(Ticket { inner })
    }

    /// Every submission takes the High class, whose admission limit is
    /// the whole `workers + queue_capacity` budget.
    fn spec() -> SubmitSpec {
        SubmitSpec::new().with_class(Priority::High)
    }

    /// Submit and wait: the blocking convenience used by tests and the
    /// CLI.
    pub fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        self.submit(query.clone(), opts.clone())
            .expect("server alive while the handle is held")
            .wait()
    }

    /// Snapshot the aggregate serving statistics under the closed-loop
    /// model: latency percentiles over per-query service times, and
    /// `qps_sim` from those service times replayed through `workers`
    /// model servers.
    pub fn stats(&self) -> ServerStats {
        self.core.snapshot(true)
    }

    /// Serve everything already submitted, stop the executor threads,
    /// and return the final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.core.begin_shutdown();
        self.stats()
    }
}

// The server handles themselves can be shared (e.g. one handle per
// frontend thread submitting into the same server).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryServer>();
    assert_send_sync::<ServerStats>();
    assert_send_sync::<AsyncQueryServer>();
};

// ---------------------------------------------------------------------------
// The serving core and its open-loop front end
// ---------------------------------------------------------------------------

/// Hedged-request policy for the [`AsyncQueryServer`].
///
/// After a storage batch has been in flight longer than the observed
/// `percentile` of recent batch latencies, a duplicate of the same batch
/// is dispatched against the configured hedge backend and the *first*
/// response wins; the loser's completion event is invalidated
/// (cancel-by-ignore — object stores have no cancel RPC, so the loser
/// simply drains). Hedges are bounded: at most `budget_fraction` of all
/// dispatched batches may be hedges, so tail-cutting cannot double the
/// backend load.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Latency percentile (in `(0, 1)`) after which a batch is hedged.
    pub percentile: f64,
    /// Observed completions required before the threshold engages.
    pub min_samples: usize,
    /// Max fraction of dispatched batches that may be hedges.
    pub budget_fraction: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 0.95,
            min_samples: 64,
            budget_fraction: 0.05,
        }
    }
}

/// Sizing and policy knobs for an [`AsyncQueryServer`].
#[derive(Debug, Clone)]
pub struct AsyncServerConfig {
    /// Executor OS threads processing the event loop. `0` means no
    /// background threads: the caller pumps events via
    /// [`AsyncQueryServer::drain`] (fully deterministic — used by the
    /// benches and tests).
    pub executor_threads: usize,
    /// Modeled backend concurrency: how many storage batches the cloud
    /// store serves at once on the virtual clock. Excess batches queue in
    /// virtual time. `0` disables the model (uncontended backend, as
    /// [`QueryServer`] runs it).
    pub storage_slots: usize,
    /// Per-query deadline on the *service* time (storage wait + download
    /// + compute); `None` disables it.
    pub deadline: Option<SimDuration>,
    /// Admission control: priority watermarks, per-tenant quotas,
    /// deadline-aware shedding.
    pub admission: AdmissionConfig,
    /// Hedged-request policy; `None` disables hedging. Hedging also
    /// requires a backend via [`AsyncQueryServer::with_hedge_backend`].
    pub hedge: Option<HedgeConfig>,
}

impl Default for AsyncServerConfig {
    fn default() -> Self {
        AsyncServerConfig {
            executor_threads: 4,
            storage_slots: 64,
            deadline: None,
            admission: AdmissionConfig::default(),
            hedge: None,
        }
    }
}

impl AsyncServerConfig {
    /// Default configuration (4 executor threads, 64 storage slots, no
    /// deadline, default admission, no hedging).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the executor thread count (`0` = caller-pumped).
    pub fn with_executor_threads(mut self, threads: usize) -> Self {
        self.executor_threads = threads;
        self
    }

    /// Set the modeled backend concurrency.
    pub fn with_storage_slots(mut self, slots: usize) -> Self {
        self.storage_slots = slots;
        self
    }

    /// Set the per-query service-time deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the admission-control configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Enable hedged requests with the given policy.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }
}

/// Per-submission routing metadata for the async server.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Priority class ([`Priority::Normal`] by default).
    pub class: Priority,
    /// Tenant for quota accounting; `None` is exempt from quotas.
    pub tenant: Option<String>,
    /// Virtual arrival time; `None` arrives "now". Arrivals in the past
    /// are clamped to the current virtual clock.
    pub arrival: Option<SimDuration>,
}

impl Default for SubmitSpec {
    fn default() -> Self {
        SubmitSpec {
            class: Priority::Normal,
            tenant: None,
            arrival: None,
        }
    }
}

impl SubmitSpec {
    /// A Normal-priority, quota-exempt submission arriving now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the priority class.
    pub fn with_class(mut self, class: Priority) -> Self {
        self.class = class;
        self
    }

    /// Set the quota tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Set the virtual arrival time (open-loop workload generation).
    pub fn at(mut self, arrival: SimDuration) -> Self {
        self.arrival = Some(arrival);
        self
    }
}

/// Why an async query did not produce a [`SearchResult`].
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed the query (typed, with a retry hint).
    Rejected(SubmitError),
    /// The engine or storage failed, or the deadline was exceeded
    /// ([`StorageError::Timeout`]).
    Failed(AirphantError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "rejected: {e}"),
            ServeError::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of one async query, with its virtual-clock timing.
#[derive(Debug)]
pub struct QueryResponse {
    /// The search result, or the typed reason it was not produced.
    pub result: std::result::Result<SearchResult, ServeError>,
    /// Virtual time the terminal event fired.
    pub finished_at: SimDuration,
    /// End-to-end virtual time from arrival to completion (queueing +
    /// storage; the wait the p99 SLO is measured over).
    pub sojourn: SimDuration,
}

/// Completion handle for an async submission.
#[derive(Debug)]
pub struct AsyncTicket {
    rx: Receiver<QueryResponse>,
}

impl AsyncTicket {
    /// Block until the query reaches a terminal state. With
    /// `executor_threads == 0` the caller must pump
    /// [`AsyncQueryServer::drain`] first or this blocks forever.
    pub fn wait(self) -> QueryResponse {
        self.rx
            .recv()
            .unwrap_or_else(|_| panic!("async server dropped the reply channel"))
    }
}

/// A storage batch in flight on the virtual clock.
struct PendingBatch {
    kind: PhaseKind,
    /// The dispatched requests (kept for hedge re-dispatch).
    requests: Vec<RangeRequest>,
    /// The fetched bytes of the *original* dispatch. A winning hedge
    /// only shortens the timing: blobs are immutable, so the duplicate
    /// returns identical bytes and reusing the originals keeps results
    /// byte-for-byte equal to a direct [`SearchEngine::execute`].
    batch: BatchFetch,
    /// The postings parts the query's straggler policy keeps from the
    /// winning copy; `None` waits for the whole batch. Boxed so that a
    /// wait-all flight stays as small as it was.
    kept: Option<Box<KeptParts>>,
    /// Winning first-byte wait (hedge may shrink it).
    wait: SimDuration,
    /// Winning transfer time.
    download: SimDuration,
    /// Winning service latency (`wait + download`, excluding slot queueing).
    latency: SimDuration,
    /// Virtual completion time of the winning request.
    completes_at: SimDuration,
    /// A hedge was already dispatched (or decided against) for this batch.
    hedged: bool,
}

/// One query's full state while it lives in the core. A query only
/// *waits* for its arrival event or for a pending batch's (or its
/// opaque execution's) virtual completion; between those, an executor
/// thread runs it synchronously.
struct Flight {
    query: Query,
    opts: QueryOptions,
    class: Priority,
    tenant: Option<String>,
    arrival: SimDuration,
    /// Admission already granted (synchronous `try_submit` path).
    admitted: bool,
    /// The engine the query was submitted on; a refresh never changes it.
    engine: Arc<dyn SearchEngine>,
    /// Bumped when a hedge wins so the loser's completion event is
    /// recognized as stale and ignored.
    epoch: u32,
    trace: QueryTrace,
    atoms: Vec<String>,
    maps: Option<SegmentAtomPostings>,
    postings_plan: Option<PostingsPlan>,
    doc_plan: Option<DocPlan>,
    pending: Option<PendingBatch>,
    /// A non-staged engine's result, held until its virtual completion.
    /// Boxed so that staged flights stay as small as they were.
    executed: Option<Box<SearchResult>>,
    reply: SyncSender<QueryResponse>,
}

/// A scheduled event on the virtual clock. `seq` breaks ties in FIFO
/// order so equal-time events process in schedule order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EventEntry {
    at: SimDuration,
    seq: u64,
    action: EventAction,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EventAction {
    /// The query's virtual arrival: admission (if deferred) + planning.
    Arrive { id: u64 },
    /// A storage batch completed on the virtual clock.
    StorageDone { id: u64, epoch: u32 },
    /// A non-staged engine's execution completed on the virtual clock.
    Executed { id: u64 },
    /// The hedge timer for a possibly-straggling batch fired.
    HedgeFire { id: u64, epoch: u32 },
}

/// Recent-batch-latency ring size for the hedge threshold.
const HEDGE_RING: usize = 512;
/// Recompute the hedge threshold every this many observed completions.
const HEDGE_RECOMPUTE_EVERY: usize = 32;

/// Event-loop state under the scheduler lock.
struct AsyncCore {
    /// The virtual clock: advances to each popped event's time.
    now: SimDuration,
    seq: u64,
    next_id: u64,
    events: BinaryHeap<Reverse<EventEntry>>,
    flights: HashMap<u64, Flight>,
    /// The swappable engine slot: new submissions bind to it.
    engine: Arc<dyn SearchEngine>,
    refreshes: u64,
    /// Flights currently checked out by an executor thread (their events
    /// are momentarily absent from both `events` and `flights`).
    busy: usize,
    shutting_down: bool,
    admission: AdmissionController,
    /// Min-heap of modeled backend-slot free times.
    slots: BinaryHeap<Reverse<SimDuration>>,
    peak_in_flight: u64,
    hedges: u64,
    hedge_wins: u64,
    /// Hedges re-dispatched via the region backend's next-nearest
    /// replica (a subset of `hedges`).
    region_hedges: u64,
    /// Primary (non-hedge) batches dispatched — the hedge-budget
    /// denominator. Counting hedges themselves in the denominator would
    /// let each admitted hedge enlarge the budget for the next one,
    /// inflating the effective fraction past the configured one.
    primary_dispatches: u64,
    latency_ring: Vec<SimDuration>,
    ring_pos: usize,
    since_recompute: usize,
    hedge_threshold: Option<SimDuration>,
    // Terminal counters and samples.
    completed: u64,
    rejected: u64,
    timed_out: u64,
    failed: u64,
    /// `(service wait, service total)` per served query.
    samples: Vec<(SimDuration, SimDuration)>,
    /// End-to-end sojourn (arrival → terminal event) per served query.
    sojourns: Vec<SimDuration>,
    first_arrival: Option<SimDuration>,
    last_finish: SimDuration,
}

impl AsyncCore {
    fn push_event(&mut self, at: SimDuration, action: EventAction) {
        self.seq += 1;
        self.events.push(Reverse(EventEntry {
            at,
            seq: self.seq,
            action,
        }));
    }

    /// Pop the earliest event and advance the virtual clock to it.
    fn pop_event(&mut self) -> Option<EventEntry> {
        let Reverse(entry) = self.events.pop()?;
        self.now = self.now.max(entry.at);
        Some(entry)
    }

    /// Acquire a modeled backend slot at `at` for a batch of `latency`:
    /// the batch starts when the earliest slot frees (queueing in virtual
    /// time) and the slot is busy until it completes. Zero-latency
    /// batches (cache hits) bypass the model entirely.
    fn acquire_slot(
        &mut self,
        at: SimDuration,
        latency: SimDuration,
    ) -> (SimDuration, SimDuration) {
        if latency == SimDuration::ZERO || self.slots.is_empty() {
            return (at, at + latency);
        }
        let Reverse(free) = self.slots.pop().expect("slots non-empty");
        let start = free.max(at);
        let completes = start + latency;
        self.slots.push(Reverse(completes));
        (start, completes)
    }

    /// Fold one completed batch latency into the hedge-threshold ring.
    fn observe_batch_latency(&mut self, cfg: Option<&HedgeConfig>, latency: SimDuration) {
        let Some(cfg) = cfg else { return };
        if self.latency_ring.len() < HEDGE_RING {
            self.latency_ring.push(latency);
        } else {
            self.latency_ring[self.ring_pos] = latency;
            self.ring_pos = (self.ring_pos + 1) % HEDGE_RING;
        }
        self.since_recompute += 1;
        if self.latency_ring.len() >= cfg.min_samples.max(1)
            && (self.hedge_threshold.is_none() || self.since_recompute >= HEDGE_RECOMPUTE_EVERY)
        {
            self.since_recompute = 0;
            let mut sorted = self.latency_ring.clone();
            sorted.sort();
            let rank =
                ((cfg.percentile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            self.hedge_threshold = Some(sorted[rank - 1]);
        }
    }
}

/// State shared between the handle and the executor threads.
struct AsyncShared {
    core: Mutex<AsyncCore>,
    cv: Condvar,
    config: AsyncServerConfig,
    /// Below-cache backend for hedge re-dispatch. Hedges must bypass the
    /// shared cache: the original fetch already populated it, so a hedge
    /// through the cached path would win instantly — an artifact of the
    /// wall-clock/virtual-clock split, not a modeled speedup.
    hedge_store: RwLock<Option<Arc<dyn ObjectStore>>>,
    /// Multi-region backend for *region-aware* hedging: when set, hedge
    /// re-dispatch goes to [`ReplicatedStore::hedge_target`] (the
    /// next-nearest healthy region) instead of the generic `hedge_store`.
    /// Blobs are immutable, so the other region's bytes are identical and
    /// results stay byte-for-byte equal to the unhedged path.
    region_backend: RwLock<Option<Arc<ReplicatedStore>>>,
}

impl AsyncShared {
    fn lock_core(&self) -> std::sync::MutexGuard<'_, AsyncCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// What an executor stretch produced: the query is done, a batch was
/// dispatched and the query suspends, a non-staged engine executed it
/// (it suspends until `trace.total()` has passed), or it failed.
enum StepOutcome {
    Done(SearchResult),
    Executed(SearchResult),
    Dispatch {
        kind: PhaseKind,
        requests: Vec<RangeRequest>,
        batch: BatchFetch,
    },
    Fail(AirphantError),
}

/// Attach the flight's trace to its finished result, when captured.
fn with_trace(mut result: SearchResult, flight: &Flight) -> SearchResult {
    if flight.opts.capture_trace {
        result.trace = flight.trace.clone();
    }
    result
}

/// Postings planning over the engine's segments; falls through to the
/// document stage when every atom resolves without storage traffic.
fn postings_step(segments: &[&crate::Searcher], flight: &mut Flight) -> StepOutcome {
    let mut requests = Vec::new();
    let plan = plan_postings(segments, &flight.atoms, &mut requests);
    if requests.is_empty() {
        match complete_postings(&plan, &flight.atoms, &[], None, &mut flight.trace) {
            Ok(maps) => {
                flight.maps = Some(maps);
                documents_step(segments, flight)
            }
            Err(e) => StepOutcome::Fail(e),
        }
    } else {
        match segments[0].store_dyn().get_ranges(&requests) {
            Ok(batch) => {
                flight.postings_plan = Some(plan);
                StepOutcome::Dispatch {
                    kind: PhaseKind::Postings,
                    requests,
                    batch,
                }
            }
            Err(e) => StepOutcome::Fail(AirphantError::from(e)),
        }
    }
}

/// Document planning from resolved atom postings; completes immediately
/// when no candidates survive.
fn documents_step(segments: &[&crate::Searcher], flight: &mut Flight) -> StepOutcome {
    let maps = flight
        .maps
        .take()
        .expect("postings resolved before the document stage");
    let mut requests = Vec::new();
    let plan = plan_documents(segments, &flight.query, &flight.opts, &maps, &mut requests);
    if requests.is_empty() {
        let result = complete_documents(
            segments,
            &flight.query,
            &flight.opts,
            &plan,
            &[],
            &[],
            &mut flight.trace,
        );
        StepOutcome::Done(with_trace(result, flight))
    } else {
        match segments[0].store_dyn().get_ranges(&requests) {
            Ok(batch) => {
                flight.doc_plan = Some(plan);
                StepOutcome::Dispatch {
                    kind: PhaseKind::Documents,
                    requests,
                    batch,
                }
            }
            Err(e) => StepOutcome::Fail(AirphantError::from(e)),
        }
    }
}

/// An event-driven query server over the simulated clock: queries
/// suspend while their storage batches are "in flight" in virtual time,
/// so tens of thousands can be in flight over a handful of OS threads.
///
/// Storage latencies in this reproduction are *data, not sleeps*, which
/// makes the async core a discrete-event simulation: dispatching a batch
/// is wall-clock-instant (the simulated store returns the bytes plus
/// their virtual latency), so an executor fetches eagerly, parks the
/// query on the event heap until `dispatch + batch_latency`, and serves
/// other queries meanwhile. Concurrency is therefore bounded by memory
/// (one `Flight` per query), not by threads.
///
/// This is the open-loop front end of the one serving core (see the
/// module docs; [`QueryServer`] is the closed-loop one). Admission
/// control (see [`crate::admission`]) sheds arrivals beyond the priority
/// watermarks with typed [`SubmitError::Overloaded`]. Optional hedging
/// duplicates straggling batches after a latency percentile
/// ([`HedgeConfig`]).
///
/// Staged engines run the *same* staged planner (`crate::plan`) as
/// [`SearchEngine::execute`], so results are byte-for-byte identical by
/// construction — asserted by the `async_admission` test suite and the
/// `admission` bench.
pub struct AsyncQueryServer {
    shared: Arc<AsyncShared>,
    threads: Vec<JoinHandle<()>>,
    started: Instant,
    cache_stats: Option<Box<dyn Fn() -> (u64, u64) + Send + Sync>>,
}

impl AsyncQueryServer {
    /// Spawn the executor threads over `engine`. A [`StagedEngine`] (see
    /// [`SearchEngine::staged`]) suspends on the virtual clock between
    /// its batches; any other engine runs one [`SearchEngine::execute`]
    /// per query.
    pub fn start(engine: Arc<dyn SearchEngine>, config: AsyncServerConfig) -> Self {
        let slots = (0..config.storage_slots)
            .map(|_| Reverse(SimDuration::ZERO))
            .collect();
        let shared = Arc::new(AsyncShared {
            core: Mutex::new(AsyncCore {
                now: SimDuration::ZERO,
                seq: 0,
                next_id: 0,
                events: BinaryHeap::new(),
                flights: HashMap::new(),
                engine,
                refreshes: 0,
                busy: 0,
                shutting_down: false,
                admission: AdmissionController::new(config.admission.clone()),
                slots,
                peak_in_flight: 0,
                hedges: 0,
                hedge_wins: 0,
                region_hedges: 0,
                primary_dispatches: 0,
                latency_ring: Vec::new(),
                ring_pos: 0,
                since_recompute: 0,
                hedge_threshold: None,
                completed: 0,
                rejected: 0,
                timed_out: 0,
                failed: 0,
                samples: Vec::new(),
                sojourns: Vec::new(),
                first_arrival: None,
                last_finish: SimDuration::ZERO,
            }),
            cv: Condvar::new(),
            config: config.clone(),
            hedge_store: RwLock::new(None),
            region_backend: RwLock::new(None),
        });
        let threads = (0..config.executor_threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("airphant-async-{i}"))
                    .spawn(move || run_executor(&shared))
                    .expect("spawn async executor")
            })
            .collect();
        AsyncQueryServer {
            shared,
            threads,
            started: Instant::now(),
            cache_stats: None,
        }
    }

    /// Attach the below-cache backend hedges re-dispatch against.
    /// Without one, hedging stays disabled even if configured.
    pub fn with_hedge_backend(self, store: Arc<dyn ObjectStore>) -> Self {
        *self
            .shared
            .hedge_store
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(store);
        self
    }

    /// Attach a multi-region [`ReplicatedStore`] for *region-aware*
    /// hedging: straggling batches are re-dispatched to the store's
    /// next-nearest healthy region ([`ReplicatedStore::hedge_target`]),
    /// falling back to the generic hedge backend (if any) when fewer
    /// than two regions are healthy. Also surfaces the store's
    /// [`ReplicationStats`] in [`ServerStats::replication`].
    pub fn with_region_backend(self, store: Arc<ReplicatedStore>) -> Self {
        *self
            .shared
            .region_backend
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(store);
        self
    }

    /// Attach a shared-cache counter source (see
    /// [`QueryServer::with_cache_stats`]).
    pub fn with_cache_stats(
        mut self,
        stats: impl Fn() -> (u64, u64) + Send + Sync + 'static,
    ) -> Self {
        self.cache_stats = Some(Box::new(stats));
        self
    }

    /// The current virtual clock.
    pub fn now(&self) -> SimDuration {
        self.shared.lock_core().now
    }

    /// Submit with a *synchronous* admission decision: shed queries get
    /// the typed [`SubmitError::Overloaded`] right here instead of
    /// through the ticket. Admission is evaluated at the submission's
    /// effective arrival time.
    pub fn try_submit(
        &self,
        query: Query,
        opts: QueryOptions,
        spec: SubmitSpec,
    ) -> std::result::Result<AsyncTicket, SubmitError> {
        let mut core = self.shared.lock_core();
        self.admit(&mut core, query, opts, spec)
    }

    /// The synchronous admission decision of [`AsyncQueryServer::try_submit`],
    /// under the caller's core lock.
    fn admit(
        &self,
        core: &mut AsyncCore,
        query: Query,
        opts: QueryOptions,
        spec: SubmitSpec,
    ) -> std::result::Result<AsyncTicket, SubmitError> {
        if core.shutting_down {
            return Err(SubmitError::ShutDown);
        }
        let arrival = spec.arrival.unwrap_or(core.now).max(core.now);
        if let Err(e) = core
            .admission
            .try_admit(spec.class, spec.tenant.as_deref(), arrival)
        {
            core.rejected += 1;
            return Err(e);
        }
        core.peak_in_flight = core.peak_in_flight.max(core.admission.in_flight() as u64);
        let (reply, rx) = sync_channel(1);
        self.enqueue_flight(core, query, opts, spec, arrival, true, reply);
        self.shared.cv.notify_all();
        Ok(AsyncTicket { rx })
    }

    /// Submit with a *deferred* admission decision, made when the
    /// arrival event fires on the virtual clock (open-loop workloads
    /// with future arrival times). Rejections arrive through the ticket
    /// as [`ServeError::Rejected`] — still typed, never silent.
    pub fn submit_at(&self, query: Query, opts: QueryOptions, spec: SubmitSpec) -> AsyncTicket {
        let (reply, rx) = sync_channel(1);
        let mut core = self.shared.lock_core();
        if core.shutting_down {
            drop(core);
            let _ = reply.send(QueryResponse {
                result: Err(ServeError::Rejected(SubmitError::ShutDown)),
                finished_at: SimDuration::ZERO,
                sojourn: SimDuration::ZERO,
            });
            return AsyncTicket { rx };
        }
        let arrival = spec.arrival.unwrap_or(core.now).max(core.now);
        self.enqueue_flight(&mut core, query, opts, spec, arrival, false, reply);
        self.shared.cv.notify_all();
        AsyncTicket { rx }
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue_flight(
        &self,
        core: &mut AsyncCore,
        query: Query,
        opts: QueryOptions,
        spec: SubmitSpec,
        arrival: SimDuration,
        admitted: bool,
        reply: SyncSender<QueryResponse>,
    ) {
        let id = core.next_id;
        core.next_id += 1;
        if core.first_arrival.is_none_or(|f| arrival < f) {
            core.first_arrival = Some(arrival);
        }
        let engine = core.engine.clone();
        core.flights.insert(
            id,
            Flight {
                query,
                opts,
                class: spec.class,
                tenant: spec.tenant,
                arrival,
                admitted,
                engine,
                epoch: 0,
                trace: QueryTrace::new(),
                atoms: Vec::new(),
                maps: None,
                postings_plan: None,
                doc_plan: None,
                pending: None,
                executed: None,
                reply,
            },
        );
        core.push_event(arrival, EventAction::Arrive { id });
    }

    /// Pump the event loop on the calling thread until every scheduled
    /// event has been processed (deterministic single-threaded mode when
    /// `executor_threads == 0`; safe to call alongside executor threads).
    pub fn drain(&self) {
        loop {
            let entry = {
                let mut core = self.shared.lock_core();
                match core.pop_event() {
                    Some(entry) => entry,
                    None if core.busy > 0 => {
                        // Another thread is mid-flight and may push more
                        // events; wait for it.
                        drop(self.shared.cv.wait(core).unwrap_or_else(|e| e.into_inner()));
                        continue;
                    }
                    None => return,
                }
            };
            process_event(&self.shared, entry.at, entry.action);
        }
    }

    /// Snapshot the aggregate serving statistics. Latency percentiles
    /// are over *sojourns* (arrival → completion, including virtual
    /// queueing — what an open-loop client experiences); wait
    /// percentiles are over per-query storage waits.
    pub fn stats(&self) -> ServerStats {
        self.snapshot(false)
    }

    /// The statistics under the open-loop model, or (`closed_loop`) under
    /// [`QueryServer`]'s: latency over service totals and the makespan of
    /// replaying them through `executor_threads` model servers.
    fn snapshot(&self, closed_loop: bool) -> ServerStats {
        let core = self.shared.lock_core();
        let workers = self.shared.config.executor_threads;
        let mut waits: Vec<SimDuration> = core.samples.iter().map(|&(w, _)| w).collect();
        waits.sort();
        let (latencies, sim_makespan) = if closed_loop {
            let mut totals: Vec<SimDuration> = core.samples.iter().map(|&(_, t)| t).collect();
            totals.sort();
            let makespan = closed_loop_makespan(&totals, workers);
            (totals, makespan)
        } else {
            let mut sojourns = core.sojourns.clone();
            sojourns.sort();
            let makespan = core
                .last_finish
                .saturating_sub(core.first_arrival.unwrap_or(SimDuration::ZERO));
            (sojourns, makespan)
        };
        let completed = core.completed;
        let sim_secs = sim_makespan.as_secs_f64();
        let wall_secs = self.started.elapsed().as_secs_f64();
        ServerStats {
            workers,
            completed,
            rejected: core.rejected,
            timed_out: core.timed_out,
            failed: core.failed,
            refreshes: core.refreshes,
            sim_makespan,
            qps_sim: if sim_secs > 0.0 {
                completed as f64 / sim_secs
            } else {
                0.0
            },
            qps_wall: if wall_secs > 0.0 {
                completed as f64 / wall_secs
            } else {
                0.0
            },
            wait_p50_ms: percentile(&waits, 0.50),
            wait_p95_ms: percentile(&waits, 0.95),
            wait_p99_ms: percentile(&waits, 0.99),
            latency_p50_ms: percentile(&latencies, 0.50),
            latency_p95_ms: percentile(&latencies, 0.95),
            latency_p99_ms: percentile(&latencies, 0.99),
            cache: self.cache_stats.as_ref().map(|f| f()),
            peak_in_flight: core.peak_in_flight,
            hedges: core.hedges,
            hedge_wins: core.hedge_wins,
            primary_dispatches: core.primary_dispatches,
            region_hedges: core.region_hedges,
            replication: {
                let guard = self
                    .shared
                    .region_backend
                    .read()
                    .unwrap_or_else(|e| e.into_inner());
                guard.as_ref().map(|r| r.stats())
            },
            admission: Some(core.admission.stats()),
        }
    }

    /// Stop accepting submissions, serve everything still in flight, and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        self.stats()
    }

    fn begin_shutdown(&mut self) {
        {
            let mut core = self.shared.lock_core();
            core.shutting_down = true;
        }
        self.shared.cv.notify_all();
        if self.threads.is_empty() {
            self.drain();
        } else {
            for handle in self.threads.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for AsyncQueryServer {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

/// Background executor loop: pop events in virtual-time order, process,
/// repeat; exits once shut down and fully drained.
fn run_executor(shared: &Arc<AsyncShared>) {
    loop {
        let entry = {
            let mut core = shared.lock_core();
            loop {
                if let Some(entry) = core.pop_event() {
                    break Some(entry);
                }
                if core.shutting_down && core.busy == 0 {
                    break None;
                }
                core = shared.cv.wait(core).unwrap_or_else(|e| e.into_inner());
            }
        };
        match entry {
            Some(entry) => process_event(shared, entry.at, entry.action),
            None => {
                shared.cv.notify_all();
                return;
            }
        }
    }
}

fn process_event(shared: &AsyncShared, at: SimDuration, action: EventAction) {
    match action {
        EventAction::Arrive { id } => process_arrival(shared, at, id),
        EventAction::StorageDone { id, epoch } => process_storage_done(shared, at, id, epoch),
        EventAction::Executed { id } => process_executed(shared, at, id),
        EventAction::HedgeFire { id, epoch } => process_hedge_fire(shared, at, id, epoch),
    }
}

fn process_arrival(shared: &AsyncShared, at: SimDuration, id: u64) {
    let mut flight = {
        let mut core = shared.lock_core();
        let Some(mut flight) = core.flights.remove(&id) else {
            return;
        };
        core.busy += 1;
        if !flight.admitted {
            match core
                .admission
                .try_admit(flight.class, flight.tenant.as_deref(), at)
            {
                Ok(()) => {
                    flight.admitted = true;
                    core.peak_in_flight =
                        core.peak_in_flight.max(core.admission.in_flight() as u64);
                }
                Err(err) => {
                    core.rejected += 1;
                    core.busy -= 1;
                    shared.cv.notify_all();
                    drop(core);
                    let _ = flight.reply.send(QueryResponse {
                        result: Err(ServeError::Rejected(err)),
                        finished_at: at,
                        sojourn: SimDuration::ZERO,
                    });
                    return;
                }
            }
        }
        flight
    };

    let engine = flight.engine.clone();
    let step = contained(|| match engine.staged() {
        Some(staged) => plan_arrival(staged, &mut flight),
        None => match engine.execute(&flight.query, &flight.opts) {
            Ok(result) => StepOutcome::Executed(result),
            Err(e) => StepOutcome::Fail(e),
        },
    });
    apply_step(shared, at, id, flight, step);
}

/// A staged query's first stretch: expand vocabulary atoms
/// (Prefix/Fuzzy/short Substring) against the engine's current segment
/// set, then plan and dispatch the postings batch. The expanded query
/// stays on the flight so the verify pass uses it too (exactness).
fn plan_arrival(engine: &dyn StagedEngine, flight: &mut Flight) -> StepOutcome {
    let mut expanded: crate::Result<Option<crate::Query>> = Ok(None);
    engine.with_segments(&mut |segments| {
        expanded = crate::expand::expand_for_segments(&flight.query, segments).map(|q| match q {
            std::borrow::Cow::Borrowed(_) => None,
            std::borrow::Cow::Owned(q) => Some(q),
        });
    });
    match expanded {
        Ok(Some(q)) => flight.query = q,
        Ok(None) => {}
        Err(e) => return StepOutcome::Fail(e),
    }
    match flight.query.atoms() {
        Ok(atoms) => flight.atoms = atoms,
        Err(e) => return StepOutcome::Fail(e),
    }
    run_staged(engine, flight, postings_step)
}

fn process_storage_done(shared: &AsyncShared, at: SimDuration, id: u64, epoch: u32) {
    let (mut flight, pending) = {
        let mut core = shared.lock_core();
        match core.flights.get(&id) {
            Some(f) if f.epoch == epoch && f.pending.is_some() => {}
            // Absent (already terminal / checked out) or a stale epoch:
            // this is the cancelled loser of a hedge race — ignore.
            _ => return,
        }
        let mut flight = core.flights.remove(&id).expect("checked above");
        core.busy += 1;
        let pending = flight.pending.take().expect("checked above");
        let hedge_cfg = shared.config.hedge.as_ref();
        core.observe_batch_latency(hedge_cfg, pending.latency);
        (flight, pending)
    };
    let engine = flight.engine.clone();
    let step = contained(|| {
        let staged = engine
            .staged()
            .expect("only staged engines dispatch batches");
        merge_batch(staged, &mut flight, pending)
    });
    apply_step(shared, at, id, flight, step);
}

/// A non-staged engine's execution reached its virtual completion.
fn process_executed(shared: &AsyncShared, at: SimDuration, id: u64) {
    let mut flight = {
        let mut core = shared.lock_core();
        let Some(flight) = core.flights.remove(&id) else {
            return;
        };
        core.busy += 1;
        flight
    };
    let result = flight
        .executed
        .take()
        .expect("result held until completion");
    finalize(shared, at, flight, Ok(*result));
}

/// A staged query's stretch after a batch completes: charge the batch,
/// complete its stage, and plan the next one.
fn merge_batch(
    engine: &dyn StagedEngine,
    flight: &mut Flight,
    pending: PendingBatch,
) -> StepOutcome {
    // Charge the winning wait/download to the trace (what a direct
    // `execute` records, with the hedge- and straggler-adjusted timing).
    let (requests, bytes) = match &pending.kept {
        Some(k) => (k.requests, k.bytes),
        None => (
            pending.batch.parts.len() as u64,
            pending.batch.total_bytes(),
        ),
    };
    flight.trace.record_concurrent(
        pending.kind,
        requests,
        bytes,
        pending.wait,
        pending.download,
    );

    match pending.kind {
        PhaseKind::Postings => {
            let plan = flight
                .postings_plan
                .take()
                .expect("postings plan set at dispatch");
            match complete_postings(
                &plan,
                &flight.atoms,
                &pending.batch.parts,
                pending.kept.as_deref(),
                &mut flight.trace,
            ) {
                Ok(maps) => {
                    flight.maps = Some(maps);
                    run_staged(engine, flight, documents_step)
                }
                Err(e) => StepOutcome::Fail(e),
            }
        }
        PhaseKind::Documents => {
            let plan = flight.doc_plan.take().expect("doc plan set at dispatch");
            let mut result: Option<SearchResult> = None;
            engine.with_segments(&mut |segments| {
                result = Some(complete_documents(
                    segments,
                    &flight.query,
                    &flight.opts,
                    &plan,
                    &pending.requests,
                    &pending.batch.parts,
                    &mut flight.trace,
                ));
            });
            let result = result.expect("with_segments invokes its callback");
            StepOutcome::Done(with_trace(result, flight))
        }
        other => unreachable!("no batches are dispatched for {other:?}"),
    }
}

fn process_hedge_fire(shared: &AsyncShared, at: SimDuration, id: u64, epoch: u32) {
    let Some(cfg) = shared.config.hedge.as_ref() else {
        return;
    };
    // Region-aware hedging takes precedence: re-dispatch to the
    // next-nearest healthy region. With fewer than two healthy regions
    // (or no region backend) fall back to the generic hedge store.
    let region_target = {
        let guard = shared
            .region_backend
            .read()
            .unwrap_or_else(|e| e.into_inner());
        guard.as_ref().and_then(|r| r.hedge_target())
    };
    let (store, via_region): (Arc<dyn ObjectStore>, bool) = match region_target {
        Some((_region, store)) => (store, true),
        None => {
            let guard = shared.hedge_store.read().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(s) => (s.clone(), false),
                None => return,
            }
        }
    };
    let mut core = shared.lock_core();
    // Budget: admitting this hedge must keep `hedges` within
    // `budget_fraction` of *primary* dispatches. Hedge dispatches do not
    // count in the denominator — they used to, which let every admitted
    // hedge enlarge the budget for the next one.
    if ((core.hedges + 1) as f64) > cfg.budget_fraction * core.primary_dispatches as f64 {
        return;
    }
    let requests: Vec<RangeRequest> = {
        let Some(flight) = core.flights.get(&id) else {
            return; // batch already completed (or query is terminal)
        };
        if flight.epoch != epoch {
            return; // stale timer from a previous hedge race
        }
        let Some(pending) = flight.pending.as_ref() else {
            return;
        };
        if pending.hedged {
            return;
        }
        pending.requests.clone()
    };
    core.hedges += 1;
    if via_region {
        core.region_hedges += 1;
    }
    // The duplicate fetch is wall-clock instant (simulated store), so it
    // runs under the scheduler lock — this keeps the original batch's
    // completion event from racing with the hedge decision.
    let Ok(duplicate) = store.get_ranges(&requests) else {
        return; // hedge failed; the original is still in flight
    };
    // The duplicate is judged by the same straggler policy as the
    // original: it wins when the parts the policy keeps arrive sooner.
    let (kept, wait, download) = match core.flights.get(&id) {
        Some(flight) => straggler_cut(flight, &duplicate),
        None => (None, duplicate.batch_wait, duplicate.batch_download),
    };
    let latency = wait + download;
    let (_start, completes) = core.acquire_slot(at, latency);
    let mut won = false;
    let mut new_epoch = 0;
    if let Some(flight) = core.flights.get_mut(&id) {
        if let Some(pending) = flight.pending.as_mut() {
            pending.hedged = true;
            if completes < pending.completes_at {
                flight.epoch += 1;
                new_epoch = flight.epoch;
                pending.kept = kept;
                pending.wait = wait;
                pending.download = download;
                pending.latency = latency;
                pending.completes_at = completes;
                // `pending.batch` keeps the original bytes: blobs are
                // immutable, so the duplicate's payload is identical and
                // results stay byte-for-byte equal to a direct execute.
                won = true;
            }
        }
    }
    if won {
        core.hedge_wins += 1;
        core.push_event(
            completes,
            EventAction::StorageDone {
                id,
                epoch: new_epoch,
            },
        );
        shared.cv.notify_all();
    }
}

/// Apply `flight`'s straggler policy to a fetched batch: the kept
/// postings parts (`None` outside the postings stage, or when every part
/// is kept) and the wait and download the query pays for them.
fn straggler_cut(
    flight: &Flight,
    batch: &BatchFetch,
) -> (Option<Box<KeptParts>>, SimDuration, SimDuration) {
    let kept = flight.postings_plan.as_ref().and_then(|plan| {
        keep_parts(
            std::slice::from_ref(plan),
            &batch.parts,
            flight.opts.straggler,
        )
    });
    let (wait, download) = match &kept {
        Some(k) => (k.wait, k.download),
        None => (batch.batch_wait, batch.batch_download),
    };
    (kept, wait, download)
}

/// Run a planning/merging stage that needs the engine's segment set.
fn run_staged(
    engine: &dyn StagedEngine,
    flight: &mut Flight,
    stage: fn(&[&crate::Searcher], &mut Flight) -> StepOutcome,
) -> StepOutcome {
    let mut out: Option<StepOutcome> = None;
    engine.with_segments(&mut |segments| {
        out = Some(stage(segments, flight));
    });
    out.expect("with_segments invokes its callback")
}

/// Run one executor stretch of a checked-out query. A panic fails that
/// query instead of killing the executor thread; the failure is
/// finalized like any other, which releases the query's `busy` hold and
/// admission slot.
fn contained(stretch: impl FnOnce() -> StepOutcome) -> StepOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(stretch)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        StepOutcome::Fail(AirphantError::Storage(StorageError::Io(
            std::io::Error::other(format!("query execution panicked: {msg}")),
        )))
    })
}

/// Apply a stage's outcome: suspend on a dispatched batch, or reach a
/// terminal state.
fn apply_step(
    shared: &AsyncShared,
    at: SimDuration,
    id: u64,
    mut flight: Flight,
    step: StepOutcome,
) {
    match step {
        StepOutcome::Done(result) => finalize(shared, at, flight, Ok(result)),
        StepOutcome::Fail(e) => finalize(shared, at, flight, Err(e)),
        StepOutcome::Executed(result) => {
            // The query holds its admission slot for the simulated
            // service time the engine reports.
            flight.trace = result.trace.clone();
            let completes = at + result.trace.total();
            flight.executed = Some(Box::new(result));
            let mut core = shared.lock_core();
            core.push_event(completes, EventAction::Executed { id });
            core.flights.insert(id, flight);
            core.busy -= 1;
            shared.cv.notify_all();
        }
        StepOutcome::Dispatch {
            kind,
            requests,
            batch,
        } => {
            let mut core = shared.lock_core();
            core.primary_dispatches += 1;
            let (kept, wait, download) = straggler_cut(&flight, &batch);
            let latency = wait + download;
            let (start, completes) = core.acquire_slot(at, latency);
            flight.pending = Some(PendingBatch {
                kind,
                requests,
                wait,
                download,
                latency,
                completes_at: completes,
                batch,
                kept,
                hedged: false,
            });
            let epoch = flight.epoch;
            core.push_event(completes, EventAction::StorageDone { id, epoch });
            // Arm the hedge timer only when it could actually fire before
            // the batch completes — a timer past `completes` would pop as
            // a stale no-op anyway.
            if shared.config.hedge.is_some() {
                let armed = {
                    let generic = shared.hedge_store.read().unwrap_or_else(|e| e.into_inner());
                    let region = shared
                        .region_backend
                        .read()
                        .unwrap_or_else(|e| e.into_inner());
                    generic.is_some() || region.is_some()
                };
                if armed {
                    if let Some(threshold) = core.hedge_threshold {
                        let fire = start + threshold;
                        if fire < completes {
                            core.push_event(fire, EventAction::HedgeFire { id, epoch });
                        }
                    }
                }
            }
            core.flights.insert(id, flight);
            core.busy -= 1;
            shared.cv.notify_all();
        }
    }
}

/// Deliver a terminal outcome: deadline check, counters, samples, reply.
fn finalize(shared: &AsyncShared, at: SimDuration, flight: Flight, outcome: Result<SearchResult>) {
    let service_total = flight.trace.total();
    let service_wait = flight.trace.wait();
    let sojourn = at.saturating_sub(flight.arrival);
    enum Bucket {
        Completed,
        TimedOut,
        Failed,
    }
    let (result, bucket) = match outcome {
        Ok(result) => match shared.config.deadline {
            Some(deadline) if service_total > deadline => (
                Err(ServeError::Failed(AirphantError::Storage(
                    StorageError::Timeout {
                        name: format!(
                            "query missed its {deadline} deadline (took {service_total})"
                        ),
                    },
                ))),
                Bucket::TimedOut,
            ),
            _ => (Ok(result), Bucket::Completed),
        },
        Err(e) => (Err(ServeError::Failed(e)), Bucket::Failed),
    };
    {
        let mut core = shared.lock_core();
        match bucket {
            Bucket::Completed => core.completed += 1,
            Bucket::TimedOut => core.timed_out += 1,
            Bucket::Failed => core.failed += 1,
        }
        // Timed-out queries stay in the samples: percentiles report the
        // true served tail (not censored at the deadline) and the
        // closed-loop makespan charges the wasted service time.
        core.samples.push((service_wait, service_total));
        core.sojourns.push(sojourn);
        if at > core.last_finish {
            core.last_finish = at;
        }
        core.admission.on_complete(sojourn);
        core.busy -= 1;
        shared.cv.notify_all();
    }
    let _ = flight.reply.send(QueryResponse {
        result,
        finished_at: at,
        sojourn,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::AirphantConfig;
    use crate::Searcher;
    use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
    use airphant_storage::{
        BatchFetch, CachedStore, CoalescingStore, Fetched, InMemoryStore, LatencyModel,
        ObjectStore, RangeRequest, RegionProfile, SimulatedCloudStore,
    };
    use bytes::Bytes;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Condvar;

    fn build_index(store: Arc<dyn ObjectStore>, lines: &[&str]) {
        let blob = lines.join("\n");
        store.put("c/blob-0", Bytes::from(blob)).unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/blob-0".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        );
        Builder::new(
            AirphantConfig::default()
                .with_total_bins(128)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        )
        .build(&corpus, "idx")
        .unwrap();
    }

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("word{i} shared{} common", i % 5))
            .collect()
    }

    #[test]
    fn pooled_results_match_direct_execution() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let docs = lines(60);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(store.clone(), &refs);
        let searcher = Arc::new(Searcher::open(store, "idx").unwrap());
        let server = QueryServer::start(
            searcher.clone(),
            ServerConfig::new().with_workers(4).with_queue_capacity(16),
        );
        for i in 0..30 {
            let q = Query::all([
                Query::term(format!("word{i}")),
                Query::term(format!("shared{}", i % 5)),
            ]);
            let served = server.execute(&q, &QueryOptions::new()).unwrap();
            let direct = searcher.execute(&q, &QueryOptions::new()).unwrap();
            let texts = |r: &SearchResult| {
                let mut v: Vec<&str> = r.hits.iter().map(|h| h.text.as_str()).collect();
                v.sort();
                v.join("|")
            };
            assert_eq!(texts(&served), texts(&direct), "query {i}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 30);
        assert_eq!(stats.rejected + stats.timed_out + stats.failed, 0);
    }

    /// A store whose reads park on a gate until the test opens it — makes
    /// queue-full states deterministic. Flags when a read has parked so
    /// tests can handshake instead of sleeping.
    struct GatedStore<S> {
        inner: S,
        gate: Mutex<bool>,
        cv: Condvar,
        parked: Mutex<bool>,
        parked_cv: Condvar,
    }

    impl<S> GatedStore<S> {
        fn new(inner: S) -> Self {
            GatedStore {
                inner,
                gate: Mutex::new(false),
                cv: Condvar::new(),
                parked: Mutex::new(false),
                parked_cv: Condvar::new(),
            }
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn wait_until_parked(&self) {
            let mut parked = self.parked.lock().unwrap();
            while !*parked {
                parked = self.parked_cv.wait(parked).unwrap();
            }
        }

        fn block(&self) {
            {
                *self.parked.lock().unwrap() = true;
                self.parked_cv.notify_all();
            }
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }
    }

    impl<S: ObjectStore> airphant_storage::StoreLayer for GatedStore<S> {
        type Inner = S;
        fn inner(&self) -> &S {
            &self.inner
        }
        fn get_range(&self, name: &str, o: u64, l: u64) -> airphant_storage::Result<Fetched> {
            self.block();
            self.inner.get_range(name, o, l)
        }
        fn get_ranges(&self, reqs: &[RangeRequest]) -> airphant_storage::Result<BatchFetch> {
            // Init reads (the header fetch) are Index-class; only gate
            // query-time traffic (Superpost + Data) so `Searcher::open`
            // never parks.
            if reqs
                .iter()
                .any(|r| r.class != airphant_storage::RangeClass::Index)
            {
                self.block();
            }
            self.inner.get_ranges(reqs)
        }
    }

    #[test]
    fn full_queue_rejects_with_typed_error() {
        let plain: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let docs = lines(10);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(plain.clone(), &refs);
        // Open the searcher over the *ungated* store (init must not park),
        // then serve through a gate that stalls the single worker.
        let gated = Arc::new(GatedStore::new(plain.clone()));
        let searcher = {
            // Re-point the searcher's store at the gated stack.
            Arc::new(Searcher::open(gated.clone() as Arc<dyn ObjectStore>, "idx").unwrap())
        };
        let server = QueryServer::start(
            searcher,
            ServerConfig::new().with_workers(1).with_queue_capacity(2),
        );
        // One query occupies the worker (parked on the gate); two fill the
        // queue; the next must be rejected with the typed error.
        let mut tickets = Vec::new();
        let mut accepted = 0;
        let mut rejected = None;
        for i in 0..8 {
            match server.try_submit(Query::term(format!("word{}", i % 10)), QueryOptions::new()) {
                Ok(t) => {
                    accepted += 1;
                    tickets.push(t);
                }
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
            // Handshake: only count the worker as occupied once it has
            // actually parked on the gate, so the tallies below are
            // deterministic (1 in flight + 2 queued) on any scheduler.
            if i == 0 {
                gated.wait_until_parked();
            }
        }
        assert_eq!(rejected, Some(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(accepted, 3, "1 serving + 2 queued");
        gated.open();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn wait_on_open_gate_is_not_required_for_shutdown() {
        // Dropping the server with no traffic must join cleanly.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(store.clone(), &["alpha beta"]);
        let searcher = Arc::new(Searcher::open(store, "idx").unwrap());
        let server = QueryServer::start(searcher, ServerConfig::new());
        drop(server);
    }

    #[test]
    fn deadline_surfaces_storage_timeout() {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            5,
        ));
        {
            let s: Arc<dyn ObjectStore> = sim.clone();
            let docs = lines(20);
            let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            build_index(s, &refs);
        }
        let searcher =
            Arc::new(Searcher::open(sim.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        // gcs-like round trips are ~45 ms; a 1 ms deadline always trips.
        let server = QueryServer::start(
            searcher,
            ServerConfig::new()
                .with_workers(2)
                .with_deadline(SimDuration::from_millis(1)),
        );
        let err = server
            .execute(&Query::term("word3"), &QueryOptions::new())
            .unwrap_err();
        assert!(
            matches!(err, AirphantError::Storage(StorageError::Timeout { .. })),
            "expected Timeout, got {err:?}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.completed, 0);
        // The timed-out query's true latency stays in the samples: the
        // tail is not censored at the deadline and the worker's spent
        // service time still shows up in the makespan.
        assert!(stats.latency_p99_ms > 1.0, "tail must exceed the deadline");
        assert!(stats.sim_makespan > SimDuration::from_millis(1));
    }

    #[test]
    fn stats_percentiles_and_throughput_model() {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            9,
        ));
        {
            let s: Arc<dyn ObjectStore> = sim.clone();
            let docs = lines(40);
            let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            build_index(s, &refs);
        }
        // The full serving stack of ADR-005: cloud → scheduler → cache.
        let scheduler = Arc::new(CoalescingStore::new(sim.clone() as Arc<dyn ObjectStore>));
        let cache = Arc::new(CachedStore::new(
            scheduler.clone() as Arc<dyn ObjectStore>,
            1 << 20,
        ));
        let searcher =
            Arc::new(Searcher::open(cache.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let cache_for_stats = cache.clone();
        let server = QueryServer::start(
            searcher,
            ServerConfig::new().with_workers(4).with_queue_capacity(32),
        )
        .with_cache_stats(move || cache_for_stats.hit_stats());
        let tickets: Vec<Ticket> = (0..40)
            .map(|i| {
                server
                    .submit(Query::term(format!("word{}", i % 40)), QueryOptions::new())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 40);
        assert!(stats.qps_sim > 0.0);
        assert!(stats.latency_p50_ms > 0.0);
        assert!(stats.latency_p50_ms <= stats.latency_p95_ms);
        assert!(stats.latency_p95_ms <= stats.latency_p99_ms);
        assert!(stats.wait_p50_ms <= stats.wait_p99_ms);
        assert!(stats.cache.is_some());
        assert!(stats.cache_hit_rate().is_some());
        // The cache's miss batches did flow through the scheduler.
        assert!(
            scheduler.stats().backend_batches > 0,
            "misses flow through the scheduler"
        );
        // The closed-loop model: 4 workers serve 40 queries at least ~4x
        // faster than one worker would (same samples, fewer servers).
        let one = closed_loop_makespan(
            &{
                let samples = server.core.shared.lock_core().samples.clone();
                let mut totals: Vec<SimDuration> = samples.iter().map(|&(_, t)| t).collect();
                totals.sort();
                totals
            },
            1,
        );
        assert!(
            stats.sim_makespan < one,
            "4 workers {} must beat 1 worker {one}",
            stats.sim_makespan
        );
        drop(server);
    }

    /// Panics on the first query, answers normally afterwards. Not
    /// staged: the core runs its `execute` as one opaque stretch.
    struct PanicOnceEngine {
        inner: Searcher,
        panicked: AtomicBool,
    }

    impl SearchEngine for PanicOnceEngine {
        fn name(&self) -> &'static str {
            "PanicOnce"
        }
        fn lookup(
            &self,
            word: &str,
        ) -> Result<(iou_sketch::PostingsList, airphant_storage::QueryTrace)> {
            self.inner.lookup(word)
        }
        fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected engine panic");
            }
            self.inner.execute(query, opts)
        }
        fn index_bytes(&self) -> u64 {
            self.inner.index_usage_bytes()
        }
    }

    /// A staged engine whose first `with_segments` call panics, i.e. the
    /// panic fires inside the core's own planning stretch.
    struct PanicOnceStaged {
        inner: Searcher,
        panicked: AtomicBool,
    }

    impl SearchEngine for PanicOnceStaged {
        fn name(&self) -> &'static str {
            "PanicOnceStaged"
        }
        fn lookup(
            &self,
            word: &str,
        ) -> Result<(iou_sketch::PostingsList, airphant_storage::QueryTrace)> {
            self.inner.lookup(word)
        }
        fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
            self.inner.execute(query, opts)
        }
        fn index_bytes(&self) -> u64 {
            self.inner.index_usage_bytes()
        }
        fn staged(&self) -> Option<&dyn StagedEngine> {
            Some(self)
        }
    }

    impl StagedEngine for PanicOnceStaged {
        fn with_segments(&self, f: &mut dyn FnMut(&[&Searcher])) {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected staged-engine panic");
            }
            f(&[&self.inner]);
        }
    }

    /// Where the injected panic fires, and the front end serving it.
    #[derive(Debug, Clone, Copy)]
    enum PanicSite {
        /// A non-staged engine's `execute`, through a 1-worker
        /// `QueryServer`.
        Execute,
        /// A staged engine's `with_segments`, through a 1-thread
        /// `AsyncQueryServer`.
        WithSegments,
    }

    /// Run `wait` on a helper thread and fail, instead of hanging, if it
    /// does not return within 10 s.
    fn bounded_wait<T: Send + 'static>(wait: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(wait());
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("query answered within 10 s");
        waiter.join().expect("waiter thread exits after replying");
        out
    }

    #[test]
    fn engine_panic_fails_the_query_but_not_the_worker() {
        for site in [PanicSite::Execute, PanicSite::WithSegments] {
            engine_panic_case(site);
        }
    }

    fn engine_panic_case(site: PanicSite) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(store.clone(), &["alpha beta", "beta gamma"]);
        let inner = Searcher::open(store, "idx").unwrap();
        let panicked = AtomicBool::new(false);
        // One executor thread: if the panic killed it, the second query
        // would never be answered.
        let (outcomes, stats): (Vec<Result<SearchResult>>, ServerStats) = match site {
            PanicSite::Execute => {
                let engine = Arc::new(PanicOnceEngine { inner, panicked });
                let server = QueryServer::start(engine, ServerConfig::new().with_workers(1));
                let outcomes = (0..2)
                    .map(|_| {
                        let ticket = server
                            .submit(Query::term("beta"), QueryOptions::new())
                            .unwrap();
                        bounded_wait(move || ticket.wait())
                    })
                    .collect();
                (outcomes, server.shutdown())
            }
            PanicSite::WithSegments => {
                let engine = Arc::new(PanicOnceStaged { inner, panicked });
                let server = AsyncQueryServer::start(
                    engine as Arc<dyn StagedEngine>,
                    AsyncServerConfig::new().with_executor_threads(1),
                );
                let outcomes = (0..2)
                    .map(|_| {
                        let ticket = server
                            .try_submit(Query::term("beta"), QueryOptions::new(), SubmitSpec::new())
                            .unwrap();
                        bounded_wait(move || match ticket.wait().result {
                            Ok(result) => Ok(result),
                            Err(ServeError::Failed(e)) => Err(e),
                            Err(other) => panic!("unexpected {other}"),
                        })
                    })
                    .collect();
                (outcomes, server.shutdown())
            }
        };
        let err = outcomes[0].as_ref().unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "{site:?}: caller sees an error, got {err}"
        );
        let ok = outcomes[1].as_ref().unwrap();
        assert_eq!(ok.hits.len(), 2, "{site:?}: the worker survived the panic");
        assert_eq!(stats.failed, 1, "{site:?}");
        assert_eq!(stats.completed, 1, "{site:?}");
    }

    fn ms_samples(values: &[u64]) -> Vec<SimDuration> {
        let mut v: Vec<SimDuration> = values
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn percentile_nearest_rank_single_sample() {
        // n = 1: every percentile is the one sample.
        let samples = ms_samples(&[42]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&samples, q), 42.0, "q={q}");
        }
    }

    #[test]
    fn percentile_nearest_rank_two_samples() {
        // n = 2, nearest rank = ceil(q·n) clamped to [1, n]:
        // p50 → rank 1 (the smaller), p95/p99 → rank 2 (the larger).
        let samples = ms_samples(&[10, 90]);
        assert_eq!(percentile(&samples, 0.50), 10.0);
        assert_eq!(percentile(&samples, 0.51), 90.0);
        assert_eq!(percentile(&samples, 0.95), 90.0);
        assert_eq!(percentile(&samples, 0.99), 90.0);
        // q = 0 still returns the minimum (rank clamps up to 1).
        assert_eq!(percentile(&samples, 0.0), 10.0);
    }

    #[test]
    fn percentile_nearest_rank_hundred_samples() {
        // n = 100 with samples 1..=100 ms: rank ceil(q·100) picks value
        // q·100 exactly — p50 = 50, p95 = 95, p99 = 99, p100 = 100.
        let values: Vec<u64> = (1..=100).collect();
        let samples = ms_samples(&values);
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        // And just over a rank boundary rounds up to the next sample.
        assert_eq!(percentile(&samples, 0.501), 51.0);
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn timed_out_queries_stay_in_percentile_samples() {
        // One fast query (hits the deadline) and one slow (misses it):
        // the slow sample must still dominate the p99, not be censored.
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            11,
        ));
        {
            let s: Arc<dyn ObjectStore> = sim.clone();
            let docs = lines(20);
            let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            build_index(s, &refs);
        }
        let searcher =
            Arc::new(Searcher::open(sim.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let server = QueryServer::start(
            searcher,
            ServerConfig::new()
                .with_workers(1)
                .with_deadline(SimDuration::from_millis(1)),
        );
        for i in 0..5 {
            // gcs-like round trips are ~45 ms: every query times out.
            let err = server
                .execute(&Query::term(format!("word{i}")), &QueryOptions::new())
                .unwrap_err();
            assert!(matches!(
                err,
                AirphantError::Storage(StorageError::Timeout { .. })
            ));
        }
        let stats = server.shutdown();
        assert_eq!(stats.timed_out, 5);
        assert_eq!(stats.completed, 0);
        // All five served latencies are in the samples: p50 as well as
        // p99 reflect the true ~45ms service times, not the 1ms deadline.
        assert!(stats.latency_p50_ms > 10.0);
        assert!(stats.latency_p99_ms >= stats.latency_p50_ms);
    }

    #[test]
    fn refresh_swaps_engine_between_queries() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(store.clone(), &["alpha one", "beta two"]);
        {
            // A second index under another prefix with different docs.
            let blob = "gamma three\nbeta four";
            store.put("c/blob-1", Bytes::from(blob)).unwrap();
            let corpus = Corpus::new(
                store.clone(),
                vec!["c/blob-1".into()],
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            );
            Builder::new(
                AirphantConfig::default()
                    .with_total_bins(128)
                    .with_manual_layers(2)
                    .with_common_fraction(0.0),
            )
            .build(&corpus, "idx2")
            .unwrap();
        }
        let server = QueryServer::start(
            Arc::new(Searcher::open(store.clone(), "idx").unwrap()),
            ServerConfig::new().with_workers(2),
        );
        // Before the refresh: generation 1 answers.
        let r = server
            .execute(&Query::term("alpha"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(server
            .execute(&Query::term("gamma"), &QueryOptions::new())
            .unwrap()
            .hits
            .is_empty());
        // Refresh: no restart, same pool, new engine.
        server.refresh(Arc::new(Searcher::open(store, "idx2").unwrap()));
        let r = server
            .execute(&Query::term("gamma"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        assert!(server
            .execute(&Query::term("alpha"), &QueryOptions::new())
            .unwrap()
            .hits
            .is_empty());
        let stats = server.shutdown();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn refresh_does_not_disturb_inflight_queries() {
        // A query parked inside the old engine's storage read while the
        // refresh lands must finish on the OLD generation.
        let plain: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(plain.clone(), &["alpha old-gen"]);
        let gated = Arc::new(GatedStore::new(plain.clone()));
        let old_engine =
            Arc::new(Searcher::open(gated.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let server = Arc::new(QueryServer::start(
            old_engine,
            ServerConfig::new().with_workers(1),
        ));
        std::thread::scope(|s| {
            let inflight = {
                let server = server.clone();
                s.spawn(move || {
                    server
                        .execute(&Query::term("alpha"), &QueryOptions::new())
                        .unwrap()
                })
            };
            gated.wait_until_parked();
            // Build a *different* corpus under a fresh prefix and swap it
            // in while the first query is still parked mid-read.
            plain
                .put("c2/blob-0", Bytes::from("alpha new-gen"))
                .unwrap();
            let corpus = Corpus::new(
                plain.clone(),
                vec!["c2/blob-0".into()],
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            );
            Builder::new(
                AirphantConfig::default()
                    .with_total_bins(128)
                    .with_manual_layers(2)
                    .with_common_fraction(0.0),
            )
            .build(&corpus, "idx-new")
            .unwrap();
            server.refresh(Arc::new(Searcher::open(plain.clone(), "idx-new").unwrap()));
            gated.open();
            let old_result = inflight.join().unwrap();
            assert_eq!(old_result.hits.len(), 1);
            assert!(
                old_result.hits[0].text.contains("old-gen"),
                "in-flight query finished on its own generation"
            );
        });
        // The next query runs on the refreshed engine.
        let fresh = server
            .execute(&Query::term("alpha"), &QueryOptions::new())
            .unwrap();
        assert!(fresh.hits[0].text.contains("new-gen"));
    }

    #[test]
    fn closed_loop_makespan_is_monotone_in_workers() {
        let latencies: Vec<SimDuration> = (0..100)
            .map(|i| SimDuration::from_millis(40 + (i * 13) % 30))
            .collect();
        let mut prev = SimDuration::from_nanos(u64::MAX);
        for workers in [1usize, 2, 4, 8, 16, 32] {
            let m = closed_loop_makespan(&latencies, workers);
            assert!(m <= prev, "makespan must not grow with workers");
            prev = m;
        }
        assert_eq!(closed_loop_makespan(&[], 4), SimDuration::ZERO);
    }

    // -- async serving core ------------------------------------------------

    /// Build a cloud-latency corpus and return `(searcher, backend sim)`.
    fn async_fixture(
        n: usize,
        seed: u64,
    ) -> (Arc<Searcher>, Arc<SimulatedCloudStore<InMemoryStore>>) {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            seed,
        ));
        let docs = lines(n);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(sim.clone() as Arc<dyn ObjectStore>, &refs);
        let searcher =
            Arc::new(Searcher::open(sim.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        (searcher, sim)
    }

    fn canonical_hits(r: &SearchResult) -> String {
        let mut v: Vec<String> = r
            .hits
            .iter()
            .map(|h| format!("{}#{}+{}:{}", h.blob, h.offset, h.len, h.text))
            .collect();
        v.sort();
        v.join("|")
    }

    /// A trace's shape: per storage phase, its kind, requests, round
    /// trips and bytes.
    fn shape(trace: &QueryTrace) -> Vec<(PhaseKind, u64, u64, u64)> {
        trace
            .phases()
            .iter()
            .filter(|p| p.kind != PhaseKind::Compute)
            .map(|p| (p.kind, p.requests, p.batches, p.bytes))
            .collect()
    }

    #[test]
    fn async_results_match_sync_path_byte_for_byte() {
        use crate::Straggler;
        let (searcher, _sim) = async_fixture(60, 11);
        let server = AsyncQueryServer::start(
            searcher.clone() as Arc<dyn StagedEngine>,
            AsyncServerConfig::new().with_executor_threads(0),
        );
        let queries: Vec<Query> = (0..30)
            .map(|i| {
                Query::all([
                    Query::term(format!("word{i}")),
                    Query::term(format!("shared{}", i % 5)),
                ])
            })
            .collect();
        // Every straggler policy, and whether it keeps both layers.
        let policies = [
            (Straggler::WaitAll, true),
            (Straggler::Fastest(1), false),
            (Straggler::Timeout(SimDuration::from_millis(45)), false),
            (Straggler::Fastest(2), true),
            (Straggler::Timeout(SimDuration::from_nanos(u64::MAX)), true),
        ];
        for (policy, keeps_every_layer) in policies {
            let opts = QueryOptions::new().straggler(policy);
            let mut trimmed = 0;
            let tickets: Vec<AsyncTicket> = queries
                .iter()
                .map(|q| server.submit_at(q.clone(), opts.clone(), SubmitSpec::new()))
                .collect();
            server.drain();
            for (q, t) in queries.iter().zip(tickets) {
                let resp = t.wait();
                let served = resp.result.expect("async query served");
                let direct = searcher.execute(q, &opts).unwrap();
                let wait_all = searcher.execute(q, &QueryOptions::new()).unwrap();
                assert_eq!(canonical_hits(&served), canonical_hits(&direct));
                assert_eq!(served.hits, wait_all.hits, "{policy:?}");
                assert!(served.candidates >= wait_all.candidates, "{policy:?}");
                assert_eq!(served.trace.round_trips_of(PhaseKind::Postings), 1);
                if keeps_every_layer {
                    assert_eq!(shape(&served.trace), shape(&wait_all.trace), "{policy:?}");
                } else if shape(&served.trace)[0].1 < shape(&wait_all.trace)[0].1 {
                    // The postings phase (always first) kept fewer parts.
                    trimmed += 1;
                }
            }
            assert!(
                keeps_every_layer || trimmed > 0,
                "{policy:?} never dropped a layer"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 30 * policies.len() as u64);
        assert_eq!(stats.rejected + stats.failed + stats.timed_out, 0);
        let adm = stats.admission.expect("admission stats attached");
        assert_eq!(adm.submitted, adm.admitted + adm.shed_total());
    }

    #[test]
    fn async_executor_threads_serve_without_pumping() {
        let (searcher, _sim) = async_fixture(40, 23);
        let server = AsyncQueryServer::start(
            searcher.clone() as Arc<dyn StagedEngine>,
            AsyncServerConfig::new().with_executor_threads(2),
        );
        let tickets: Vec<AsyncTicket> = (0..20)
            .map(|i| {
                server
                    .try_submit(
                        Query::term(format!("word{i}")),
                        QueryOptions::new(),
                        SubmitSpec::new().with_class(Priority::High),
                    )
                    .expect("admitted under empty queue")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 20);
        assert!(stats.latency_p50_ms > 0.0, "virtual latency recorded");
        assert!(stats.qps_sim > 0.0);
    }

    #[test]
    fn async_overload_sheds_low_before_high_with_typed_errors() {
        let (searcher, _sim) = async_fixture(40, 31);
        // Queue of 4; Low watermark = 2, Normal = 3, High = 4.
        let server = AsyncQueryServer::start(
            searcher as Arc<dyn StagedEngine>,
            AsyncServerConfig::new()
                .with_executor_threads(0)
                .with_admission(AdmissionConfig::with_max_in_flight(4)),
        );
        let submit = |class: Priority| {
            server.try_submit(
                Query::term("common"),
                QueryOptions::new(),
                SubmitSpec::new().with_class(class),
            )
        };
        let mut held = Vec::new();
        held.push(submit(Priority::Normal).expect("first admitted"));
        held.push(submit(Priority::Normal).expect("second admitted"));
        // Low watermark (2) reached: Low is shed, Normal still admitted.
        let err = submit(Priority::Low).expect_err("low shed at watermark");
        match err {
            SubmitError::Overloaded { class, retry_after } => {
                assert_eq!(class, Priority::Low);
                assert!(retry_after > SimDuration::ZERO, "retry hint populated");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        held.push(submit(Priority::Normal).expect("normal rides above low watermark"));
        // Normal watermark (3) reached: Normal shed, High admitted.
        assert!(matches!(
            submit(Priority::Normal),
            Err(SubmitError::Overloaded {
                class: Priority::Normal,
                ..
            })
        ));
        held.push(submit(Priority::High).expect("high priority uses the full queue"));
        // Hard limit (4): even High is shed now.
        assert!(matches!(
            submit(Priority::High),
            Err(SubmitError::Overloaded {
                class: Priority::High,
                ..
            })
        ));
        server.drain();
        for t in held {
            assert!(t.wait().result.is_ok(), "admitted queries complete");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 3);
        let adm = stats.admission.unwrap();
        assert_eq!(adm.shed_low, 1);
        assert_eq!(adm.shed_normal, 1);
        assert_eq!(adm.shed_high, 1);
        assert_eq!(adm.submitted, adm.admitted + adm.shed_total());
    }

    #[test]
    fn async_storage_slots_create_queueing() {
        // Same workload through 1 slot vs. many slots: the constrained
        // backend must stretch the virtual makespan.
        let mut makespans = Vec::new();
        for slots in [1usize, 64] {
            let (searcher, _sim) = async_fixture(40, 47);
            let server = AsyncQueryServer::start(
                searcher as Arc<dyn StagedEngine>,
                AsyncServerConfig::new()
                    .with_executor_threads(0)
                    .with_storage_slots(slots),
            );
            let tickets: Vec<AsyncTicket> = (0..30)
                .map(|i| {
                    server.submit_at(
                        Query::term(format!("word{i}")),
                        QueryOptions::new(),
                        SubmitSpec::new().at(SimDuration::ZERO),
                    )
                })
                .collect();
            server.drain();
            for t in tickets {
                assert!(t.wait().result.is_ok());
            }
            makespans.push(server.shutdown().sim_makespan);
        }
        assert!(
            makespans[0] > makespans[1],
            "1 slot {} must be slower than 64 slots {}",
            makespans[0],
            makespans[1]
        );
    }

    #[test]
    fn async_hedging_counts_and_respects_budget() {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            5,
        ));
        let docs = lines(60);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(sim.clone() as Arc<dyn ObjectStore>, &refs);
        // Hedge re-dispatch goes to an *independent* clone of the backend
        // (fresh latency stream, same bytes) — the production story of a
        // second replica.
        let hedge_backend = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            6,
        ));
        for name in sim.list("").unwrap() {
            let bytes = sim.get(&name).unwrap().bytes;
            hedge_backend.put(&name, bytes).unwrap();
        }
        let searcher =
            Arc::new(Searcher::open(sim.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let budget = 0.2;
        let server = AsyncQueryServer::start(
            searcher.clone() as Arc<dyn StagedEngine>,
            AsyncServerConfig::new()
                .with_executor_threads(0)
                .with_hedge(HedgeConfig {
                    percentile: 0.5,
                    min_samples: 16,
                    budget_fraction: budget,
                }),
        )
        .with_hedge_backend(hedge_backend as Arc<dyn ObjectStore>);
        // Every other query trims its postings batch to the fastest
        // layer: a hedge of that batch is judged by the same policy.
        let queries: Vec<(Query, QueryOptions)> = (0..120)
            .map(|i| {
                let policy = if i % 2 == 0 {
                    crate::Straggler::WaitAll
                } else {
                    crate::Straggler::Fastest(1)
                };
                (
                    Query::term(format!("word{}", i % 60)),
                    QueryOptions::new().straggler(policy),
                )
            })
            .collect();
        let tickets: Vec<AsyncTicket> = queries
            .iter()
            .map(|(q, opts)| server.submit_at(q.clone(), opts.clone(), SubmitSpec::new()))
            .collect();
        server.drain();
        for ((q, _), t) in queries.iter().zip(tickets) {
            let served = t.wait().result.expect("served");
            let direct = searcher.execute(q, &QueryOptions::new()).unwrap();
            assert_eq!(
                canonical_hits(&served),
                canonical_hits(&direct),
                "hedged results stay byte-for-byte equal"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 120);
        assert!(
            stats.hedges > 0,
            "an aggressive p50 threshold must fire some hedges"
        );
        assert!(stats.hedge_wins <= stats.hedges);
        let adm = stats.admission.unwrap();
        // Budget: hedges bounded by the configured fraction of *primary*
        // dispatches — exactly, no slack. The old check counted hedge
        // dispatches in the denominator, so each admitted hedge enlarged
        // the budget for the next one.
        assert!(
            stats.primary_dispatches > 0,
            "served queries must have dispatched primary batches"
        );
        assert!(
            stats.primary_dispatches <= adm.admitted * 2,
            "≤ 2 primary batches (postings + documents) per query"
        );
        assert!(
            (stats.hedges as f64) <= budget * stats.primary_dispatches as f64,
            "hedges {} must stay within {budget} of {} primary dispatches",
            stats.hedges,
            stats.primary_dispatches
        );
    }

    #[test]
    fn hedge_budget_denominator_excludes_hedges() {
        // Same workload shape as above, but with a tight budget so the
        // cap binds: at 5% of primaries, 240 primary dispatches allow at
        // most 12 hedges even though an aggressive p50 threshold would
        // happily fire one per batch.
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            9,
        ));
        let docs = lines(60);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(sim.clone() as Arc<dyn ObjectStore>, &refs);
        let hedge_backend = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            10,
        ));
        for name in sim.list("").unwrap() {
            let bytes = sim.get(&name).unwrap().bytes;
            hedge_backend.put(&name, bytes).unwrap();
        }
        let searcher =
            Arc::new(Searcher::open(sim.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let budget = 0.05;
        let server = AsyncQueryServer::start(
            searcher as Arc<dyn StagedEngine>,
            AsyncServerConfig::new()
                .with_executor_threads(0)
                .with_hedge(HedgeConfig {
                    percentile: 0.5,
                    min_samples: 16,
                    budget_fraction: budget,
                }),
        )
        .with_hedge_backend(hedge_backend as Arc<dyn ObjectStore>);
        let tickets: Vec<AsyncTicket> = (0..120)
            .map(|i| {
                server.submit_at(
                    Query::term(format!("word{}", i % 60)),
                    QueryOptions::new(),
                    SubmitSpec::new(),
                )
            })
            .collect();
        server.drain();
        for t in tickets {
            t.wait().result.expect("served");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 120);
        assert!(
            (stats.hedges as f64) <= budget * stats.primary_dispatches as f64,
            "hedges {} exceed {budget} of {} primary dispatches",
            stats.hedges,
            stats.primary_dispatches
        );
        // The old denominator (all dispatches = primaries + hedges) would
        // have admitted strictly more: pin that the enforced cap is the
        // primaries-only one.
        let cap = (budget * stats.primary_dispatches as f64).floor() as u64;
        assert!(
            stats.hedges <= cap,
            "hedges {} must not exceed the primaries-only cap {cap}",
            stats.hedges
        );
    }

    #[test]
    fn region_hedges_route_to_the_next_nearest_region() {
        // Three regions at the paper's latency spread over one shared
        // corpus. With a region backend attached, every hedge must route
        // through it (region_hedges == hedges), reads must prefer the
        // nearest region, and results stay byte-for-byte equal — the
        // other region holds the same immutable blobs.
        let backing = Arc::new(InMemoryStore::new());
        let docs = lines(60);
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        build_index(backing.clone() as Arc<dyn ObjectStore>, &refs);
        let regions: Vec<(RegionProfile, Arc<dyn ObjectStore>)> = RegionProfile::paper_spread()
            .into_iter()
            .enumerate()
            .map(|(i, profile)| {
                let store: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
                    backing.clone(),
                    LatencyModel::gcs_like().with_region(profile.clone()),
                    11 + i as u64,
                ));
                (profile, store)
            })
            .collect();
        let replicated = Arc::new(ReplicatedStore::new(regions));
        let searcher =
            Arc::new(Searcher::open(replicated.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
        let server = AsyncQueryServer::start(
            searcher.clone() as Arc<dyn StagedEngine>,
            AsyncServerConfig::new()
                .with_executor_threads(0)
                .with_hedge(HedgeConfig {
                    percentile: 0.5,
                    min_samples: 16,
                    budget_fraction: 0.2,
                }),
        )
        .with_region_backend(replicated.clone());
        let queries: Vec<Query> = (0..120)
            .map(|i| Query::term(format!("word{}", i % 60)))
            .collect();
        let tickets: Vec<AsyncTicket> = queries
            .iter()
            .map(|q| server.submit_at(q.clone(), QueryOptions::new(), SubmitSpec::new()))
            .collect();
        server.drain();
        for (q, t) in queries.iter().zip(tickets) {
            let served = t.wait().result.expect("served");
            let direct = searcher.execute(q, &QueryOptions::new()).unwrap();
            assert_eq!(
                canonical_hits(&served),
                canonical_hits(&direct),
                "region-hedged results stay byte-for-byte equal"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 120);
        assert!(
            stats.hedges > 0,
            "an aggressive p50 threshold must fire some hedges"
        );
        assert_eq!(
            stats.region_hedges, stats.hedges,
            "with a healthy region backend every hedge is region-aware"
        );
        let replication = stats.replication.expect("region backend attached");
        let (nearest, nearest_reads) = &replication.reads_by_region[0];
        assert_eq!(nearest, "us-central1-c");
        assert!(
            *nearest_reads > 0,
            "primary reads must land on the nearest region"
        );
        assert_eq!(replication.demotions, 0, "healthy regions never demote");
    }
}
