//! Batched BFS query engine: online request coalescing on top of MS-PBFS.
//!
//! The paper's central observation is that one shared adjacency scan can
//! serve up to `W × 64` breadth-first searches at once. This module turns
//! that batch primitive into an *online* query engine, the way an inference
//! server batches requests:
//!
//! * Callers [`QueryEngine::submit`] single sources from any thread and get
//!   a [`QueryHandle`] back (MPMC front-end).
//! * A dispatcher thread coalesces pending queries into batches whose width
//!   `k ∈ {64, 128, 256, 512}` is chosen adaptively from the queue depth —
//!   the smallest width that covers the backlog, so light load is not taxed
//!   with wide bitset scans.
//! * A flush deadline ([`EngineConfig::max_latency`]) bounds the time any
//!   query waits for co-batched company; a flush that would run a single
//!   query degenerates to [`SmsPbfsBit`], the
//!   representation the paper shows is strictly better at width 1, on
//!   sharded engines too.
//! * A flush whose work (queries × directed edges) is below
//!   [`INLINE_FLUSH_WORK`] runs on the dispatcher thread alone: waking the
//!   pool for every BFS phase costs more CPU than it saves on such flushes.
//! * A flush of 128–512 queries on a clean epoch records which queries
//!   reached each vertex at each level in a reusable `MsLevelRecord`,
//!   then expands it into the per-query rows on the flush's pool, writing
//!   each row once. A 64-wide flush, and any flush on a dirty epoch,
//!   stores distances as the kernel finds them ([`MsDistanceVisitor`]). Either way the step is traced as a
//!   `batch_materialize` span inside the batch's `batch_flush`.
//! * Per-batch [`TraversalStats`] are aggregated into engine-level
//!   latency/throughput counters ([`EngineStats`]).
//!
//! Results are delivered through the handle; dropping a handle mid-flight
//! simply discards that query's distances.
//!
//! # Sharding
//!
//! With [`EngineConfig::shards`] > 1 the engine runs one complete
//! dispatcher + queue + worker-pool stack per simulated socket:
//! submissions are scattered round-robin over the shard queues, each shard
//! coalesces and flushes its own batches on its own worker pool. Every
//! shard traverses exactly as the single-shard engine does: MS-PBFS (or
//! SMS-PBFS for a singleton) over the pinned snapshot, so results are
//! bit-identical across shard counts. Admission
//! ([`EngineConfig::max_queue`]) and panic isolation are per-shard: a
//! poisoned shard fails only its own batches while the other shards keep
//! serving. See DESIGN.md § Sharding for the protocol.
//!
//! # Failure model
//!
//! Every submitted query terminates with exactly one `Ok` or typed
//! [`EngineError`], under any interleaving of panics, overload and
//! shutdown:
//!
//! * Batch execution runs under `catch_unwind`; a panic in a traversal or
//!   user visitor fails only that batch ([`EngineError::BatchFailed`]),
//!   the worker pool is [recovered](pbfs_sched::WorkerPool::recover), and
//!   the next batch runs on fresh algorithm state.
//! * The submit queue is bounded ([`EngineConfig::max_queue`]): a full
//!   queue rejects with [`EngineError::Overloaded`] immediately
//!   ([`QueryEngine::submit`]) or after a bounded wait for room
//!   ([`QueryEngine::submit_timeout`]).
//! * Queries older than [`EngineConfig::query_timeout`] are expired with
//!   [`EngineError::Expired`] instead of being batched.
//! * [`QueryEngine::shutdown`] is decided under the queue lock — a
//!   submission that loses the race gets [`EngineError::ShutDown`], never
//!   a hung [`QueryHandle::wait`] — and drains the backlog, bounded by
//!   [`EngineConfig::drain_timeout`].
//!
//! ```
//! use std::sync::Arc;
//! use pbfs_core::engine::{EngineConfig, QueryEngine};
//! use pbfs_graph::gen;
//!
//! let g = Arc::new(gen::Kronecker::graph500(8).seed(1).generate());
//! let engine = QueryEngine::new(Arc::clone(&g), EngineConfig::default());
//!
//! let handle = engine.submit(0).unwrap();
//! let distances = handle.wait().unwrap();
//!
//! // Exactly the textbook BFS result.
//! assert_eq!(distances, pbfs_core::textbook::bfs(&g, 0).distances);
//! assert!(engine.stats().queries >= 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbfs_graph::{CsrGraph, VertexId};
use pbfs_sched::WorkerPool;
use pbfs_telemetry::{
    engine_lane, BoundedHistogram, Counter, EventKind, Gauge, Histogram, CLIENT_LANE,
};

use crate::mspbfs::MsPbfs;
use crate::options::BfsOptions;
use crate::smspbfs::SmsPbfsBit;
use crate::stats::TraversalStats;
use crate::storage::{Adjacency, GraphStore};
use crate::visitor::{DistanceVisitor, MsDistanceVisitor, MsLevelRecord};

/// Batch widths the dispatcher may choose from, in preference order.
/// Each is `W × 64` for a supported bitset width `W ∈ {1, 2, 4, 8}`.
pub const BATCH_WIDTHS: [usize; 4] = [64, 128, 256, 512];

/// Estimated work (queries × directed edges of the pinned epoch's base
/// CSR) below which a flush runs its kernel on the dispatcher thread
/// alone instead of the shard's worker pool.
///
/// Every BFS phase is one `parallel_for`, which on a pool with spawned
/// workers is a cross-core wake-up and barrier. On a Kronecker scale-14
/// graph (426,298 directed edges) on 2 vCPUs, one thread costs less CPU
/// than a 2-worker pool for flushes of up to 3 queries, while the pool
/// already wins wall time from 2 queries on. The threshold admits flushes
/// of 1 and 2 there, so it is chosen for CPU: a 2-query flush trades
/// about 0.4 ms more wall time for about 0.75 ms less CPU. Any graph with
/// ≥ 2²⁰ directed edges runs every flush on the pool.
///
/// The constant was calibrated only with 2 workers on 2 vCPUs; its effect
/// on wall time with larger pools has not been measured. See DESIGN.md
/// § Narrow flushes.
pub const INLINE_FLUSH_WORK: usize = 1 << 20;

/// Always-on engine metrics in the global telemetry registry.
struct EngineMetrics {
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    batch_width: Arc<Histogram>,
    latency: Arc<Histogram>,
    rejected: Arc<Counter>,
    expired: Arc<Counter>,
    failed: Arc<Counter>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = pbfs_telemetry::registry();
        EngineMetrics {
            queue_depth: r.gauge(
                "pbfs_engine_queue_depth",
                "Queries waiting in the engine's coalescing queue",
            ),
            in_flight: r.gauge(
                "pbfs_engine_in_flight_queries",
                "Queries submitted but not yet answered",
            ),
            queries: r.counter(
                "pbfs_engine_queries_total",
                "Queries whose results were computed",
            ),
            batches: r.counter(
                "pbfs_engine_batches_total",
                "Batches flushed, including singleton flushes",
            ),
            batch_width: r.histogram(
                "pbfs_engine_batch_width",
                "Chosen batch width per flush (1 = singleton flush: SMS-PBFS)",
                &[1, 64, 128, 256, 512],
            ),
            // 1 µs .. ~4.2 s in powers of four.
            latency: r.histogram(
                "pbfs_engine_query_latency_ns",
                "Submit-to-result latency per query in nanoseconds",
                &pbfs_telemetry::exponential_buckets(1_000, 4.0, 12),
            ),
            rejected: r.counter(
                "pbfs_engine_rejected_total",
                "Submissions rejected because the queue was full (backpressure)",
            ),
            expired: r.counter(
                "pbfs_engine_expired_total",
                "Queued queries expired by the per-query deadline before batching",
            ),
            failed: r.counter(
                "pbfs_engine_failed_queries_total",
                "Admitted queries that terminated with an error (batch panic or abandoned drain)",
            ),
        }
    })
}

/// Per-shard engine counters, labeled `shard="N"` in the registry. The
/// shard-0 family exists for every engine (sharded or not), so scrapes can
/// rely on it unconditionally.
struct ShardMetrics {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    failed: Arc<Counter>,
}

fn shard_metrics(shard: usize) -> ShardMetrics {
    let r = pbfs_telemetry::registry();
    let labels = format!("shard=\"{shard}\"");
    ShardMetrics {
        queries: r.counter_with(
            "pbfs_engine_shard_queries_total",
            &labels,
            "Queries answered, by engine shard",
        ),
        batches: r.counter_with(
            "pbfs_engine_shard_batches_total",
            &labels,
            "Batches flushed, by engine shard",
        ),
        failed: r.counter_with(
            "pbfs_engine_shard_failed_total",
            &labels,
            "Queries failed by a batch panic or abandoned drain, by engine shard",
        ),
    }
}

/// Configuration of a [`QueryEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Workers in the shared BFS pool. Under sharding
    /// ([`Self::shards`] > 1) this total is dealt over the shards in the
    /// contiguous blocks of [`pbfs_sched::Topology`], each shard's
    /// dispatcher owning its block as a private pool (clamped to ≥ 1
    /// worker per shard). Flushes below [`INLINE_FLUSH_WORK`] use only
    /// the dispatcher thread.
    pub workers: usize,
    /// Engine shards (simulated sockets). 1 — the default — is the classic
    /// single-dispatcher engine. Above 1, submissions scatter round-robin
    /// over per-shard dispatcher + queue + pool stacks; each shard runs
    /// MS-PBFS or SMS-PBFS over the pinned snapshot exactly as one shard
    /// does. See the [module docs](self#sharding).
    pub shards: usize,
    /// Upper bound on the coalesced batch width; clamped to the largest
    /// supported width (512) and rounded up to a supported one.
    pub max_batch: usize,
    /// Flush deadline: a pending query is never delayed longer than this
    /// waiting for co-batched queries. Lower = better latency, higher =
    /// better throughput under bursty load.
    pub max_latency: Duration,
    /// Admission bound: submissions beyond this many queued queries are
    /// rejected with [`EngineError::Overloaded`] (or wait for room, see
    /// [`QueryEngine::submit_timeout`]) instead of growing the queue
    /// without limit.
    pub max_queue: usize,
    /// Per-query deadline: a query still queued after this long is expired
    /// with [`EngineError::Expired`] instead of being batched. `None`
    /// disables expiry.
    pub query_timeout: Option<Duration>,
    /// Shutdown drain bound: once [`QueryEngine::shutdown`] begins, queries
    /// still queued after this long fail with [`EngineError::ShutDown`]
    /// instead of extending the drain. `None` drains the whole backlog.
    pub drain_timeout: Option<Duration>,
    /// Fault-injection hook for tests and chaos drills: invoked inside the
    /// batch's panic-isolation scope just before execution, with the
    /// shard's pool (whatever the flush's size) and the batch's sources.
    /// A hook that panics — or dispatches a panicking job on the pool —
    /// fails the batch exactly like a visitor panic would.
    pub fault_hook: Option<fn(&WorkerPool, &[VertexId])>,
    /// Tuning knobs passed to the underlying traversals.
    pub bfs: BfsOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            shards: 1,
            max_batch: *BATCH_WIDTHS.last().unwrap(),
            max_latency: Duration::from_millis(2),
            max_queue: 8192,
            query_timeout: None,
            drain_timeout: None,
            fault_hook: None,
            bfs: BfsOptions::default(),
        }
    }
}

impl EngineConfig {
    /// Returns a copy with the given worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns a copy with the given shard count (clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Returns a copy with the given batch-width cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Returns a copy with the given flush deadline.
    pub fn with_max_latency(mut self, max_latency: Duration) -> Self {
        self.max_latency = max_latency;
        self
    }

    /// Returns a copy with the given admission bound (clamped to ≥ 1).
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue.max(1);
        self
    }

    /// Returns a copy with the given per-query deadline.
    pub fn with_query_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.query_timeout = timeout;
        self
    }

    /// Returns a copy with the given shutdown drain bound.
    pub fn with_drain_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Returns a copy with the given fault-injection hook.
    pub fn with_fault_hook(mut self, hook: fn(&WorkerPool, &[VertexId])) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Returns a copy with the given per-traversal BFS options (frontier
    /// mode, direction policy, ...).
    pub fn with_bfs(mut self, bfs: BfsOptions) -> Self {
        self.bfs = bfs;
        self
    }

    /// The effective width cap: `max_batch` rounded up to a supported
    /// batch width.
    fn width_cap(&self) -> usize {
        let want = self.max_batch.max(1);
        for w in BATCH_WIDTHS {
            if want <= w {
                return w;
            }
        }
        *BATCH_WIDTHS.last().unwrap()
    }
}

/// Why a submission was rejected or a submitted query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The graph has no vertices, so no source is valid.
    EmptyGraph,
    /// The source id is not a vertex of the graph.
    SourceOutOfRange {
        /// The rejected source.
        source: VertexId,
        /// Vertices in the engine's graph.
        num_vertices: usize,
    },
    /// The engine is shutting down and accepts no further queries, or the
    /// shutdown drain deadline expired before this query ran.
    ShutDown,
    /// The submit queue was full ([`EngineConfig::max_queue`]) and no room
    /// appeared within the allowed wait. Back off and retry.
    Overloaded {
        /// The admission bound that was hit.
        max_queue: usize,
    },
    /// The query sat queued longer than [`EngineConfig::query_timeout`]
    /// and was expired instead of batched.
    Expired {
        /// How long the query had been queued when it expired.
        waited: Duration,
    },
    /// The batch this query was coalesced into panicked (in a traversal or
    /// a user visitor). Only this batch failed; the engine keeps serving.
    BatchFailed {
        /// The panic message, when it carried one.
        reason: String,
    },
    /// An engine invariant broke (e.g. a result channel disconnected
    /// before a result was delivered). Always a bug worth reporting.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyGraph => write!(f, "graph has no vertices"),
            EngineError::SourceOutOfRange {
                source,
                num_vertices,
            } => write!(
                f,
                "source {source} out of range for {num_vertices} vertices"
            ),
            EngineError::ShutDown => write!(f, "query engine is shut down"),
            EngineError::Overloaded { max_queue } => {
                write!(f, "query queue is full ({max_queue} pending)")
            }
            EngineError::Expired { waited } => {
                write!(f, "query expired after {} ms in queue", waited.as_millis())
            }
            EngineError::BatchFailed { reason } => {
                write!(f, "batch execution panicked: {reason}")
            }
            EngineError::Internal(msg) => write!(f, "engine internal error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// What the dispatcher delivers for one query.
type QueryResult = Result<Vec<u32>, EngineError>;

/// Process-wide query-id allocator. Ids start at 1 so `0` stays the
/// documented "unattributed" sentinel in traces and exemplars.
fn next_query_id() -> u64 {
    static IDS: AtomicU64 = AtomicU64::new(1);
    IDS.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide query-set (batch) id allocator, same sentinel convention.
fn next_query_set() -> u64 {
    static SETS: AtomicU64 = AtomicU64::new(1);
    SETS.fetch_add(1, Ordering::Relaxed)
}

/// The pending side of one submitted query.
struct Pending {
    /// Process-unique query id, allocated at submission; stamps the
    /// query's trace spans and latency exemplars.
    id: u64,
    source: VertexId,
    submitted: Instant,
    tx: mpsc::Sender<QueryResult>,
}

/// Receiving end of one query; redeem with [`QueryHandle::wait`].
#[derive(Debug)]
pub struct QueryHandle {
    source: VertexId,
    rx: mpsc::Receiver<QueryResult>,
}

/// The dispatcher guarantees exactly one message per admitted query, so a
/// disconnect without a message is an engine bug, not a shutdown.
fn disconnected() -> EngineError {
    EngineError::Internal("result channel disconnected before a result was delivered".into())
}

impl QueryHandle {
    /// The source this query was submitted with.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Blocks until the distances from [`source`](Self::source) are ready.
    /// `distances[v]` is [`crate::UNREACHED`] for unreachable `v`.
    pub fn wait(self) -> Result<Vec<u32>, EngineError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(disconnected()),
        }
    }

    /// Non-blocking poll; `Ok(None)` while the query is still in flight.
    pub fn try_wait(&self) -> Result<Option<Vec<u32>>, EngineError> {
        match self.rx.try_recv() {
            Ok(result) => result.map(Some),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(disconnected()),
        }
    }
}

/// Engine-level counters, aggregated over all flushed batches.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Queries whose results were computed (delivered or discarded because
    /// the handle was dropped).
    pub queries: u64,
    /// Batches flushed, including singleton flushes.
    pub batches: u64,
    /// `width → batches flushed at that width`. Width 1 is the singleton
    /// path, [`SmsPbfsBit`] on every engine. The remaining keys are the
    /// chosen [`BATCH_WIDTHS`].
    pub width_histogram: BTreeMap<usize, u64>,
    /// Median submit→result latency in nanoseconds; 0 until the first
    /// query completes (the underlying histogram reports no quantiles
    /// while empty — see [`BoundedHistogram::try_quantile`]).
    pub p50_latency_ns: u64,
    /// 99th-percentile submit→result latency in nanoseconds; 0 until the
    /// first query completes, like [`Self::p50_latency_ns`].
    pub p99_latency_ns: u64,
    /// Mean submit→result latency in nanoseconds.
    pub mean_latency_ns: u64,
    /// Completed queries per second, measured from the first submission to
    /// the most recent completion. Zero before the first completion.
    pub queries_per_sec: f64,
    /// Sum of the underlying traversals' wall time.
    pub bfs_wall_ns: u64,
    /// Sum of BFS iterations across all batches.
    pub bfs_iterations: u64,
    /// Sum of `(vertex, BFS)` discoveries across all batches.
    pub total_discovered: u64,
    /// Submissions rejected at admission ([`EngineError::Overloaded`]).
    pub rejected: u64,
    /// Queued queries expired by the per-query deadline
    /// ([`EngineError::Expired`]).
    pub expired: u64,
    /// Admitted queries that terminated with an error: batch panics and
    /// queries abandoned when the shutdown drain deadline passed.
    pub failed: u64,
    /// Batches whose execution panicked ([`EngineError::BatchFailed`]).
    pub batch_failures: u64,
}

impl pbfs_json::ToJson for EngineStats {
    fn to_json(&self) -> pbfs_json::Json {
        use pbfs_json::Json;
        let hist = Json::Obj(
            self.width_histogram
                .iter()
                .map(|(w, c)| (w.to_string(), Json::Num(*c as f64)))
                .collect(),
        );
        pbfs_json::json!({
            "queries": (self.queries),
            "batches": (self.batches),
            "width_histogram": hist,
            "p50_latency_ns": (self.p50_latency_ns),
            "p99_latency_ns": (self.p99_latency_ns),
            "mean_latency_ns": (self.mean_latency_ns),
            "queries_per_sec": (self.queries_per_sec),
            "bfs_wall_ns": (self.bfs_wall_ns),
            "bfs_iterations": (self.bfs_iterations),
            "total_discovered": (self.total_discovered),
            "rejected": (self.rejected),
            "expired": (self.expired),
            "failed": (self.failed),
            "batch_failures": (self.batch_failures)
        })
    }
}

/// Accumulated raw measurements; [`EngineStats`] is derived on demand.
/// Latencies live in a bounded histogram, so memory is O(1) per query no
/// matter how long the engine runs.
struct StatsAccum {
    latencies: BoundedHistogram,
    width_histogram: BTreeMap<usize, u64>,
    batches: u64,
    bfs_wall_ns: u64,
    bfs_iterations: u64,
    total_discovered: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
    batch_failures: u64,
    last_done: Option<Instant>,
}

impl Default for StatsAccum {
    fn default() -> Self {
        Self {
            // 1 µs .. ~16 min in ×1.5 steps; quantiles are read off the
            // bucket bounds (≤ 50% relative error), exact count/mean/max.
            latencies: BoundedHistogram::exponential(1_000, 1.5, 52),
            width_histogram: BTreeMap::new(),
            batches: 0,
            bfs_wall_ns: 0,
            bfs_iterations: 0,
            total_discovered: 0,
            rejected: 0,
            expired: 0,
            failed: 0,
            batch_failures: 0,
            last_done: None,
        }
    }
}

impl StatsAccum {
    /// The stats of an engine whose first query was submitted at
    /// `first_submit`.
    fn snapshot(&self, first_submit: Option<Instant>) -> EngineStats {
        let queries = self.latencies.count();
        let queries_per_sec = match (first_submit, self.last_done) {
            (Some(first), Some(last)) if last > first => {
                queries as f64 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        };
        EngineStats {
            queries,
            batches: self.batches,
            width_histogram: self.width_histogram.clone(),
            // `try_quantile` distinguishes "no queries yet" from a real
            // sub-microsecond latency; EngineStats renders the former as
            // the documented 0.
            p50_latency_ns: self.latencies.try_quantile(0.50).unwrap_or(0),
            p99_latency_ns: self.latencies.try_quantile(0.99).unwrap_or(0),
            mean_latency_ns: self.latencies.mean() as u64,
            queries_per_sec,
            bfs_wall_ns: self.bfs_wall_ns,
            bfs_iterations: self.bfs_iterations,
            total_discovered: self.total_discovered,
            rejected: self.rejected,
            expired: self.expired,
            failed: self.failed,
            batch_failures: self.batch_failures,
        }
    }
}

/// State shared between the submission front-end and the dispatchers.
struct Shared {
    /// The versioned graph handle. Dispatchers pin one epoch snapshot per
    /// coalesced batch, so a batch never observes a half-applied mutation.
    store: Arc<GraphStore>,
    /// Vertex count — fixed for the store's lifetime (mutations are
    /// edge-level), so admission validation never needs a snapshot.
    num_vertices: usize,
    config: EngineConfig,
    /// One queue + dispatcher signaling stack per shard.
    shards: Vec<ShardQueue>,
    /// Round-robin scatter cursor for submissions.
    next_shard: AtomicUsize,
    stats: Mutex<StatsAccum>,
    /// When the first query was admitted. Written once, so admission
    /// never takes the `stats` lock for it.
    first_submit: OnceLock<Instant>,
}

/// The per-shard admission queue and its signaling.
struct ShardQueue {
    queue: Mutex<Queue>,
    /// Signals this shard's dispatcher: work arrived or shutdown began.
    queue_cv: Condvar,
    /// Signals blocked submitters: queue room appeared or shutdown began.
    space_cv: Condvar,
    /// `shard="N"`-labeled registry counters.
    metrics: ShardMetrics,
}

impl ShardQueue {
    fn new(shard: usize) -> Self {
        Self {
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            space_cv: Condvar::new(),
            metrics: shard_metrics(shard),
        }
    }
}

#[derive(Default)]
struct Queue {
    items: Vec<Pending>,
    /// Set under the queue lock by [`QueryEngine::shutdown`], so admission
    /// and shutdown serialize: a submission either lands before the flag
    /// flips (and is drained) or observes it and gets `ShutDown`.
    shutting_down: bool,
}

/// Online batched BFS query engine. See the [module docs](self).
pub struct QueryEngine {
    shared: Arc<Shared>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Spawns one dispatcher (and its worker pool) per configured shard
    /// over an immutable graph (wrapped in a single-epoch [`GraphStore`]).
    pub fn new(graph: Arc<CsrGraph>, config: EngineConfig) -> Self {
        Self::with_store(GraphStore::new(graph), config)
    }

    /// Spawns the engine over a live [`GraphStore`]: mutation batches
    /// applied to `store` while the engine runs become visible to later
    /// query batches, each of which pins exactly one published epoch.
    pub fn with_store(store: Arc<GraphStore>, config: EngineConfig) -> Self {
        let base = Arc::clone(store.snapshot().base());
        // Scrapes of this process are attributable to the dataset served.
        pbfs_telemetry::set_graph_info(base.num_vertices() as u64, base.num_edges() as u64);
        // Clamped to 255 so a huge `shards` value spawns a bounded number
        // of dispatchers instead of exhausting threads.
        let nshards = config.shards.clamp(1, 255);
        pbfs_sched::publish_configured_workers(
            (0..nshards)
                .map(|s| WorkerPool::shard_workers(nshards, config.workers.max(1), s))
                .sum(),
        );
        let shared = Arc::new(Shared {
            num_vertices: base.num_vertices(),
            store,
            config,
            shards: (0..nshards).map(ShardQueue::new).collect(),
            next_shard: AtomicUsize::new(0),
            stats: Mutex::new(StatsAccum::default()),
            first_submit: OnceLock::new(),
        });
        let dispatchers = (0..nshards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pbfs-dispatcher-{shard}"))
                    .spawn(move || dispatcher_loop(&shared, shard))
                    .expect("spawn dispatcher")
            })
            .collect();
        Self {
            shared,
            dispatchers,
        }
    }

    /// Convenience constructor taking the graph by value.
    pub fn from_graph(graph: CsrGraph, config: EngineConfig) -> Self {
        Self::new(Arc::new(graph), config)
    }

    /// The base CSR of the epoch currently being published. With a mutating
    /// store this is a point-in-time view; use [`Self::store`] to pin one.
    pub fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(self.shared.store.snapshot().base())
    }

    /// The versioned store this engine answers queries over.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.shared.store
    }

    /// Enqueues a BFS from `source`. Validation is synchronous — an invalid
    /// source is an error here, never a panic in the dispatcher. A full
    /// queue rejects immediately with [`EngineError::Overloaded`].
    pub fn submit(&self, source: VertexId) -> Result<QueryHandle, EngineError> {
        self.submit_inner(source, None)
    }

    /// Like [`Self::submit`], but a full queue blocks up to `timeout`
    /// waiting for room before rejecting with [`EngineError::Overloaded`].
    pub fn submit_timeout(
        &self,
        source: VertexId,
        timeout: Duration,
    ) -> Result<QueryHandle, EngineError> {
        self.submit_inner(source, Some(timeout))
    }

    fn submit_inner(
        &self,
        source: VertexId,
        wait_for_room: Option<Duration>,
    ) -> Result<QueryHandle, EngineError> {
        let n = self.shared.num_vertices;
        if n == 0 {
            return Err(EngineError::EmptyGraph);
        }
        if source as usize >= n {
            return Err(EngineError::SourceOutOfRange {
                source,
                num_vertices: n,
            });
        }
        let m = engine_metrics();
        let max_queue = self.shared.config.max_queue;
        let room_deadline = wait_for_room.map(|d| deadline_after(Instant::now(), d));
        let (tx, rx) = mpsc::channel();
        // Scatter: round-robin over the shard queues. Admission is
        // per-shard — each shard's queue is bounded by `max_queue` on its
        // own, so one wedged shard cannot starve admissions to the others.
        let sq = &self.shared.shards
            [self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len()];
        let submitted = {
            let mut q = lock(&sq.queue);
            loop {
                // Decided under the queue lock: a submission either beats
                // shutdown (and will be drained) or sees it here.
                if q.shutting_down {
                    return Err(EngineError::ShutDown);
                }
                if q.items.len() < max_queue {
                    break;
                }
                let wait = room_deadline
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .filter(|w| !w.is_zero());
                let Some(wait) = wait else {
                    m.rejected.inc();
                    lock(&self.shared.stats).rejected += 1;
                    return Err(EngineError::Overloaded { max_queue });
                };
                let (guard, _timeout) = sq
                    .space_cv
                    .wait_timeout(q, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
            let now = Instant::now();
            q.items.push(Pending {
                id: next_query_id(),
                source,
                submitted: now,
                tx,
            });
            // Gauge moved by deltas under this shard's lock: with one queue
            // per shard there is no single length to `set`, but every
            // push/drain adjusts while holding its own lock, so the global
            // depth is always the sum of consistent per-shard snapshots.
            m.queue_depth.add(1);
            now
        };
        sq.queue_cv.notify_all();
        self.shared.first_submit.get_or_init(|| submitted);
        m.in_flight.add(1);
        // The query's `batch_submit` span (submit → coalesce) is emitted by
        // the dispatcher at coalesce time, once the covering batch — and
        // therefore the query-set id linking the lanes — is known.
        Ok(QueryHandle { source, rx })
    }

    /// Snapshot of the engine-level counters.
    pub fn stats(&self) -> EngineStats {
        lock(&self.shared.stats).snapshot(self.shared.first_submit.get().copied())
    }

    /// Initiates shutdown from any thread: stops admissions on every shard
    /// (decided under each queue lock, so a racing [`Self::submit`] gets a
    /// clean [`EngineError::ShutDown`]) and starts the dispatchers' drains,
    /// without joining them. [`Self::shutdown`] or drop completes the join.
    pub fn begin_shutdown(&self) {
        for sq in &self.shared.shards {
            lock(&sq.queue).shutting_down = true;
            sq.queue_cv.notify_all();
            sq.space_cv.notify_all();
        }
    }

    /// Stops accepting queries, drains everything pending (bounded by
    /// [`EngineConfig::drain_timeout`]), and joins every dispatcher. Called
    /// automatically on drop. Queries abandoned by an expired drain
    /// deadline fail with [`EngineError::ShutDown`]; none hang.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Non-poisoning lock (a panicking visitor must not wedge the engine).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smallest supported batch width covering `depth` (1 = singleton flush),
/// bounded by `cap` (itself a supported width).
fn width_for(depth: usize, cap: usize) -> usize {
    if depth <= 1 {
        return 1;
    }
    for w in BATCH_WIDTHS {
        if w >= cap {
            return cap;
        }
        if depth <= w {
            return w;
        }
    }
    cap
}

/// Fails every query queued on one shard older than `timeout` with
/// [`EngineError::Expired`]. Called with that shard's queue lock held.
fn expire_stale(q: &mut Queue, timeout: Duration, shared: &Shared, sq: &ShardQueue) {
    let now = Instant::now();
    let mut expired = 0u64;
    q.items.retain(|p| {
        let waited = now.saturating_duration_since(p.submitted);
        if waited >= timeout {
            let _ = p.tx.send(Err(EngineError::Expired { waited }));
            expired += 1;
            false
        } else {
            true
        }
    });
    if expired > 0 {
        let m = engine_metrics();
        m.expired.add(expired);
        m.in_flight.sub(expired as i64);
        m.queue_depth.sub(expired as i64);
        lock(&shared.stats).expired += expired;
        sq.space_cv.notify_all();
    }
}

/// Fails everything still queued on one shard with `err`. Called with that
/// shard's queue lock held, on the shutdown-drain-deadline path.
fn fail_remaining(q: &mut Queue, shared: &Shared, sq: &ShardQueue, err: &EngineError) {
    let abandoned = q.items.len() as u64;
    if abandoned == 0 {
        return;
    }
    for p in q.items.drain(..) {
        let _ = p.tx.send(Err(err.clone()));
    }
    let m = engine_metrics();
    m.failed.add(abandoned);
    m.in_flight.sub(abandoned as i64);
    m.queue_depth.sub(abandoned as i64);
    sq.metrics.failed.add(abandoned);
    lock(&shared.stats).failed += abandoned;
    sq.space_cv.notify_all();
}

/// Best-effort extraction of a panic message from a `catch_unwind` payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `start + d`, saturating: a duration too large to represent as an
/// [`Instant`] (e.g. a raw `Duration::MAX` timeout) becomes a deadline
/// decades out — indistinguishable from "never" for an engine — instead
/// of panicking the dispatcher on `Instant` overflow.
fn deadline_after(start: Instant, d: Duration) -> Instant {
    const FOREVER: Duration = Duration::from_secs(60 * 60 * 24 * 365 * 30);
    start.checked_add(d).unwrap_or_else(|| start + FOREVER)
}

fn dispatcher_loop(shared: &Shared, shard: usize) {
    let config = &shared.config;
    let sq = &shared.shards[shard];
    // Engine-lane spans for this shard land on its own trace lane, so a
    // Chrome trace shows the per-shard batch lifecycles side by side.
    let lane = engine_lane(shard);
    // The pool is built on the dispatcher thread itself (first-touch
    // placement) and owns this shard's block of the worker deal; with one
    // shard this is exactly the classic `WorkerPool::new(workers)`.
    let mut pool = WorkerPool::for_shard(shared.shards.len(), config.workers.max(1), shard);
    // Caller-only pool for flushes below `INLINE_FLUSH_WORK`: it spawns no
    // thread, runs every loop inline on this dispatcher, and never
    // poisons (a panic unwinds straight to the batch's catch_unwind).
    let inline_pool = WorkerPool::new(1);
    let cap = config.width_cap();
    let n = shared.num_vertices;
    // Algorithm states are graph-sized and reused across batches. (They
    // are sized by vertex count only, so they carry over across epochs of
    // a mutating store unchanged.)
    let mut states = KernelStates::default();
    // Fixed when shutdown is first observed with a drain bound configured.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Collect a batch: wait for work, then coalesce until the width cap
        // is reached or the oldest query's flush deadline expires. Stale
        // queries are expired before each decision so they never batch.
        //
        // The whole phase runs under `catch_unwind`: the only queue
        // mutations before the final drain are per-item (send + retain), so
        // a panic here leaves every undrained query queued and the
        // dispatcher retries after a short backoff instead of dying with
        // admitted queries stranded.
        let collected =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Option<Vec<Pending>> {
                let mut q = lock(&sq.queue);
                loop {
                    if let Some(timeout) = config.query_timeout {
                        crate::fail_point!("core.engine.expire");
                        expire_stale(&mut q, timeout, shared, sq);
                    }
                    if q.shutting_down {
                        if let Some(bound) = config.drain_timeout {
                            let deadline = *drain_deadline
                                .get_or_insert_with(|| deadline_after(Instant::now(), bound));
                            if Instant::now() >= deadline {
                                fail_remaining(&mut q, shared, sq, &EngineError::ShutDown);
                            }
                        }
                        if q.items.is_empty() {
                            return None;
                        }
                        crate::fail_point!("core.engine.drain");
                        break; // drain mode: flush immediately, no coalescing
                    }
                    if q.items.is_empty() {
                        q = sq.queue_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                    if q.items.len() >= cap {
                        break;
                    }
                    // Items are in submit order, so [0] is both the next to
                    // flush and the next to expire.
                    let flush_at = deadline_after(q.items[0].submitted, config.max_latency);
                    let wake_at = match config.query_timeout {
                        Some(t) => flush_at.min(deadline_after(q.items[0].submitted, t)),
                        None => flush_at,
                    };
                    let now = Instant::now();
                    if now >= flush_at {
                        break;
                    }
                    if now >= wake_at {
                        continue; // a query just expired; re-check from the top
                    }
                    let (guard, _timeout) = sq
                        .queue_cv
                        .wait_timeout(q, wake_at - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    q = guard;
                }
                // Before the drain so an injected panic leaves the batch
                // queued, not stranded half-taken.
                crate::fail_point!("core.engine.coalesce");
                let width = width_for(q.items.len().min(cap), cap);
                let take = q.items.len().min(width.max(1));
                let batch: Vec<Pending> = q.items.drain(..take).collect();
                engine_metrics().queue_depth.sub(take as i64);
                sq.space_cv.notify_all();
                Some(batch)
            }));
        let batch: Vec<Pending> = match collected {
            Ok(Some(batch)) => batch,
            Ok(None) => return, // clean shutdown: queue fully drained
            Err(_) => {
                // Nothing was drained; back off briefly so a persistently
                // firing fault cannot spin the dispatcher hot.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };

        let rec = pbfs_telemetry::recorder();
        let sources: Vec<VertexId> = batch.iter().map(|p| p.source).collect();
        let width = width_for(sources.len(), cap);
        // The query-set id causally links every span this batch produces:
        // the per-query submit waits below, the engine-lane lifecycle
        // spans, and (via `BfsOptions::query_set`) the kernel's iteration
        // and phase spans.
        let qset = next_query_set();
        // Coalesce span: how long the oldest query waited for co-batched
        // company before the dispatcher drained the batch.
        let drained = Instant::now();
        // One submit→coalesce span per query, emitted now that the
        // covering batch is known: the span starts at the query's true
        // submission instant and ends here, so its length is the
        // coalescing wait the flush deadline bounds.
        for p in &batch {
            rec.span_at_ctx(
                CLIENT_LANE,
                EventKind::BatchSubmit,
                p.submitted,
                drained.saturating_duration_since(p.submitted),
                p.source as u64,
                p.id,
                qset,
            );
        }
        rec.span_at_ctx(
            lane,
            EventKind::BatchCoalesce,
            batch[0].submitted,
            drained.saturating_duration_since(batch[0].submitted),
            batch.len() as u64,
            width as u64,
            qset,
        );
        let opts = config.bfs.with_query_set(qset);
        // Pin this batch's graph version: one snapshot, taken once, serves
        // the whole traversal. A mutation published mid-batch lands in a
        // later epoch this batch never sees, and the pinned epoch's arrays
        // cannot be reclaimed until `snap` drops at the end of the
        // iteration — the torn-graph freedom the chaos oracle checks.
        let snap = shared.store.snapshot();
        rec.mark_ctx(lane, EventKind::EpochPin, snap.epoch(), width as u64, qset);
        let work = sources
            .len()
            .saturating_mul(snap.base().num_directed_edges());
        let kernel_pool = if work < INLINE_FLUSH_WORK {
            &inline_pool
        } else {
            &pool
        };
        // Panic isolation: a panic anywhere in the traversal or a user
        // visitor (surfaced by the pool from any worker) fails only this
        // batch — and under sharding only this shard's batch: the other
        // shards' dispatchers, pools and states are untouched. Pool
        // poisoning and partially-updated algorithm state are repaired
        // before the next batch.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Inside the batch catch_unwind: an injected panic fails this
            // batch with `BatchFailed`, exercising the repair path.
            crate::fail_point!("core.engine.flush");
            if let Some(hook) = config.fault_hook {
                hook(&pool, &sources);
            }
            // Every arm is dispatched twice: clean epochs run the plain
            // CSR monomorphization (byte-for-byte the pre-storage hot
            // path), dirty epochs the delta-overlay one. Sharded engines
            // take the same arms as the single-shard one.
            if width == 1 {
                states.narrow_flush();
                let bfs = states.sms.get_or_insert_with(|| SmsPbfsBit::new(n));
                let visitor = DistanceVisitor::new(n);
                let stats = if snap.has_deltas() {
                    bfs.run(&snap, kernel_pool, sources[0], &opts, &visitor)
                } else {
                    bfs.run(&**snap.base(), kernel_pool, sources[0], &opts, &visitor)
                };
                (stats, vec![visitor.into_distances()])
            } else {
                let span = MaterializeSpan {
                    lane,
                    width,
                    batch: sources.len(),
                    qset,
                };
                if snap.has_deltas() {
                    states.run_ms(n, &snap, width, false, kernel_pool, &sources, &opts, &span)
                } else {
                    let g = &**snap.base();
                    states.run_ms(n, g, width, true, kernel_pool, &sources, &opts, &span)
                }
            }
        }));
        let (stats, results) = match outcome {
            Ok(ok) => ok,
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                // The interrupted traversal may have left graph-sized
                // state half-updated: rebuild lazily on the next batch.
                states = KernelStates::default();
                // `recover` hosts the `sched.pool.respawn` failpoint: a
                // panic there must not kill the dispatcher — the respawn
                // sweep simply runs again before the next batch.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.recover()));
                let m = engine_metrics();
                m.failed.add(batch.len() as u64);
                m.in_flight.sub(batch.len() as i64);
                sq.metrics.failed.add(batch.len() as u64);
                rec.mark_ctx(
                    lane,
                    EventKind::BatchFailed,
                    width as u64,
                    batch.len() as u64,
                    qset,
                );
                {
                    let mut acc = lock(&shared.stats);
                    acc.batch_failures += 1;
                    acc.failed += batch.len() as u64;
                }
                let err = EngineError::BatchFailed { reason };
                for p in batch {
                    let _ = p.tx.send(Err(err.clone()));
                }
                continue;
            }
        };

        let done = Instant::now();
        rec.span_at_ctx(
            lane,
            EventKind::BatchFlush,
            drained,
            done.saturating_duration_since(drained),
            width as u64,
            batch.len() as u64,
            qset,
        );
        let m = engine_metrics();
        m.batches.inc();
        m.queries.add(batch.len() as u64);
        m.batch_width.observe(width as u64);
        m.in_flight.sub(batch.len() as i64);
        sq.metrics.batches.inc();
        sq.metrics.queries.add(batch.len() as u64);
        {
            let mut acc = lock(&shared.stats);
            acc.batches += 1;
            *acc.width_histogram.entry(width).or_insert(0) += 1;
            acc.bfs_wall_ns += stats.total_wall_ns;
            acc.bfs_iterations += stats.num_iterations() as u64;
            acc.total_discovered += stats.total_discovered;
            for p in &batch {
                let latency = done.saturating_duration_since(p.submitted).as_nanos() as u64;
                // The registry histogram carries an exemplar per bucket:
                // the last query id (and its query-set trace ref) to land
                // there, so a scraped tail bucket points straight at a
                // traceable query.
                m.latency.observe_exemplar(latency, p.id, qset);
                acc.latencies.observe(latency);
            }
            acc.last_done = Some(done);
        }
        let batch_len = batch.len();
        for (p, distances) in batch.into_iter().zip(results) {
            // A dropped handle means nobody wants this result; fine.
            let _ = p.tx.send(Ok(distances));
        }
        rec.mark_ctx(
            lane,
            EventKind::BatchComplete,
            width as u64,
            batch_len as u64,
            qset,
        );
    }
}

/// Flushes of 64 queries or fewer in a row after which a dispatcher drops
/// its level records: a stream that mixes narrow and wide flushes keeps
/// them, and one that has stopped flushing wide frees them.
const RELEASE_RECORDS_AFTER: u32 = 32;

/// The dispatcher's reusable graph-sized algorithm states, one slot per
/// batch width, and the level records of the widths above 64. Dropped
/// wholesale after a batch panic (the interrupted traversal or expansion
/// may have left them half-updated) and rebuilt lazily.
#[derive(Default)]
struct KernelStates {
    sms: Option<SmsPbfsBit>,
    ms1: Option<MsPbfs<1>>,
    ms2: Option<MsPbfs<2>>,
    ms4: Option<MsPbfs<4>>,
    ms8: Option<MsPbfs<8>>,
    rec2: Option<MsLevelRecord<2>>,
    rec4: Option<MsLevelRecord<4>>,
    rec8: Option<MsLevelRecord<8>>,
    /// Flushes of 64 queries or fewer since the last wider one.
    narrow_run: u32,
}

impl KernelStates {
    /// Counts a flush of 64 queries or fewer, and drops the level records
    /// (`levels × n × 8W` resident bytes each) after
    /// [`RELEASE_RECORDS_AFTER`] of them in a row: under light load, or
    /// after a burst, a dispatcher holds no more than the kernel states.
    fn narrow_flush(&mut self) {
        self.narrow_run = self.narrow_run.saturating_add(1);
        if self.narrow_run >= RELEASE_RECORDS_AFTER {
            (self.rec2, self.rec4, self.rec8) = (None, None, None);
        }
    }

    /// Runs one multi-source batch, selecting the compile-time width slot
    /// covering `width`. Flushes above 64 wide on a clean epoch
    /// (`recorded`) materialize their rows from the level record; the
    /// others keep `MsDistanceVisitor` (see DESIGN.md § Result path).
    #[allow(clippy::too_many_arguments)]
    fn run_ms<G: Adjacency + ?Sized>(
        &mut self,
        n: usize,
        g: &G,
        width: usize,
        recorded: bool,
        pool: &WorkerPool,
        sources: &[VertexId],
        opts: &BfsOptions,
        span: &MaterializeSpan,
    ) -> (TraversalStats, Vec<Vec<u32>>) {
        let (s, o) = (sources, opts);
        if width > 64 {
            self.narrow_run = 0;
        }
        match (width, recorded) {
            (64, _) => {
                // At 64 queries the per-vertex visitor costs within a few
                // percent of the record, which would add `levels × n × 8`
                // bytes per dispatcher.
                self.narrow_flush();
                run_visited(&mut self.ms1, n, g, pool, s, o, span)
            }
            (128, true) => run_recorded(&mut self.ms2, &mut self.rec2, n, g, pool, s, o, span),
            (256, true) => run_recorded(&mut self.ms4, &mut self.rec4, n, g, pool, s, o, span),
            (_, true) => run_recorded(&mut self.ms8, &mut self.rec8, n, g, pool, s, o, span),
            (128, false) => run_visited(&mut self.ms2, n, g, pool, s, o, span),
            (256, false) => run_visited(&mut self.ms4, n, g, pool, s, o, span),
            (_, false) => run_visited(&mut self.ms8, n, g, pool, s, o, span),
        }
    }
}

/// Runs one multi-source batch at compile-time width `W`, reusing
/// `state`, with `MsDistanceVisitor` storing the rows as the kernel finds
/// each vertex.
fn run_visited<const W: usize, G: Adjacency + ?Sized>(
    state: &mut Option<MsPbfs<W>>,
    n: usize,
    g: &G,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
    span: &MaterializeSpan,
) -> (TraversalStats, Vec<Vec<u32>>) {
    let bfs = state.get_or_insert_with(|| MsPbfs::new(n));
    let visitor: MsDistanceVisitor<W> = MsDistanceVisitor::new(n, sources.len());
    let stats = bfs.run(g, pool, sources, opts, &visitor);
    (stats, span.time(|| visitor.into_distances()))
}

/// Runs one multi-source batch at compile-time width `W`, reusing the
/// width's state and level record, and expands the record into the rows
/// on `pool`.
#[allow(clippy::too_many_arguments)]
fn run_recorded<const W: usize, G: Adjacency + ?Sized>(
    state: &mut Option<MsPbfs<W>>,
    record: &mut Option<MsLevelRecord<W>>,
    n: usize,
    g: &G,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
    span: &MaterializeSpan,
) -> (TraversalStats, Vec<Vec<u32>>) {
    let bfs = state.get_or_insert_with(|| MsPbfs::new(n));
    let visitor = record
        .get_or_insert_with(|| MsLevelRecord::new(n))
        .batch(sources.len());
    let stats = bfs.run(g, pool, sources, opts, &visitor);
    (stats, span.time(|| visitor.into_distances(pool)))
}

/// The `batch_materialize` span of one multi-source batch: the step that
/// turns the traversal's output into the per-query rows, on the engine
/// lane inside `batch_flush`, linked to the batch by its query set.
struct MaterializeSpan {
    lane: usize,
    width: usize,
    batch: usize,
    qset: u64,
}

impl MaterializeSpan {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        pbfs_telemetry::recorder().span_at_ctx(
            self.lane,
            EventKind::BatchMaterialize,
            t0,
            t0.elapsed(),
            self.width as u64,
            self.batch as u64,
            self.qset,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;

    /// Every test here that builds an engine holds this: all engines move
    /// the process-global `shard="0"` counters, which the sharded tests
    /// diff exactly.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        lock(&SERIAL)
    }

    fn engine(g: CsrGraph) -> QueryEngine {
        QueryEngine::from_graph(g, EngineConfig::default().with_workers(2))
    }

    #[test]
    fn width_selection_is_adaptive() {
        assert_eq!(width_for(0, 512), 1);
        assert_eq!(width_for(1, 512), 1);
        assert_eq!(width_for(2, 512), 64);
        assert_eq!(width_for(64, 512), 64);
        assert_eq!(width_for(65, 512), 128);
        assert_eq!(width_for(200, 512), 256);
        assert_eq!(width_for(257, 512), 512);
        assert_eq!(width_for(4000, 512), 512);
        // Caps bind.
        assert_eq!(width_for(500, 64), 64);
        assert_eq!(width_for(100, 128), 128);
    }

    #[test]
    fn level_records_outlive_a_few_narrow_flushes() {
        let g = gen::path(200);
        let pool = WorkerPool::new(1);
        let opts = BfsOptions::default();
        let span = MaterializeSpan {
            lane: 0,
            width: 128,
            batch: 100,
            qset: 0,
        };
        let sources: Vec<VertexId> = (0..100).collect();
        let mut states = KernelStates::default();
        let wide = |states: &mut KernelStates| {
            let (_, rows) = states.run_ms(200, &g, 128, true, &pool, &sources, &opts, &span);
            assert_eq!(rows[7][199], 192);
        };
        wide(&mut states);
        for _ in 1..RELEASE_RECORDS_AFTER {
            states.narrow_flush();
        }
        assert!(states.rec2.is_some());
        // A wide flush starts the count again.
        wide(&mut states);
        for _ in 1..RELEASE_RECORDS_AFTER {
            states.narrow_flush();
        }
        assert!(states.rec2.is_some());
        states.narrow_flush();
        assert!(states.rec2.is_none());
        wide(&mut states);
        assert!(states.rec2.is_some());
    }

    #[test]
    fn config_width_cap_rounds_up() {
        assert_eq!(EngineConfig::default().width_cap(), 512);
        assert_eq!(EngineConfig::default().with_max_batch(1).width_cap(), 64);
        assert_eq!(EngineConfig::default().with_max_batch(65).width_cap(), 128);
        assert_eq!(
            EngineConfig::default().with_max_batch(9999).width_cap(),
            512
        );
    }

    #[test]
    fn empty_graph_is_an_error_not_a_panic() {
        let _serial = serial();
        let e = engine(CsrGraph::from_edges(0, &[]));
        assert_eq!(e.submit(0).unwrap_err(), EngineError::EmptyGraph);
    }

    #[test]
    fn out_of_range_source_is_an_error_not_a_panic() {
        let _serial = serial();
        let e = engine(gen::path(10));
        let err = e.submit(10).unwrap_err();
        assert_eq!(
            err,
            EngineError::SourceOutOfRange {
                source: 10,
                num_vertices: 10
            }
        );
        assert!(err.to_string().contains("out of range"));
        // Valid sources still work afterwards.
        assert_eq!(e.submit(9).unwrap().wait().unwrap()[9], 0);
    }

    #[test]
    fn singleton_flush_matches_oracle() {
        let _serial = serial();
        let g = gen::Kronecker::graph500(7).seed(3).generate();
        let oracle = crate::textbook::bfs(&g, 5).distances;
        let e = engine(g);
        let h = e.submit(5).unwrap();
        assert_eq!(h.source(), 5);
        assert_eq!(h.wait().unwrap(), oracle);
    }

    #[test]
    fn dropped_handle_mid_flight_is_harmless() {
        let _serial = serial();
        let g = gen::uniform(300, 900, 1);
        let e = engine(g);
        for s in 0..50 {
            let h = e.submit(s).unwrap();
            drop(h); // result is discarded, engine must not wedge
        }
        let h = e.submit(0).unwrap();
        assert_eq!(h.wait().unwrap()[0], 0);
        assert!(e.stats().queries >= 1);
    }

    #[test]
    fn stats_count_batches_and_queries() {
        let _serial = serial();
        let g = gen::path(64);
        let mut e = engine(g);
        let handles: Vec<_> = (0..10).map(|s| e.submit(s).unwrap()).collect();
        for h in handles {
            h.wait().unwrap();
        }
        e.shutdown();
        let s = e.stats();
        assert_eq!(s.queries, 10);
        assert!(s.batches >= 1);
        assert_eq!(s.width_histogram.values().sum::<u64>(), s.batches);
        assert!(s.p99_latency_ns >= s.p50_latency_ns);
        assert!(s.queries_per_sec > 0.0);
        // JSON rendering carries the histogram.
        use pbfs_json::ToJson;
        let j = s.to_json();
        assert_eq!(j["queries"].as_u64(), Some(10));
        assert!(!j["width_histogram"].is_null());
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let _serial = serial();
        let g = gen::path(4);
        let mut e = engine(g);
        e.shutdown();
        assert_eq!(e.submit(0).unwrap_err(), EngineError::ShutDown);
    }

    #[test]
    fn overload_beyond_batch_capacity_answers_everything() {
        let _serial = serial();
        // Far more in-flight queries than max_batch × workers: the
        // dispatcher must work the backlog off in successive batches
        // without losing or cross-wiring any of them.
        let g = gen::Kronecker::graph500(7).seed(5).generate();
        let n = g.num_vertices() as u32;
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_batch(64)
            .with_max_latency(Duration::from_micros(100));
        let mut e = QueryEngine::from_graph(g, cfg);
        let handles: Vec<QueryHandle> = (0..900).map(|i| e.submit(i % n).unwrap()).collect();
        let mut oracle: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
        for h in handles {
            let src = h.source();
            let want = oracle
                .entry(src)
                .or_insert_with(|| crate::textbook::bfs(&e.graph(), src).distances);
            assert_eq!(&h.wait().unwrap(), want, "source {src}");
        }
        e.shutdown();
        let s = e.stats();
        assert_eq!(s.queries, 900);
        assert!(s.batches >= 900 / 64, "backlog split into batches: {s:?}");
    }

    fn shard_counter(name: &str, shard: usize) -> u64 {
        let labels = format!("shard=\"{shard}\"");
        match pbfs_telemetry::registry()
            .snapshot()
            .find(name, &labels)
            .map(|s| s.value.clone())
        {
            Some(pbfs_telemetry::SampleValue::Counter(v)) => v,
            _ => 0,
        }
    }

    #[test]
    fn shards_config_clamps_to_at_least_one() {
        assert_eq!(EngineConfig::default().shards, 1);
        assert_eq!(EngineConfig::default().with_shards(0).shards, 1);
        assert_eq!(EngineConfig::default().with_shards(4).shards, 4);
    }

    #[test]
    fn sharded_singleton_flush_matches_oracle() {
        let _serial = serial();
        let g = gen::Kronecker::graph500(7).seed(9).generate();
        let oracle = crate::textbook::bfs(&g, 3).distances;
        let cfg = EngineConfig::default().with_workers(2).with_shards(2);
        let e = QueryEngine::from_graph(g, cfg);
        assert_eq!(e.submit(3).unwrap().wait().unwrap(), oracle);
    }

    #[test]
    fn sharded_engine_answers_every_query_exactly() {
        let _serial = serial();
        // Enough queries that both shards flush real multi-source batches;
        // every result must equal the textbook oracle for its source.
        let g = gen::uniform(400, 1600, 7);
        let n = g.num_vertices() as u32;
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_shards(3)
            .with_max_batch(64)
            .with_max_latency(Duration::from_micros(200));
        let mut e = QueryEngine::from_graph(g, cfg);
        let q0 = shard_counter("pbfs_engine_shard_queries_total", 0);
        let q1 = shard_counter("pbfs_engine_shard_queries_total", 1);
        let q2 = shard_counter("pbfs_engine_shard_queries_total", 2);
        let handles: Vec<QueryHandle> = (0..120).map(|i| e.submit(i % n).unwrap()).collect();
        let mut oracle: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
        for h in handles {
            let src = h.source();
            let want = oracle
                .entry(src)
                .or_insert_with(|| crate::textbook::bfs(&e.graph(), src).distances);
            assert_eq!(&h.wait().unwrap(), want, "source {src}");
        }
        e.shutdown();
        assert_eq!(e.stats().queries, 120);
        // Round-robin scatter attributed 40 queries to each shard's
        // labeled counter family.
        assert_eq!(shard_counter("pbfs_engine_shard_queries_total", 0) - q0, 40);
        assert_eq!(shard_counter("pbfs_engine_shard_queries_total", 1) - q1, 40);
        assert_eq!(shard_counter("pbfs_engine_shard_queries_total", 2) - q2, 40);
    }

    fn poison_source_zero(_pool: &WorkerPool, sources: &[VertexId]) {
        if sources.contains(&0) {
            panic!("injected: poisoned shard");
        }
    }

    #[test]
    fn poisoned_shard_fails_only_its_own_batches() {
        let _serial = serial();
        // Source 0 is submitted only at even submission indices, which
        // round-robin lands on shard 0; the hook poisons every batch
        // containing it. Shard 0's queries must all fail with BatchFailed
        // while shard 1 keeps answering correctly — and only shard 0's
        // failure counter moves.
        let g = gen::uniform(300, 1200, 11);
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_shards(2)
            .with_max_latency(Duration::from_micros(200))
            .with_fault_hook(poison_source_zero);
        let f0 = shard_counter("pbfs_engine_shard_failed_total", 0);
        let f1 = shard_counter("pbfs_engine_shard_failed_total", 1);
        let mut e = QueryEngine::from_graph(g, cfg);
        let mut poisoned = Vec::new();
        let mut healthy = Vec::new();
        for i in 0..40u32 {
            if i % 2 == 0 {
                poisoned.push(e.submit(0).unwrap());
            } else {
                healthy.push(e.submit(1 + i / 2).unwrap());
            }
        }
        for h in poisoned {
            match h.wait() {
                Err(EngineError::BatchFailed { reason }) => {
                    assert!(reason.contains("poisoned shard"), "reason: {reason}")
                }
                other => panic!("poisoned shard must fail its batch, got {other:?}"),
            }
        }
        for h in healthy {
            let src = h.source();
            let want = crate::textbook::bfs(&e.graph(), src).distances;
            assert_eq!(h.wait().unwrap(), want, "healthy shard, source {src}");
        }
        e.shutdown();
        assert_eq!(shard_counter("pbfs_engine_shard_failed_total", 0) - f0, 20);
        assert_eq!(shard_counter("pbfs_engine_shard_failed_total", 1) - f1, 0);
        let s = e.stats();
        assert_eq!(s.failed, 20);
        assert!(s.batch_failures >= 1);
    }

    #[test]
    fn shutdown_flushes_pending_queries() {
        let _serial = serial();
        let g = gen::grid(8, 8);
        let oracle = crate::textbook::bfs(&g, 0).distances;
        // A long deadline would stall these queries; shutdown must flush
        // them immediately rather than dropping them.
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_latency(Duration::from_secs(60));
        let mut e = QueryEngine::from_graph(g, cfg);
        let handles: Vec<_> = (0..5).map(|_| e.submit(0).unwrap()).collect();
        e.shutdown();
        for h in handles {
            assert_eq!(h.wait().unwrap(), oracle);
        }
    }
}
