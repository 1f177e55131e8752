//! Persistent worker pool implementing the parallelized for loop
//! (Listing 7 of the paper).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use pbfs_telemetry::EventKind;

use crate::instrument::{Collector, Probe};
use crate::{RunStats, TaskQueues, Topology, WorkerId};

/// Type-erased job pointer published to the workers. The pool never returns
/// from a dispatch before every worker finished, so the erased lifetime is
/// sound (see [`WorkerPool::run_dyn`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(WorkerId) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared invocation is fine) and the pointer
// is only dereferenced while the original closure is kept alive by the
// dispatching call frame.
unsafe impl Send for Job {}

struct State {
    epoch: u64,
    job: Option<Job>,
    remaining: usize,
    shutdown: bool,
    /// Spawned workers whose loop body panicked during the current
    /// dispatch; read and reset by the dispatcher at the completion
    /// barrier so worker panics propagate instead of being swallowed.
    panicked: usize,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

thread_local! {
    /// Address of the pool (its `Shared` allocation) this thread is
    /// currently executing a loop body for; 0 when outside any pool.
    static DISPATCHING: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A pool of persistent worker threads executing parallel loops over vertex
/// ranges with work stealing.
///
/// The calling thread participates as **worker 0**; `num_workers - 1`
/// threads are spawned. Dispatches are serialized: concurrent calls into the
/// same pool queue behind an internal lock.
///
/// The paper additionally pins each worker to a core (Section 4.4). Thread
/// pinning needs OS-specific syscalls outside the approved dependency set
/// and has no effect on a single-core container, so it is intentionally
/// omitted; the deterministic worker→node mapping it enables is modeled by
/// [`Topology`].
///
/// ```
/// use pbfs_sched::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.parallel_for(1000, 64, |_worker, range| {
///     sum.fetch_add(range.map(|i| i as u64).sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 999 * 1000 / 2);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    topology: Topology,
    dispatch_lock: Mutex<()>,
    poisoned: AtomicBool,
}

impl WorkerPool {
    /// Creates a single-NUMA-node pool with `num_workers` workers
    /// (including the calling thread).
    ///
    /// # Panics
    /// Panics if `num_workers == 0`.
    pub fn new(num_workers: usize) -> Self {
        Self::with_topology(Topology::single(num_workers))
    }

    /// Creates the pool serving one shard of a sharded engine: `workers`
    /// total workers are dealt over `shards` simulated sockets by the block
    /// rule of [`Topology::new`], and this pool gets `shard`'s share
    /// (clamped to ≥ 1 so every shard can make progress even when there are
    /// more shards than workers).
    ///
    /// Each shard's dispatcher thread should call this itself so the pool's
    /// worker threads — and the BFS state they first-touch — belong to that
    /// shard, mirroring the per-socket placement of Section 4.4.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shard >= shards`.
    pub fn for_shard(shards: usize, workers: usize, shard: usize) -> Self {
        Self::new(Self::shard_workers(shards, workers, shard))
    }

    /// Workers in the pool [`Self::for_shard`] builds for `shard`.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shard >= shards`.
    pub fn shard_workers(shards: usize, workers: usize, shard: usize) -> usize {
        let topo = Topology::new(shards, workers.max(1));
        assert!(shard < shards, "shard {shard} out of range for {shards}");
        topo.workers_on(shard).len().max(1)
    }

    /// Creates a pool whose workers follow `topology`.
    pub fn with_topology(topology: Topology) -> Self {
        let num_workers = topology.num_workers();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panicked: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..num_workers)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pbfs-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id, 0))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            shared,
            handles,
            topology,
            dispatch_lock: Mutex::new(()),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of workers (including the calling thread).
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.topology.num_workers()
    }

    /// The pool's NUMA topology model.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Invokes `f(worker_id)` once on every worker and waits for all of
    /// them. The building block under every parallel loop.
    pub fn run(&self, f: impl Fn(WorkerId) + Sync) {
        self.run_dyn(&f);
    }

    fn run_dyn(&self, f: &(dyn Fn(WorkerId) + Sync)) {
        // Re-entrant dispatch of the *same* pool from inside a loop body
        // would deadlock on the dispatch lock (this is not a
        // nested-parallelism runtime like rayon — the paper's loops are
        // flat). Fail fast instead; dispatching a different pool is fine.
        struct Reset(usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                DISPATCHING.with(|f| f.set(self.0));
            }
        }
        let me = Arc::as_ptr(&self.shared) as usize;
        let previous = DISPATCHING.with(|f| f.replace(me));
        assert!(
            previous != me,
            "re-entrant WorkerPool dispatch from inside its own parallel loop body"
        );
        let _reset = Reset(previous);

        let _guard = self.dispatch_lock.lock();
        assert!(
            !self.poisoned.load(Ordering::Relaxed),
            "worker pool poisoned by an earlier panic in a parallel loop"
        );
        // Before the job is published nothing is in flight, so an injected
        // panic here unwinds to the dispatching caller with the pool state
        // untouched (and unpoisoned).
        crate::fail_point!("sched.pool.dispatch");
        let spawned = self.handles.len();
        if spawned == 0 {
            f(0);
            return;
        }
        // SAFETY: erase the closure lifetime. The pointer is dereferenced
        // only by workers between the publish below and the completion wait,
        // and this frame (which borrows `f`) does not return before
        // `remaining` drops to zero.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(WorkerId) + Sync),
                *const (dyn Fn(WorkerId) + Sync + 'static),
            >(f as *const _)
        });
        {
            let mut st = self.shared.state.lock();
            st.epoch += 1;
            st.job = Some(job);
            st.remaining = spawned;
            self.shared.work_cv.notify_all();
        }
        // The caller participates as worker 0. If it panics we cannot
        // return while workers may still dereference the job, so wait for
        // them first and poison the pool on unwind.
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let worker_panics = {
            let mut st = self.shared.state.lock();
            while st.remaining > 0 {
                self.shared.done_cv.wait(&mut st);
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        if let Err(panic) = caller_result {
            self.poisoned.store(true, Ordering::Relaxed);
            std::panic::resume_unwind(panic);
        }
        // A panic on a spawned worker must not silently yield a loop whose
        // range was only partially covered: surface it to the dispatching
        // caller exactly like a worker-0 panic would.
        if worker_panics > 0 {
            self.poisoned.store(true, Ordering::Relaxed);
            panic!("{worker_panics} pool worker(s) panicked inside a parallel loop");
        }
    }

    /// True once a panic in a parallel loop poisoned the pool. A poisoned
    /// pool refuses further dispatches until [`Self::recover`] is called.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Clears poisoning so the pool can be reused after a panic, respawning
    /// any worker thread that died. Returns `true` if the pool had been
    /// poisoned.
    ///
    /// Workers survive ordinary panics (loop bodies run under
    /// `catch_unwind`), so the respawn sweep is normally a no-op; it
    /// defends against exotic exits such as a panic payload whose `Drop`
    /// panics. Poisoning is therefore transient: callers that contain the
    /// propagated panic (e.g. the query engine's dispatcher) recover the
    /// pool and keep serving.
    pub fn recover(&mut self) -> bool {
        crate::fail_point!("sched.pool.respawn");
        let was_poisoned = self.poisoned.swap(false, Ordering::Relaxed);
        // Snapshot the epoch before spawning so a replacement worker never
        // mistakes the current (already finished) epoch for fresh work.
        let epoch = self.shared.state.lock().epoch;
        for (i, slot) in self.handles.iter_mut().enumerate() {
            if slot.is_finished() {
                let worker_id = i + 1; // handles[i] runs worker i+1
                let shared = Arc::clone(&self.shared);
                let fresh = std::thread::Builder::new()
                    .name(format!("pbfs-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id, epoch))
                    .expect("failed to respawn worker thread");
                let _ = std::mem::replace(slot, fresh).join();
            }
        }
        was_poisoned
    }

    /// The parallelized for loop of Listing 7: covers `0..total` in ranges
    /// of `split_size` items with per-worker queues and work stealing.
    pub fn parallel_for(
        &self,
        total: usize,
        split_size: usize,
        body: impl Fn(WorkerId, Range<usize>) + Sync,
    ) {
        let queues = TaskQueues::new(total, split_size, self.num_workers());
        // Sampled once per dispatch: while tracing is off the per-task cost
        // is one branch on a captured bool.
        let rec = pbfs_telemetry::recorder();
        let tracing = rec.is_enabled();
        self.run(|worker| {
            let my_node = self.topology.node_of_worker(worker);
            let (mut tasks, mut stolen, mut remote) = (0u64, 0u64, 0u64);
            let mut cursor = 0;
            while let Some((range, from)) = queues.fetch(worker, &mut cursor) {
                tasks += 1;
                let was_stolen = from != worker;
                if was_stolen {
                    stolen += 1;
                    if self.topology.node_of_worker(from) != my_node {
                        remote += 1;
                    }
                }
                if tracing {
                    let items = range.len() as u64;
                    if was_stolen {
                        rec.mark(worker, EventKind::Steal, from as u64, items);
                    }
                    let t0 = Instant::now();
                    body(worker, range);
                    rec.span_at(
                        worker,
                        EventKind::Task,
                        t0,
                        t0.elapsed(),
                        items,
                        was_stolen as u64,
                    );
                } else {
                    body(worker, range);
                }
            }
            crate::instrument::note_loop(worker, tasks, stolen, remote);
        });
    }

    /// Like [`Self::parallel_for`] but records per-worker busy time, task
    /// counts, steal counts and NUMA locality, and hands the body a
    /// [`Probe`] for algorithm-level work units.
    pub fn parallel_for_instrumented(
        &self,
        total: usize,
        split_size: usize,
        body: impl Fn(WorkerId, Range<usize>, &Probe) + Sync,
    ) -> RunStats {
        let queues = TaskQueues::new(total, split_size, self.num_workers());
        let collector = Collector::new(self.num_workers());
        let rec = pbfs_telemetry::recorder();
        let tracing = rec.is_enabled();
        let start = Instant::now();
        self.run(|worker| {
            let probe = Probe {
                collector: Some(&collector),
                worker,
            };
            let my_node = self.topology.node_of_worker(worker);
            let mut cursor = 0;
            let (mut busy, mut tasks, mut stolen, mut remote, mut items) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            while let Some((range, from)) = queues.fetch(worker, &mut cursor) {
                let t0 = Instant::now();
                let task_items = range.len() as u64;
                items += task_items;
                tasks += 1;
                let was_stolen = from != worker;
                if was_stolen {
                    stolen += 1;
                    if self.topology.node_of_worker(from) != my_node {
                        remote += 1;
                    }
                    if tracing {
                        rec.mark(worker, EventKind::Steal, from as u64, task_items);
                    }
                }
                body(worker, range, &probe);
                let dt = t0.elapsed();
                busy += dt.as_nanos() as u64;
                if tracing {
                    rec.span_at(
                        worker,
                        EventKind::Task,
                        t0,
                        dt,
                        task_items,
                        was_stolen as u64,
                    );
                }
            }
            collector.record(worker, busy, tasks, stolen, remote, items);
        });
        collector.finish(start.elapsed().as_nanos() as u64)
    }
}

/// Publishes `total` — the BFS workers the process was configured with,
/// summed over every pool it serves queries from — as the
/// `pbfs_pool_workers` gauge. Called once by whoever knows that total
/// (the query engine, each CLI command that builds a pool), never by pool
/// construction: short-lived or caller-only pools must not overwrite it.
pub fn publish_configured_workers(total: usize) {
    pbfs_telemetry::registry()
        .gauge(
            "pbfs_pool_workers",
            "BFS workers the process was configured with, over all its pools",
        )
        .set(total as i64);
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker_id: WorkerId, start_epoch: u64) {
    // This thread permanently belongs to one pool: mark it so loop bodies
    // that re-enter the pool fail fast instead of deadlocking.
    DISPATCHING.with(|f| f.set(shared as *const Shared as usize));
    let mut last_epoch = start_epoch;
    loop {
        let job = {
            let mut st = shared.state.lock();
            while !st.shutdown && st.epoch == last_epoch {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            st.job.expect("epoch advanced without a job")
        };
        // SAFETY: see `run_dyn` — the dispatcher keeps the closure alive
        // until `remaining` reaches zero, which happens below.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Inside the catch_unwind on purpose: an injected panic is then
            // counted in `st.panicked` like any loop-body panic instead of
            // killing the thread and deadlocking the epoch barrier.
            crate::fail_point!("sched.pool.worker");
            (unsafe { &*job.0 })(worker_id)
        }));
        // Telemetry before the barrier releases: anyone who observes the
        // re-raised panic (e.g. a test asserting on the counter after a
        // failed batch resolves) must also observe the count.
        if result.is_err() {
            crate::instrument::note_panic(worker_id, last_epoch);
        }
        {
            let mut st = shared.state.lock();
            st.remaining -= 1;
            if result.is_err() {
                // Recorded before the barrier releases so the dispatcher
                // observes it and re-raises; the worker itself stays alive
                // for the next epoch.
                st.panicked += 1;
            }
            if st.remaining == 0 {
                shared.done_cv.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn for_shard_deals_workers_by_topology_blocks() {
        // 4 workers over 2 shards: 2 + 2.
        assert_eq!(WorkerPool::for_shard(2, 4, 0).num_workers(), 2);
        assert_eq!(WorkerPool::for_shard(2, 4, 1).num_workers(), 2);
        // 5 over 2: the first shard hosts the remainder.
        assert_eq!(WorkerPool::for_shard(2, 5, 0).num_workers(), 3);
        assert_eq!(WorkerPool::for_shard(2, 5, 1).num_workers(), 2);
        // More shards than workers: empty shares clamp to one worker so the
        // shard still makes progress.
        assert_eq!(WorkerPool::for_shard(4, 2, 3).num_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn for_shard_rejects_out_of_range_shard() {
        let _ = WorkerPool::for_shard(2, 4, 2);
    }

    #[test]
    fn run_invokes_every_worker_once() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hit = AtomicUsize::new(0);
        pool.run(|w| {
            assert_eq!(w, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        let pool = WorkerPool::new(3);
        let total = 10_001;
        let counts: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(total, 128, |_, range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(0, 64, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sequential_dispatches_reuse_workers() {
        let pool = WorkerPool::new(4);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.parallel_for(100, 16, |_, r| {
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn instrumented_records_items_and_tasks() {
        let pool = WorkerPool::new(2);
        let stats = pool.parallel_for_instrumented(1000, 100, |_, r, probe| {
            probe.add_work(r.len() as u64 * 2);
        });
        assert_eq!(stats.total_tasks(), 10);
        assert_eq!(stats.per_worker.iter().map(|w| w.items).sum::<u64>(), 1000);
        assert_eq!(stats.total_work(), 2000);
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn numa_remote_counting() {
        // 2 nodes × 2 workers; force imbalance so stealing crosses nodes.
        let pool = WorkerPool::with_topology(Topology::new(2, 4));
        // All the work is in the first task; workers 2,3 must steal
        // remotely or finish empty. We can't force stealing determinism,
        // but remote must never exceed stolen.
        let stats = pool.parallel_for_instrumented(4096, 64, |_, r, _| {
            std::hint::black_box(r.len());
        });
        assert!(stats.total_remote() <= stats.total_stolen());
    }

    #[test]
    fn caller_panic_propagates_and_poisons() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|_| {});
        }));
        assert!(second.is_err(), "pool must refuse to run after poisoning");
    }

    #[test]
    fn worker_panic_propagates_to_dispatching_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(
            result.is_err(),
            "a spawned worker's panic must not be swallowed"
        );
        assert!(pool.is_poisoned());
    }

    #[test]
    fn recover_clears_poisoning_and_pool_runs_again() {
        let mut pool = WorkerPool::new(4);
        for round in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|w| {
                    if w == round % 2 {
                        panic!("boom {round}");
                    }
                });
            }));
            assert!(result.is_err());
            assert!(pool.is_poisoned());
            assert!(pool.recover());
            assert!(!pool.is_poisoned());
            assert!(!pool.recover(), "recover on a healthy pool is a no-op");
            let sum = AtomicU64::new(0);
            pool.parallel_for(10_000, 128, |_, r| {
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 10_000);
        }
    }

    #[test]
    fn reentrant_dispatch_panics_instead_of_deadlocking() {
        // Single-worker pool: the caller thread itself executes the body,
        // so the re-entry is guaranteed to happen on a marked thread and
        // the panic propagates to us.
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(4, 1, |_, _| {
                pool.parallel_for(2, 1, |_, _| {});
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn dispatching_a_different_pool_from_a_body_is_allowed() {
        let outer = WorkerPool::new(2);
        let inner = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let once = std::sync::atomic::AtomicBool::new(false);
        outer.parallel_for(2, 1, |_, _| {
            // Whichever worker of `outer` runs a body first dispatches
            // `inner`: the caller thread and spawned workers alike are
            // marked for `outer` only. The latch keeps the accounting exact
            // however the two ranges are stolen.
            if !once.swap(true, Ordering::Relaxed) {
                inner.parallel_for(8, 2, |_, r| {
                    hits.fetch_add(r.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn oversubscribed_pool_on_one_core_still_completes() {
        let pool = WorkerPool::new(16);
        let sum = AtomicU64::new(0);
        pool.parallel_for(100_000, 256, |_, r| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100_000);
    }
}
