//! The level-synchronous loop shared by the parallel BFS kernels.
//!
//! MS-PBFS, SMS-PBFS and the sharded scatter/gather MS-BFS run the same
//! loop (§3 of the paper; Buluç–Madduri's expand/fold loop for the sharded
//! one): per level, pick a direction, run two barrier-separated top-down
//! phases or one bottom-up phase, recycle the buffers and record the
//! level's statistics. [`run`] owns that loop. A [`Kernel`] supplies its
//! state init and seeding and the phase bodies. There are two: the one
//! set of bodies MS-PBFS and both SMS-PBFS states share
//! (`crate::mspbfs::Batch`, generic over the per-vertex state), and the
//! sharded kernel's scatter/gather, which reuses that batch's seeding,
//! settle, bottom-up phase and recycling.
//! The driver acts once per level and once per task range, never per
//! vertex, and calls the bodies through generics, so they stay
//! monomorphized.

use std::ops::{AddAssign, Range};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crossbeam::utils::CachePadded;
use pbfs_bitset::simd::SimdLevel;
use pbfs_bitset::{ScanStats, SUMMARY_CHUNK};
use pbfs_sched::{RunStats, WorkerPool};
use pbfs_telemetry::{EventKind, PerWorkerU64};

use crate::options::BfsOptions;
use crate::policy::{Direction, FrontierState};
use crate::stats::{IterationStats, TraversalStats, WorkerIterStats};
use crate::storage::Adjacency;

/// What seeding, or one phase body over one task range, did.
#[derive(Default)]
pub(crate) struct Tally {
    /// States newly set (bits for multi-source).
    pub discovered: u64,
    /// Vertices that joined the next frontier, and their summed degree.
    pub frontier_vertices: u64,
    pub frontier_degree: u64,
    /// Degree of the vertices now seen by every source.
    pub fully_seen_degree: u64,
    /// Adjacency entries scanned.
    pub visited: u64,
    /// Summary chunks skipped and scanned.
    pub scan: ScanStats,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.discovered += t.discovered;
        self.frontier_vertices += t.frontier_vertices;
        self.frontier_degree += t.frontier_degree;
        self.fully_seen_degree += t.fully_seen_degree;
        self.visited += t.visited;
        self.scan.merge(t.scan);
    }
}

/// Per-level inputs of the phase bodies.
pub(crate) struct Step {
    /// Depth of the vertices this level discovers.
    pub depth: u32,
    /// SIMD dispatch level, resolved once per level: `#[target_feature]`
    /// kernels cannot inline through the per-call dispatch, so the lookup
    /// (and the chaos failpoint inside it) stays out of the hot loops.
    pub lvl: SimdLevel,
}

/// One traversal's state and phase bodies. Task ranges cover the vertex
/// range.
pub(crate) trait Kernel: Sync {
    /// The failpoint at the head of every level.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    const PHASE_SITE: &'static str;
    type Graph: Adjacency + ?Sized;

    fn graph(&self) -> &Self::Graph;
    /// Clears the state on `pool` in ranges of `split` and seeds the
    /// sources, tallied as level 0.
    fn init(&self, pool: &WorkerPool, split: usize) -> Tally;
    /// Top-down phase 1: expands the frontier into `next`. This phase or
    /// the next may clear the frontier for reuse as `next`.
    fn expand(&self, step: &Step, r: Range<usize>) -> Tally;
    /// Top-down phase 2: settles `next` against `seen`, clearing the
    /// frontier for reuse as `next` if phase 1 did not.
    fn settle(&self, step: &Step, r: Range<usize>) -> Tally;
    /// Bottom-up: unseen vertices pull from frontier neighbors.
    fn bottom_up(&self, step: &Step, r: Range<usize>) -> Tally;
    /// Makes `next` the frontier and the old frontier `next`.
    fn rotate(&mut self);
    /// Clears the summary-active chunks of `next` over `r`.
    fn clear_next(&self, r: Range<usize>) -> ScanStats;
}

/// The task range size for `opts`. Ranges align to `ownership_align`, so
/// writes to owned entries never share a storage unit, and to summary
/// chunks, so range clears clear summary bits exactly.
pub(crate) fn aligned_split(opts: &BfsOptions, ownership_align: usize) -> usize {
    pbfs_sched::aligned_split(opts.split_size.max(1), ownership_align.max(SUMMARY_CHUNK))
}

/// One level's phase runner and counters.
struct Level<'a> {
    pool: &'a WorkerPool,
    opts: &'a BfsOptions,
    split: usize,
    /// The frontier the level started from, stamped on its phase spans.
    frontier_vertices: u64,
    /// One tally per executing worker, so workers never share a lock.
    tallies: Vec<CachePadded<Mutex<Tally>>>,
    /// Updated states and visited neighbors per task queue: a range counts
    /// toward its home queue, whoever ran it.
    updated: PerWorkerU64,
    visited: PerWorkerU64,
    /// The scheduler stats of the instrumented phases.
    run: Mutex<RunStats>,
}

/// Nothing that can panic runs while a level's tally is locked.
const HELD: &str = "a task panicked while adding to a level tally";

impl<'a> Level<'a> {
    fn new(pool: &'a WorkerPool, opts: &'a BfsOptions, split: usize, fv: u64) -> Self {
        let workers = pool.num_workers();
        Self {
            pool,
            opts,
            split,
            frontier_vertices: fv,
            tallies: (0..workers)
                .map(|_| CachePadded::new(Mutex::default()))
                .collect(),
            updated: PerWorkerU64::new(workers),
            visited: PerWorkerU64::new(workers),
            run: Mutex::default(),
        }
    }

    fn tally(&self, worker: usize) -> MutexGuard<'_, Tally> {
        self.tallies[worker].lock().expect(HELD)
    }

    /// Runs one phase over `len` items and records its span. Instrumented
    /// runs time the phase directly (the recorder has no timestamps while
    /// tracing is off) and keep the scheduler's stats; plain runs return 0.
    fn phase(
        &self,
        kind: EventKind,
        len: usize,
        body: impl Fn(Range<usize>) -> Tally + Sync,
    ) -> u64 {
        let (pool, rec, qset) = (self.pool, pbfs_telemetry::recorder(), self.opts.query_set);
        let task = |worker: usize, r: Range<usize>| {
            let queue = (r.start / self.split) % pool.num_workers();
            let t = body(r);
            self.updated.add(queue, t.discovered);
            self.visited.add(queue, t.visited);
            *self.tally(worker) += t;
        };
        if self.opts.instrument {
            let t = Instant::now();
            let run = pool.parallel_for_instrumented(len, self.split, |w, r, _| task(w, r));
            let d = t.elapsed();
            rec.span_at_ctx(0, kind, t, d, self.frontier_vertices, 0, qset);
            self.run.lock().expect(HELD).merge(&run);
            d.as_nanos() as u64
        } else {
            let t = rec.start();
            pool.parallel_for(len, self.split, task);
            rec.span_ctx(0, kind, t, self.frontier_vertices, 0, qset);
            0
        }
    }
}

/// Runs `k` level by level on task ranges of `split` vertices, choosing
/// each level's direction by `opts.policy`, until its frontier empties or
/// `opts.max_iterations` levels have run.
pub(crate) fn run<K: Kernel>(
    k: &mut K,
    pool: &WorkerPool,
    opts: &BfsOptions,
    split: usize,
) -> TraversalStats {
    let start = Instant::now();
    let g = k.graph();
    let (n, m) = (g.num_vertices(), g.num_directed_edges() as u64);
    let seed = k.init(pool, split);
    let mut stats = TraversalStats {
        total_discovered: seed.discovered,
        ..Default::default()
    };
    let (mut frontier_vertices, mut frontier_degree) =
        (seed.frontier_vertices, seed.frontier_degree);
    let mut unexplored_degree = m.saturating_sub(seed.fully_seen_degree);
    let mut direction = Direction::TopDown;
    let mut depth = 0u32;

    while frontier_vertices > 0 {
        // Level boundary: state arrays are consistent here, so an injected
        // panic exercises the engine's mid-traversal repair.
        crate::fail_point!(K::PHASE_SITE);
        if opts.max_iterations.is_some_and(|max| depth >= max) {
            break;
        }
        depth += 1;
        let prev_direction = direction;
        direction = opts.policy.decide(&FrontierState {
            frontier_vertices,
            frontier_degree,
            unexplored_degree,
            total_vertices: n as u64,
            current: direction,
        });
        crate::obs::note_iteration(depth, direction, depth > 1 && direction != prev_direction);
        let iter_start = Instant::now();
        let level = Level::new(pool, opts, split, frontier_vertices);
        let step = Step {
            depth,
            lvl: pbfs_bitset::simd::current(),
        };
        let kr = &*k;
        let (expand_ns, settle_ns) = match direction {
            Direction::TopDown => (
                level.phase(EventKind::TopDownPhase1, n, |r| kr.expand(&step, r)),
                level.phase(EventKind::TopDownPhase2, n, |r| kr.settle(&step, r)),
            ),
            Direction::BottomUp => (
                level.phase(EventKind::BottomUp, n, |r| kr.bottom_up(&step, r)),
                0,
            ),
        };

        // A top-down level cleared the old frontier in phase 1 or 2; after
        // bottom-up it was read throughout the pull loop and its
        // summary-active chunks must be cleared before it serves as `next`.
        k.rotate();
        if direction == Direction::BottomUp {
            let kr = &*k;
            pool.parallel_for(n, split, |w, r| {
                let s = kr.clear_next(r);
                level.tally(w).scan.merge(s);
            });
        }

        let mut t = Tally::default();
        for slot in level.tallies {
            t += slot.into_inner().into_inner().expect(HELD);
        }
        let iter_wall = iter_start.elapsed();
        frontier_vertices = t.frontier_vertices;
        frontier_degree = t.frontier_degree;
        unexplored_degree = unexplored_degree.saturating_sub(t.fully_seen_degree);
        stats.total_discovered += t.discovered;
        stats.summary_chunks_skipped += t.scan.chunks_skipped;
        stats.summary_chunks_scanned += t.scan.chunks_scanned;
        pbfs_telemetry::recorder().span_at_ctx(
            0,
            EventKind::Iteration,
            iter_start,
            iter_wall,
            depth as u64,
            t.discovered,
            opts.query_set,
        );
        // Only instrumented phases report scheduler stats, so the rows
        // stay empty when instrumentation is off.
        let run = level.run.into_inner().expect(HELD);
        let (updated, visited) = (level.updated.snapshot(), level.visited.snapshot());
        let per_worker = run.per_worker.iter().zip(updated.into_iter().zip(visited));
        stats.iterations.push(IterationStats {
            iteration: depth,
            direction,
            wall_ns: iter_wall.as_nanos() as u64,
            expand_ns,
            settle_ns,
            frontier_vertices,
            discovered: t.discovered,
            chunks_scanned: t.scan.chunks_scanned,
            chunks_skipped: t.scan.chunks_skipped,
            per_worker: per_worker
                .map(|(w, (updated, visited))| WorkerIterStats {
                    busy_ns: w.busy_ns,
                    visited_neighbors: visited,
                    updated_states: updated,
                    tasks: w.tasks,
                    stolen: w.stolen,
                    remote: w.remote,
                })
                .collect(),
        });
    }

    crate::obs::note_summary_scan(stats.summary_chunks_skipped, stats.summary_chunks_scanned);
    crate::obs::note_traversal(stats.total_discovered);
    stats.total_wall_ns = start.elapsed().as_nanos() as u64;
    stats
}
