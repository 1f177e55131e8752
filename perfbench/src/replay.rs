//! Kernel replay: the traversals the engine ran, re-run directly through
//! the kernels' public `run` on the same graph and sources, outside the
//! serving process's measured window. Timed runs use the engine's own
//! options; counted runs use `BfsOptions::instrumented()` and feed
//! `pbfs_core::profile::build_profile`.

use std::time::Instant;

use pbfs_core::memory::MemoryModel;
use pbfs_core::mspbfs::MsPbfs;
use pbfs_core::options::BfsOptions;
use pbfs_core::profile::build_profile;
use pbfs_core::sharded::ShardedMsBfs;
use pbfs_core::smspbfs::SmsPbfsBit;
use pbfs_core::stats::TraversalStats;
use pbfs_core::storage::{Adjacency, ShardedAdjacency};
use pbfs_core::visitor::{DistanceVisitor, MsDistanceVisitor};
use pbfs_core::UNREACHED;
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::trace::Tracer;

/// What replaying one kernel on a list of batches measured.
#[derive(Debug, Default)]
pub struct KernelRow {
    /// `mspbfs`, `smspbfs` or `sharded`.
    pub kernel: &'static str,
    /// Concurrent sources per batch.
    pub width: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Wall ms of each timed `run`.
    pub run_ms: Vec<f64>,
    /// Wall ms of each batch's result materialization (visitor allocation
    /// plus per-query copies).
    pub materialize_ms: Vec<f64>,
    /// Queries (sources) over all batches.
    pub queries: u64,
    /// Edges relaxed over all counted runs.
    pub edges: u64,
    /// Iterations over all counted runs.
    pub iterations: u64,
    /// Bottom-up iterations over all counted runs.
    pub bottom_up_iterations: u64,
    /// Profile time per phase: expand, bottom_up, settle, other.
    pub phase_ns: [u64; 4],
    /// Estimated bytes moved ([`build_profile`]'s model).
    pub bytes_est: u64,
    /// Summary chunks skipped / scanned.
    pub chunks: (u64, u64),
    /// Busy-time skew of every iteration in which all workers worked.
    pub busy_skew: Vec<f64>,
    /// Task ranges stolen / executed.
    pub steals: (u64, u64),
}

impl KernelRow {
    fn new(kernel: &'static str, width: usize) -> Self {
        Self {
            kernel,
            width,
            ..Self::default()
        }
    }

    /// Folds one counted traversal of `queries` sources into the row.
    fn count(&mut self, stats: &TraversalStats, queries: usize, n: usize) {
        self.batches += 1;
        self.queries += queries as u64;
        self.iterations += u64::from(stats.num_iterations());
        self.bottom_up_iterations += stats.bottom_up_iterations() as u64;
        self.chunks.0 += stats.summary_chunks_skipped;
        self.chunks.1 += stats.summary_chunks_scanned;
        let model = MemoryModel {
            vertices: n,
            edge_factor: 16,
            width_words: self.width.div_ceil(64).max(1),
        };
        let profile = build_profile(self.kernel, self.width, stats, &model);
        for row in profile.by_phase() {
            self.edges += row.edges;
            self.bytes_est += row.bytes_est;
            let slot = match row.phase {
                "expand" => 0,
                "bottom_up" => 1,
                "settle" => 2,
                _ => 3,
            };
            self.phase_ns[slot] += row.ns;
        }
        for it in &stats.iterations {
            if it.all_workers_busy() {
                self.busy_skew.push(it.busy_skew());
            }
            for w in &it.per_worker {
                self.steals.0 += w.stolen;
                self.steals.1 += w.tasks;
            }
        }
    }
}

/// Times one engine-style multi-source batch: visitor allocation, `run`,
/// then one distance vector per query. Returns `(stats, run_ms, mat_ms)`.
fn ms_batch<const W: usize, G: Adjacency + ?Sized>(
    bfs: &mut MsPbfs<W>,
    g: &G,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
) -> (TraversalStats, f64, f64) {
    let t0 = Instant::now();
    let visitor: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
    let t1 = Instant::now();
    let stats = bfs.run(g, pool, sources, opts, &visitor);
    let t2 = Instant::now();
    let results: Vec<Vec<u32>> = (0..sources.len())
        .map(|i| visitor.distances_of(i))
        .collect();
    std::hint::black_box(&results);
    let t3 = Instant::now();
    drop(results);
    (stats, ms(t2 - t1), ms((t1 - t0) + (t3 - t2)))
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays MS-PBFS at compile-time width `W` over consecutive batches of
/// `width` sources. Each batch runs once untimed (state warm-up), once
/// timed with `opts` and once instrumented for the counts.
pub fn mspbfs<const W: usize, G: Adjacency + ?Sized>(
    g: &G,
    pool: &WorkerPool,
    sources: &[VertexId],
    width: usize,
    batches: usize,
    opts: &BfsOptions,
    tracer: &mut Tracer,
) -> KernelRow {
    let mut replay = MsReplay::<W>::new(g.num_vertices(), width);
    for batch in sources.chunks_exact(width).take(batches) {
        replay.batch(g, pool, batch, opts, tracer);
    }
    replay.row
}

/// MS-PBFS replay state, fed one batch at a time so that replays on two
/// graphs can alternate batch by batch and see the same host conditions.
pub struct MsReplay<const W: usize> {
    bfs: MsPbfs<W>,
    /// What the batches so far measured.
    pub row: KernelRow,
}

impl<const W: usize> MsReplay<W> {
    /// Replay state for graphs of `n` vertices and batches of `width`.
    pub fn new(n: usize, width: usize) -> Self {
        Self {
            bfs: MsPbfs::new(n),
            row: KernelRow::new("mspbfs", width),
        }
    }

    /// Replays one batch on `g`: untimed, timed, then instrumented.
    pub fn batch<G: Adjacency + ?Sized>(
        &mut self,
        g: &G,
        pool: &WorkerPool,
        batch: &[VertexId],
        opts: &BfsOptions,
        tracer: &mut Tracer,
    ) {
        ms_batch(&mut self.bfs, g, pool, batch, opts);
        let start = Instant::now();
        let (_, run, mat) = ms_batch(&mut self.bfs, g, pool, batch, opts);
        tracer.record("replay.mspbfs", 0, start, Instant::now());
        self.row.run_ms.push(run);
        self.row.materialize_ms.push(mat);
        let (stats, _, _) = ms_batch(&mut self.bfs, g, pool, batch, &opts.instrumented());
        self.row.count(&stats, batch.len(), g.num_vertices());
    }
}

/// Replays the scatter/gather kernel at width `W` over `part`.
///
/// This kernel records no per-worker rows, so its relaxed edges are
/// counted from the answers instead: a top-down level-synchronous batch
/// scans `v`'s adjacency once per distinct level at which any of its BFSs
/// reached `v`.
pub fn sharded<const W: usize, P: ShardedAdjacency + ?Sized>(
    part: &P,
    pool: &WorkerPool,
    sources: &[VertexId],
    width: usize,
    batches: usize,
    opts: &BfsOptions,
    tracer: &mut Tracer,
) -> KernelRow {
    let n = part.num_vertices();
    let mut row = KernelRow::new("sharded", width);
    let mut bfs = ShardedMsBfs::<W>::new(n, part.num_nodes());
    let mut once = |batch: &[VertexId], opts: &BfsOptions| {
        let t0 = Instant::now();
        let visitor: MsDistanceVisitor<W> = MsDistanceVisitor::new(n, batch.len());
        let t1 = Instant::now();
        let stats = bfs.run(part, pool, batch, opts, &visitor);
        let t2 = Instant::now();
        let results: Vec<Vec<u32>> = (0..batch.len()).map(|i| visitor.distances_of(i)).collect();
        std::hint::black_box(&results);
        let t3 = Instant::now();
        (stats, results, ms(t2 - t1), ms((t1 - t0) + (t3 - t2)))
    };
    let counted = opts.instrumented();
    for batch in sources.chunks_exact(width).take(batches) {
        once(batch, opts);
        let start = Instant::now();
        let (_, _, run, mat) = once(batch, opts);
        tracer.record("replay.sharded", 0, start, Instant::now());
        row.run_ms.push(run);
        row.materialize_ms.push(mat);
        let (stats, results, _, _) = once(batch, &counted);
        row.count(&stats, batch.len(), n);
        if stats.iterations.iter().all(|it| it.per_worker.is_empty()) {
            let edges = topdown_edges(part, &results);
            row.edges += edges;
            // build_profile's model: one adjacency entry plus one state
            // entry per relaxed edge.
            row.bytes_est += edges * (4 + 8 * W as u64);
        }
    }
    row
}

/// Σ over vertices of degree × distinct finite levels across `results`.
fn topdown_edges<G: Adjacency + ?Sized>(g: &G, results: &[Vec<u32>]) -> u64 {
    let mut levels: Vec<u32> = Vec::with_capacity(results.len());
    (0..g.num_vertices())
        .map(|v| {
            levels.clear();
            levels.extend(results.iter().map(|d| d[v]).filter(|&d| d != UNREACHED));
            levels.sort_unstable();
            levels.dedup();
            (levels.len() * g.degree(v as VertexId)) as u64
        })
        .sum()
}

/// Replays single-source SMS-PBFS (bit states) from each source, the
/// engine's singleton path.
pub fn smspbfs<G: Adjacency + ?Sized>(
    g: &G,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
    tracer: &mut Tracer,
) -> KernelRow {
    let n = g.num_vertices();
    let mut row = KernelRow::new("smspbfs", 1);
    let mut bfs = SmsPbfsBit::new(n);
    let counted = opts.instrumented();
    let mut once = |s: VertexId, opts: &BfsOptions| {
        let t0 = Instant::now();
        let visitor = DistanceVisitor::new(n);
        let t1 = Instant::now();
        let stats = bfs.run(g, pool, s, opts, &visitor);
        let t2 = Instant::now();
        std::hint::black_box(visitor.into_distances());
        let t3 = Instant::now();
        (stats, ms(t2 - t1), ms((t1 - t0) + (t3 - t2)))
    };
    for &s in sources {
        once(s, opts);
        let start = Instant::now();
        let (_, run, mat) = once(s, opts);
        tracer.record("replay.smspbfs", 0, start, Instant::now());
        row.run_ms.push(run);
        row.materialize_ms.push(mat);
        let (stats, _, _) = once(s, &counted);
        row.count(&stats, 1, n);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;

    #[test]
    fn counts_repeat_exactly() {
        let g = gen::Kronecker::graph500(9).seed(2).generate();
        let pool = WorkerPool::new(2);
        let sources = pbfs_bench::datasets::pick_sources(&g, 128, 1);
        let opts = BfsOptions::default();
        let mut t = Tracer::new(Instant::now(), 1, false);
        let a = mspbfs::<1, _>(&g, &pool, &sources, 64, 2, &opts, &mut t);
        let b = mspbfs::<1, _>(&g, &pool, &sources, 64, 2, &opts, &mut t);
        assert_eq!(a.batches, 2);
        assert!(a.edges > 0);
        assert_eq!((a.edges, a.iterations), (b.edges, b.iterations));
        let s = smspbfs(&g, &pool, &sources[..4], &opts, &mut t);
        assert_eq!(s.queries, 4);
        assert!(s.phase_ns.iter().sum::<u64>() > 0);
    }

    #[test]
    fn topdown_edges_counts_each_level_once() {
        // Path 0-1-2 (degrees 1, 2, 1); BFSs from 0 and from 2.
        let g = gen::path(3);
        let results = vec![vec![0, 1, 2], vec![2, 1, 0]];
        // Vertex 1 sits at level 1 in both: scanned once.
        assert_eq!(topdown_edges(&g, &results), 2 + 2 + 2);
    }
}
