//! Sharded scatter/gather MS-BFS over [`PartitionedCsr`](pbfs_graph::PartitionedCsr).
//!
//! The shared-memory half of ROADMAP item 1: the batch traversal is
//! restructured as an explicit **scatter/gather** exchange over the
//! per-socket adjacency partitions of
//! [`PartitionedCsr`](pbfs_graph::PartitionedCsr), the stepping
//! stone to the 2D-decomposition distributed BFS of Buluç–Madduri.
//!
//! This is a library kernel: the query engine does not run it. Sharded
//! engines ([`crate::engine::EngineConfig::shards`]) traverse with MS-PBFS
//! over the pinned snapshot, which measured faster in one process. The
//! kernel's callers are the benchmark's per-layer replay and the kernel
//! tests, over a [`PartitionedCsr`](pbfs_graph::PartitionedCsr) such as the
//! mirror [`crate::storage::GraphStore::enable_partition`] publishes.
//!
//! The level loop is the shared traversal driver (`crate::driver`). Its
//! direction comes from [`BfsOptions::policy`] as in MS-PBFS; every scan
//! is summary-guided, on task ranges exactly at the partition split. A
//! top-down level runs two barrier-separated phases, the scatter and the
//! gather:
//!
//! * **Scatter** — every task range's adjacency data lives in one
//!   partition segment. Expanding the frontier of a range merges neighbor
//!   bits into that partition's *own* contribution array with an atomic OR
//!   (writes stay partition-local; only the gather reads across
//!   partitions).
//! * **Gather** — after the `parallel_for` barrier, a conflict-free pass
//!   ORs the per-partition contributions per vertex into partition 0's
//!   array, settles them there against `seen` and recycles the other
//!   arrays. Partition 0's array then becomes the frontier, and the old
//!   frontier, cleared by the gather, becomes partition 0's array.
//!
//! A **bottom-up** level is MS-PBFS's own phase body: each range pulls
//! the frontier bits of its unseen vertices' neighbors, in whatever
//! partition they lie, and writes only its own vertices' entries of `seen`
//! and of partition 0's array, with no atomics. The cross-partition read
//! is what a 2D-partitioned BFS gets by all-gathering the frontier before
//! a bottom-up level (Buluç et al., arxiv 1705.04590), so it does not bind
//! a distributed port. No state is added for it: partition 0's array
//! serves as the bottom-up `next`, and the frontier rotates as in MS-PBFS.
//!
//! Instrumentation follows [`BfsOptions::instrument`] as in the other
//! kernels: phase walls and per-worker rows (adjacency entries the
//! scatter or the pull scanned, states the gather or the pull updated)
//! are reported only when it is on.
//!
//! # Determinism across shard counts
//!
//! Results are bit-identical for every partition count: contributions are
//! merged with OR — commutative and monotone, so the union the gather
//! observes is independent of scatter scheduling — and each `(source,
//! vertex)` pair has exactly one BFS depth, so the visitor sees every
//! discovery exactly once at that depth no matter how the work was sharded.
//! The direction policy reads only sums over the discovered vertices (the
//! frontier's degree and the degree of vertices every source has seen),
//! so every partition count takes the same direction on every level.
//! `tests/kernel_stats.rs` checks this against MS-PBFS over 1, 2 and 3
//! partitions.

use std::ops::Range;

use crate::storage::ShardedAdjacency;
use pbfs_bitset::{ScanStats, StateArray, SUMMARY_CHUNK};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::driver::{self, Kernel, Step, Tally};
use crate::mspbfs::Batch;
use crate::options::BfsOptions;
use crate::stats::TraversalStats;
use crate::visitor::MsVisitor;

/// Reusable sharded multi-source BFS state for batches of up to `W * 64`
/// sources, with one contribution array per adjacency partition.
///
/// ```
/// use pbfs_core::sharded::ShardedMsBfs;
/// use pbfs_core::prelude::*;
/// use pbfs_graph::{gen, PartitionedCsr};
/// use pbfs_sched::WorkerPool;
///
/// let g = gen::Kronecker::graph500(9).seed(3).generate();
/// let part = PartitionedCsr::partition(&g, 2, 4, 64);
/// let pool = WorkerPool::new(4);
/// let mut bfs: ShardedMsBfs<1> = ShardedMsBfs::new(g.num_vertices(), 2);
/// let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 2);
/// bfs.run(&part, &pool, &[0, 7], &BfsOptions::default(), &dists);
/// assert_eq!(dists.distance(0, 0), 0);
/// ```
pub struct ShardedMsBfs<const W: usize> {
    seen: StateArray<W>,
    frontier: StateArray<W>,
    /// One `next`-frontier contribution buffer per adjacency partition;
    /// scatter writes only its own partition's buffer, gather reads all.
    /// Partition 0's buffer is also the bottom-up `next`.
    contrib: Vec<StateArray<W>>,
}

impl<const W: usize> ShardedMsBfs<W> {
    /// Allocates state for a graph of `n` vertices split into `partitions`
    /// adjacency segments.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn new(n: usize, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        Self {
            seen: StateArray::new(n),
            frontier: StateArray::new(n),
            contrib: (0..partitions).map(|_| StateArray::new(n)).collect(),
        }
    }

    /// Number of per-partition contribution buffers.
    pub fn partitions(&self) -> usize {
        self.contrib.len()
    }

    /// Bytes of dynamic BFS state. Scales with the partition count — the
    /// price of contention-free scatter writes.
    pub fn state_bytes(&self) -> usize {
        self.seen.heap_bytes()
            + self.frontier.heap_bytes()
            + self
                .contrib
                .iter()
                .map(StateArray::heap_bytes)
                .sum::<usize>()
    }

    /// Runs one batch of concurrent BFSs from `sources` on `pool`.
    ///
    /// Generic over [`ShardedAdjacency`]; its implementation is the plain
    /// [`PartitionedCsr`](pbfs_graph::PartitionedCsr).
    ///
    /// # Panics
    /// Panics if `sources` is empty, exceeds `W * 64`, contains an
    /// out-of-range vertex, or the state was sized for a different graph or
    /// partition count.
    pub fn run<P: ShardedAdjacency + ?Sized>(
        &mut self,
        part: &P,
        pool: &WorkerPool,
        sources: &[VertexId],
        opts: &BfsOptions,
        visitor: &impl MsVisitor<W>,
    ) -> TraversalStats {
        let n = part.num_vertices();
        assert_eq!(self.seen.len(), n, "state sized for a different graph");
        assert_eq!(
            self.contrib.len(),
            part.num_nodes(),
            "state sized for a different partition count"
        );
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.len() <= W * 64, "batch exceeds bitset width");
        let (next, rest) = self.contrib.split_first().expect("at least one partition");
        let mut exchange = Exchange {
            ms: Batch::new(
                part,
                sources,
                opts,
                visitor,
                [&self.seen, &self.frontier, next],
            ),
            rest,
        };
        // Task ranges must match the partition split exactly: that is the
        // invariant making every scatter range single-partition. The engine
        // builds the partition with a chunk-aligned split; an unaligned one
        // merely makes range clears conservative, never incorrect.
        driver::run(&mut exchange, pool, opts, part.split_size())
    }
}

/// One sharded traversal: an MS-PBFS batch over the partitioned
/// adjacency whose `next` is partition 0's contribution buffer, plus the
/// buffers of the other partitions. Top-down phase 1 is the scatter,
/// phase 2 the gather; bottom-up, discovery accounting and recycling are
/// the batch's own.
struct Exchange<'a, P: ?Sized, V, const W: usize> {
    ms: Batch<'a, P, V, W>,
    /// The contribution buffers of partitions `1..`.
    rest: &'a [StateArray<W>],
}

impl<P: ShardedAdjacency + ?Sized, V: MsVisitor<W>, const W: usize> Kernel
    for Exchange<'_, P, V, W>
{
    const PHASE_SITE: &'static str = "core.sharded.phase";
    type Graph = P;

    fn graph(&self) -> &P {
        self.ms.g
    }

    fn init(&self, pool: &WorkerPool, split: usize) -> Tally {
        let ms = &self.ms;
        let (seen, frontier, next, rest) = (ms.seen, ms.frontier, ms.next, self.rest);
        // Parallel init: each worker first-touches the same deterministic
        // ranges it will later process (Section 4.4 placement).
        // SAFETY: init ranges are disjoint per worker and nothing reads
        // the arrays until the pool joins.
        pool.parallel_for(ms.g.num_vertices(), split, |_, r| unsafe {
            for a in [seen, frontier, next].into_iter().chain(rest) {
                a.clear_range_owned(r.start, r.end);
            }
        });
        crate::mspbfs::seed_sources(ms.g, ms.sources, seen, frontier, ms.visitor)
    }

    /// Scatter: expands each range's frontier through its owning
    /// partition's segment into that partition's contribution array.
    fn expand(&self, step: &Step, r: Range<usize>) -> Tally {
        let (part, frontier) = (self.ms.g, self.ms.frontier);
        let dst = match part.node_of(r.start as VertexId) {
            0 => self.ms.next,
            node => &self.rest[node - 1],
        };
        let mut t = Tally::default();
        t.scan = frontier.for_each_active_chunk(r.start, r.end, |cs, ce| {
            // SAFETY: the scatter phase only reads `frontier` (all writes
            // go to the contribution arrays), so the non-atomic mask scan
            // cannot race a writer.
            let mut mask = unsafe { frontier.nonempty_mask_at(step.lvl, cs, ce) };
            while mask != 0 {
                let v = cs + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (f, nbrs) = (frontier.get(v), part.neighbors_fast(v as VertexId));
                for &nbr in nbrs {
                    dst.fetch_or(nbr as usize, f);
                }
                t.visited += nbrs.len() as u64;
            }
        });
        t
    }

    /// Gather: conflict-free per-vertex merge of all partitions'
    /// contributions into partition 0's buffer, settled there against
    /// `seen` into the new frontier, which `rotate` then publishes. The
    /// other buffers are recycled. The scatter's phase barrier guarantees
    /// every contribution is complete before any gather reads.
    fn settle(&self, step: &Step, r: Range<usize>) -> Tally {
        let (frontier, acc, lvl) = (self.ms.frontier, self.ms.next, step.lvl);
        // The old frontier is dead after the scatter barrier; clear it
        // for reuse as `next`.
        // SAFETY (this and every unsafe call below): gather ranges
        // partition the vertex space bijectively, so this worker has
        // exclusive access to entries `r` of every array until the phase
        // barrier.
        let mut t = Tally {
            scan: frontier.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
                frontier.clear_range_owned(cs, ce)
            }),
            ..Tally::default()
        };
        let chunk0 = r.start / SUMMARY_CHUNK;
        let nchunks = (r.end - 1) / SUMMARY_CHUNK - chunk0 + 1;
        let mut active = vec![false; nchunks];
        for c in std::iter::once(acc).chain(self.rest) {
            let s = c.for_each_active_chunk(r.start, r.end, |cs, _| {
                active[cs / SUMMARY_CHUNK - chunk0] = true;
            });
            t.scan.merge(s);
        }
        // The other partitions' chunks are OR-merged into partition 0's
        // buffer with one vectorized span pass each, and a mask scan then
        // finds the non-empty entries — instead of `partitions × W` word
        // loads per vertex.
        for (i, act) in active.iter().enumerate() {
            if !act {
                continue;
            }
            let cs = ((chunk0 + i) * SUMMARY_CHUNK).max(r.start);
            let ce = ((chunk0 + i + 1) * SUMMARY_CHUNK).min(r.end);
            let mut mask = unsafe {
                for c in self.rest {
                    acc.or_from_at(lvl, c, cs, ce);
                }
                acc.nonempty_mask_at(lvl, cs, ce)
            };
            while mask != 0 {
                let v = cs + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.ms.settle_vertex(&mut t, step, v);
            }
            for c in self.rest {
                unsafe { c.clear_range_owned(cs, ce) };
            }
        }
        t
    }

    /// Pull: each range writes only its own vertices' entries, reading the
    /// frontier bits of their neighbors in any partition. In a distributed
    /// port that read is the frontier all-gather.
    fn bottom_up(&self, step: &Step, r: Range<usize>) -> Tally {
        self.ms.bottom_up(step, r)
    }

    fn rotate(&mut self) {
        self.ms.rotate();
    }

    fn clear_next(&self, r: Range<usize>) -> ScanStats {
        self.ms.clear_next(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visitor::MsDistanceVisitor;
    use pbfs_graph::gen;
    use pbfs_graph::PartitionedCsr;

    fn run_sharded<const W: usize>(
        g: &pbfs_graph::CsrGraph,
        partitions: usize,
        workers: usize,
        split: usize,
        sources: &[VertexId],
    ) -> Vec<Vec<u32>> {
        let part = PartitionedCsr::partition(g, partitions, workers, split);
        let pool = WorkerPool::new(workers);
        let mut bfs: ShardedMsBfs<W> = ShardedMsBfs::new(g.num_vertices(), partitions);
        let visitor: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        let stats = bfs.run(&part, &pool, sources, &BfsOptions::default(), &visitor);
        assert!(stats.total_discovered >= sources.len() as u64);
        (0..sources.len())
            .map(|i| visitor.distances_of(i))
            .collect()
    }

    #[test]
    fn matches_textbook_for_every_partition_count() {
        let g = gen::Kronecker::graph500(8).seed(11).generate();
        let sources: Vec<VertexId> = (0..64).map(|i| (i * 3) % g.num_vertices() as u32).collect();
        let oracle: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| crate::textbook::bfs(&g, s).distances)
            .collect();
        for parts in [1usize, 2, 3, 4] {
            let got = run_sharded::<1>(&g, parts, 4, 64, &sources);
            assert_eq!(got, oracle, "{parts} partitions");
        }
    }

    #[test]
    fn wide_batch_and_unaligned_split() {
        let g = gen::social_network(700, 9, 5);
        let sources: Vec<VertexId> = (0..200).map(|i| (i * 7) % 700).collect();
        let oracle: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| crate::textbook::bfs(&g, s).distances)
            .collect();
        // Split 96 is not a multiple of the 64-entry summary chunk: range
        // clears go conservative, results must not change.
        let got = run_sharded::<4>(&g, 3, 5, 96, &sources);
        assert_eq!(got, oracle);
    }

    #[test]
    fn deep_path_graph_terminates_exactly() {
        let g = gen::path(512);
        let got = run_sharded::<1>(&g, 2, 2, 64, &[0]);
        let want: Vec<u32> = (0..512).collect();
        assert_eq!(got[0], want);
    }

    #[test]
    fn reuse_across_runs_is_clean() {
        let g = gen::Kronecker::graph500(7).seed(2).generate();
        let part = PartitionedCsr::partition(&g, 2, 2, 64);
        let pool = WorkerPool::new(2);
        let mut bfs: ShardedMsBfs<1> = ShardedMsBfs::new(g.num_vertices(), 2);
        assert_eq!(bfs.partitions(), 2);
        assert!(bfs.state_bytes() > 0);
        for s in [0u32, 5, 9] {
            let visitor: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 1);
            bfs.run(&part, &pool, &[s], &BfsOptions::default(), &visitor);
            assert_eq!(
                visitor.distances_of(0),
                crate::textbook::bfs(&g, s).distances,
                "source {s}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different partition count")]
    fn partition_count_mismatch_panics() {
        let g = gen::path(8);
        let part = PartitionedCsr::partition(&g, 2, 2, 4);
        let pool = WorkerPool::new(1);
        let mut bfs: ShardedMsBfs<1> = ShardedMsBfs::new(8, 3);
        let visitor: MsDistanceVisitor<1> = MsDistanceVisitor::new(8, 1);
        bfs.run(&part, &pool, &[0], &BfsOptions::default(), &visitor);
    }
}
