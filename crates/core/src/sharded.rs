//! Sharded scatter/gather MS-BFS over [`PartitionedCsr`](pbfs_graph::PartitionedCsr).
//!
//! The shared-memory half of ROADMAP item 1: the batch traversal is
//! restructured as an explicit **scatter/gather** exchange over the
//! per-socket adjacency partitions of
//! [`PartitionedCsr`](pbfs_graph::PartitionedCsr), the stepping
//! stone to the 2D-decomposition distributed BFS of Buluç–Madduri.
//!
//! Each iteration runs two barrier-separated phases on the worker pool:
//!
//! * **Scatter** — task ranges are placed exactly at the partition's
//!   `split_size` boundaries, so every range's adjacency data lives in one
//!   partition segment. Expanding the frontier of a range merges neighbor
//!   bits into that partition's *own* contribution array with an atomic OR
//!   (writes stay partition-local; only the gather reads across
//!   partitions).
//! * **Gather** — after the `parallel_for` barrier, a conflict-free pass
//!   ORs the per-partition contributions per vertex, settles them against
//!   `seen`, publishes the new frontier, and recycles the contribution
//!   buffers for the next iteration.
//!
//! # Determinism across shard counts
//!
//! Results are bit-identical for every partition count: contributions are
//! merged with OR — commutative and monotone, so the union the gather
//! observes is independent of scatter scheduling — and each `(source,
//! vertex)` pair has exactly one BFS depth, so the visitor sees every
//! discovery exactly once at that depth no matter how the work was sharded.
//! The oracle-differential suite in `tests/sharded_oracle.rs` checks this
//! against the single-shard engine.
//!
//! Direction optimization (bottom-up) and sparse-queue scans are
//! deliberately absent here: the scatter/gather exchange is the structure
//! the distributed port needs, and the adaptive machinery of
//! [`MsPbfs`](crate::mspbfs::MsPbfs) can be grafted onto it later without
//! changing results.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::storage::ShardedAdjacency;
use pbfs_bitset::{Bits, ScanStats, StateArray, SUMMARY_CHUNK};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;
use pbfs_telemetry::EventKind;

use crate::options::BfsOptions;
use crate::policy::Direction;
use crate::stats::{IterationStats, TraversalStats};
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
    /// Generic over [`ShardedAdjacency`], so the same state traverses a
    /// plain [`PartitionedCsr`](pbfs_graph::PartitionedCsr) or a mutation-overlaid
    /// [`crate::storage::ShardedSnapshot`]; the plain-partition
    /// monomorphization is the unchanged hot path.
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
        let start = std::time::Instant::now();
        // Task ranges must match the partition split exactly: that is the
        // invariant making every scatter range single-partition. The engine
        // builds the partition with a chunk-aligned split; an unaligned one
        // merely makes range clears conservative, never incorrect.
        let split = part.split_size();
        let pd = opts.prefetch_distance;
        let qset = opts.query_set;
        let rec = pbfs_telemetry::recorder();

        // Parallel init: each worker first-touches the same deterministic
        // ranges it will later process (Section 4.4 placement).
        {
            let (seen, frontier, contrib) = (&self.seen, &self.frontier, &self.contrib);
            // SAFETY: init ranges are disjoint per worker and nothing reads
            // the arrays until the pool joins.
            pool.parallel_for(n, split, |_, r| unsafe {
                seen.clear_range_owned(r.start, r.end);
                frontier.clear_range_owned(r.start, r.end);
                for c in contrib {
                    c.clear_range_owned(r.start, r.end);
                }
            });
        }

        let mut frontier_vertices = 0u64;
        for (i, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source out of range");
            let bit = Bits::single(i);
            if self.seen.get(s as usize).is_empty() {
                frontier_vertices += 1;
            }
            self.seen.or_assign_unsync(s as usize, bit);
            self.frontier.or_assign_unsync(s as usize, bit);
            visitor.on_found(s, 0, bit);
        }

        let mut stats = TraversalStats {
            total_discovered: sources.len() as u64,
            ..Default::default()
        };
        let mut depth = 0u32;
        let sum_skipped = AtomicU64::new(0);
        let sum_scanned = AtomicU64::new(0);
        let (mut prev_skipped, mut prev_scanned) = (0u64, 0u64);
        let note_scan = |s: ScanStats| {
            sum_skipped.fetch_add(s.chunks_skipped, Ordering::Relaxed);
            sum_scanned.fetch_add(s.chunks_scanned, Ordering::Relaxed);
        };

        while frontier_vertices > 0 {
            // Iteration barrier boundary: arrays are consistent here, so an
            // injected panic exercises the engine's per-shard repair path.
            crate::fail_point!("core.sharded.phase");
            if let Some(max) = opts.max_iterations {
                if depth >= max {
                    break;
                }
            }
            depth += 1;
            crate::obs::note_iteration(depth, Direction::TopDown, false);
            let iter_start = std::time::Instant::now();
            // Dispatch level hoisted out of the per-vertex loops (the
            // `#[target_feature]` kernels cannot inline through it).
            let lvl = pbfs_bitset::simd::current();

            let discovered = AtomicU64::new(0);
            let new_fv = AtomicU64::new(0);
            let (seen, frontier, contrib) = (&self.seen, &self.frontier, &self.contrib);

            // Scatter: expand each range's frontier through its owning
            // partition's segment into that partition's contribution array.
            let scatter = |_worker: usize, r: std::ops::Range<usize>| {
                let dst = &contrib[part.node_of(r.start as VertexId)];
                note_scan(frontier.for_each_active_chunk(r.start, r.end, |cs, ce| {
                    // SAFETY: the scatter phase only reads `frontier` (all
                    // writes go to the contribution arrays), so the
                    // non-atomic mask scan cannot race a writer.
                    let mut mask = unsafe { frontier.nonempty_mask_at(lvl, cs, ce) };
                    while mask != 0 {
                        let v = cs + mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let f = frontier.get(v);
                        let nbrs = part.neighbors_fast(v as VertexId);
                        if pd > 0 {
                            for &nbr in &nbrs[..pd.min(nbrs.len())] {
                                dst.prefetch_entry(nbr as usize);
                            }
                        }
                        for (j, &nbr) in nbrs.iter().enumerate() {
                            if pd > 0 && j + pd < nbrs.len() {
                                dst.prefetch_entry(nbrs[j + pd] as usize);
                            }
                            dst.fetch_or(nbr as usize, f);
                        }
                    }
                }));
            };
            let t1 = std::time::Instant::now();
            pool.parallel_for(n, split, scatter);
            // The parallel_for return is the iteration barrier: every
            // partition's contribution is complete before any gather reads.
            let d1 = t1.elapsed();
            rec.span_at_ctx(
                0,
                EventKind::TopDownPhase1,
                t1,
                d1,
                frontier_vertices,
                0,
                qset,
            );

            // Gather: conflict-free per-vertex merge of all partitions'
            // contributions, settling against `seen` and recycling the
            // contribution buffers.
            let gather = |_worker: usize, r: std::ops::Range<usize>| {
                // The old frontier is dead after the scatter barrier;
                // clear it before the new one is published below.
                // SAFETY (this and every unsafe call below): gather
                // ranges partition the vertex space bijectively, so this
                // worker has exclusive access to entries `r` of every
                // array until the phase barrier.
                note_scan(
                    frontier.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
                        frontier.clear_range_owned(cs, ce)
                    }),
                );
                let chunk0 = r.start / SUMMARY_CHUNK;
                let nchunks = (r.end - 1) / SUMMARY_CHUNK - chunk0 + 1;
                let mut active = vec![false; nchunks];
                for c in contrib {
                    note_scan(c.for_each_active_chunk(r.start, r.end, |cs, _| {
                        active[cs / SUMMARY_CHUNK - chunk0] = true;
                    }));
                }
                // The first contribution array doubles as the union
                // accumulator: the remaining partitions' chunks are
                // OR-merged into it with one vectorized span pass each,
                // and a mask scan then finds the non-empty entries —
                // instead of `partitions × W` word loads per vertex.
                let (acc, rest) = contrib.split_first().expect("at least one partition");
                let (mut disc, mut fv) = (0u64, 0u64);
                for (i, act) in active.iter().enumerate() {
                    if !act {
                        continue;
                    }
                    let cs = ((chunk0 + i) * SUMMARY_CHUNK).max(r.start);
                    let ce = ((chunk0 + i + 1) * SUMMARY_CHUNK).min(r.end);
                    let mask = unsafe {
                        for c in rest {
                            acc.or_from_at(lvl, c, cs, ce);
                        }
                        acc.nonempty_mask_at(lvl, cs, ce)
                    };
                    let mut mask = mask;
                    while mask != 0 {
                        let v = cs + mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let nx = acc.get(v);
                        // Fused settle: and_not + emptiness + merge in
                        // one pass; popcount only on discovery.
                        let seen_v = seen.get(v);
                        let (new, merged, flags) = nx.settle_at(lvl, &seen_v);
                        if flags.new_any {
                            seen.set(v, merged);
                            visitor.on_found(v as VertexId, depth, new);
                            frontier.set(v, new);
                            disc += new.count_ones() as u64;
                            fv += 1;
                        }
                    }
                    unsafe {
                        acc.clear_range_owned(cs, ce);
                        for c in rest {
                            c.clear_range_owned(cs, ce);
                        }
                    }
                }
                discovered.fetch_add(disc, Ordering::Relaxed);
                new_fv.fetch_add(fv, Ordering::Relaxed);
            };
            let t2 = std::time::Instant::now();
            pool.parallel_for(n, split, gather);
            let d2 = t2.elapsed();
            rec.span_at_ctx(
                0,
                EventKind::TopDownPhase2,
                t2,
                d2,
                frontier_vertices,
                0,
                qset,
            );

            frontier_vertices = new_fv.load(Ordering::Relaxed);
            let discovered = discovered.load(Ordering::Relaxed);
            stats.total_discovered += discovered;
            let iter_wall = iter_start.elapsed();
            rec.span_at_ctx(
                0,
                EventKind::Iteration,
                iter_start,
                iter_wall,
                depth as u64,
                discovered,
                qset,
            );
            let total_skipped = sum_skipped.load(Ordering::Relaxed);
            let total_scanned = sum_scanned.load(Ordering::Relaxed);
            stats.iterations.push(IterationStats {
                iteration: depth,
                direction: Direction::TopDown,
                wall_ns: iter_wall.as_nanos() as u64,
                expand_ns: d1.as_nanos() as u64,
                settle_ns: d2.as_nanos() as u64,
                frontier_vertices,
                discovered,
                chunks_scanned: total_scanned - prev_scanned,
                chunks_skipped: total_skipped - prev_skipped,
                per_worker: Vec::new(),
            });
            prev_scanned = total_scanned;
            prev_skipped = total_skipped;
        }

        stats.summary_chunks_skipped = sum_skipped.load(Ordering::Relaxed);
        stats.summary_chunks_scanned = sum_scanned.load(Ordering::Relaxed);
        crate::obs::note_summary_scan(stats.summary_chunks_skipped, stats.summary_chunks_scanned);
        crate::obs::note_traversal(stats.total_discovered);
        stats.total_wall_ns = start.elapsed().as_nanos() as u64;
        stats
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
