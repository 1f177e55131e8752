//! MS-PBFS: the parallel multi-source BFS (Section 3.1 of the paper).
//!
//! MS-PBFS parallelizes both MS-BFS phases by partitioning the vertex
//! range into task ranges processed by the work-stealing pool:
//!
//! * **Top-down, phase 1** (Listing 1 lines 1–4): reads `frontier` and the
//!   adjacency lists, merges into `next` with an atomic OR — the only
//!   synchronized update in the whole algorithm (Section 3.1.1).
//! * **Top-down, phase 2** (lines 6–11): a bijective vertex→worker mapping
//!   makes all updates conflict-free; the frontier entry is cleared here so
//!   the buffer can be reused as `next` without a separate memset.
//! * **Bottom-up** (Listing 2): same bijective argument, zero
//!   synchronization, with the early-exit once no more bits can be gained.
//!
//! The level loop around these phases (direction choice, phase timing,
//! statistics) is the traversal driver shared with SMS-PBFS and
//! the sharded kernel; this module supplies the state and the phase bodies.

use std::ops::Range;

use crate::storage::Adjacency;
use pbfs_bitset::{Bits, ScanStats, StateArray, SUMMARY_CHUNK};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::driver::{self, Kernel, Step, Tally};
use crate::options::{AtomicKind, BfsOptions};
use crate::stats::TraversalStats;
use crate::visitor::MsVisitor;

/// Reusable parallel multi-source BFS state for batches of up to `W * 64`
/// sources.
///
/// ```
/// use pbfs_core::mspbfs::MsPbfs;
/// use pbfs_core::prelude::*;
/// use pbfs_graph::gen;
/// use pbfs_sched::WorkerPool;
///
/// let g = gen::Kronecker::graph500(9).seed(3).generate();
/// let pool = WorkerPool::new(4);
/// let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
/// let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 2);
/// bfs.run(&g, &pool, &[0, 7], &BfsOptions::default(), &dists);
/// assert_eq!(dists.distance(0, 0), 0);
/// ```
pub struct MsPbfs<const W: usize> {
    seen: StateArray<W>,
    frontier: StateArray<W>,
    next: StateArray<W>,
}

impl<const W: usize> MsPbfs<W> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            seen: StateArray::new(n),
            frontier: StateArray::new(n),
            next: StateArray::new(n),
        }
    }

    /// Bytes of dynamic BFS state. Unlike per-core MS-BFS instances this is
    /// independent of the worker count — the Figure 3 argument.
    pub fn state_bytes(&self) -> usize {
        self.seen.heap_bytes() + self.frontier.heap_bytes() + self.next.heap_bytes()
    }

    /// Runs one batch of concurrent BFSs from `sources` on `pool`.
    ///
    /// Generic over [`Adjacency`], so the same state traverses a plain
    /// [`pbfs_graph::CsrGraph`] or a [`crate::storage::GraphSnapshot`]
    /// overlay; the CSR monomorphization is the unchanged hot path.
    ///
    /// # Panics
    /// Panics if `sources` is empty, exceeds `W * 64`, contains an
    /// out-of-range vertex, or the state was sized for a different graph.
    pub fn run<G: Adjacency + ?Sized>(
        &mut self,
        g: &G,
        pool: &WorkerPool,
        sources: &[VertexId],
        opts: &BfsOptions,
        visitor: &impl MsVisitor<W>,
    ) -> TraversalStats {
        let n = g.num_vertices();
        assert_eq!(self.seen.len(), n, "state sized for a different graph");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.len() <= W * 64, "batch exceeds bitset width");
        let mut batch = Batch::new(
            g,
            sources,
            opts,
            visitor,
            [&self.seen, &self.frontier, &self.next],
        );
        driver::run(&mut batch, pool, opts, driver::aligned_split(opts, 1))
    }
}

/// One MS-PBFS traversal: the state arrays plus what the phase bodies
/// read. The sharded kernel wraps one and runs its bottom-up phase,
/// discovery accounting and recycling unchanged.
pub(crate) struct Batch<'a, G: ?Sized, V, const W: usize> {
    pub(crate) g: &'a G,
    pub(crate) sources: &'a [VertexId],
    pub(crate) opts: &'a BfsOptions,
    pub(crate) visitor: &'a V,
    /// The state of a vertex every BFS of the batch has seen.
    full: Bits<W>,
    pub(crate) seen: &'a StateArray<W>,
    pub(crate) frontier: &'a StateArray<W>,
    pub(crate) next: &'a StateArray<W>,
}

/// Seeds bit `i` of `seen` and `frontier` at `sources[i]` and reports each
/// source at distance 0. Shared with the sharded kernel.
pub(crate) fn seed_sources<G: Adjacency + ?Sized, const W: usize>(
    g: &G,
    sources: &[VertexId],
    seen: &StateArray<W>,
    frontier: &StateArray<W>,
    visitor: &impl MsVisitor<W>,
) -> Tally {
    let mut t = Tally {
        discovered: sources.len() as u64,
        ..Tally::default()
    };
    for (i, &v) in sources.iter().enumerate() {
        assert!((v as usize) < g.num_vertices(), "source out of range");
        let bit = Bits::single(i);
        if seen.get(v as usize).is_empty() {
            t.frontier_vertices += 1;
            t.frontier_degree += g.degree(v) as u64;
        }
        seen.or_assign_unsync(v as usize, bit);
        frontier.or_assign_unsync(v as usize, bit);
        visitor.on_found(v, 0, bit);
    }
    // Bit `i` is set only at `sources[i]`, so a fully seen source means
    // every source is that one vertex: its degree counts once.
    let v = sources[0];
    if seen.get(v as usize) == Bits::first_n(sources.len()) {
        t.fully_seen_degree = g.degree(v) as u64;
    }
    t
}

impl<'a, G: Adjacency + ?Sized, V: MsVisitor<W>, const W: usize> Batch<'a, G, V, W> {
    /// A traversal of `sources` over the `[seen, frontier, next]` arrays.
    pub(crate) fn new(
        g: &'a G,
        sources: &'a [VertexId],
        opts: &'a BfsOptions,
        visitor: &'a V,
        [seen, frontier, next]: [&'a StateArray<W>; 3],
    ) -> Self {
        Self {
            g,
            sources,
            opts,
            visitor,
            full: Bits::first_n(sources.len()),
            seen,
            frontier,
            next,
        }
    }

    /// Expands one frontier vertex into `next`; returns the adjacency
    /// entries scanned.
    #[inline]
    fn expand_vertex(&self, v: usize, f: Bits<W>) -> u64 {
        let next = self.next;
        let nbrs = self.g.neighbors_fast(v as VertexId);
        let warm = |i| next.prefetch_entry(i);
        match self.opts.atomic {
            AtomicKind::FetchOr => prefetched(nbrs, warm, |nbr| {
                next.fetch_or(nbr as usize, f);
                true
            }),
            AtomicKind::CasLoop => prefetched(nbrs, warm, |nbr| {
                next.fetch_or_cas(nbr as usize, f);
                true
            }),
        }
        nbrs.len() as u64
    }

    /// Settles `next` at `v` against `seen`: trims it to the states new at
    /// this depth, which stay in `next` as `v`'s frontier entry, and
    /// records their discovery.
    #[inline]
    pub(crate) fn settle_vertex(&self, t: &mut Tally, step: &Step, v: usize) {
        let nx = self.next.get(v);
        if nx.is_empty() {
            return;
        }
        // Fused kernel: one pass computes `new`, the merged seen set
        // and the emptiness/trim flags, replacing the separate and_not
        // / compare / is_empty walks. The popcount runs only for
        // entries that actually discovered something.
        let (new, merged, flags) = nx.settle_at(step.lvl, &self.seen.get(v));
        if flags.trimmed {
            self.next.set(v, new);
        }
        if flags.new_any {
            self.found(t, v, step.depth, new, merged);
        }
    }

    /// Records the discovery of `new` at `v`, whose seen set is now
    /// `merged`.
    #[inline]
    fn found(&self, t: &mut Tally, v: usize, depth: u32, new: Bits<W>, merged: Bits<W>) {
        self.seen.set(v, merged);
        self.visitor.on_found(v as VertexId, depth, new);
        let deg = self.g.degree(v as VertexId) as u64;
        t.discovered += new.count_ones() as u64;
        t.frontier_vertices += 1;
        t.frontier_degree += deg;
        if merged == self.full {
            t.fully_seen_degree += deg;
        }
    }
}

impl<G: Adjacency + ?Sized, V: MsVisitor<W>, const W: usize> Kernel for Batch<'_, G, V, W> {
    const PHASE_SITE: &'static str = "core.mspbfs.phase";
    type Graph = G;

    fn graph(&self) -> &G {
        self.g
    }

    fn init(&self, pool: &WorkerPool, split: usize) -> Tally {
        let (seen, frontier, next) = (self.seen, self.frontier, self.next);
        // Parallel init: each worker first-touches (and later processes)
        // the same deterministic ranges — the NUMA placement rule of
        // Section 4.4.
        // SAFETY: the init ranges are disjoint per worker and nothing
        // reads the arrays until the pool joins, so the bulk memset clear
        // is exclusive.
        pool.parallel_for(self.g.num_vertices(), split, |_, r| unsafe {
            seen.clear_range_owned(r.start, r.end);
            frontier.clear_range_owned(r.start, r.end);
            next.clear_range_owned(r.start, r.end);
        });
        seed_sources(self.g, self.sources, seen, frontier, self.visitor)
    }

    /// Phase 1: frontier → next, synchronized by atomic OR.
    fn expand(&self, step: &Step, r: Range<usize>) -> Tally {
        let (g, frontier) = (self.g, self.frontier);
        let mut t = Tally::default();
        t.scan = frontier.for_each_active_chunk(r.start, r.end, |cs, ce| {
            // Gather the chunk's active vertices so the CSR pointer chase
            // can be pipelined. One vectorized mask pass finds them
            // instead of W word loads per entry.
            // SAFETY: phase 1 only reads `frontier` (all writes go to
            // `next`), so no writer races the non-atomic scan.
            let mut mask = unsafe { frontier.nonempty_mask_at(step.lvl, cs, ce) };
            let mut vbuf = [0u32; SUMMARY_CHUNK];
            let mut fbuf = [Bits::<W>::EMPTY; SUMMARY_CHUNK];
            let mut cnt = 0usize;
            while mask != 0 {
                let v = cs + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                vbuf[cnt] = v as u32;
                fbuf[cnt] = frontier.get(v);
                cnt += 1;
            }
            pipelined(g, &vbuf[..cnt], |i| {
                t.visited += self.expand_vertex(vbuf[i] as usize, fbuf[i])
            });
        });
        t
    }

    /// Phase 2: conflict-free discovery + frontier clearing.
    fn settle(&self, step: &Step, r: Range<usize>) -> Tally {
        let (frontier, next, lvl) = (self.frontier, self.next, step.lvl);
        // Nothing reads `frontier` this phase: clear only its active
        // chunks (ranges are chunk-aligned, so summary bits clear
        // exactly). One mask pass per active chunk of `next` then finds
        // the non-empty entries.
        // SAFETY: phase-2 ranges are bijectively owned, so this worker has
        // these chunks of `frontier` and `next` to itself until the
        // barrier.
        let mut t = Tally {
            scan: frontier.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
                frontier.clear_range_owned(cs, ce)
            }),
            ..Tally::default()
        };
        let s = next.for_each_active_chunk(r.start, r.end, |cs, ce| {
            let mut mask = unsafe { next.nonempty_mask_at(lvl, cs, ce) };
            while mask != 0 {
                let v = cs + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.settle_vertex(&mut t, step, v);
            }
        });
        t.scan.merge(s);
        t
    }

    fn bottom_up(&self, step: &Step, r: Range<usize>) -> Tally {
        let (frontier, full, early_exit) = (self.frontier, self.full, self.opts.early_exit);
        let warm = |i| frontier.prefetch_entry(i);
        let mut t = Tally::default();
        for u in r {
            let seen_u = self.seen.get(u);
            if seen_u == full {
                continue;
            }
            let nbrs = self.g.neighbors_fast(u as VertexId);
            let mut acc = Bits::EMPTY;
            prefetched(nbrs, warm, |v| {
                t.visited += 1;
                acc |= frontier.get(v as usize);
                !(early_exit && (acc | seen_u) == full)
            });
            // Same fused kernel as the top-down settle: and_not +
            // emptiness + merge in one pass.
            let (new, merged, flags) = acc.settle_at(step.lvl, &seen_u);
            if flags.new_any {
                self.next.set(u, new);
                self.found(&mut t, u, step.depth, new, merged);
            }
        }
        t
    }

    fn rotate(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    fn clear_next(&self, r: Range<usize>) -> ScanStats {
        let next = self.next;
        // SAFETY: the driver's clear ranges are disjoint and nothing else
        // touches `next` then, so each worker owns its chunks outright.
        next.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
            next.clear_range_owned(cs, ce)
        })
    }
}

/// Software-prefetch lookahead of the MS-PBFS hot loops. An entry is
/// `8·W` bytes, a whole cache line per neighbor at `W = 8`, so each
/// neighbor touches its own line and warming it ahead hides the miss.
/// The single-source kernels pack 64 or 512 vertices per line and do not
/// prefetch.
const PREFETCH_DISTANCE: usize = 4;

/// Calls `f(i)` for each index of `vs` with the adjacency of vertex
/// `vs[i + PREFETCH_DISTANCE]` prefetched, so the pointer chase over a
/// batch of frontier vertices pipelines. The CSR offsets of all of `vs`
/// are prefetched up front.
#[inline]
fn pipelined<G: Adjacency + ?Sized>(g: &G, vs: &[VertexId], mut f: impl FnMut(usize)) {
    for &v in vs {
        g.prefetch_offsets(v);
    }
    for i in 0..vs.len() {
        if i + PREFETCH_DISTANCE < vs.len() {
            g.prefetch_neighbors(vs[i + PREFETCH_DISTANCE]);
        }
        f(i);
    }
}

/// Calls `f` on each of `nbrs` with the state entry `PREFETCH_DISTANCE`
/// neighbors ahead prefetched through `warm`; stops once `f` returns
/// false.
#[inline]
fn prefetched(nbrs: &[VertexId], warm: impl Fn(usize), mut f: impl FnMut(VertexId) -> bool) {
    for &v in &nbrs[..PREFETCH_DISTANCE.min(nbrs.len())] {
        warm(v as usize);
    }
    for (j, &v) in nbrs.iter().enumerate() {
        if j + PREFETCH_DISTANCE < nbrs.len() {
            warm(nbrs[j + PREFETCH_DISTANCE] as usize);
        }
        if !f(v) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::textbook;
    use crate::visitor::MsDistanceVisitor;
    use pbfs_graph::gen;
    use pbfs_graph::CsrGraph;

    fn check_batch<const W: usize>(
        g: &CsrGraph,
        sources: &[VertexId],
        workers: usize,
        opts: &BfsOptions,
    ) {
        let pool = WorkerPool::new(workers);
        let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
        let dists: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        bfs.run(g, &pool, sources, opts, &dists);
        for (i, &s) in sources.iter().enumerate() {
            let oracle = textbook::distances(g, s);
            assert_eq!(
                dists.distances_of(i),
                oracle,
                "source {s} (batch index {i})"
            );
        }
    }

    #[test]
    fn matches_oracle_single_worker() {
        let g = gen::Kronecker::graph500(9).seed(1).generate();
        check_batch::<1>(&g, &[0, 5, 9], 1, &BfsOptions::default());
    }

    #[test]
    fn matches_oracle_multi_worker() {
        let g = gen::Kronecker::graph500(10).seed(2).generate();
        let sources: Vec<u32> = (0..64).map(|i| i * 7 % 1024).collect();
        check_batch::<1>(&g, &sources, 4, &BfsOptions::default());
    }

    #[test]
    fn wide_batches() {
        let g = gen::uniform(400, 1600, 3);
        let sources: Vec<u32> = (0..128).map(|i| i % 400).collect();
        check_batch::<2>(&g, &sources, 3, &BfsOptions::default());
    }

    #[test]
    fn cas_ablation_matches() {
        let g = gen::uniform(300, 1000, 4);
        let opts = BfsOptions {
            atomic: AtomicKind::CasLoop,
            ..Default::default()
        };
        check_batch::<1>(&g, &(0..32).collect::<Vec<_>>(), 4, &opts);
    }

    #[test]
    fn forced_directions_match() {
        let g = gen::Kronecker::graph500(8).seed(6).generate();
        for policy in [
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ] {
            check_batch::<1>(
                &g,
                &(0..16).collect::<Vec<_>>(),
                3,
                &BfsOptions::default().with_policy(policy),
            );
        }
    }

    #[test]
    fn summary_mode_reports_skips_on_sparse_frontiers() {
        // A long path keeps the frontier at one vertex per iteration: the
        // summary must skip almost every chunk.
        let g = gen::path(10_000);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            &[0],
            &BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(stats.summary_chunks_skipped > 0, "no skips recorded");
        assert!(
            stats.summary_skip_ratio() > 0.9,
            "ratio {}",
            stats.summary_skip_ratio()
        );
    }

    #[test]
    fn small_split_sizes_stay_correct() {
        let g = gen::uniform(200, 800, 5);
        check_batch::<1>(&g, &[0, 1], 4, &BfsOptions::default().with_split_size(7));
    }

    #[test]
    fn disconnected_components() {
        let g = gen::disjoint_union(&[&gen::star(10), &gen::cycle(6)]);
        check_batch::<1>(&g, &[0, 12], 2, &BfsOptions::default());
    }

    #[test]
    fn instrumented_run_reports_work() {
        let g = gen::Kronecker::graph500(9).seed(7).generate();
        let pool = WorkerPool::new(3);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            &[0, 1],
            &BfsOptions::default().instrumented(),
            &crate::visitor::NoopMsVisitor,
        );
        assert!(stats.num_iterations() > 0);
        for it in &stats.iterations {
            assert_eq!(it.per_worker.len(), 3);
            let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
            assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
        }
        let visited: u64 = stats
            .iterations
            .iter()
            .flat_map(|i| &i.per_worker)
            .map(|w| w.visited_neighbors)
            .sum();
        assert!(visited > 0);
    }

    #[test]
    fn agrees_with_sequential_msbfs_stats() {
        // Same discoveries per iteration as the sequential algorithm under
        // a fixed direction schedule.
        let g = gen::uniform(300, 1500, 8);
        let sources: Vec<u32> = (0..48).collect();
        let opts = BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown);
        let pool = WorkerPool::new(4);
        let mut par: MsPbfs<1> = MsPbfs::new(300);
        let mut seq: crate::msbfs::MsBfs<1> = crate::msbfs::MsBfs::new(300);
        let ps = par.run(&g, &pool, &sources, &opts, &crate::visitor::NoopMsVisitor);
        let ss = seq.run(&g, &sources, &opts, &crate::visitor::NoopMsVisitor);
        assert_eq!(ps.num_iterations(), ss.num_iterations());
        for (a, b) in ps.iterations.iter().zip(&ss.iterations) {
            assert_eq!(a.discovered, b.discovered);
            assert_eq!(a.frontier_vertices, b.frontier_vertices);
        }
        assert_eq!(ps.total_discovered, ss.total_discovered);
    }

    #[test]
    fn state_bytes_independent_of_workers() {
        let bfs: MsPbfs<1> = MsPbfs::new(1 << 12);
        // Entry words plus the one-word frontier summary per array (a
        // 0.2 ‰ overhead at W = 1).
        assert_eq!(bfs.state_bytes(), 3 * ((1 << 12) * 8 + 8));
    }

    #[test]
    fn reusable_across_batches() {
        let g = gen::cycle(20);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(20);
        for s in [0u32, 7, 13] {
            let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(20, 1);
            bfs.run(&g, &pool, &[s], &BfsOptions::default(), &dists);
            assert_eq!(dists.distances_of(0), textbook::distances(&g, s));
        }
    }
}
