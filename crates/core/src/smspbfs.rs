//! SMS-PBFS: the parallel single-source BFS (Section 3.2 of the paper).
//!
//! SMS-PBFS specializes MS-PBFS to one source: per-vertex state collapses
//! from a bitset to a boolean, the CAS loop of the first top-down phase
//! collapses to a single atomic write, and 64-bit chunk skipping fast-
//! forwards over inactive vertex ranges.
//!
//! Two state representations are provided, exactly as evaluated in the
//! paper:
//!
//! * [`SmsPbfsBit`] — one bit per vertex: most cache-efficient, but the
//!   state of 512 vertices shares a cache line, so concurrent top-down
//!   updates contend (and need an atomic RMW).
//! * [`SmsPbfsByte`] — one byte per vertex: 8× the memory, but the
//!   top-down update is a plain atomic store and 8× fewer vertices share a
//!   cache line.
//!
//! Both run the level loop of MS-PBFS, the traversal driver shared with
//! it; this module supplies the boolean state and the phase bodies.

use std::ops::Range;

use crate::storage::Adjacency;
use pbfs_bitset::{AtomicBitVec, AtomicByteVec, ScanStats};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::driver::{self, Kernel, Step, Tally};
use crate::options::BfsOptions;
use crate::stats::TraversalStats;
use crate::visitor::SsVisitor;

/// Boolean per-vertex state shared by the SMS-PBFS variants.
///
/// `*_owned` accessors assume the caller exclusively owns the vertex's
/// storage unit (a 64-bit word for the bit representation, a byte for the
/// byte representation); the algorithms guarantee this by aligning task
/// ranges to [`SsState::OWNERSHIP_ALIGN`].
pub trait SsState: Sync {
    /// Conflict-free ownership granularity in vertices.
    const OWNERSHIP_ALIGN: usize;

    /// Allocates `n` clear entries.
    fn with_len(n: usize) -> Self;
    /// Number of entries.
    fn len(&self) -> usize;
    /// True iff the state covers zero vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reads entry `i`.
    fn get(&self, i: usize) -> bool;
    /// Atomically sets entry `i` from any thread; returns whether this call
    /// flipped it (exactly one concurrent setter sees `true`).
    fn set_shared(&self, i: usize) -> bool;
    /// Sets entry `i`; caller must own its storage unit.
    fn set_owned(&self, i: usize);
    /// Clears entry `i`; caller must own its storage unit.
    fn clear_owned(&self, i: usize);
    /// Clears `start..end`; the range must be ownership-aligned or owned.
    fn clear_range(&self, start: usize, end: usize);
    /// Calls `f` for every set entry in `start..end`.
    fn for_each_set(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize));
    /// Settles `self` (the `next` frontier) against `seen` over
    /// `start..end`: entries already in `seen` are cleared from `self`;
    /// the rest are marked in `seen` and reported through `found`. The
    /// caller must own the range in both states. The default walks entries
    /// one by one; representations with denser storage override it with a
    /// fused storage-unit-at-a-time kernel.
    fn settle_into(
        &self,
        seen: &Self,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut found: impl FnMut(usize),
    ) {
        self.for_each_set(start, end, chunk_skip, |v| {
            if seen.get(v) {
                self.clear_owned(v);
            } else {
                seen.set_owned(v);
                found(v);
            }
        });
    }
    /// Calls `f` for every clear entry in `start..end`.
    fn for_each_clear(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize));
    /// Calls `f(chunk_start, chunk_end)` for every summary chunk in
    /// `start..end` that may contain set entries (conservative: `f` may see
    /// an all-clear chunk, but never misses a set entry).
    fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats;
    /// Heap bytes used.
    fn heap_bytes(&self) -> usize;
}

/// One bit per vertex.
pub struct BitState(AtomicBitVec);

impl SsState for BitState {
    const OWNERSHIP_ALIGN: usize = 64;

    fn with_len(n: usize) -> Self {
        Self(AtomicBitVec::new(n))
    }
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0.get(i)
    }
    #[inline]
    fn set_shared(&self, i: usize) -> bool {
        // Cheap read first: avoids the RMW (and its cache line
        // invalidation) when the bit is already set — Listing 3 line 4.
        if self.0.get(i) {
            false
        } else {
            self.0.set(i)
        }
    }
    #[inline]
    fn set_owned(&self, i: usize) {
        self.0.set_unsync(i);
    }
    #[inline]
    fn clear_owned(&self, i: usize) {
        self.0.clear_unsync(i);
    }
    fn clear_range(&self, start: usize, end: usize) {
        self.0.clear_range_words(start, end);
    }
    fn for_each_set(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize)) {
        self.0.for_each_set(start, end, chunk_skip, f);
    }
    fn settle_into(
        &self,
        seen: &Self,
        start: usize,
        end: usize,
        _chunk_skip: bool,
        found: impl FnMut(usize),
    ) {
        // Word-fused kernel: one load tests 64 vertices at once, so the
        // per-bit get/clear round trips (and their redundant emptiness
        // re-checks) collapse into a single masked pass per word.
        self.0.settle_filter(&seen.0, start, end, found);
    }
    fn for_each_clear(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize)) {
        self.0.for_each_clear(start, end, chunk_skip, f);
    }
    fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        self.0.for_each_active_chunk(start, end, f)
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// One byte per vertex.
pub struct ByteState(AtomicByteVec);

impl SsState for ByteState {
    const OWNERSHIP_ALIGN: usize = 1;

    fn with_len(n: usize) -> Self {
        Self(AtomicByteVec::new(n))
    }
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0.get(i)
    }
    #[inline]
    fn set_shared(&self, i: usize) -> bool {
        // Check-then-claim: the common already-set case costs one load;
        // the swap gives the exactly-once transition for tree edges.
        if self.0.get(i) {
            false
        } else {
            self.0.set_claim(i)
        }
    }
    #[inline]
    fn set_owned(&self, i: usize) {
        self.0.set(i);
    }
    #[inline]
    fn clear_owned(&self, i: usize) {
        self.0.clear(i);
    }
    fn clear_range(&self, start: usize, end: usize) {
        self.0.clear_range(start, end);
    }
    fn for_each_set(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize)) {
        self.0.for_each_set(start, end, chunk_skip, f);
    }
    fn for_each_clear(&self, start: usize, end: usize, chunk_skip: bool, f: impl FnMut(usize)) {
        self.0.for_each_clear(start, end, chunk_skip, f);
    }
    fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        self.0.for_each_active_chunk(start, end, f)
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// Reusable parallel single-source BFS state.
///
/// ```
/// use pbfs_core::prelude::*;
/// use pbfs_graph::gen;
/// use pbfs_sched::WorkerPool;
///
/// let g = gen::grid(8, 8);
/// let pool = WorkerPool::new(2);
/// let mut bfs = SmsPbfsByte::new(g.num_vertices());
/// let dists = DistanceVisitor::new(g.num_vertices());
/// bfs.run(&g, &pool, 0, &BfsOptions::default(), &dists);
/// assert_eq!(dists.distance(63), 14); // Manhattan distance to the corner
/// ```
pub struct SmsPbfs<S: SsState> {
    seen: S,
    frontier: S,
    next: S,
}

/// SMS-PBFS with one bit per vertex.
pub type SmsPbfsBit = SmsPbfs<BitState>;
/// SMS-PBFS with one byte per vertex.
pub type SmsPbfsByte = SmsPbfs<ByteState>;

impl<S: SsState> SmsPbfs<S> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            seen: S::with_len(n),
            frontier: S::with_len(n),
            next: S::with_len(n),
        }
    }

    /// Bytes of dynamic BFS state.
    pub fn state_bytes(&self) -> usize {
        self.seen.heap_bytes() + self.frontier.heap_bytes() + self.next.heap_bytes()
    }

    /// Runs a BFS from `source` on `pool`.
    ///
    /// Generic over [`Adjacency`], so the same state traverses a plain
    /// [`pbfs_graph::CsrGraph`] or a [`crate::storage::GraphSnapshot`]
    /// overlay; the CSR monomorphization is the unchanged hot path.
    ///
    /// # Panics
    /// Panics if `source` is out of range or the state was sized for a
    /// different graph.
    pub fn run<G: Adjacency + ?Sized>(
        &mut self,
        g: &G,
        pool: &WorkerPool,
        source: VertexId,
        opts: &BfsOptions,
        visitor: &impl SsVisitor,
    ) -> TraversalStats {
        let n = g.num_vertices();
        assert_eq!(self.seen.len(), n, "state sized for a different graph");
        assert!((source as usize) < n, "source out of range");
        let split = driver::aligned_split(opts, S::OWNERSHIP_ALIGN);
        let mut single = Single {
            g,
            source,
            opts,
            visitor,
            seen: &self.seen,
            frontier: &self.frontier,
            next: &self.next,
        };
        driver::run(&mut single, pool, opts, split)
    }
}

/// One SMS-PBFS traversal: the state arrays plus what the phase bodies
/// read.
struct Single<'a, G: ?Sized, V, S> {
    g: &'a G,
    source: VertexId,
    opts: &'a BfsOptions,
    visitor: &'a V,
    seen: &'a S,
    frontier: &'a S,
    next: &'a S,
}

impl<G: Adjacency + ?Sized, V: SsVisitor, S: SsState> Kernel for Single<'_, G, V, S> {
    const PHASE_SITE: &'static str = "core.smspbfs.phase";
    type Graph = G;

    fn graph(&self) -> &G {
        self.g
    }

    fn init(&self, pool: &WorkerPool, split: usize) -> Tally {
        let (seen, frontier, next) = (self.seen, self.frontier, self.next);
        pool.parallel_for(self.g.num_vertices(), split, |_, r| {
            seen.clear_range(r.start, r.end);
            frontier.clear_range(r.start, r.end);
            next.clear_range(r.start, r.end);
        });
        seen.set_owned(self.source as usize);
        frontier.set_owned(self.source as usize);
        self.visitor.on_found(self.source, 0);
        one_source(Tally {
            discovered: 1,
            frontier_degree: self.g.degree(self.source) as u64,
            ..Tally::default()
        })
    }

    /// Listing 3 lines 1–5: push to next, then clear the owned frontier
    /// range for buffer reuse.
    fn expand(&self, _: &Step, r: Range<usize>) -> Tally {
        let (g, frontier, next) = (self.g, self.frontier, self.next);
        let chunk = self.opts.chunk_skip;
        let mut t = Tally::default();
        let mut expand = |v: usize| {
            for &nbr in g.neighbors_fast(v as VertexId) {
                t.visited += 1;
                if next.set_shared(nbr as usize) {
                    self.visitor.on_tree_edge(v as VertexId, nbr);
                }
            }
        };
        t.scan = frontier.for_each_active_chunk(r.start, r.end, |cs, ce| {
            frontier.for_each_set(cs, ce, chunk, &mut expand);
            // Nothing reads this chunk again: clear it (and its summary
            // bit — chunks are clear-exact here).
            frontier.clear_range(cs, ce);
        });
        t
    }

    /// Listing 3 lines 7–12: filter next by seen.
    fn settle(&self, step: &Step, r: Range<usize>) -> Tally {
        let (g, seen, next) = (self.g, self.seen, self.next);
        let chunk = self.opts.chunk_skip;
        let mut t = Tally::default();
        let mut found = |v: usize| {
            self.visitor.on_found(v as VertexId, step.depth);
            t.discovered += 1;
            t.frontier_degree += g.degree(v as VertexId) as u64;
        };
        t.scan = next.for_each_active_chunk(r.start, r.end, |cs, ce| {
            next.settle_into(seen, cs, ce, chunk, &mut found);
        });
        one_source(t)
    }

    /// Listing 4: pull from frontier neighbors.
    fn bottom_up(&self, step: &Step, r: Range<usize>) -> Tally {
        let (g, seen, frontier, next) = (self.g, self.seen, self.frontier, self.next);
        let mut t = Tally::default();
        seen.for_each_clear(r.start, r.end, self.opts.chunk_skip, |u| {
            for &v in g.neighbors_fast(u as VertexId) {
                t.visited += 1;
                if frontier.get(v as usize) {
                    next.set_owned(u);
                    seen.set_owned(u);
                    self.visitor.on_found(u as VertexId, step.depth);
                    self.visitor.on_tree_edge(v, u as VertexId);
                    t.discovered += 1;
                    t.frontier_degree += g.degree(u as VertexId) as u64;
                    break;
                }
            }
        });
        one_source(t)
    }

    fn rotate(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    fn clear_next(&self, r: Range<usize>) -> ScanStats {
        let next = self.next;
        next.for_each_active_chunk(r.start, r.end, |cs, ce| next.clear_range(cs, ce))
    }
}

/// Completes a single-source tally: every discovery is one new frontier
/// vertex, and its state is full as soon as it is seen.
fn one_source(mut t: Tally) -> Tally {
    t.frontier_vertices = t.discovered;
    t.fully_seen_degree = t.frontier_degree;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::textbook;
    use crate::visitor::{DistanceVisitor, NoopVisitor, PairVisitor, ParentVisitor};
    use pbfs_graph::gen;
    use pbfs_graph::CsrGraph;

    fn check_bit(g: &CsrGraph, source: VertexId, workers: usize, opts: &BfsOptions) {
        let pool = WorkerPool::new(workers);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let dists = DistanceVisitor::new(g.num_vertices());
        bfs.run(g, &pool, source, opts, &dists);
        assert_eq!(
            dists.distances(),
            textbook::distances(g, source),
            "bit src={source}"
        );
    }

    fn check_byte(g: &CsrGraph, source: VertexId, workers: usize, opts: &BfsOptions) {
        let pool = WorkerPool::new(workers);
        let mut bfs = SmsPbfsByte::new(g.num_vertices());
        let dists = DistanceVisitor::new(g.num_vertices());
        bfs.run(g, &pool, source, opts, &dists);
        assert_eq!(
            dists.distances(),
            textbook::distances(g, source),
            "byte src={source}"
        );
    }

    #[test]
    fn fixed_topologies_match_oracle() {
        for g in [
            gen::path(40),
            gen::cycle(21),
            gen::star(50),
            gen::binary_tree(5),
            gen::grid(9, 7),
        ] {
            check_bit(&g, 0, 3, &BfsOptions::default());
            check_byte(&g, 0, 3, &BfsOptions::default());
        }
    }

    #[test]
    fn kronecker_matches_oracle() {
        let g = gen::Kronecker::graph500(10).seed(11).generate();
        for src in [0u32, 100, 1023] {
            check_bit(&g, src, 4, &BfsOptions::default());
            check_byte(&g, src, 4, &BfsOptions::default());
        }
    }

    #[test]
    fn forced_directions_match() {
        let g = gen::Kronecker::graph500(9).seed(12).generate();
        for policy in [
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ] {
            let opts = BfsOptions::default().with_policy(policy);
            check_bit(&g, 2, 4, &opts);
            check_byte(&g, 2, 4, &opts);
        }
    }

    #[test]
    fn summary_mode_reports_skips_on_sparse_frontiers() {
        let g = gen::path(10_000);
        let pool = WorkerPool::new(2);
        let opts = BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown);
        let mut bit = SmsPbfsBit::new(g.num_vertices());
        let stats = bit.run(&g, &pool, 0, &opts, &NoopVisitor);
        assert!(stats.summary_chunks_skipped > 0);
        assert!(
            stats.summary_skip_ratio() > 0.9,
            "ratio {}",
            stats.summary_skip_ratio()
        );
        let mut byte = SmsPbfsByte::new(g.num_vertices());
        let stats = byte.run(&g, &pool, 0, &opts, &NoopVisitor);
        assert!(stats.summary_chunks_skipped > 0);
        assert!(
            stats.summary_skip_ratio() > 0.9,
            "ratio {}",
            stats.summary_skip_ratio()
        );
    }

    #[test]
    fn chunk_skip_off_matches() {
        let g = gen::uniform(500, 2500, 13);
        let opts = BfsOptions {
            chunk_skip: false,
            ..Default::default()
        };
        check_bit(&g, 1, 2, &opts);
        check_byte(&g, 1, 2, &opts);
    }

    #[test]
    fn odd_split_sizes_are_realigned() {
        let g = gen::uniform(300, 900, 14);
        // split 17 would split 64-bit words across workers for the bit
        // variant; the algorithm must realign internally.
        check_bit(&g, 0, 4, &BfsOptions::default().with_split_size(17));
        check_byte(&g, 0, 4, &BfsOptions::default().with_split_size(17));
    }

    #[test]
    fn disconnected_stays_unreached() {
        let g = gen::disjoint_union(&[&gen::path(10), &gen::complete(5)]);
        let pool = WorkerPool::new(2);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let dists = DistanceVisitor::new(g.num_vertices());
        bfs.run(&g, &pool, 0, &BfsOptions::default(), &dists);
        assert!(dists.distances()[10..]
            .iter()
            .all(|&d| d == crate::UNREACHED));
    }

    #[test]
    fn parent_tree_is_valid() {
        let g = gen::Kronecker::graph500(9).seed(15).generate();
        let src = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) > 0)
            .unwrap();
        let pool = WorkerPool::new(4);
        let mut bfs = SmsPbfsByte::new(g.num_vertices());
        let dists = DistanceVisitor::new(g.num_vertices());
        let parents = ParentVisitor::new(g.num_vertices(), src);
        bfs.run(
            &g,
            &pool,
            src,
            &BfsOptions::default(),
            &PairVisitor(&dists, &parents),
        );
        crate::validate::validate_tree(&g, src, &parents.parents(), &dists.distances()).unwrap();
    }

    #[test]
    fn reusable_state() {
        let g = gen::cycle(64);
        let pool = WorkerPool::new(2);
        let mut bfs = SmsPbfsBit::new(64);
        for src in [0u32, 17, 63] {
            let dists = DistanceVisitor::new(64);
            bfs.run(&g, &pool, src, &BfsOptions::default(), &dists);
            assert_eq!(dists.distances(), textbook::distances(&g, src));
        }
    }

    #[test]
    fn instrumented_iterations_report_updates() {
        let g = gen::Kronecker::graph500(9).seed(16).generate();
        let pool = WorkerPool::new(3);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &pool,
            0,
            &BfsOptions::default().instrumented(),
            &NoopVisitor,
        );
        for it in &stats.iterations {
            let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
            assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
        }
    }

    #[test]
    fn small_world_switches_to_bottom_up() {
        let g = gen::Kronecker::graph500(11).seed(17).generate();
        let pool = WorkerPool::new(2);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let src = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let stats = bfs.run(&g, &pool, src, &BfsOptions::default(), &NoopVisitor);
        assert!(stats.bottom_up_iterations() > 0);
    }

    #[test]
    fn state_bytes_bit_vs_byte() {
        let bit = SmsPbfsBit::new(1 << 16);
        let byte = SmsPbfsByte::new(1 << 16);
        // Base state plus the frontier summary: one bit per 64 entries,
        // i.e. 128 bytes per array at 2^16 vertices.
        assert_eq!(bit.state_bytes(), 3 * ((1 << 16) / 8 + 128));
        assert_eq!(byte.state_bytes(), 3 * ((1 << 16) + 128));
    }

    #[test]
    fn total_discovered_counts_reachable() {
        let g = gen::uniform_connected(200, 400, 18);
        let pool = WorkerPool::new(2);
        let mut bfs = SmsPbfsByte::new(200);
        let stats = bfs.run(&g, &pool, 0, &BfsOptions::default(), &NoopVisitor);
        assert_eq!(stats.total_discovered, 200);
    }
}
