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
//! * [`SmsPbfsBit`] — one bit per vertex ([`AtomicBitVec`]): most
//!   cache-efficient, but the state of 512 vertices shares a cache line,
//!   so concurrent top-down updates contend (and need an atomic RMW).
//! * [`SmsPbfsByte`] — one byte per vertex ([`AtomicByteVec`]): 8× the
//!   memory, but the top-down update is a plain atomic swap and 8× fewer
//!   vertices share a cache line.
//!
//! Both run MS-PBFS's phase bodies, level loop included: this module
//! supplies only the two boolean [`VertexState`]s and their chunk-level
//! fast paths.

use crate::storage::Adjacency;
use pbfs_bitset::simd::SimdLevel;
use pbfs_bitset::{AtomicBitVec, AtomicByteVec, ScanStats, SettleFlags};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::mspbfs::{Batch, StateEntry, VertexState};
use crate::options::BfsOptions;
use crate::stats::TraversalStats;
use crate::visitor::{SsHooks, SsVisitor};

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
pub struct SmsPbfs<S: VertexState> {
    /// `seen`, `frontier` and `next`.
    states: [S; 3],
}

/// SMS-PBFS with one bit per vertex.
pub type SmsPbfsBit = SmsPbfs<AtomicBitVec>;
/// SMS-PBFS with one byte per vertex.
pub type SmsPbfsByte = SmsPbfs<AtomicByteVec>;

impl<S: VertexState<Entry = bool>> SmsPbfs<S> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            states: std::array::from_fn(|_| S::with_len(n)),
        }
    }

    /// Bytes of dynamic BFS state.
    pub fn state_bytes(&self) -> usize {
        self.states.iter().map(S::heap_bytes).sum()
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
        assert_eq!(
            self.states[0].num_vertices(),
            n,
            "state sized for a different graph"
        );
        let sources = std::slice::from_ref(&source);
        Batch::new(g, sources, opts, SsHooks(visitor), self.states.each_ref()).run(pool)
    }
}

impl StateEntry for bool {
    const EMPTY: Self = false;

    #[inline]
    fn source(_: usize) -> Self {
        true
    }
    #[inline]
    fn all(_: usize) -> Self {
        true
    }
    #[inline]
    fn count(self) -> u64 {
        self as u64
    }
    #[inline]
    fn settle(self, _: SimdLevel, seen: Self) -> (Self, Self, SettleFlags) {
        let new = self & !seen;
        let flags = SettleFlags {
            new_any: new,
            trimmed: self & seen,
        };
        (new, self | seen, flags)
    }
}

/// The methods both boolean states forward to inherent methods of the
/// same shape: `new`, `len`, `heap_bytes`, `get`, `for_each_active_chunk`,
/// and `for_each_set`/`for_each_clear` with their chunk skipping.
macro_rules! forward_bool_state {
    ($ty:ident) => {
        type Entry = bool;
        const PHASE_SITE: &'static str = "core.smspbfs.phase";
        const PREFETCH: bool = false;

        fn with_len(n: usize) -> Self {
            $ty::new(n)
        }
        fn num_vertices(&self) -> usize {
            $ty::len(self)
        }
        fn heap_bytes(&self) -> usize {
            $ty::heap_bytes(self)
        }
        #[inline]
        fn get(&self, v: usize) -> bool {
            $ty::get(self, v)
        }
        #[inline]
        fn for_each_active_chunk(
            &self,
            start: usize,
            end: usize,
            f: impl FnMut(usize, usize),
        ) -> ScanStats {
            $ty::for_each_active_chunk(self, start, end, f)
        }
        #[inline]
        unsafe fn for_each_nonempty(
            &self,
            _: SimdLevel,
            start: usize,
            end: usize,
            chunk_skip: bool,
            mut f: impl FnMut(usize, bool),
        ) {
            self.for_each_set(start, end, chunk_skip, |v| f(v, true));
        }
        #[inline]
        fn for_each_candidate(
            &self,
            start: usize,
            end: usize,
            chunk_skip: bool,
            mut f: impl FnMut(usize, bool),
        ) {
            self.for_each_clear(start, end, chunk_skip, |v| f(v, false));
        }
    };
}

/// One bit per vertex. Every word-wide operation covers one summary chunk,
/// so the ownership unit is a word.
impl VertexState for AtomicBitVec {
    const OWNERSHIP_ALIGN: usize = 64;
    forward_bool_state!(AtomicBitVec);

    #[inline]
    fn set(&self, v: usize, e: bool) {
        if e {
            self.set_unsync(v);
        } else {
            self.clear_unsync(v);
        }
    }
    #[inline]
    fn merge(&self, v: usize, e: bool) -> bool {
        // Cheap read first: avoids the RMW (and its cache line
        // invalidation) when the bit is already set — Listing 3 line 4.
        e && !AtomicBitVec::get(self, v) && AtomicBitVec::set(self, v)
    }
    #[inline]
    unsafe fn settle(
        &self,
        seen: &Self,
        _: SimdLevel,
        start: usize,
        end: usize,
        _: bool,
        mut found: impl FnMut(usize, bool, bool),
    ) {
        // Word-fused kernel: one load tests 64 vertices at once, so the
        // per-bit get/clear round trips collapse into a single masked
        // pass per word.
        self.settle_filter(seen, start, end, |v| found(v, true, true));
    }
    #[inline]
    unsafe fn clear_owned(&self, start: usize, end: usize) {
        self.clear_range_words(start, end);
    }
}

/// One byte per vertex.
impl VertexState for AtomicByteVec {
    const OWNERSHIP_ALIGN: usize = 1;
    forward_bool_state!(AtomicByteVec);

    #[inline]
    fn set(&self, v: usize, e: bool) {
        if e {
            AtomicByteVec::set(self, v);
        } else {
            self.clear(v);
        }
    }
    #[inline]
    fn merge(&self, v: usize, e: bool) -> bool {
        // Check-then-claim: the common already-set case costs one load;
        // the swap gives the exactly-once transition for tree edges.
        e && !AtomicByteVec::get(self, v) && self.set_claim(v)
    }
    #[inline]
    unsafe fn clear_owned(&self, start: usize, end: usize) {
        self.clear_range(start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::textbook;
    use crate::visitor::{DistanceVisitor, NoopVisitor, PairVisitor, ParentVisitor};
    use pbfs_graph::gen;
    use pbfs_graph::CsrGraph;

    /// Runs both states from `source` against the textbook distances.
    fn check(g: &CsrGraph, source: VertexId, workers: usize, opts: &BfsOptions) {
        let (n, pool) = (g.num_vertices(), WorkerPool::new(workers));
        let want = textbook::distances(g, source);
        let dists = DistanceVisitor::new(n);
        SmsPbfsBit::new(n).run(g, &pool, source, opts, &dists);
        assert_eq!(dists.distances(), want, "bit src={source}");
        let dists = DistanceVisitor::new(n);
        SmsPbfsByte::new(n).run(g, &pool, source, opts, &dists);
        assert_eq!(dists.distances(), want, "byte src={source}");
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
            check(&g, 0, 3, &BfsOptions::default());
        }
    }

    #[test]
    fn kronecker_matches_oracle() {
        let g = gen::Kronecker::graph500(10).seed(11).generate();
        for src in [0u32, 100, 1023] {
            check(&g, src, 4, &BfsOptions::default());
        }
    }

    #[test]
    fn forced_directions_match() {
        let g = gen::Kronecker::graph500(9).seed(12).generate();
        for policy in [
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ] {
            check(&g, 2, 4, &BfsOptions::default().with_policy(policy));
        }
    }

    #[test]
    fn summary_mode_reports_skips_on_sparse_frontiers() {
        let g = gen::path(10_000);
        let pool = WorkerPool::new(2);
        let (n, opts) = (
            g.num_vertices(),
            BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown),
        );
        for stats in [
            SmsPbfsBit::new(n).run(&g, &pool, 0, &opts, &NoopVisitor),
            SmsPbfsByte::new(n).run(&g, &pool, 0, &opts, &NoopVisitor),
        ] {
            assert!(stats.summary_chunks_skipped > 0);
            let ratio = stats.summary_skip_ratio();
            assert!(ratio > 0.9, "ratio {ratio}");
        }
    }

    #[test]
    fn chunk_skip_off_matches() {
        let g = gen::uniform(500, 2500, 13);
        let opts = BfsOptions {
            chunk_skip: false,
            ..Default::default()
        };
        check(&g, 1, 2, &opts);
    }

    #[test]
    fn odd_split_sizes_are_realigned() {
        let g = gen::uniform(300, 900, 14);
        // split 17 would split 64-bit words across workers for the bit
        // variant; the algorithm must realign internally.
        check(&g, 0, 4, &BfsOptions::default().with_split_size(17));
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
