//! MS-PBFS: the parallel multi-source BFS (Section 3.1 of the paper), and
//! the one set of phase bodies SMS-PBFS shares with it.
//!
//! MS-PBFS parallelizes both MS-BFS phases by partitioning the vertex
//! range into task ranges processed by the work-stealing pool:
//!
//! * **Top-down, phase 1** (Listing 1 lines 1–4): reads `frontier` and the
//!   adjacency lists, merges into `next` with an atomic OR — the only
//!   synchronized update in the whole algorithm (Section 3.1.1). Each
//!   frontier chunk is cleared once expanded, so the buffer can be reused
//!   as `next` without a separate memset.
//! * **Top-down, phase 2** (lines 6–11): a bijective vertex→worker mapping
//!   makes all updates conflict-free.
//! * **Bottom-up** (Listing 2): same bijective argument, zero
//!   synchronization, with the early-exit once no more bits can be gained.
//!
//! SMS-PBFS (Section 3.2) is the same three phases with a boolean per
//! vertex. The phase bodies are therefore written once, in `Batch`,
//! over a [`VertexState`]: `StateArray<W>` here, and the bit and byte
//! states of [`crate::smspbfs`]. Each state brings its own chunk-level
//! fast paths (the SIMD mask scan and fused settle here, word-fused
//! settle and chunk skipping for the bit state, the claim-swap for the
//! byte state), and only this state prefetches. The level loop around the
//! phases (direction choice, phase timing, statistics) is the traversal
//! driver shared with the sharded kernel.

use std::ops::{BitOr, BitOrAssign, Range};

use crate::storage::Adjacency;
use pbfs_bitset::simd::SimdLevel;
use pbfs_bitset::{Bits, ScanStats, SettleFlags, StateArray, SUMMARY_CHUNK};
use pbfs_graph::VertexId;
use pbfs_sched::WorkerPool;

use crate::driver::{self, Kernel, Step, Tally};
use crate::options::{AtomicKind, BfsOptions};
use crate::stats::TraversalStats;
use crate::visitor::{Hooks, MsHooks, MsVisitor};

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
    /// `seen`, `frontier` and `next`.
    arrays: [StateArray<W>; 3],
}

impl<const W: usize> MsPbfs<W> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            arrays: std::array::from_fn(|_| StateArray::new(n)),
        }
    }

    /// Bytes of dynamic BFS state. Unlike per-core MS-BFS instances this is
    /// independent of the worker count — the Figure 3 argument.
    pub fn state_bytes(&self) -> usize {
        self.arrays.iter().map(StateArray::heap_bytes).sum()
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
        assert_eq!(self.arrays[0].len(), n, "state sized for a different graph");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.len() <= W * 64, "batch exceeds bitset width");
        Batch::new(g, sources, opts, MsHooks(visitor), self.arrays.each_ref()).run(pool)
    }
}

/// One vertex's entry of a [`VertexState`]: the set of BFSs that have
/// reached it, `Bits<W>` for a batch and `bool` for one source.
pub trait StateEntry: Copy + Eq + BitOr<Output = Self> + BitOrAssign + Send + Sync {
    /// No BFS.
    const EMPTY: Self;
    /// The entry of batch source `i` alone.
    fn source(i: usize) -> Self;
    /// The entry of a vertex every one of `k` sources has reached.
    fn all(k: usize) -> Self;
    /// Number of BFSs in the entry.
    fn count(self) -> u64;
    /// Settles `self`, the BFSs reaching a vertex, against its `seen`
    /// entry at SIMD `level`: returns the BFSs new to it, the merged seen
    /// entry, and whether any BFS is new or was trimmed as already seen.
    fn settle(self, level: SimdLevel, seen: Self) -> (Self, Self, SettleFlags);
}

/// Per-vertex BFS state: one of the `seen`, `frontier` and `next` arrays
/// the phase bodies of MS-PBFS and SMS-PBFS run over.
///
/// Entries are written from one thread at a time, except through
/// [`Self::merge`]; the bodies guarantee that by aligning task ranges to
/// [`Self::OWNERSHIP_ALIGN`], so the `unsafe` range primitives only ever
/// see ranges their caller owns.
pub trait VertexState: Sync + Sized {
    /// One vertex's entry.
    type Entry: StateEntry;
    /// Conflict-free ownership granularity in vertices: two threads may
    /// write entries of the same unit only through [`Self::merge`].
    const OWNERSHIP_ALIGN: usize;
    /// The failpoint at the head of every level of a traversal over this
    /// state.
    const PHASE_SITE: &'static str;
    /// Whether the bodies prefetch adjacency lists and this state's
    /// entries ahead of use. Pays off when an entry is large enough that
    /// each neighbor touches its own cache line.
    const PREFETCH: bool;

    /// Allocates `n` empty entries.
    fn with_len(n: usize) -> Self;
    /// Number of vertices the state covers.
    fn num_vertices(&self) -> usize;
    /// Heap bytes used, including the frontier summary.
    fn heap_bytes(&self) -> usize;
    /// Reads entry `v`.
    fn get(&self, v: usize) -> Self::Entry;
    /// Overwrites entry `v`; the caller must own `v`'s storage unit.
    fn set(&self, v: usize, e: Self::Entry);
    /// Merges `e` into entry `v` from any thread. Returns whether this
    /// call claimed the entry, i.e. set it from empty: exactly one
    /// concurrent caller sees `true`. The multi-source state always
    /// returns `false`, since batches record no tree edges.
    fn merge(&self, v: usize, e: Self::Entry) -> bool;
    /// [`Self::merge`] under [`AtomicKind::CasLoop`], the ablation of
    /// [`BfsOptions::atomic`]; a state with one update keeps this default.
    #[inline]
    fn merge_cas(&self, v: usize, e: Self::Entry) -> bool {
        self.merge(v, e)
    }
    /// Best-effort prefetch of entry `v`; only called when
    /// [`Self::PREFETCH`] is set.
    #[inline]
    fn prefetch(&self, v: usize) {
        let _ = v;
    }
    /// Calls `f(chunk_start, chunk_end)` for every summary chunk in
    /// `start..end` that may hold a non-empty entry (conservative: `f` may
    /// see an all-empty chunk, but never misses a non-empty entry).
    fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats;
    /// Calls `f(v, entry)` for every non-empty entry of the summary chunk
    /// `start..end`, at SIMD `level`; `chunk_skip` tests a word of
    /// entries at once where the state can.
    ///
    /// # Safety
    /// No other thread may write entries `start..end` during the call.
    unsafe fn for_each_nonempty(
        &self,
        level: SimdLevel,
        start: usize,
        end: usize,
        chunk_skip: bool,
        f: impl FnMut(usize, Self::Entry),
    );
    /// Settles `self`, the `next` frontier, against `seen` over the
    /// summary chunk `start..end`: trims each entry to the BFSs new to its
    /// vertex, merges those into `seen` and calls `found(v, new, merged)`
    /// for every vertex that gained one.
    ///
    /// # Safety
    /// The caller must own entries `start..end` of `self` and `seen`: no
    /// other thread may read or write them during the call.
    #[inline]
    unsafe fn settle(
        &self,
        seen: &Self,
        level: SimdLevel,
        start: usize,
        end: usize,
        chunk_skip: bool,
        mut found: impl FnMut(usize, Self::Entry, Self::Entry),
    ) {
        // SAFETY: the caller owns the range of both states.
        unsafe {
            self.for_each_nonempty(level, start, end, chunk_skip, |v, nx| {
                let (new, merged, flags) = nx.settle(level, seen.get(v));
                if flags.trimmed {
                    self.set(v, new);
                }
                if flags.new_any {
                    seen.set(v, merged);
                    found(v, new, merged);
                }
            });
        }
    }
    /// Calls `f(v, entry)` for the entries of `start..end` that may still
    /// gain a BFS. The default visits every entry and leaves the test to
    /// `f`; a one-BFS state skips its set entries, a word of them at once
    /// with `chunk_skip`.
    #[inline]
    fn for_each_candidate(
        &self,
        start: usize,
        end: usize,
        _chunk_skip: bool,
        mut f: impl FnMut(usize, Self::Entry),
    ) {
        for v in start..end {
            f(v, self.get(v));
        }
    }
    /// Clears entries `start..end` and the summary bits of the chunks
    /// they cover.
    ///
    /// # Safety
    /// The caller must own entries `start..end`: no other thread may read
    /// or write them during the call.
    unsafe fn clear_owned(&self, start: usize, end: usize);
}

impl<const W: usize> StateEntry for Bits<W> {
    const EMPTY: Self = Bits::<W>::EMPTY;

    #[inline]
    fn source(i: usize) -> Self {
        Bits::single(i)
    }
    #[inline]
    fn all(k: usize) -> Self {
        Bits::first_n(k)
    }
    #[inline]
    fn count(self) -> u64 {
        self.count_ones() as u64
    }
    #[inline]
    fn settle(self, level: SimdLevel, seen: Self) -> (Self, Self, SettleFlags) {
        // Fused kernel: one pass computes `new`, the merged seen set and
        // the emptiness/trim flags.
        self.settle_at(level, &seen)
    }
}

impl<const W: usize> VertexState for StateArray<W> {
    type Entry = Bits<W>;
    const OWNERSHIP_ALIGN: usize = 1;
    const PHASE_SITE: &'static str = "core.mspbfs.phase";
    /// An entry is `8·W` bytes, a whole cache line per neighbor at
    /// `W = 8`, so each neighbor touches its own line and warming it
    /// ahead hides the miss.
    const PREFETCH: bool = true;

    fn with_len(n: usize) -> Self {
        StateArray::new(n)
    }
    fn num_vertices(&self) -> usize {
        StateArray::len(self)
    }
    fn heap_bytes(&self) -> usize {
        StateArray::heap_bytes(self)
    }
    #[inline]
    fn get(&self, v: usize) -> Bits<W> {
        StateArray::get(self, v)
    }
    #[inline]
    fn set(&self, v: usize, e: Bits<W>) {
        StateArray::set(self, v, e);
    }
    #[inline(always)]
    fn merge(&self, v: usize, e: Bits<W>) -> bool {
        self.fetch_or(v, e);
        false
    }
    #[inline(always)]
    fn merge_cas(&self, v: usize, e: Bits<W>) -> bool {
        self.fetch_or_cas(v, e);
        false
    }
    #[inline]
    fn prefetch(&self, v: usize) {
        self.prefetch_entry(v);
    }
    #[inline]
    fn for_each_active_chunk(
        &self,
        start: usize,
        end: usize,
        f: impl FnMut(usize, usize),
    ) -> ScanStats {
        StateArray::for_each_active_chunk(self, start, end, f)
    }
    #[inline]
    unsafe fn for_each_nonempty(
        &self,
        level: SimdLevel,
        start: usize,
        end: usize,
        _chunk_skip: bool,
        mut f: impl FnMut(usize, Bits<W>),
    ) {
        // One vectorized mask pass finds the chunk's non-empty entries
        // instead of W word loads per entry.
        // SAFETY: no concurrent writers, per the caller contract.
        let mut mask = unsafe { self.nonempty_mask_at(level, start, end) };
        while mask != 0 {
            let v = start + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            f(v, StateArray::get(self, v));
        }
    }
    #[inline]
    unsafe fn clear_owned(&self, start: usize, end: usize) {
        // SAFETY: the caller owns the range.
        unsafe { self.clear_range_owned(start, end) }
    }
}

/// One traversal: the `seen`, `frontier` and `next` states plus what the
/// phase bodies read. MS-PBFS and both SMS-PBFS states run it; the
/// sharded kernel wraps one and runs its seeding, settle, bottom-up phase
/// and recycling unchanged.
pub(crate) struct Batch<'a, G: ?Sized, V, S: VertexState> {
    pub(crate) g: &'a G,
    sources: &'a [VertexId],
    opts: &'a BfsOptions,
    visitor: V,
    /// The entry of a vertex every BFS of the traversal has seen.
    full: S::Entry,
    pub(crate) seen: &'a S,
    pub(crate) frontier: &'a S,
    pub(crate) next: &'a S,
}

impl<'a, G, V, S> Batch<'a, G, V, S>
where
    G: Adjacency + ?Sized,
    V: Hooks<S::Entry>,
    S: VertexState,
{
    /// A traversal of `sources` over the `[seen, frontier, next]` states.
    pub(crate) fn new(
        g: &'a G,
        sources: &'a [VertexId],
        opts: &'a BfsOptions,
        visitor: V,
        [seen, frontier, next]: [&'a S; 3],
    ) -> Self {
        Self {
            g,
            sources,
            opts,
            visitor,
            full: S::Entry::all(sources.len()),
            seen,
            frontier,
            next,
        }
    }

    /// Runs the traversal on task ranges aligned to the state's ownership
    /// unit.
    pub(crate) fn run(mut self, pool: &WorkerPool) -> TraversalStats {
        let (opts, split) = (
            self.opts,
            driver::aligned_split(self.opts, S::OWNERSHIP_ALIGN),
        );
        driver::run(&mut self, pool, opts, split)
    }

    /// Seeds entry `i` of `seen` and `frontier` at `sources[i]` and
    /// reports each source at distance 0, tallied as level 0.
    pub(crate) fn seed(&self) -> Tally {
        let (g, seen, frontier) = (self.g, self.seen, self.frontier);
        let mut t = Tally {
            discovered: self.sources.len() as u64,
            ..Tally::default()
        };
        for (i, &v) in self.sources.iter().enumerate() {
            assert!((v as usize) < g.num_vertices(), "source out of range");
            let (u, e) = (v as usize, S::Entry::source(i));
            let s = seen.get(u);
            if s == S::Entry::EMPTY {
                t.frontier_vertices += 1;
                t.frontier_degree += g.degree(v) as u64;
            }
            seen.set(u, s | e);
            frontier.set(u, frontier.get(u) | e);
            self.visitor.found(v, 0, e);
        }
        // Entry `i` is set only at `sources[i]`, so a fully seen source
        // means every source is that one vertex: its degree counts once.
        let v = self.sources[0];
        if seen.get(v as usize) == self.full {
            t.fully_seen_degree = g.degree(v) as u64;
        }
        t
    }

    /// Expands one frontier vertex into `next`; returns the adjacency
    /// entries scanned.
    #[inline]
    fn expand_vertex(&self, v: usize, f: S::Entry) -> u64 {
        let nbrs = self.g.neighbors_fast(v as VertexId);
        // The atomic flavour is chosen once per vertex, not per neighbor.
        match self.opts.atomic {
            AtomicKind::FetchOr => self.push::<false>(v, f, nbrs),
            AtomicKind::CasLoop => self.push::<true>(v, f, nbrs),
        }
        nbrs.len() as u64
    }

    #[inline(always)]
    fn push<const CAS: bool>(&self, v: usize, f: S::Entry, nbrs: &[VertexId]) {
        let next = self.next;
        neighbors(nbrs, next, |nbr| {
            let claimed = if CAS {
                next.merge_cas(nbr as usize, f)
            } else {
                next.merge(nbr as usize, f)
            };
            if claimed {
                self.visitor.tree_edge(v as VertexId, nbr);
            }
            true
        });
    }

    /// Settles the summary chunk `cs..ce` of `next` against `seen` into
    /// the new frontier.
    ///
    /// # Safety
    /// The caller must own entries `cs..ce` of `next` and `seen`.
    #[inline]
    pub(crate) unsafe fn settle_chunk(&self, t: &mut Tally, step: &Step, cs: usize, ce: usize) {
        let chunk_skip = self.opts.chunk_skip;
        // SAFETY: forwarded from the caller.
        unsafe {
            self.next
                .settle(self.seen, step.lvl, cs, ce, chunk_skip, |v, new, merged| {
                    self.found(t, v, step.depth, new, merged)
                });
        }
    }

    /// Records the discovery of `new` at `v`, whose seen entry is now
    /// `merged`.
    #[inline(always)]
    fn found(&self, t: &mut Tally, v: usize, depth: u32, new: S::Entry, merged: S::Entry) {
        self.visitor.found(v as VertexId, depth, new);
        let deg = self.g.degree(v as VertexId) as u64;
        t.discovered += new.count();
        t.frontier_vertices += 1;
        t.frontier_degree += deg;
        if merged == self.full {
            t.fully_seen_degree += deg;
        }
    }
}

impl<G, V, S> Kernel for Batch<'_, G, V, S>
where
    G: Adjacency + ?Sized,
    V: Hooks<S::Entry>,
    S: VertexState,
{
    const PHASE_SITE: &'static str = S::PHASE_SITE;
    type Graph = G;

    fn graph(&self) -> &G {
        self.g
    }

    fn init(&self, pool: &WorkerPool, split: usize) -> Tally {
        let (seen, frontier, next) = (self.seen, self.frontier, self.next);
        // Parallel init: each worker first-touches (and later processes)
        // the same deterministic ranges — the NUMA placement rule of
        // Section 4.4.
        // SAFETY: the init ranges are disjoint, ownership-aligned per
        // worker, and nothing reads the states until the pool joins.
        pool.parallel_for(self.g.num_vertices(), split, |_, r| unsafe {
            seen.clear_owned(r.start, r.end);
            frontier.clear_owned(r.start, r.end);
            next.clear_owned(r.start, r.end);
        });
        self.seed()
    }

    /// Phase 1: frontier → next, synchronized by atomic OR; each frontier
    /// chunk is cleared once expanded.
    fn expand(&self, step: &Step, r: Range<usize>) -> Tally {
        let (g, frontier, chunk_skip) = (self.g, self.frontier, self.opts.chunk_skip);
        let mut visited = 0;
        // SAFETY: phase 1 reads `frontier` only within its own task
        // ranges and writes only `next`, so this worker owns each chunk
        // of `frontier` it scans and clears.
        let scan = frontier.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
            // Gather the chunk's active vertices so the CSR pointer chase
            // can be pipelined.
            let mut vbuf: [VertexId; SUMMARY_CHUNK] = [0; SUMMARY_CHUNK];
            let mut fbuf = [S::Entry::EMPTY; SUMMARY_CHUNK];
            let mut cnt = 0;
            frontier.for_each_nonempty(step.lvl, cs, ce, chunk_skip, |v, f| {
                vbuf[cnt] = v as VertexId;
                fbuf[cnt] = f;
                cnt += 1;
            });
            frontier.clear_owned(cs, ce);
            pipelined::<G, S>(g, &vbuf[..cnt], |i| {
                visited += self.expand_vertex(vbuf[i] as usize, fbuf[i])
            });
        });
        Tally {
            visited,
            scan,
            ..Tally::default()
        }
    }

    /// Phase 2: conflict-free discovery, one summary chunk of `next` at a
    /// time.
    fn settle(&self, step: &Step, r: Range<usize>) -> Tally {
        let mut t = Tally::default();
        // SAFETY: phase-2 ranges are bijectively owned, so this worker has
        // these chunks of `next` and `seen` to itself until the barrier.
        let scan = self
            .next
            .for_each_active_chunk(r.start, r.end, |cs, ce| unsafe {
                self.settle_chunk(&mut t, step, cs, ce)
            });
        t.scan = scan;
        t
    }

    /// Bottom-up: every vertex not yet seen by all BFSs pulls the frontier
    /// entries of its neighbors.
    fn bottom_up(&self, step: &Step, r: Range<usize>) -> Tally {
        let (g, frontier, full, early_exit) =
            (self.g, self.frontier, self.full, self.opts.early_exit);
        let mut tally = Tally::default();
        let t = &mut tally;
        // `move` copies `full` and `early_exit` into the closure, and the
        // neighbor loop keeps its counters in locals, so the loop runs on
        // registers instead of reloading through references.
        let each = move |u: usize, seen_u: S::Entry| {
            if seen_u == full {
                return;
            }
            let (mut acc, mut parent, mut visited) = (S::Entry::EMPTY, u as VertexId, 0);
            neighbors(g.neighbors_fast(u as VertexId), frontier, |v| {
                visited += 1;
                let f = frontier.get(v as usize);
                if V::TREE_EDGES {
                    // The tree parent must be a frontier neighbor.
                    if f == S::Entry::EMPTY {
                        return true;
                    }
                    parent = v;
                }
                acc |= f;
                !(early_exit && (acc | seen_u) == full)
            });
            t.visited += visited;
            let (new, merged, flags) = acc.settle(step.lvl, seen_u);
            if flags.new_any {
                self.next.set(u, new);
                self.seen.set(u, merged);
                self.visitor.tree_edge(parent, u as VertexId);
                self.found(t, u, step.depth, new, merged);
            }
        };
        self.seen
            .for_each_candidate(r.start, r.end, self.opts.chunk_skip, each);
        tally
    }

    fn rotate(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    fn clear_next(&self, r: Range<usize>) -> ScanStats {
        let next = self.next;
        // SAFETY: the driver's clear ranges are disjoint and nothing else
        // touches `next` then, so each worker owns its chunks outright.
        next.for_each_active_chunk(r.start, r.end, |cs, ce| unsafe { next.clear_owned(cs, ce) })
    }
}

/// Software-prefetch lookahead of the hot loops over a prefetching state.
const PREFETCH_DISTANCE: usize = 4;

/// Calls `f` on each of `nbrs` until it returns false. When the state
/// prefetches, its entry `PREFETCH_DISTANCE` neighbors ahead is
/// prefetched first.
#[inline]
fn neighbors<S: VertexState>(nbrs: &[VertexId], state: &S, mut f: impl FnMut(VertexId) -> bool) {
    if S::PREFETCH {
        for &v in &nbrs[..PREFETCH_DISTANCE.min(nbrs.len())] {
            state.prefetch(v as usize);
        }
    }
    for (j, &v) in nbrs.iter().enumerate() {
        if S::PREFETCH && j + PREFETCH_DISTANCE < nbrs.len() {
            state.prefetch(nbrs[j + PREFETCH_DISTANCE] as usize);
        }
        if !f(v) {
            break;
        }
    }
}

/// Calls `f(i)` for each index of `vs`. When the state prefetches, the
/// adjacency of vertex `vs[i + PREFETCH_DISTANCE]` is prefetched first,
/// so the pointer chase over a batch of frontier vertices pipelines, and
/// the CSR offsets of all of `vs` are prefetched up front.
#[inline]
fn pipelined<G: Adjacency + ?Sized, S: VertexState>(
    g: &G,
    vs: &[VertexId],
    mut f: impl FnMut(usize),
) {
    if S::PREFETCH {
        for &v in vs {
            g.prefetch_offsets(v);
        }
    }
    for i in 0..vs.len() {
        if S::PREFETCH && i + PREFETCH_DISTANCE < vs.len() {
            g.prefetch_neighbors(vs[i + PREFETCH_DISTANCE]);
        }
        f(i);
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

    /// Every ablation knob reaches every state through the one set of
    /// phase bodies: across `early_exit` × `chunk_skip` × `atomic` ×
    /// direction policy × task split, `MsPbfs<1>` and both SMS-PBFS
    /// states match the textbook distances, and the single-source parent
    /// trees validate.
    #[test]
    fn every_knob_reaches_every_state() {
        use crate::smspbfs::SmsPbfs;
        use crate::visitor::{DistanceVisitor, PairVisitor, ParentVisitor};
        use pbfs_bitset::{AtomicBitVec, AtomicByteVec};

        fn single<S: VertexState<Entry = bool>>(
            g: &CsrGraph,
            s: u32,
            o: &BfsOptions,
            want: &[u32],
        ) {
            let (n, pool) = (g.num_vertices(), WorkerPool::new(3));
            let what = format!("{} from {s}, {o:?}", std::any::type_name::<S>());
            let (dists, parents) = (DistanceVisitor::new(n), ParentVisitor::new(n, s));
            SmsPbfs::<S>::new(n).run(g, &pool, s, o, &PairVisitor(&dists, &parents));
            assert_eq!(dists.distances(), want, "{what}");
            crate::validate::validate_tree(g, s, &parents.parents(), want)
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        }

        let policies = [
            DirectionPolicy::default(),
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ];
        // Bits 0–3 of `i` pick the two-valued knobs, `i / 16` the policy.
        let matrix = (0..48).map(|i| BfsOptions {
            early_exit: i & 1 == 0,
            chunk_skip: i & 2 == 0,
            atomic: [AtomicKind::FetchOr, AtomicKind::CasLoop][(i >> 2) & 1],
            split_size: [64, 100][(i >> 3) & 1],
            policy: policies[i / 16],
            ..BfsOptions::default()
        });
        let g = gen::Kronecker::graph500(8).seed(9).generate();
        // Sources with edges, so every traversal and parent tree is
        // more than its source.
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .step_by(37)
            .take(5)
            .collect();
        assert_eq!(sources.len(), 5);
        let want: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| textbook::distances(&g, s))
            .collect();
        for opts in matrix {
            check_batch::<1>(&g, &sources, 3, &opts);
            for (&s, want) in sources.iter().zip(&want) {
                single::<AtomicBitVec>(&g, s, &opts, want);
                single::<AtomicByteVec>(&g, s, &opts, want);
            }
        }
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
