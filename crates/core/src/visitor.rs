//! Visitors: how callers consume BFS discoveries.
//!
//! The array-based algorithms do not materialize queues, so results are
//! reported through visitor callbacks invoked from the conflict-free phases
//! (each vertex is reported exactly once per BFS). Visitors must be `Sync`;
//! the provided implementations use relaxed atomics since each slot is
//! written once.

use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use pbfs_bitset::Bits;
use pbfs_graph::{VertexId, INVALID_VERTEX};
use pbfs_sched::WorkerPool;

use crate::UNREACHED;

/// Visitor for single-source traversals (SMS-PBFS, Beamer, textbook).
pub trait SsVisitor: Sync {
    /// `v` was discovered at distance `dist` from the source. Called
    /// exactly once per reached vertex, including the source at distance 0.
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        let _ = (v, dist);
    }

    /// `child` was first reached over the edge `(parent, child)`. Called at
    /// most once per reached vertex; the source gets no tree edge.
    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        let _ = (parent, child);
    }
}

/// Visitor for multi-source traversals (MS-BFS, MS-PBFS).
pub trait MsVisitor<const W: usize>: Sync {
    /// `v` was discovered at distance `dist` by the BFSs whose bits are set
    /// in `bfs_set`. Called exactly once per `(vertex, BFS)` pair, grouped
    /// by vertex.
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = (v, dist, bfs_set);
    }
}

/// The discovery hooks the shared phase bodies call, over the per-vertex
/// entry `E` of the state they run on.
pub(crate) trait Hooks<E>: Sync {
    /// Whether [`Self::tree_edge`] does anything, so the bodies track a
    /// tree parent only when it does.
    const TREE_EDGES: bool;
    /// `v` was discovered at distance `dist` by the BFSs in `new`.
    fn found(&self, v: VertexId, dist: u32, new: E);
    /// `child` was first reached over the edge `(parent, child)`.
    fn tree_edge(&self, parent: VertexId, child: VertexId);
}

/// Adapts an [`MsVisitor`] to the phase bodies. Batches record no tree
/// edges, so that hook is empty and compiles away.
pub(crate) struct MsHooks<'a, V>(pub &'a V);

impl<V: MsVisitor<W>, const W: usize> Hooks<Bits<W>> for MsHooks<'_, V> {
    const TREE_EDGES: bool = false;
    #[inline]
    fn found(&self, v: VertexId, dist: u32, new: Bits<W>) {
        self.0.on_found(v, dist, new);
    }
    #[inline]
    fn tree_edge(&self, _: VertexId, _: VertexId) {}
}

/// Adapts an [`SsVisitor`] to the phase bodies.
pub(crate) struct SsHooks<'a, V>(pub &'a V);

impl<V: SsVisitor> Hooks<bool> for SsHooks<'_, V> {
    const TREE_EDGES: bool = true;
    #[inline]
    fn found(&self, v: VertexId, dist: u32, _: bool) {
        self.0.on_found(v, dist);
    }
    #[inline]
    fn tree_edge(&self, parent: VertexId, child: VertexId) {
        self.0.on_tree_edge(parent, child);
    }
}

/// Ignores all single-source events.
pub struct NoopVisitor;

impl SsVisitor for NoopVisitor {}

/// Ignores all multi-source events.
pub struct NoopMsVisitor;

impl<const W: usize> MsVisitor<W> for NoopMsVisitor {}

/// Records per-vertex distances of a single-source traversal.
pub struct DistanceVisitor {
    dist: Vec<AtomicU32>,
}

impl DistanceVisitor {
    /// Creates a visitor for `n` vertices, all initially [`UNREACHED`].
    pub fn new(n: usize) -> Self {
        let mut dist = Vec::with_capacity(n);
        dist.resize_with(n, || AtomicU32::new(UNREACHED));
        Self { dist }
    }

    /// Resets all distances to [`UNREACHED`] for reuse.
    pub fn reset(&self) {
        for d in &self.dist {
            d.store(UNREACHED, Ordering::Relaxed);
        }
    }

    /// Distance of `v`.
    pub fn distance(&self, v: VertexId) -> u32 {
        self.dist[v as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all distances.
    pub fn distances(&self) -> Vec<u32> {
        self.dist
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Consumes the visitor into the distance vector.
    pub fn into_distances(self) -> Vec<u32> {
        self.dist.into_iter().map(AtomicU32::into_inner).collect()
    }
}

impl SsVisitor for DistanceVisitor {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        self.dist[v as usize].store(dist, Ordering::Relaxed);
    }
}

/// Records the BFS tree (Graph500 output format): `parent[source] =
/// source`, unreached vertices keep [`INVALID_VERTEX`].
pub struct ParentVisitor {
    parent: Vec<AtomicU32>,
}

impl ParentVisitor {
    /// Creates a visitor for `n` vertices and marks `source` as its own
    /// parent.
    pub fn new(n: usize, source: VertexId) -> Self {
        let mut parent = Vec::with_capacity(n);
        parent.resize_with(n, || AtomicU32::new(INVALID_VERTEX));
        parent[source as usize].store(source, Ordering::Relaxed);
        Self { parent }
    }

    /// Parent of `v` ([`INVALID_VERTEX`] when unreached).
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.parent[v as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of the parent array.
    pub fn parents(&self) -> Vec<VertexId> {
        self.parent
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }
}

impl SsVisitor for ParentVisitor {
    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        // The first claim wins: concurrent top-down discoverers of the same
        // vertex race here, and any of them is a valid BFS parent because
        // tree-edge callbacks only fire from frontier vertices of the
        // discovery iteration.
        let _ = self.parent[child as usize].compare_exchange(
            INVALID_VERTEX,
            parent,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// Fans one single-source event stream out to two visitors (e.g. distances
/// + parents in one traversal).
pub struct PairVisitor<'a, A: SsVisitor, B: SsVisitor>(pub &'a A, pub &'a B);

impl<A: SsVisitor, B: SsVisitor> SsVisitor for PairVisitor<'_, A, B> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32) {
        self.0.on_found(v, dist);
        self.1.on_found(v, dist);
    }

    #[inline]
    fn on_tree_edge(&self, parent: VertexId, child: VertexId) {
        self.0.on_tree_edge(parent, child);
        self.1.on_tree_edge(parent, child);
    }
}

/// Records one distance array per concurrent BFS of a multi-source batch.
/// Memory is `O(batch_size × n)` — meant for analytics on moderate graphs,
/// for the query engine's 64-wide batches and its batches on a dirty
/// epoch, and for differential testing. The engine's wider batches on a
/// clean epoch use a level record instead, which writes each row once
/// after the traversal rather than storing into every row whose bit is
/// set at every level.
///
/// Each BFS owns a separately allocated row of `n` slots rather than a
/// slice of one contiguous `batch × n` matrix. Two reasons:
///
/// * `on_found` stores into every row whose bit is set in `bfs_set` at the
///   same vertex offset. In a single matrix those stores sit exactly `n`
///   slots apart; when `n` is a power of two (every Kronecker graph) the
///   stride is `2^k` bytes, so up to `W × 64` stores per vertex land in
///   the same cache sets and evict each other. Separately allocated rows
///   share no fixed stride: the allocator's chunk headers shift each
///   row's offset within a page.
/// * [`into_distances`](Self::into_distances) hands each row out as its
///   own `Vec<u32>` in place, without copying: a batch never holds the
///   traversal's rows and the delivered results at the same time.
pub struct MsDistanceVisitor<const W: usize> {
    rows: Vec<Vec<AtomicU32>>,
}

impl<const W: usize> MsDistanceVisitor<W> {
    /// Creates a visitor for `batch` concurrent BFSs over `n` vertices.
    ///
    /// # Panics
    /// Panics if `batch > W * 64`.
    pub fn new(n: usize, batch: usize) -> Self {
        assert!(batch <= W * 64, "batch exceeds bitset width");
        let rows = (0..batch)
            .map(|_| {
                let mut row = Vec::with_capacity(n);
                row.resize_with(n, || AtomicU32::new(UNREACHED));
                row
            })
            .collect();
        Self { rows }
    }

    /// Distance of `v` in BFS `i` of the batch.
    pub fn distance(&self, i: usize, v: VertexId) -> u32 {
        self.rows[i][v as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of the distance array of BFS `i`.
    pub fn distances_of(&self, i: usize) -> Vec<u32> {
        self.rows[i]
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Consumes the visitor into one distance vector per BFS, in batch
    /// order. Each vector reuses its row's allocation.
    pub fn into_distances(self) -> Vec<Vec<u32>> {
        self.rows
            .into_iter()
            .map(|row| row.into_iter().map(AtomicU32::into_inner).collect())
            .collect()
    }
}

impl<const W: usize> MsVisitor<W> for MsDistanceVisitor<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        for i in bfs_set.ones() {
            if let Some(row) = self.rows.get(i) {
                row[v as usize].store(dist, Ordering::Relaxed);
            }
        }
    }
}

/// Levels an [`MsLevelRecord`] holds at most: a full-width batch's rows
/// (`64·W × n × 4` bytes) are exactly 32 level planes of `n × 8·W` bytes.
const MAX_RECORDED_LEVELS: usize = 32;

/// 64-vertex blocks one expansion task covers. A block's digit planes take
/// 3 KiB of scratch, so a task's scratch is 96 KiB.
const EXPAND_BLOCKS: usize = 32;

/// One block's digit planes for the expansion, `[half][digit][vertex]`:
/// digit 0 is the found mask, digit `1 + k` is bit `k` of the level. Half
/// `h` holds bits `32h..32h + 32` of the 64-query word.
type BlockDigits = [[[u32; 64]; 6]; 2];

thread_local! {
    static EXPAND_SCRATCH: RefCell<Vec<BlockDigits>> = const { RefCell::new(Vec::new()) };
}

/// The reusable per-level record behind [`MsRecordVisitor`].
///
/// Level `l` is a plane holding, for every vertex, the `Bits<W>` of the
/// BFSs that reached it at distance `l`, block-major: level → 64-vertex
/// block → 64-bit word of the bitset → vertex. So one word for the 64
/// vertices of a block is 64 contiguous `u64`s, which is the unit the
/// expansion reads. The record allocates all its planes at once, zeroed,
/// on the thread that creates it: only the levels a batch reaches are
/// ever touched, and a dropped record's memory goes back to that
/// thread's allocator arena rather than to the pool workers'. Each
/// batch's expansion zeroes what it read.
///
/// MS-PBFS discovers a level as a bitset per vertex (paper §3.1), so
/// recording costs `W` stores per vertex and level. Turning the bits into
/// one store per `(query, vertex)` pair as they are found is what
/// [`MsDistanceVisitor`] does, and at 512 queries that scatters the stores
/// over 512 rows at every level. The record defers that to one pass that
/// writes each row once.
pub(crate) struct MsLevelRecord<const W: usize> {
    n: usize,
    /// `MAX_RECORDED_LEVELS` planes of `plane_len` words, level-major.
    planes: Box<[AtomicU64]>,
    /// Levels the current batch has recorded; 0 when the record is clean.
    levels: AtomicUsize,
}

impl<const W: usize> MsLevelRecord<W> {
    /// Creates an empty record for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        let len = MAX_RECORDED_LEVELS * n.div_ceil(64) * W * 64;
        // SAFETY: all-zero bytes are a valid `AtomicU64`.
        let planes = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(len).assume_init() };
        Self {
            n,
            planes,
            levels: AtomicUsize::new(0),
        }
    }

    /// Words of one level plane.
    fn plane_len(&self) -> usize {
        self.n.div_ceil(64) * W * 64
    }

    /// Starts recording a batch of `batch` BFSs.
    ///
    /// The record keeps as many levels as fit in the rows' own bytes
    /// (`batch × n × 4`), at most 32. Deeper levels go straight into the
    /// rows, as [`MsDistanceVisitor`] would store them.
    ///
    /// # Panics
    /// Panics if `batch > W * 64`, or if the record still holds a batch
    /// that was never expanded (the engine drops its records after a
    /// panicked batch instead).
    pub fn batch(&mut self, batch: usize) -> MsRecordVisitor<'_, W> {
        assert!(batch <= W * 64, "batch exceeds bitset width");
        assert_eq!(
            *self.levels.get_mut(),
            0,
            "level record holds an unexpanded batch"
        );
        let plane_bytes = (self.plane_len() * 8).max(1);
        let cap = (batch * self.n * 4 / plane_bytes).min(MAX_RECORDED_LEVELS);
        MsRecordVisitor {
            record: self,
            batch,
            words: batch.div_ceil(64),
            cap,
            deep: OnceLock::new(),
        }
    }

    /// The plane of level `d`.
    #[inline]
    fn plane(&self, d: usize) -> &[AtomicU64] {
        let len = self.plane_len();
        &self.planes[d * len..][..len]
    }
}

/// A batch's rows, allocated with capacity `n` and written through raw
/// pointers until every slot is set.
struct Rows {
    rows: Vec<Vec<u32>>,
    ptrs: Vec<RowPtr>,
}

/// A row's buffer.
struct RowPtr(*mut u32);

// SAFETY: the pointer is only dereferenced at slots no other thread
// accesses concurrently: the expansion tasks cover disjoint (query,
// vertex) ranges, and deep-level stores are atomic.
unsafe impl Send for RowPtr {}
unsafe impl Sync for RowPtr {}

impl Rows {
    /// Allocates `batch` rows of capacity `n` without filling them.
    fn new(batch: usize, n: usize) -> Self {
        Self::from_rows((0..batch).map(|_| Vec::with_capacity(n)).collect())
    }

    /// Allocates `batch` rows of `n` slots filled with [`UNREACHED`].
    fn unreached(batch: usize, n: usize) -> Self {
        Self::from_rows((0..batch).map(|_| vec![UNREACHED; n]).collect())
    }

    fn from_rows(mut rows: Vec<Vec<u32>>) -> Self {
        let ptrs = rows.iter_mut().map(|r| RowPtr(r.as_mut_ptr())).collect();
        Self { rows, ptrs }
    }

    /// The rows, all `n` slots of which were written.
    ///
    /// # Safety
    /// Every slot `0..n` of every row must have been written.
    unsafe fn assume_init(mut self, n: usize) -> Vec<Vec<u32>> {
        for row in &mut self.rows {
            // SAFETY: forwarded from the caller.
            unsafe { row.set_len(n) };
        }
        self.rows
    }
}

/// Records one multi-source batch's distances in an [`MsLevelRecord`] and
/// materializes them as one `Vec<u32>` per BFS, each row written exactly
/// once by [`into_distances`](Self::into_distances).
///
/// The result equals [`MsDistanceVisitor`]'s for any kernel that reports
/// each vertex of a level from a single thread, as MS-PBFS and MS-BFS do:
/// the record merges a level's reports of one vertex by a plain load and
/// store, so concurrent reports of the same vertex and level could lose
/// bits. Bits at or above the batch size are ignored.
pub(crate) struct MsRecordVisitor<'a, const W: usize> {
    record: &'a MsLevelRecord<W>,
    batch: usize,
    /// Words of the bitset that hold a BFS of the batch.
    words: usize,
    /// Levels kept in the record; deeper ones go straight into the rows.
    cap: usize,
    /// The rows, allocated and filled with [`UNREACHED`] by the first
    /// level past `cap`.
    deep: OnceLock<Rows>,
}

impl<const W: usize> MsRecordVisitor<'_, W> {
    /// Stores a discovery past the record's levels straight into the
    /// rows, allocating them filled with [`UNREACHED`] on first use.
    #[cold]
    #[inline(never)]
    fn found_deep(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let n = self.record.n;
        let rows = self.deep.get_or_init(|| Rows::unreached(self.batch, n));
        for i in bfs_set.ones().take_while(|&i| i < self.batch) {
            // SAFETY: `v < n` is in the filled row, and the slot is only
            // accessed atomically until the expansion.
            let slot = unsafe { AtomicU32::from_ptr(rows.ptrs[i].0.add(v as usize)) };
            slot.store(dist, Ordering::Relaxed);
        }
    }

    /// Expands the record into one distance vector per BFS, in batch
    /// order, on `pool`, and leaves the record clean for the next batch.
    ///
    /// The rows are allocated here, on the calling thread, unless a level
    /// past the record's cap already did. Each task covers one 64-query
    /// word and a range of vertex blocks, and writes each of its 64 rows
    /// over that range once.
    pub fn into_distances(self, pool: &WorkerPool) -> Vec<Vec<u32>> {
        let record = self.record;
        let n = record.n;
        let levels = record.levels.load(Ordering::Relaxed);
        let (rows, merge) = match self.deep.into_inner() {
            Some(rows) => (rows, true),
            None => (Rows::new(self.batch, n), false),
        };
        let chunks = n.div_ceil(64).div_ceil(EXPAND_BLOCKS);
        if levels > 0 || !merge {
            let expand = Expand::<W> {
                planes: (0..levels).map(|d| record.plane(d)).collect(),
                rows: &rows.ptrs,
                n,
                merge,
            };
            pool.parallel_for(self.words * chunks, 1, |_, r| {
                for t in r {
                    crate::fail_point!("core.visitor.expand");
                    expand.task(t / chunks, t % chunks);
                }
            });
        }
        record.levels.store(0, Ordering::Relaxed);
        // SAFETY: the expansion wrote every slot, or the deep fill did.
        unsafe { rows.assume_init(n) }
    }
}

impl<const W: usize> MsVisitor<W> for MsRecordVisitor<'_, W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let d = dist as usize;
        if d >= self.cap {
            return self.found_deep(v, dist, bfs_set);
        }
        let record = self.record;
        if d >= record.levels.load(Ordering::Relaxed) {
            record.levels.fetch_max(d + 1, Ordering::Relaxed);
        }
        let plane = record.plane(d);
        let v = v as usize;
        let base = (v / 64) * W * 64 + v % 64;
        for (w, x) in bfs_set.words().into_iter().enumerate().take(self.words) {
            if x != 0 {
                let slot = &plane[base + w * 64];
                slot.store(slot.load(Ordering::Relaxed) | x, Ordering::Relaxed);
            }
        }
    }
}

/// One expansion: the recorded levels and the rows they fill.
struct Expand<'a, const W: usize> {
    /// The plane of each recorded level.
    planes: Vec<&'a [AtomicU64]>,
    rows: &'a [RowPtr],
    n: usize,
    /// Deep levels already wrote some slots: write only found ones.
    merge: bool,
}

impl<const W: usize> Expand<'_, W> {
    /// Expands 64-query word `word` over block chunk `chunk`.
    fn task(&self, word: usize, chunk: usize) {
        let b0 = chunk * EXPAND_BLOCKS;
        let b1 = (b0 + EXPAND_BLOCKS).min(self.n.div_ceil(64));
        // Bits of the deepest recorded level (at most 5 for 32 levels).
        let digits = (usize::BITS - self.planes.len().saturating_sub(1).leading_zeros()) as usize;
        EXPAND_SCRATCH.with_borrow_mut(|scratch| {
            scratch.resize(EXPAND_BLOCKS, [[[0; 64]; 6]; 2]);
            for (b, dg) in (b0..b1).zip(scratch.iter_mut()) {
                self.gather(word, b, digits, dg);
            }
            let scratch = &scratch[..b1 - b0];
            match digits {
                0 => self.write::<0>(word, b0, scratch),
                1 => self.write::<1>(word, b0, scratch),
                2 => self.write::<2>(word, b0, scratch),
                3 => self.write::<3>(word, b0, scratch),
                4 => self.write::<4>(word, b0, scratch),
                _ => self.write::<5>(word, b0, scratch),
            }
        });
    }

    /// Reads and zeroes word `word` of block `b` at every level, and folds
    /// it into the block's digit planes: the found mask and, per bit `k`
    /// of the level number, the BFSs found at a level with that bit set.
    fn gather(&self, word: usize, b: usize, digits: usize, dg: &mut BlockDigits) {
        let off = (b * W + word) * 64;
        let mut acc = [[0u64; 64]; 6];
        for (l, plane) in self.planes.iter().enumerate() {
            let run = &plane[off..off + 64];
            let x: [u64; 64] = std::array::from_fn(|i| run[i].load(Ordering::Relaxed));
            // One branch per run, not per word: most runs of a level are
            // either empty or not.
            if x.iter().any(|&xi| xi != 0) {
                for slot in run {
                    slot.store(0, Ordering::Relaxed);
                }
            }
            for (d, a) in acc.iter_mut().enumerate().take(digits + 1) {
                if d == 0 || l >> (d - 1) & 1 == 1 {
                    for (p, xi) in a.iter_mut().zip(&x) {
                        *p |= xi;
                    }
                }
            }
        }
        for (d, a) in acc.iter().enumerate().take(digits + 1) {
            for (i, &p) in a.iter().enumerate() {
                dg[0][d][i] = p as u32;
                dg[1][d][i] = (p >> 32) as u32;
            }
        }
    }

    /// Writes the rows of word `word` over the blocks from `b0` on, one
    /// row at a time, from the `K`-digit planes in `scratch`.
    fn write<const K: usize>(&self, word: usize, b0: usize, scratch: &[BlockDigits]) {
        let q0 = word * 64;
        let rows = &self.rows[q0..(q0 + 64).min(self.rows.len())];
        for (q, row) in rows.iter().enumerate() {
            let (h, s) = (q / 32, (q % 32) as u32);
            for (b, dg) in (b0..).zip(scratch) {
                let start = b * 64;
                let len = (self.n - start).min(64);
                // SAFETY: the slots `start..start + len` of this row are
                // within its capacity and written by this task only.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(row.0.add(start).cast::<MaybeUninit<u32>>(), len)
                };
                if len == 64 && !self.merge {
                    let dst: &mut [MaybeUninit<u32>; 64] = dst.try_into().unwrap();
                    decode::<K>(&dg[h], s, dst);
                    continue;
                }
                let mut out = [MaybeUninit::uninit(); 64];
                decode::<K>(&dg[h], s, &mut out);
                for (d, o) in dst.iter_mut().zip(out) {
                    // SAFETY: `decode` wrote all 64 slots.
                    let o = unsafe { o.assume_init() };
                    if !self.merge || o != UNREACHED {
                        *d = MaybeUninit::new(o);
                    }
                }
            }
        }
    }
}

/// Decodes query `s` of one half-word's digit planes into 64 distances,
/// [`UNREACHED`] where its found bit is clear. Branch-free, so the loop
/// vectorizes over vertices.
#[inline(always)]
fn decode<const K: usize>(dg: &[[u32; 64]; 6], s: u32, out: &mut [MaybeUninit<u32>; 64]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut d = ((dg[0][i] >> s) & 1).wrapping_sub(1);
        for k in 0..K {
            d |= ((dg[1 + k][i] >> s) & 1) << k;
        }
        *o = MaybeUninit::new(d);
    }
}

/// Counts reached vertices and sums distances per BFS of a batch — the
/// input of closeness centrality, in `O(batch)` memory.
pub struct ClosenessAccumulator<const W: usize> {
    sum: Vec<AtomicU64>,
    reached: Vec<AtomicU64>,
}

impl<const W: usize> ClosenessAccumulator<W> {
    /// Creates an accumulator for a batch of `batch` BFSs.
    pub fn new(batch: usize) -> Self {
        assert!(batch <= W * 64);
        let mut sum = Vec::with_capacity(batch);
        sum.resize_with(batch, || AtomicU64::new(0));
        let mut reached = Vec::with_capacity(batch);
        reached.resize_with(batch, || AtomicU64::new(0));
        Self { sum, reached }
    }

    /// Sum of distances from source `i` to every reached vertex.
    pub fn distance_sum(&self, i: usize) -> u64 {
        self.sum[i].load(Ordering::Relaxed)
    }

    /// Vertices reached from source `i` (including the source itself).
    pub fn reached(&self, i: usize) -> u64 {
        self.reached[i].load(Ordering::Relaxed)
    }
}

impl<const W: usize> MsVisitor<W> for ClosenessAccumulator<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = v;
        for i in bfs_set.ones() {
            if i < self.sum.len() {
                self.sum[i].fetch_add(dist as u64, Ordering::Relaxed);
                self.reached[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Histogram of discoveries per distance, aggregated over a whole batch —
/// the neighborhood function used for effective-diameter estimation.
pub struct LevelHistogram<const W: usize> {
    counts: Vec<AtomicU64>,
}

impl<const W: usize> LevelHistogram<W> {
    /// Creates a histogram covering distances `0..max_dist`.
    pub fn new(max_dist: usize) -> Self {
        let mut counts = Vec::with_capacity(max_dist);
        counts.resize_with(max_dist, || AtomicU64::new(0));
        Self { counts }
    }

    /// `(vertex, BFS)` pairs discovered at each distance.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl<const W: usize> MsVisitor<W> for LevelHistogram<W> {
    #[inline]
    fn on_found(&self, v: VertexId, dist: u32, bfs_set: Bits<W>) {
        let _ = v;
        if let Some(slot) = self.counts.get(dist as usize) {
            slot.fetch_add(bfs_set.count_ones() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_bitset::B64;

    #[test]
    fn distance_visitor_records_and_resets() {
        let v = DistanceVisitor::new(4);
        v.on_found(2, 7);
        assert_eq!(v.distance(2), 7);
        assert_eq!(v.distance(0), UNREACHED);
        v.reset();
        assert_eq!(v.distance(2), UNREACHED);
        v.on_found(0, 0);
        assert_eq!(v.into_distances(), vec![0, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn parent_visitor_first_claim_wins() {
        let v = ParentVisitor::new(4, 0);
        assert_eq!(v.parent(0), 0);
        v.on_tree_edge(0, 2);
        v.on_tree_edge(1, 2); // late claim loses
        assert_eq!(v.parent(2), 0);
        assert_eq!(v.parent(3), INVALID_VERTEX);
    }

    #[test]
    fn pair_visitor_fans_out() {
        let d = DistanceVisitor::new(3);
        let p = ParentVisitor::new(3, 0);
        let pair = PairVisitor(&d, &p);
        pair.on_found(1, 1);
        pair.on_tree_edge(0, 1);
        assert_eq!(d.distance(1), 1);
        assert_eq!(p.parent(1), 0);
    }

    #[test]
    fn ms_distance_visitor_separates_bfs() {
        let v: MsDistanceVisitor<1> = MsDistanceVisitor::new(3, 2);
        v.on_found(1, 4, B64::single(0) | B64::single(1));
        v.on_found(2, 9, B64::single(1));
        assert_eq!(v.distance(0, 1), 4);
        assert_eq!(v.distance(1, 1), 4);
        assert_eq!(v.distance(0, 2), UNREACHED);
        assert_eq!(v.distances_of(1), vec![UNREACHED, 4, 9]);
    }

    /// Fills a `W = 2` visitor for `batch` BFSs over `n` vertices, with
    /// every bit of the 128-wide set raised so bits `>= batch` are
    /// exercised too.
    fn filled_ms_visitor(n: usize, batch: usize) -> MsDistanceVisitor<2> {
        let v: MsDistanceVisitor<2> = MsDistanceVisitor::new(n, batch);
        for u in 0..n as VertexId {
            v.on_found(u, u % 7, Bits::<2>::first_n(128));
            if u % 3 == 0 {
                // A later, different distance for one BFS only.
                v.on_found(u, 100 + u, Bits::<2>::single(u as usize % batch));
            }
        }
        v
    }

    #[test]
    fn ms_into_distances_matches_distances_of() {
        for n in [4096usize, 1001] {
            let batch = 100;
            let v = filled_ms_visitor(n, batch);
            let snapshots: Vec<Vec<u32>> = (0..batch).map(|i| v.distances_of(i)).collect();
            let rows = v.into_distances();
            assert_eq!(rows.len(), batch, "n {n}");
            assert_eq!(rows, snapshots, "n {n}");
            for (i, row) in rows.iter().enumerate() {
                for (u, &d) in row.iter().enumerate() {
                    let want = if u % 3 == 0 && u % batch == i {
                        100 + u as u32
                    } else {
                        u as u32 % 7
                    };
                    assert_eq!(d, want, "n {n} row {i} vertex {u}");
                }
            }
        }
    }

    #[test]
    fn ms_distance_visitor_ignores_bits_beyond_batch() {
        for n in [4096usize, 1001] {
            let v: MsDistanceVisitor<2> = MsDistanceVisitor::new(n, 3);
            v.on_found(5, 2, Bits::<2>::single(3) | Bits::<2>::single(127));
            v.on_found(6, 1, Bits::<2>::first_n(128));
            let rows = v.into_distances();
            assert_eq!(rows.len(), 3);
            for row in &rows {
                assert_eq!(row.len(), n);
                assert_eq!(row[5], UNREACHED, "n {n}");
                assert_eq!(row[6], 1, "n {n}");
            }
        }
    }

    #[test]
    fn ms_into_distances_reuses_row_allocations() {
        for n in [4096usize, 1001] {
            let v = filled_ms_visitor(n, 64);
            let before: Vec<*const AtomicU32> = v.rows.iter().map(|r| r.as_ptr()).collect();
            let after: Vec<*const u32> = v.into_distances().iter().map(|r| r.as_ptr()).collect();
            assert_eq!(before.len(), after.len());
            for (i, (b, a)) in before.iter().zip(&after).enumerate() {
                assert_eq!(*b as usize, *a as usize, "n {n}: row {i} was copied");
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch exceeds bitset width")]
    fn ms_distance_batch_too_wide_panics() {
        let _: MsDistanceVisitor<1> = MsDistanceVisitor::new(3, 65);
    }

    /// Feeds the same discoveries to a level record and an
    /// [`MsDistanceVisitor`]: every `(vertex, BFS)` pair gets a
    /// pseudo-random level below `depth` or stays unreached, and each
    /// report also carries bits at or above `batch`.
    fn feed_both<const W: usize>(
        record: &MsRecordVisitor<'_, W>,
        n: usize,
        batch: usize,
        depth: u32,
        seed: u64,
    ) -> MsDistanceVisitor<W> {
        let reference: MsDistanceVisitor<W> = MsDistanceVisitor::new(n, batch);
        let mut x = seed | 1;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let extra = Bits::<W>::ALL & !Bits::<W>::first_n(batch);
        let mut found = vec![vec![Bits::<W>::EMPTY; n]; depth as usize];
        for per_level in found.iter_mut() {
            for bits in per_level.iter_mut() {
                if rng() % 4 == 0 {
                    *bits |= extra;
                }
            }
        }
        for (u, i) in (0..n).flat_map(|u| (0..batch).map(move |i| (u, i))) {
            // One pair in five stays unreached.
            let r = rng();
            if r % 5 != 0 {
                found[(r / 5 % depth as u64) as usize][u].set_bit(i);
            }
        }
        for (d, per_level) in found.iter().enumerate() {
            for (u, &bits) in per_level.iter().enumerate() {
                if bits.and_not(&extra) != Bits::EMPTY {
                    record.on_found(u as VertexId, d as u32, bits);
                    reference.on_found(u as VertexId, d as u32, bits);
                }
            }
        }
        reference
    }

    /// Bytes of the level planes `visitor` has recorded so far.
    fn planes_bytes<const W: usize>(visitor: &MsRecordVisitor<'_, W>) -> usize {
        let record = visitor.record;
        record.levels.load(Ordering::Relaxed) * record.plane_len() * 8
    }

    fn record_matches_visitor<const W: usize>(pool: &WorkerPool) {
        for n in [1usize, 63, 64, 1001, 4096] {
            let mut record: MsLevelRecord<W> = MsLevelRecord::new(n);
            for batch in [1usize, 63, 65, W * 64] {
                // Shallow, then past the level cap (32 at full width).
                for depth in [4u32, 40] {
                    let seed = (n * 1000 + batch) as u64 * 100 + depth as u64;
                    let visitor = record.batch(batch);
                    let reference = feed_both(&visitor, n, batch, depth, seed);
                    assert!(planes_bytes(&visitor) <= batch * n * 4);
                    let rows = visitor.into_distances(pool);
                    let want = reference.into_distances();
                    assert_eq!(rows.len(), batch);
                    for (i, (got, want)) in rows.iter().zip(&want).enumerate() {
                        assert_eq!(got, want, "W {W} n {n} batch {batch} depth {depth} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn level_record_matches_distance_visitor_w2() {
        record_matches_visitor::<2>(&WorkerPool::new(2));
    }

    #[test]
    fn level_record_matches_distance_visitor_w4() {
        record_matches_visitor::<4>(&WorkerPool::new(2));
    }

    #[test]
    fn level_record_matches_distance_visitor_w8() {
        record_matches_visitor::<8>(&WorkerPool::new(2));
    }

    #[test]
    fn level_record_keeps_no_more_levels_than_the_rows_hold() {
        let n = 4096;
        let mut record: MsLevelRecord<8> = MsLevelRecord::new(n);
        for batch in [1usize, 100, 512] {
            let visitor = record.batch(batch);
            assert_eq!(visitor.cap, (batch / 16).min(MAX_RECORDED_LEVELS));
            for d in 0..40 {
                visitor.on_found(d, d, Bits::first_n(batch));
            }
            assert!(planes_bytes(&visitor) <= batch * n * 4);
            let rows = visitor.into_distances(&WorkerPool::new(1));
            assert_eq!(rows[batch - 1][39], 39);
            assert_eq!(rows[0][40], UNREACHED);
        }
    }

    /// A path deeper than the level cap, then a shallow star on the same
    /// record: the traversal results equal the per-vertex visitor's and
    /// the textbook BFS, and the star sees no level the path left behind.
    #[test]
    fn level_record_survives_deep_then_shallow_batches() {
        use crate::mspbfs::MsPbfs;
        use crate::options::BfsOptions;
        use crate::textbook;

        let pool = WorkerPool::new(2);
        let n = 1500;
        let path = pbfs_graph::gen::path(n);
        let star = pbfs_graph::CsrGraph::from_edges(
            n,
            &(1..n as VertexId).map(|v| (0, v)).collect::<Vec<_>>(),
        );
        let mut bfs: MsPbfs<2> = MsPbfs::new(n);
        let mut record: MsLevelRecord<2> = MsLevelRecord::new(n);
        for (g, sources) in [
            (&path, (0..65).map(|i| i * 23).collect::<Vec<VertexId>>()),
            (&star, (0..128).map(|i| i * 11).collect()),
            (&path, vec![0, n as VertexId - 1]),
        ] {
            let visitor = record.batch(sources.len());
            bfs.run(g, &pool, &sources, &BfsOptions::default(), &visitor);
            let rows = visitor.into_distances(&pool);
            let reference: MsDistanceVisitor<2> = MsDistanceVisitor::new(n, sources.len());
            bfs.run(g, &pool, &sources, &BfsOptions::default(), &reference);
            let want = reference.into_distances();
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(rows[i], want[i], "source {s}");
                assert_eq!(rows[i], textbook::distances(g, s), "source {s}");
            }
        }
    }

    /// Levels no vertex reached before a later level still count: the
    /// expansion maps each plane to its own level.
    #[test]
    fn level_record_skips_unreached_levels() {
        let mut record: MsLevelRecord<2> = MsLevelRecord::new(100);
        let visitor = record.batch(128);
        visitor.on_found(9, 3, Bits::single(1));
        let rows = visitor.into_distances(&WorkerPool::new(1));
        assert_eq!(rows[1][9], 3);
        assert_eq!(rows[0][9], UNREACHED);
    }

    #[test]
    #[should_panic(expected = "level record holds an unexpanded batch")]
    fn level_record_refuses_a_batch_over_an_unexpanded_one() {
        let mut record: MsLevelRecord<2> = MsLevelRecord::new(100);
        let visitor = record.batch(128);
        visitor.on_found(7, 3, Bits::first_n(128));
        drop(visitor);
        let _ = record.batch(128);
    }

    #[test]
    #[should_panic(expected = "batch exceeds bitset width")]
    fn level_record_batch_too_wide_panics() {
        let _ = MsLevelRecord::<2>::new(3).batch(129);
    }

    #[test]
    fn closeness_accumulator_sums() {
        let acc: ClosenessAccumulator<1> = ClosenessAccumulator::new(2);
        acc.on_found(5, 0, B64::single(0));
        acc.on_found(6, 2, B64::single(0) | B64::single(1));
        acc.on_found(7, 3, B64::single(1));
        assert_eq!(acc.distance_sum(0), 2);
        assert_eq!(acc.reached(0), 2);
        assert_eq!(acc.distance_sum(1), 5);
        assert_eq!(acc.reached(1), 2);
    }

    #[test]
    fn level_histogram_counts_bits() {
        let h: LevelHistogram<1> = LevelHistogram::new(4);
        h.on_found(1, 0, B64::single(3));
        h.on_found(2, 1, B64::first_n(5));
        h.on_found(3, 9, B64::single(0)); // beyond max_dist: dropped
        assert_eq!(h.counts(), vec![1, 5, 0, 0]);
    }
}
