//! Visitors: how callers consume BFS discoveries.
//!
//! The array-based algorithms do not materialize queues, so results are
//! reported through visitor callbacks invoked from the conflict-free phases
//! (each vertex is reported exactly once per BFS). Visitors must be `Sync`;
//! the provided implementations use relaxed atomics since each slot is
//! written once.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pbfs_bitset::Bits;
use pbfs_graph::{VertexId, INVALID_VERTEX};

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
/// for the query engine's per-query results, and for differential testing.
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
