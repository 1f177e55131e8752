//! Versioned graph storage: epoch-published snapshots over an immutable
//! CSR with a batched mutation overlay (ROADMAP item 4).
//!
//! The kernels in this crate were written against one immutable
//! [`CsrGraph`] borrowed for the process lifetime. Production graphs
//! mutate while queries run, so this module inserts a versioning seam
//! between the engine and the adjacency data:
//!
//! * [`GraphStore`] owns the current *epoch* — an immutable base CSR plus
//!   a [`DeltaIndex`] overlay of applied edge mutations — behind an
//!   RCU-style publish pointer.
//! * [`GraphStore::snapshot`] hands out a cheap [`GraphSnapshot`] (two
//!   atomic increments) that pins its epoch for as long as the caller
//!   holds it. The engine takes one snapshot per coalesced batch, so a
//!   batch never observes a half-applied mutation: it reads exactly the
//!   epoch it pinned, start to finish.
//! * [`GraphStore::apply_batch`] folds a batch of edge inserts/deletes
//!   into a *new* delta (the old epoch's index is never touched) and
//!   publishes it as the next epoch. A panic or injected fault anywhere
//!   before the publish swap leaves the old epoch fully intact — there is
//!   no torn intermediate state to observe.
//! * [`GraphStore::compact`] rebuilds a fresh base CSR from the overlay
//!   via the existing parallel builder ([`crate::build`]) and publishes
//!   it with an empty delta. A compaction that panics mid-rebuild is
//!   abandoned; the old epoch keeps serving.
//! * Reclamation is reference-counted: an epoch's CSR (and partition
//!   mirror) is freed when the last snapshot pinning it drops, and the
//!   `pbfs_storage_epochs_live` gauge tracks the live-epoch window so a
//!   leak (or premature free) is observable from a metrics scrape.
//!
//! # Delta-log format
//!
//! The overlay is a per-vertex index, not a log that kernels replay: for
//! every *dirty* vertex (an endpoint of some applied mutation) the index
//! stores the fully merged, sorted adjacency list, plus a bitmap flagging
//! which vertices are dirty. [`GraphSnapshot::neighbors_fast`] is then a
//! bitmap test followed by either the base CSR slice (clean vertex — the
//! hot path, one predictable branch over today's kernels) or the merged
//! slice (dirty vertex). Kernels stay oblivious: they traverse anything
//! implementing [`Adjacency`], and the engine dispatches the plain
//! `&CsrGraph` monomorphization whenever the pinned epoch has no deltas,
//! so the clean-graph path is byte-for-byte the pre-storage kernel.
//!
//! Mutation semantics mirror the CSR build rules ([`pbfs_graph`]):
//! graphs are undirected (an insert adds both directions), self loops are
//! rejected with a typed error, inserting a present edge or deleting an
//! absent one is a counted no-op, and endpoints must be existing vertices
//! — the vertex set is fixed at store creation.
//!
//! # Fault sites
//!
//! `storage.apply`, `storage.publish`, `storage.compact` and
//! `storage.reclaim` join the chaos pool (see [`crate::chaos`]).
//! `storage.reclaim` fires inside the epoch drop and is contained by
//! `catch_unwind` — a reclamation fault may *delay* the free (the gauge
//! shows the pinned window) but can never double-free or abort the
//! process from a drop.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use pbfs_graph::{CsrGraph, PartitionedCsr, VertexId};
use pbfs_sched::WorkerPool;
use pbfs_telemetry::{Counter, EventKind, Gauge, ENGINE_LANE};

/// Adjacency data a BFS kernel can traverse.
///
/// [`CsrGraph`] is the canonical implementation; [`GraphSnapshot`] serves
/// an epoch of a mutable [`GraphStore`] through the same surface. The
/// kernels ([`crate::mspbfs`], [`crate::smspbfs`]) are generic over this
/// trait, so the clean-graph monomorphization keeps the exact pre-storage
/// hot loops.
pub trait Adjacency: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of directed adjacency entries (2× the undirected count).
    fn num_directed_edges(&self) -> usize;
    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;
    /// Sorted neighbor list of `v`; `v` must be `< num_vertices()`.
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId];
    /// Best-effort prefetch of `v`'s offset entry.
    #[inline]
    fn prefetch_offsets(&self, _v: VertexId) {}
    /// Best-effort prefetch of the start of `v`'s adjacency list.
    #[inline]
    fn prefetch_neighbors(&self, _v: VertexId) {}
}

impl<T: Adjacency + Send + ?Sized> Adjacency for Arc<T> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    #[inline]
    fn num_directed_edges(&self) -> usize {
        (**self).num_directed_edges()
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }
    #[inline]
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        (**self).neighbors_fast(v)
    }
    #[inline]
    fn prefetch_offsets(&self, v: VertexId) {
        (**self).prefetch_offsets(v)
    }
    #[inline]
    fn prefetch_neighbors(&self, v: VertexId) {
        (**self).prefetch_neighbors(v)
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    #[inline]
    fn num_directed_edges(&self) -> usize {
        CsrGraph::num_directed_edges(self)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }
    #[inline]
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        CsrGraph::neighbors_fast(self, v)
    }
    #[inline]
    fn prefetch_offsets(&self, v: VertexId) {
        CsrGraph::prefetch_offsets(self, v)
    }
    #[inline]
    fn prefetch_neighbors(&self, v: VertexId) {
        CsrGraph::prefetch_neighbors(self, v)
    }
}

/// Adjacency with the NUMA-partition layout the scatter/gather kernel
/// needs ([`crate::sharded`]): a vertex→node mapping at task-range
/// granularity.
pub trait ShardedAdjacency: Adjacency {
    /// Number of NUMA node segments.
    fn num_nodes(&self) -> usize;
    /// The node hosting `v`'s adjacency data.
    fn node_of(&self, v: VertexId) -> usize;
    /// Task split size the partition was built for.
    fn split_size(&self) -> usize;
}

impl Adjacency for PartitionedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        PartitionedCsr::num_vertices(self)
    }
    #[inline]
    fn num_directed_edges(&self) -> usize {
        PartitionedCsr::num_edges(self) * 2
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        PartitionedCsr::degree(self, v)
    }
    #[inline]
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        PartitionedCsr::neighbors(self, v)
    }
}

impl ShardedAdjacency for PartitionedCsr {
    #[inline]
    fn num_nodes(&self) -> usize {
        PartitionedCsr::num_nodes(self)
    }
    #[inline]
    fn node_of(&self, v: VertexId) -> usize {
        PartitionedCsr::node_of(self, v)
    }
    #[inline]
    fn split_size(&self) -> usize {
        PartitionedCsr::split_size(self)
    }
}

/// Always-on storage metrics in the global telemetry registry.
struct StorageMetrics {
    mutations: Arc<Counter>,
    compactions: Arc<Counter>,
    epochs: Arc<Counter>,
    epochs_live: Arc<Gauge>,
}

fn storage_metrics() -> &'static StorageMetrics {
    static METRICS: OnceLock<StorageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = pbfs_telemetry::registry();
        StorageMetrics {
            mutations: r.counter(
                "pbfs_storage_mutations_total",
                "Edge mutations applied to a graph store (including no-ops)",
            ),
            compactions: r.counter(
                "pbfs_storage_compactions_total",
                "Delta overlays compacted into a fresh base CSR",
            ),
            epochs: r.counter(
                "pbfs_storage_epochs_total",
                "Graph epochs published (initial, mutation, compaction, partition)",
            ),
            epochs_live: r.gauge(
                "pbfs_storage_epochs_live",
                "Epochs currently pinned by a store or an in-flight snapshot",
            ),
        }
    })
}

/// Current value of the `pbfs_storage_epochs_live` gauge: epochs pinned by
/// any store or in-flight snapshot in this process. The chaos oracles
/// assert it returns to its baseline once stores and snapshots drain —
/// catching both a reclamation leak and a premature free.
pub fn epochs_live() -> i64 {
    storage_metrics().epochs_live.get()
}

/// One edge mutation against the undirected graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeMutation {
    /// Insert the undirected edge `(u, v)`; a no-op if already present.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`; a no-op if absent.
    Delete(VertexId, VertexId),
}

impl EdgeMutation {
    fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EdgeMutation::Insert(u, v) | EdgeMutation::Delete(u, v) => (u, v),
        }
    }
}

/// Why a mutation batch was rejected. A rejected batch publishes nothing:
/// the store still serves the epoch it served before the call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// An endpoint is not a vertex of the graph (the vertex set is fixed
    /// at store creation).
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// Vertices in the store's graph.
        num_vertices: usize,
    },
    /// Self loops are dropped by the CSR build rules and cannot be
    /// inserted through the mutation path either.
    SelfLoop {
        /// The vertex of the rejected loop.
        vertex: VertexId,
    },
    /// A `storage.apply` / `storage.publish` failpoint injected this
    /// typed failure (chaos testing).
    Injected {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "mutation endpoint {vertex} out of range for {num_vertices} vertices"
            ),
            Self::SelfLoop { vertex } => write!(f, "self loop on {vertex} rejected"),
            Self::Injected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// Why a compaction did not publish. The previous epoch keeps serving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompactError {
    /// The `storage.compact` failpoint injected this typed failure.
    Injected,
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Injected => write!(f, "injected fault at storage.compact"),
        }
    }
}

impl std::error::Error for CompactError {}

/// Per-vertex mutation overlay of one epoch. Immutable once published;
/// [`GraphStore::apply_batch`] builds a successor index instead of
/// editing in place.
#[derive(Default)]
pub struct DeltaIndex {
    /// Fully merged, sorted adjacency per dirty vertex. `Arc` so a
    /// successor delta that leaves a vertex untouched shares the list.
    dirty: HashMap<VertexId, Arc<[VertexId]>>,
    /// Bitmap over the vertex space flagging dirty vertices — the hot-path
    /// test. Empty (no allocation) while the delta is clean.
    dirty_bits: Box<[u64]>,
    /// Signed adjustment to the base's directed-edge count.
    directed_delta: i64,
    /// Mutations applied since the base CSR was built (including no-ops).
    mutations: u64,
}

impl DeltaIndex {
    /// `true` when no vertex differs from the base CSR's adjacency.
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Vertices whose adjacency differs from (or ever diverged from) the
    /// base CSR.
    pub fn dirty_vertices(&self) -> usize {
        self.dirty.len()
    }

    /// Mutations folded in since the base CSR was built.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    #[inline]
    fn is_dirty(&self, v: usize) -> bool {
        match self.dirty_bits.get(v >> 6) {
            Some(word) => (word >> (v & 63)) & 1 == 1,
            None => false,
        }
    }
}

/// One published epoch: an immutable base CSR, its optional partition
/// mirror, and the mutation overlay. Reference-counted — dropped (and its
/// arrays freed, unless shared with a neighbor epoch) when the store
/// publishes past it and the last pinning snapshot is gone.
struct EpochInner {
    epoch: u64,
    base: Arc<CsrGraph>,
    part: Option<Arc<PartitionedCsr>>,
    delta: Arc<DeltaIndex>,
}

impl Drop for EpochInner {
    fn drop(&mut self) {
        // Reclamation fault site. A drop must never unwind (abort), so the
        // site is contained here: a panic action is swallowed, a sleep
        // action delays this epoch's release — both leave the gauge
        // telling the truth about the pinned window.
        let _ = std::panic::catch_unwind(|| {
            crate::fail_point!("storage.reclaim");
        });
        storage_metrics().epochs_live.sub(1);
    }
}

/// A pinned view of one epoch. Cheap to clone (an `Arc` bump); holding it
/// keeps the epoch's arrays alive. Implements [`Adjacency`], overlaying
/// the delta index on the base CSR per dirty vertex.
#[derive(Clone)]
pub struct GraphSnapshot {
    inner: Arc<EpochInner>,
}

impl GraphSnapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The epoch's immutable base CSR (without the overlay).
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.inner.base
    }

    /// The epoch's partition mirror, when the store is partitioned.
    pub fn part(&self) -> Option<&Arc<PartitionedCsr>> {
        self.inner.part.as_ref()
    }

    /// The epoch's mutation overlay.
    pub fn delta(&self) -> &DeltaIndex {
        &self.inner.delta
    }

    /// `true` when this epoch's logical graph differs from its base CSR —
    /// the engine's cue to leave the plain-CSR fast path.
    pub fn has_deltas(&self) -> bool {
        !self.inner.delta.is_clean()
    }

    /// A partition-layout view of this snapshot for the scatter/gather
    /// kernel. `None` when the store is not partitioned.
    pub fn sharded_view(&self) -> Option<ShardedSnapshot<'_>> {
        self.inner.part.as_deref().map(|part| ShardedSnapshot {
            part,
            delta: &self.inner.delta,
        })
    }
}

impl Adjacency for GraphSnapshot {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.inner.base.num_vertices()
    }
    #[inline]
    fn num_directed_edges(&self) -> usize {
        (self.inner.base.num_directed_edges() as i64 + self.inner.delta.directed_delta) as usize
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let d = &*self.inner.delta;
        if d.is_dirty(v as usize) {
            d.dirty[&v].len()
        } else {
            self.inner.base.degree(v)
        }
    }
    #[inline]
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        let d = &*self.inner.delta;
        if d.is_dirty(v as usize) {
            &d.dirty[&v]
        } else {
            self.inner.base.neighbors_fast(v)
        }
    }
    #[inline]
    fn prefetch_offsets(&self, v: VertexId) {
        self.inner.base.prefetch_offsets(v)
    }
    #[inline]
    fn prefetch_neighbors(&self, v: VertexId) {
        // Dirty vertices are served from the delta map; prefetching the
        // superseded base list is harmless and keeps the clean path tight.
        self.inner.base.prefetch_neighbors(v)
    }
}

/// A [`GraphSnapshot`] viewed through the epoch's partition mirror: the
/// scatter/gather kernel's input when the store both shards and mutates.
#[derive(Clone, Copy)]
pub struct ShardedSnapshot<'a> {
    part: &'a PartitionedCsr,
    delta: &'a DeltaIndex,
}

impl Adjacency for ShardedSnapshot<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.part.num_vertices()
    }
    #[inline]
    fn num_directed_edges(&self) -> usize {
        (self.part.num_edges() as i64 * 2 + self.delta.directed_delta) as usize
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        if self.delta.is_dirty(v as usize) {
            self.delta.dirty[&v].len()
        } else {
            self.part.degree(v)
        }
    }
    #[inline]
    fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        if self.delta.is_dirty(v as usize) {
            &self.delta.dirty[&v]
        } else {
            self.part.neighbors(v)
        }
    }
}

impl ShardedAdjacency for ShardedSnapshot<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.part.num_nodes()
    }
    #[inline]
    fn node_of(&self, v: VertexId) -> usize {
        self.part.node_of(v)
    }
    #[inline]
    fn split_size(&self) -> usize {
        self.part.split_size()
    }
}

/// Worker-pool size [`GraphStore::compact`] rebuilds the CSR with.
const COMPACT_WORKERS: usize = 2;
/// Task split size of the parallel rebuild in [`GraphStore::compact`].
const COMPACT_SPLIT: usize = 256;

/// Partition layout the store (re)builds for every epoch once enabled.
#[derive(Clone, Copy, Debug)]
struct PartSpec {
    nodes: usize,
    workers: usize,
    split: usize,
}

/// Versioned graph handle: the current epoch behind an RCU-style publish
/// pointer, the batched mutation path, and compaction. See the
/// [module docs](self).
pub struct GraphStore {
    current: RwLock<Arc<EpochInner>>,
    /// Serializes writers (mutation batches, compactions, partition
    /// attach). Readers ([`Self::snapshot`]) never take this.
    write: Mutex<()>,
    part_spec: Mutex<Option<PartSpec>>,
}

/// Non-poisoning lock (a panicking writer must not wedge the store).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GraphStore {
    /// Wraps `base` as epoch 1 of a new store.
    pub fn new(base: Arc<CsrGraph>) -> Arc<Self> {
        let m = storage_metrics();
        m.epochs.inc();
        m.epochs_live.add(1);
        Arc::new(Self {
            current: RwLock::new(Arc::new(EpochInner {
                epoch: 1,
                base,
                part: None,
                delta: Arc::new(DeltaIndex::default()),
            })),
            write: Mutex::new(()),
            part_spec: Mutex::new(None),
        })
    }
    /// Number of vertices — fixed for the store's lifetime; mutations are
    /// edge-level only.
    pub fn num_vertices(&self) -> usize {
        self.read_current().base.num_vertices()
    }

    /// The epoch currently being published to new snapshots.
    pub fn current_epoch(&self) -> u64 {
        self.read_current().epoch
    }

    /// Pins the current epoch. The snapshot (and every clone) keeps the
    /// epoch's arrays alive until dropped.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot {
            inner: self.read_current(),
        }
    }

    fn read_current(&self) -> Arc<EpochInner> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Attaches (or re-lays-out) a NUMA partition mirror: the current
    /// epoch is republished with a [`PartitionedCsr`] of the given layout,
    /// and every future epoch — mutation or compaction — carries one.
    ///
    /// # Panics
    /// Panics on a degenerate layout, exactly like
    /// [`PartitionedCsr::partition`].
    pub fn enable_partition(&self, nodes: usize, workers: usize, split_size: usize) {
        let _w = lock(&self.write);
        *lock(&self.part_spec) = Some(PartSpec {
            nodes,
            workers,
            split: split_size,
        });
        let cur = self.read_current();
        let part = Arc::new(PartitionedCsr::partition(
            &cur.base, nodes, workers, split_size,
        ));
        self.publish(Arc::clone(&cur.base), Some(part), Arc::clone(&cur.delta), 2);
    }

    /// `true` once [`Self::enable_partition`] has run: every snapshot's
    /// [`GraphSnapshot::part`] is populated.
    pub fn is_partitioned(&self) -> bool {
        lock(&self.part_spec).is_some()
    }

    /// Applies one coalesced batch of edge mutations and publishes the
    /// result as a new epoch, returning its number. All-or-nothing: any
    /// error (or panic, including injected ones) before the publish swap
    /// leaves the previous epoch untouched and still serving.
    pub fn apply_batch(&self, batch: &[EdgeMutation]) -> Result<u64, MutationError> {
        let _w = lock(&self.write);
        crate::fail_point!(
            "storage.apply",
            Err(MutationError::Injected {
                site: "storage.apply"
            })
        );
        let cur = self.read_current();
        let n = cur.base.num_vertices();
        let mut dirty = cur.delta.dirty.clone();
        let mut bits = if cur.delta.dirty_bits.is_empty() {
            vec![0u64; n.div_ceil(64)]
        } else {
            cur.delta.dirty_bits.to_vec()
        };
        let mut directed = cur.delta.directed_delta;
        for &m in batch {
            let (u, v) = m.endpoints();
            for x in [u, v] {
                if x as usize >= n {
                    return Err(MutationError::VertexOutOfRange {
                        vertex: x,
                        num_vertices: n,
                    });
                }
            }
            if u == v {
                return Err(MutationError::SelfLoop { vertex: u });
            }
            let insert = matches!(m, EdgeMutation::Insert(..));
            let changed = upsert(&mut dirty, &cur.base, u, v, insert);
            let mirrored = upsert(&mut dirty, &cur.base, v, u, insert);
            debug_assert_eq!(changed, mirrored, "undirected halves must agree");
            if changed {
                directed += if insert { 2 } else { -2 };
                for x in [u, v] {
                    bits[x as usize >> 6] |= 1 << (x as usize & 63);
                }
            }
        }
        let delta = DeltaIndex {
            dirty,
            dirty_bits: bits.into_boxed_slice(),
            directed_delta: directed,
            mutations: cur.delta.mutations + batch.len() as u64,
        };
        crate::fail_point!(
            "storage.publish",
            Err(MutationError::Injected {
                site: "storage.publish"
            })
        );
        let epoch = self.publish(Arc::clone(&cur.base), cur.part.clone(), Arc::new(delta), 0);
        storage_metrics().mutations.add(batch.len() as u64);
        Ok(epoch)
    }

    /// Rebuilds a fresh base CSR from the current overlay via the parallel
    /// builder and publishes it (with an empty delta) as a new epoch.
    /// Returns the published epoch — or the current one unchanged when the
    /// overlay is already clean. On any failure (typed or panic) the old
    /// epoch keeps serving.
    pub fn compact(&self) -> Result<u64, CompactError> {
        let _w = lock(&self.write);
        let cur = self.read_current();
        if cur.delta.is_clean() {
            return Ok(cur.epoch);
        }
        crate::fail_point!("storage.compact", Err(CompactError::Injected));
        let n = cur.base.num_vertices();
        let snap = GraphSnapshot {
            inner: Arc::clone(&cur),
        };
        // Each undirected edge once; the builder re-symmetrizes.
        let mut edges = Vec::with_capacity(snap.num_directed_edges() / 2);
        for v in 0..n as VertexId {
            for &w in snap.neighbors_fast(v) {
                if w > v {
                    edges.push((v, w));
                }
            }
        }
        let pool = WorkerPool::new(COMPACT_WORKERS);
        let base = Arc::new(crate::build::build_csr_parallel(
            n,
            &edges,
            &pool,
            COMPACT_SPLIT,
        ));
        let part = lock(&self.part_spec).map(|spec| {
            Arc::new(PartitionedCsr::partition(
                &base,
                spec.nodes,
                spec.workers,
                spec.split,
            ))
        });
        let epoch = self.publish(base, part, Arc::new(DeltaIndex::default()), 1);
        storage_metrics().compactions.inc();
        Ok(epoch)
    }

    /// Swaps the publish pointer to a new epoch. The caller must hold the
    /// write lock (epoch numbering relies on it).
    fn publish(
        &self,
        base: Arc<CsrGraph>,
        part: Option<Arc<PartitionedCsr>>,
        delta: Arc<DeltaIndex>,
        cause: u64,
    ) -> u64 {
        let m = storage_metrics();
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let epoch = cur.epoch + 1;
        m.epochs.inc();
        m.epochs_live.add(1);
        *cur = Arc::new(EpochInner {
            epoch,
            base,
            part,
            delta,
        });
        pbfs_telemetry::recorder().mark(ENGINE_LANE, EventKind::EpochPublish, epoch, cause);
        epoch
    }
}

/// Merges one directed half-edge into the dirty map. Returns `true` when
/// the adjacency actually changed (duplicate inserts and absent deletes
/// are no-ops).
fn upsert(
    dirty: &mut HashMap<VertexId, Arc<[VertexId]>>,
    base: &CsrGraph,
    v: VertexId,
    w: VertexId,
    insert: bool,
) -> bool {
    let list: &[VertexId] = match dirty.get(&v) {
        Some(merged) => merged,
        None => base.neighbors(v),
    };
    let merged: Arc<[VertexId]> = match (list.binary_search(&w), insert) {
        (Ok(_), true) | (Err(_), false) => return false,
        (Err(pos), true) => {
            let mut next = Vec::with_capacity(list.len() + 1);
            next.extend_from_slice(&list[..pos]);
            next.push(w);
            next.extend_from_slice(&list[pos..]);
            next.into()
        }
        (Ok(pos), false) => {
            let mut next = Vec::with_capacity(list.len() - 1);
            next.extend_from_slice(&list[..pos]);
            next.extend_from_slice(&list[pos + 1..]);
            next.into()
        }
    };
    dirty.insert(v, merged);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;

    fn edge_set(g: &CsrGraph) -> std::collections::BTreeSet<(u32, u32)> {
        let mut set = std::collections::BTreeSet::new();
        for v in 0..g.num_vertices() as u32 {
            for &w in g.neighbors(v) {
                set.insert((v.min(w), v.max(w)));
            }
        }
        set
    }

    fn snapshot_edge_set(s: &GraphSnapshot) -> std::collections::BTreeSet<(u32, u32)> {
        let mut set = std::collections::BTreeSet::new();
        for v in 0..s.num_vertices() as u32 {
            for &w in s.neighbors_fast(v) {
                set.insert((v.min(w), v.max(w)));
            }
        }
        set
    }

    #[test]
    fn clean_snapshot_matches_base_exactly() {
        let g = Arc::new(gen::Kronecker::graph500(7).seed(3).generate());
        let store = GraphStore::new(Arc::clone(&g));
        let s = store.snapshot();
        assert_eq!(s.epoch(), 1);
        assert!(!s.has_deltas());
        assert_eq!(s.num_vertices(), g.num_vertices());
        assert_eq!(s.num_directed_edges(), g.num_directed_edges());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(s.neighbors_fast(v), g.neighbors(v));
            assert_eq!(Adjacency::degree(&s, v), g.degree(v));
        }
    }

    #[test]
    fn insert_and_delete_are_undirected_sorted_and_atomic() {
        let g = Arc::new(gen::path(8)); // 0-1-2-...-7
        let store = GraphStore::new(g);
        let before = store.snapshot();
        let e = store
            .apply_batch(&[
                EdgeMutation::Insert(0, 7),
                EdgeMutation::Insert(2, 5),
                EdgeMutation::Delete(3, 4),
            ])
            .unwrap();
        assert_eq!(e, 2);
        let after = store.snapshot();
        // Old snapshot is untouched (snapshot isolation).
        assert_eq!(before.neighbors_fast(0), &[1]);
        assert!(!before.has_deltas());
        // New epoch shows both directions, sorted.
        assert_eq!(after.neighbors_fast(0), &[1, 7]);
        assert_eq!(after.neighbors_fast(7), &[0, 6]);
        assert_eq!(after.neighbors_fast(2), &[1, 3, 5]);
        assert_eq!(after.neighbors_fast(5), &[2, 4, 6]);
        assert_eq!(after.neighbors_fast(3), &[2]);
        assert_eq!(after.neighbors_fast(4), &[5]);
        assert_eq!(
            after.num_directed_edges(),
            before.num_directed_edges() + 4 - 2
        );
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let store = GraphStore::new(Arc::new(gen::cycle(6)));
        let before = snapshot_edge_set(&store.snapshot());
        store
            .apply_batch(&[EdgeMutation::Insert(0, 1), EdgeMutation::Delete(2, 5)])
            .unwrap();
        let s = store.snapshot();
        assert_eq!(snapshot_edge_set(&s), before);
        assert_eq!(s.delta().mutations(), 2);
        // A new epoch is still published (the oracle tracks epochs, not
        // diffs), but no vertex is marked dirty.
        assert_eq!(s.epoch(), 2);
        assert!(!s.has_deltas());
    }

    #[test]
    fn invalid_mutations_are_typed_and_publish_nothing() {
        let store = GraphStore::new(Arc::new(gen::path(4)));
        let err = store
            .apply_batch(&[EdgeMutation::Insert(0, 9)])
            .unwrap_err();
        assert_eq!(
            err,
            MutationError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            }
        );
        assert!(err.to_string().contains("out of range"));
        let err = store
            .apply_batch(&[EdgeMutation::Insert(0, 1), EdgeMutation::Insert(2, 2)])
            .unwrap_err();
        assert_eq!(err, MutationError::SelfLoop { vertex: 2 });
        // Neither call published: the store still serves epoch 1 with the
        // original edges (the valid prefix of the failed batch included).
        let s = store.snapshot();
        assert_eq!(s.epoch(), 1);
        assert_eq!(snapshot_edge_set(&s), edge_set(store.snapshot().base()));
    }

    #[test]
    fn compaction_rebuilds_identical_logical_graph() {
        let g = Arc::new(gen::Kronecker::graph500(7).seed(11).generate());
        let store = GraphStore::new(g);
        let n = store.num_vertices() as u32;
        store
            .apply_batch(&[
                EdgeMutation::Insert(0, n - 1),
                EdgeMutation::Insert(1, n - 2),
                EdgeMutation::Delete(0, 1),
            ])
            .unwrap();
        let overlay = store.snapshot();
        assert!(overlay.has_deltas());
        let want = snapshot_edge_set(&overlay);
        let e = store.compact().unwrap();
        assert_eq!(e, 3);
        let compacted = store.snapshot();
        assert!(!compacted.has_deltas());
        assert_eq!(snapshot_edge_set(&compacted), want);
        assert_eq!(edge_set(compacted.base()), want);
        // Compacting a clean overlay is a no-op that publishes nothing.
        assert_eq!(store.compact().unwrap(), 3);
    }

    #[test]
    fn partitioned_epochs_mirror_the_overlay() {
        let g = Arc::new(gen::uniform(300, 900, 5));
        let store = GraphStore::new(g);
        store.enable_partition(2, 4, 64);
        assert!(store.is_partitioned());
        store
            .apply_batch(&[EdgeMutation::Insert(0, 299), EdgeMutation::Delete(0, 299)])
            .unwrap();
        store.apply_batch(&[EdgeMutation::Insert(7, 133)]).unwrap();
        let s = store.snapshot();
        let sharded = s.sharded_view().expect("partitioned store");
        for v in 0..s.num_vertices() as u32 {
            assert_eq!(sharded.neighbors_fast(v), s.neighbors_fast(v), "vertex {v}");
        }
        // Compaction rebuilds the mirror over the fresh base.
        store.compact().unwrap();
        let s = store.snapshot();
        let part = s.part().expect("mirror survives compaction");
        for v in 0..s.num_vertices() as u32 {
            assert_eq!(part.neighbors(v), s.base().neighbors(v), "vertex {v}");
        }
    }

    #[test]
    fn snapshots_pin_epochs_and_reclaim_on_drop() {
        let before = storage_metrics().epochs_live.get();
        let store = GraphStore::new(Arc::new(gen::cycle(16)));
        let pinned = store.snapshot();
        store.apply_batch(&[EdgeMutation::Insert(0, 8)]).unwrap();
        store.apply_batch(&[EdgeMutation::Insert(1, 9)]).unwrap();
        // Declared concurrency-tolerant: other tests create stores too, so
        // compare against the captured baseline, not an absolute value.
        assert!(storage_metrics().epochs_live.get() >= before + 2);
        let pinned_epoch = pinned.epoch();
        drop(pinned);
        drop(store);
        assert_eq!(pinned_epoch, 1);
    }
}
