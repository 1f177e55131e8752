//! Compressed sparse row adjacency storage.

use crate::VertexId;

/// Edge-list cleanup applied while building a [`CsrGraph`].
///
/// The defaults match the Graph500 benchmark rules the paper follows:
/// undirected graph, self loops removed, duplicate (parallel) edges merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Insert the reverse of every edge so neighbor lists are symmetric.
    pub symmetrize: bool,
    /// Drop `(v, v)` edges.
    pub drop_self_loops: bool,
    /// Merge parallel edges.
    pub dedup: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            symmetrize: true,
            drop_self_loops: true,
            dedup: true,
        }
    }
}

/// An unweighted graph in CSR form: `offsets[v]..offsets[v+1]` indexes the
/// sorted neighbor list of vertex `v` within `targets`.
///
/// ```
/// use pbfs_graph::CsrGraph;
///
/// // A triangle plus a pendant vertex.
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert_eq!(g.degree(3), 1);
/// ```
pub struct CsrGraph {
    offsets: Box<[u64]>,
    targets: Box<[VertexId]>,
}

impl CsrGraph {
    /// Builds an undirected graph with default (Graph500) cleanup rules.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_edges_with(num_vertices, edges, BuildOptions::default())
    }

    /// Assembles a graph from prebuilt CSR arrays (used by the parallel
    /// builder in `pbfs-core`). Each adjacency list must be sorted.
    ///
    /// # Panics
    /// Panics if the offsets are not monotone starting at 0, if
    /// `offsets.last() != targets.len()`, or if a target is out of range.
    pub fn from_raw_parts(offsets: Box<[u64]>, targets: Box<[VertexId]>) -> Self {
        assert!(
            !offsets.is_empty() && offsets[0] == 0,
            "offsets must start at 0"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must cover targets"
        );
        let n = offsets.len() - 1;
        assert!(n <= u32::MAX as usize, "vertex ids are 32-bit");
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "target out of range"
        );
        debug_assert!((0..n).all(|v| {
            targets[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] <= w[1])
        }));
        Self { offsets, targets }
    }

    /// Non-panicking variant of [`CsrGraph::from_raw_parts`] for arrays
    /// deserialized from untrusted input: every structural violation is a
    /// typed [`GraphIoError`](crate::GraphIoError) instead of a panic.
    pub fn try_from_raw_parts(
        offsets: Box<[u64]>,
        targets: Box<[VertexId]>,
    ) -> Result<Self, crate::io::GraphIoError> {
        use crate::io::GraphIoError;
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(GraphIoError::NonMonotoneOffsets { index: 0 });
        }
        if let Some(i) = (1..offsets.len()).find(|&i| offsets[i] < offsets[i - 1]) {
            return Err(GraphIoError::NonMonotoneOffsets { index: i });
        }
        let declared = *offsets.last().unwrap();
        if declared != targets.len() as u64 {
            return Err(GraphIoError::OffsetTargetMismatch {
                declared,
                targets: targets.len(),
            });
        }
        let n = offsets.len() - 1;
        if n > u32::MAX as usize {
            return Err(GraphIoError::CountOverflow {
                what: "vertex",
                value: n as u64,
            });
        }
        if let Some((i, &t)) = targets
            .iter()
            .enumerate()
            .find(|&(_, &t)| (t as usize) >= n)
        {
            return Err(GraphIoError::EndpointOutOfRange {
                line: None,
                edge: Some(i),
                endpoint: t as u64,
                num_vertices: n,
            });
        }
        Ok(Self::from_raw_parts(offsets, targets))
    }

    /// Builds a graph with explicit cleanup rules.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= num_vertices` or if
    /// `num_vertices > u32::MAX as usize`.
    pub fn from_edges_with(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        opts: BuildOptions,
    ) -> Self {
        crate::fail_point!("graph.csr.build");
        assert!(num_vertices <= u32::MAX as usize, "vertex ids are 32-bit");
        let n = num_vertices;
        let keep = |&(u, v): &(VertexId, VertexId)| {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            !(opts.drop_self_loops && u == v)
        };

        // Pass 1: degree counting.
        let mut counts = vec![0u64; n + 1];
        for e in edges.iter().filter(|e| keep(e)) {
            counts[e.0 as usize + 1] += 1;
            if opts.symmetrize {
                counts[e.1 as usize + 1] += 1;
            }
        }
        // Exclusive prefix sum → provisional offsets.
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;

        // Pass 2: scatter.
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; offsets[n] as usize];
        for e in edges.iter().filter(|e| keep(e)) {
            let c = &mut cursor[e.0 as usize];
            targets[*c as usize] = e.1;
            *c += 1;
            if opts.symmetrize {
                let c = &mut cursor[e.1 as usize];
                targets[*c as usize] = e.0;
                *c += 1;
            }
        }

        // Pass 3: sort + optional dedup per adjacency list, then compact.
        let mut out_offsets = vec![0u64; n + 1];
        let mut write = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[start..end].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in start..end {
                let t = targets[i];
                if opts.dedup && prev == Some(t) {
                    continue;
                }
                prev = Some(t);
                targets[write] = t;
                write += 1;
            }
            out_offsets[v + 1] = write as u64;
        }
        targets.truncate(write);

        Self {
            offsets: out_offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
        }
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed adjacency entries (2× the undirected edge count
    /// for symmetrized graphs).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges (assumes a symmetrized graph).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Sorted neighbor list of `v`, skipping the slice bounds checks.
    ///
    /// Semantically identical to [`Self::neighbors`] but avoids the double
    /// bounds check (offsets, then targets) in the traversal hot loops.
    /// Safe to call for any `v < num_vertices()`: the CSR invariants —
    /// monotone offsets bounded by `targets.len()` — are established at
    /// construction and never change.
    #[inline]
    pub fn neighbors_fast(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        debug_assert!(v + 1 < self.offsets.len(), "vertex out of range");
        // SAFETY: `from_raw_parts`/`from_edges_with` guarantee
        // `offsets.len() == num_vertices + 1`, offsets are monotone, and
        // `offsets[n] == targets.len()`, so `lo <= hi <= targets.len()`.
        unsafe {
            let lo = *self.offsets.get_unchecked(v) as usize;
            let hi = *self.offsets.get_unchecked(v + 1) as usize;
            debug_assert!(lo <= hi && hi <= self.targets.len());
            self.targets.get_unchecked(lo..hi)
        }
    }

    /// Best-effort prefetch of `v`'s CSR offset pair.
    #[inline]
    pub fn prefetch_offsets(&self, v: VertexId) {
        pbfs_bitset::prefetch::prefetch_index(&self.offsets, v as usize);
    }

    /// Best-effort prefetch of the start of `v`'s adjacency list.
    #[inline]
    pub fn prefetch_neighbors(&self, v: VertexId) {
        let o = self.offsets[v as usize] as usize;
        pbfs_bitset::prefetch::prefetch_index(&self.targets, o);
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Number of vertices with at least one neighbor — the vertex count the
    /// paper reports ("The vertex counts only consider vertices that have
    /// at least one neighbor").
    pub fn num_connected_vertices(&self) -> usize {
        (0..self.num_vertices())
            .filter(|&v| self.degree(v as VertexId) > 0)
            .count()
    }

    /// True iff the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates all vertices `0..num_vertices()`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as VertexId).map(|v| v as VertexId)
    }

    /// Iterates every undirected edge once, as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u <= v)
                .map(move |&v| (u, v))
        })
    }

    /// The raw offsets array (length `num_vertices() + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Actual heap bytes of the CSR representation.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.targets.len() * 4
    }

    /// Graph memory size under the paper's accounting model:
    /// `2 × vertex_size = 8` bytes per undirected edge (Table 1 caption).
    pub fn paper_model_bytes(&self) -> usize {
        self.num_edges() * 8
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.num_vertices() <= 16 {
            f.debug_map()
                .entries(self.vertices().map(|v| (v, self.neighbors(v))))
                .finish()
        } else {
            write!(
                f,
                "CsrGraph({} vertices, {} edges)",
                self.num_vertices(),
                self.num_edges()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_sorted_deduped() {
        // Duplicates, self loop, unordered input.
        let g = CsrGraph::from_edges(4, &[(1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (0, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_connected_vertices(), 3);
    }

    #[test]
    fn directed_build_keeps_orientation() {
        let opts = BuildOptions {
            symmetrize: false,
            ..Default::default()
        };
        let g = CsrGraph::from_edges_with(3, &[(0, 1), (1, 2)], opts);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.num_directed_edges(), 2);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let opts = BuildOptions {
            drop_self_loops: false,
            ..Default::default()
        };
        let g = CsrGraph::from_edges_with(2, &[(0, 0), (0, 1)], opts);
        // Self loop symmetrizes onto itself → appears twice, deduped to one.
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn parallel_edges_kept_when_requested() {
        let opts = BuildOptions {
            dedup: false,
            ..Default::default()
        };
        let g = CsrGraph::from_edges_with(2, &[(0, 1), (0, 1)], opts);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.num_directed_edges(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = CsrGraph::from_edges(10, &[(0, 9)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_connected_vertices(), 2);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn neighbors_fast_matches_checked() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]);
        for v in g.vertices() {
            assert_eq!(g.neighbors_fast(v), g.neighbors(v), "vertex {v}");
            g.prefetch_offsets(v);
            g.prefetch_neighbors(v);
        }
    }

    #[test]
    fn has_edge_and_edges_iterator() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn memory_accounting() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.paper_model_bytes(), 2 * 8);
        assert_eq!(g.heap_bytes(), 4 * 8 + 4 * 4);
    }
}
