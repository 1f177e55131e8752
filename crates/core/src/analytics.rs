//! BFS-based analytics — the workloads that motivate multi-source BFS in
//! the paper's introduction: closeness centrality (APSP), neighborhood
//! enumeration, and reachability.

use std::sync::atomic::{AtomicU64, Ordering};

use pbfs_graph::{CsrGraph, VertexId};
use pbfs_sched::WorkerPool;

use crate::batch::{run_mspbfs_batches, BatchConsumer};
use crate::options::BfsOptions;
use crate::smspbfs::SmsPbfsBit;
use crate::stats::TraversalStats;
use crate::visitor::{ClosenessAccumulator, DistanceVisitor, LevelHistogram, MsVisitor};
use crate::UNREACHED;

/// Result of a closeness-centrality computation.
#[derive(Clone, Debug)]
pub struct ClosenessResult {
    /// Sources in input order.
    pub sources: Vec<VertexId>,
    /// Sum of hop distances from each source to all reached vertices.
    pub distance_sums: Vec<u64>,
    /// Vertices reached from each source (including itself).
    pub reached: Vec<u64>,
    /// Total vertices in the graph (for normalization).
    pub num_vertices: usize,
}

impl ClosenessResult {
    /// Wasserman–Faust closeness of source `i`, robust to disconnected
    /// graphs: `((r-1)/(n-1)) * ((r-1)/sum)` where `r` is the number of
    /// reached vertices. 0 for isolated sources.
    pub fn closeness(&self, i: usize) -> f64 {
        let r = self.reached[i];
        let sum = self.distance_sums[i];
        if r <= 1 || sum == 0 || self.num_vertices <= 1 {
            return 0.0;
        }
        let frac = (r - 1) as f64 / (self.num_vertices - 1) as f64;
        frac * (r - 1) as f64 / sum as f64
    }

    /// All closeness values in source order.
    pub fn values(&self) -> Vec<f64> {
        (0..self.sources.len()).map(|i| self.closeness(i)).collect()
    }

    /// `(source, closeness)` of the top `k` most central sources.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        let mut v: Vec<(VertexId, f64)> = self.sources.iter().copied().zip(self.values()).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

struct ClosenessConsumer<'a, const W: usize> {
    sums: &'a [AtomicU64],
    reached: &'a [AtomicU64],
}

impl<const W: usize> BatchConsumer<W> for ClosenessConsumer<'_, W> {
    type Visitor = ClosenessAccumulator<W>;

    fn visitor(&self, _batch_idx: usize, sources: &[VertexId]) -> Self::Visitor {
        ClosenessAccumulator::new(sources.len())
    }

    fn finish(
        &self,
        batch_idx: usize,
        sources: &[VertexId],
        visitor: Self::Visitor,
        _stats: &TraversalStats,
    ) {
        let base = batch_idx * W * 64;
        for i in 0..sources.len() {
            // Exclude the source's own distance-0 self-visit from `reached`
            // semantics? No: keep it, and subtract in the formula.
            self.sums[base + i].store(visitor.distance_sum(i), Ordering::Relaxed);
            self.reached[base + i].store(visitor.reached(i), Ordering::Relaxed);
        }
    }
}

/// Computes closeness centrality for `sources` using batched MS-PBFS —
/// the all-pairs-shortest-path workload of the paper's introduction.
/// Pass every vertex as a source for exact centrality.
pub fn closeness_centrality<const W: usize>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
) -> ClosenessResult {
    let mut sums = Vec::with_capacity(sources.len());
    sums.resize_with(sources.len(), || AtomicU64::new(0));
    let mut reached = Vec::with_capacity(sources.len());
    reached.resize_with(sources.len(), || AtomicU64::new(0));
    let consumer: ClosenessConsumer<'_, W> = ClosenessConsumer {
        sums: &sums,
        reached: &reached,
    };
    run_mspbfs_batches::<W, _>(g, pool, sources, opts, &consumer);
    ClosenessResult {
        sources: sources.to_vec(),
        distance_sums: sums.into_iter().map(AtomicU64::into_inner).collect(),
        reached: reached.into_iter().map(AtomicU64::into_inner).collect(),
        num_vertices: g.num_vertices(),
    }
}

/// The neighborhood function estimated from `sources`: `nf[d]` is the
/// number of `(source, vertex)` pairs within distance `d` (cumulative).
pub struct NeighborhoodFunction {
    /// Cumulative pair counts per distance.
    pub cumulative: Vec<u64>,
}

impl NeighborhoodFunction {
    /// Effective diameter at quantile `q` (e.g. 0.9): the smallest
    /// distance covering a `q` fraction of all reachable pairs, linearly
    /// interpolated like in the ANF literature.
    pub fn effective_diameter(&self, q: f64) -> f64 {
        let total = *self.cumulative.last().unwrap_or(&0);
        if total == 0 {
            return 0.0;
        }
        let target = q * total as f64;
        for d in 0..self.cumulative.len() {
            if self.cumulative[d] as f64 >= target {
                if d == 0 {
                    return 0.0;
                }
                let prev = self.cumulative[d - 1] as f64;
                let cur = self.cumulative[d] as f64;
                return (d - 1) as f64 + (target - prev) / (cur - prev).max(1.0);
            }
        }
        (self.cumulative.len() - 1) as f64
    }
}

struct NfConsumer<'a, const W: usize> {
    hist: &'a [AtomicU64],
}

impl<const W: usize> BatchConsumer<W> for NfConsumer<'_, W> {
    type Visitor = LevelHistogram<W>;

    fn visitor(&self, _batch_idx: usize, _sources: &[VertexId]) -> Self::Visitor {
        LevelHistogram::new(self.hist.len())
    }

    fn finish(
        &self,
        _batch_idx: usize,
        _sources: &[VertexId],
        visitor: Self::Visitor,
        _stats: &TraversalStats,
    ) {
        for (d, c) in visitor.counts().into_iter().enumerate() {
            self.hist[d].fetch_add(c, Ordering::Relaxed);
        }
    }
}

/// Estimates the neighborhood function (and hence the effective diameter)
/// by exact multi-source BFS from `sources`. `max_dist` bounds the
/// recorded histogram (e.g. 64 for small-world graphs).
pub fn neighborhood_function<const W: usize>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[VertexId],
    max_dist: usize,
    opts: &BfsOptions,
) -> NeighborhoodFunction {
    let mut hist = Vec::with_capacity(max_dist);
    hist.resize_with(max_dist, || AtomicU64::new(0));
    let consumer: NfConsumer<'_, W> = NfConsumer { hist: &hist };
    run_mspbfs_batches::<W, _>(g, pool, sources, opts, &consumer);
    let mut cumulative: Vec<u64> = hist.into_iter().map(AtomicU64::into_inner).collect();
    for d in 1..cumulative.len() {
        cumulative[d] += cumulative[d - 1];
    }
    NeighborhoodFunction { cumulative }
}

/// Vertices reachable from `source`, as a boolean mask, via SMS-PBFS.
pub fn reachable_from(
    g: &CsrGraph,
    pool: &WorkerPool,
    source: VertexId,
    opts: &BfsOptions,
) -> Vec<bool> {
    let visitor = DistanceVisitor::new(g.num_vertices());
    let mut bfs = SmsPbfsBit::new(g.num_vertices());
    bfs.run(g, pool, source, opts, &visitor);
    visitor
        .into_distances()
        .into_iter()
        .map(|d| d != UNREACHED)
        .collect()
}

/// Vertices within `k` hops of `source` (including it), sorted by id.
pub fn k_hop_neighborhood(
    g: &CsrGraph,
    pool: &WorkerPool,
    source: VertexId,
    k: u32,
    opts: &BfsOptions,
) -> Vec<VertexId> {
    let mut opts = *opts;
    opts.max_iterations = Some(k);
    let visitor = DistanceVisitor::new(g.num_vertices());
    let mut bfs = SmsPbfsBit::new(g.num_vertices());
    bfs.run(g, pool, source, &opts, &visitor);
    visitor
        .into_distances()
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d != UNREACHED && d <= k)
        .map(|(v, _)| v as VertexId)
        .collect()
}

/// Connected components computed with repeated SMS-PBFS sweeps: pick the
/// lowest unlabeled vertex, flood its component, repeat. Returns the
/// component id per vertex (ids ordered by lowest member).
///
/// On graphs that are one giant component (the paper's small-world
/// assumption) this is a single parallel BFS; the sequential fallback per
/// extra component only pays for what it labels.
pub fn connected_components(g: &CsrGraph, pool: &WorkerPool, opts: &BfsOptions) -> Vec<u32> {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut bfs = SmsPbfsBit::new(n);
    let mut next_id = 0u32;
    let mut cursor = 0usize;
    while let Some(root) = (cursor..n).find(|&v| comp[v] == u32::MAX) {
        cursor = root;
        let id = next_id;
        next_id += 1;
        // Isolated vertices (Graph500 graphs have many) skip the sweep.
        if g.degree(root as VertexId) == 0 {
            comp[root] = id;
            continue;
        }
        let visitor = DistanceVisitor::new(n);
        bfs.run(g, pool, root as VertexId, opts, &visitor);
        for (v, d) in visitor.into_distances().into_iter().enumerate() {
            if d != UNREACHED {
                comp[v] = id;
            }
        }
    }
    comp
}

/// All-pairs distances between `sources` and every vertex via one batched
/// multi-source sweep. `O(sources × n)` memory.
pub fn pairwise_distances<const W: usize>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[VertexId],
    opts: &BfsOptions,
) -> Vec<Vec<u32>> {
    struct Collector<'a, const W: usize> {
        out: &'a [std::sync::Mutex<Vec<u32>>],
        n: usize,
    }
    impl<const W: usize> BatchConsumer<W> for Collector<'_, W> {
        type Visitor = crate::visitor::MsDistanceVisitor<W>;
        fn visitor(&self, _i: usize, sources: &[VertexId]) -> Self::Visitor {
            crate::visitor::MsDistanceVisitor::new(self.n, sources.len())
        }
        fn finish(
            &self,
            batch_idx: usize,
            _sources: &[VertexId],
            visitor: Self::Visitor,
            _stats: &TraversalStats,
        ) {
            let base = batch_idx * W * 64;
            for (slot, row) in self.out[base..].iter().zip(visitor.into_distances()) {
                *slot.lock().unwrap() = row;
            }
        }
    }
    let out: Vec<std::sync::Mutex<Vec<u32>>> = (0..sources.len())
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    let consumer: Collector<'_, W> = Collector {
        out: &out,
        n: g.num_vertices(),
    };
    run_mspbfs_batches::<W, _>(g, pool, sources, opts, &consumer);
    out.into_iter().map(|m| m.into_inner().unwrap()).collect()
}

// Silence "unused import" for MsVisitor which is only used via trait bounds.
const _: fn() = || {
    fn assert_impl<const W: usize, T: MsVisitor<W>>() {}
    let _ = assert_impl::<1, ClosenessAccumulator<1>>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;
    use pbfs_graph::gen;

    #[test]
    fn closeness_of_star_center_is_maximal() {
        let g = gen::star(20);
        let pool = WorkerPool::new(2);
        let sources: Vec<u32> = (0..20).collect();
        let res = closeness_centrality::<1>(&g, &pool, &sources, &BfsOptions::default());
        let values = res.values();
        let center = values[0];
        assert!(
            values[1..].iter().all(|&v| v < center),
            "center must dominate: {values:?}"
        );
        assert_eq!(res.top_k(1)[0].0, 0);
        // Star center: sum = 19, reached = 20 → closeness = 1.
        assert!((center - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_matches_oracle_sums() {
        let g = gen::uniform_connected(150, 300, 31);
        let pool = WorkerPool::new(3);
        let sources: Vec<u32> = (0..150).collect();
        let res = closeness_centrality::<1>(&g, &pool, &sources, &BfsOptions::default());
        for &s in sources.iter().step_by(17) {
            let oracle: u64 = textbook::distances(&g, s)
                .iter()
                .filter(|&&d| d != UNREACHED)
                .map(|&d| d as u64)
                .sum();
            assert_eq!(res.distance_sums[s as usize], oracle, "source {s}");
            assert_eq!(res.reached[s as usize], 150);
        }
    }

    #[test]
    fn closeness_handles_disconnected_and_isolated() {
        let g = pbfs_graph::CsrGraph::from_edges(5, &[(0, 1)]);
        let pool = WorkerPool::new(1);
        let res = closeness_centrality::<1>(&g, &pool, &[0, 4], &BfsOptions::default());
        assert!(res.closeness(0) > 0.0);
        assert_eq!(res.closeness(1), 0.0, "isolated vertex has zero closeness");
    }

    #[test]
    fn neighborhood_function_of_path() {
        let g = gen::path(10);
        let pool = WorkerPool::new(2);
        let nf = neighborhood_function::<1>(&g, &pool, &[0], 16, &BfsOptions::default());
        // From vertex 0 of a 10-path: one vertex at each distance 0..=9.
        assert_eq!(nf.cumulative[0], 1);
        assert_eq!(nf.cumulative[9], 10);
        assert_eq!(*nf.cumulative.last().unwrap(), 10);
        // 90 % of 10 pairs = 9 pairs → distance 8.
        assert!((nf.effective_diameter(0.9) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn effective_diameter_of_small_world_is_small() {
        let g = gen::Kronecker::graph500(10).seed(33).generate();
        let pool = WorkerPool::new(2);
        let sources: Vec<u32> = (0..64).collect();
        let nf = neighborhood_function::<1>(&g, &pool, &sources, 32, &BfsOptions::default());
        assert!(nf.effective_diameter(0.9) < 8.0);
    }

    #[test]
    fn reachability_mask() {
        let g = gen::disjoint_union(&[&gen::path(4), &gen::cycle(3)]);
        let pool = WorkerPool::new(2);
        let mask = reachable_from(&g, &pool, 0, &BfsOptions::default());
        assert_eq!(mask, vec![true, true, true, true, false, false, false]);
    }

    #[test]
    fn k_hop_of_grid() {
        let g = gen::grid(5, 5);
        let pool = WorkerPool::new(2);
        let hood = k_hop_neighborhood(&g, &pool, 0, 2, &BfsOptions::default());
        // Manhattan ball of radius 2 around the corner: (0,0),(1,0),(0,1),
        // (2,0),(1,1),(0,2) → ids 0,1,5,2,6,10.
        assert_eq!(hood, vec![0, 1, 2, 5, 6, 10]);
    }

    #[test]
    fn k_hop_zero_is_source_only() {
        let g = gen::cycle(5);
        let pool = WorkerPool::new(1);
        assert_eq!(
            k_hop_neighborhood(&g, &pool, 3, 0, &BfsOptions::default()),
            vec![3]
        );
    }

    #[test]
    fn connected_components_match_graph_crate() {
        let g = gen::disjoint_union(&[&gen::grid(6, 5), &gen::cycle(7), &gen::star(4)]);
        let pool = WorkerPool::new(3);
        let ours = connected_components(&g, &pool, &BfsOptions::default());
        let reference = pbfs_graph::stats::ComponentInfo::compute(&g);
        // Same partition (ids may differ; here both order by lowest member,
        // so they coincide).
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(ours[v as usize], reference.component_of(v), "vertex {v}");
        }
    }

    #[test]
    fn connected_components_isolated_vertices() {
        let g = pbfs_graph::CsrGraph::from_edges(4, &[(1, 2)]);
        let pool = WorkerPool::new(2);
        let comp = connected_components(&g, &pool, &BfsOptions::default());
        assert_eq!(comp, vec![0, 1, 1, 2]);
    }

    #[test]
    fn pairwise_distances_match_oracle() {
        let g = gen::uniform(120, 500, 37);
        let pool = WorkerPool::new(3);
        let sources: Vec<u32> = (0..70).collect();
        let all = pairwise_distances::<1>(&g, &pool, &sources, &BfsOptions::default());
        assert_eq!(all.len(), 70);
        for (i, &s) in sources.iter().enumerate().step_by(13) {
            assert_eq!(all[i], textbook::distances(&g, s), "source {s}");
        }
    }
}
