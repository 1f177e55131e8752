//! Per-traversal statistics: the measurement substrate for Figures 6–9.

use crate::policy::Direction;

/// What one worker did during one BFS iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerIterStats {
    /// Nanoseconds spent in task bodies across both phases.
    pub busy_ns: u64,
    /// Adjacency entries scanned (the "visited neighbors" of Figure 6).
    pub visited_neighbors: u64,
    /// Vertex states newly set (the "updated BFS states" of Figure 7; for
    /// multi-source runs each set bit counts once).
    pub updated_states: u64,
    /// Task ranges executed.
    pub tasks: u64,
    /// Task ranges stolen from other queues.
    pub stolen: u64,
    /// Task ranges stolen across NUMA nodes.
    pub remote: u64,
}

/// One BFS iteration.
#[derive(Clone, Debug)]
pub struct IterationStats {
    /// Iteration number (1 = first expansion from the sources).
    pub iteration: u32,
    /// Direction used.
    pub direction: Direction,
    /// Wall-clock nanoseconds of the iteration.
    pub wall_ns: u64,
    /// Wall nanoseconds of the expansion phase: top-down phase 1 or the
    /// bottom-up pull loop (0 when instrumentation is off).
    pub expand_ns: u64,
    /// Wall nanoseconds of the top-down settle/filter phase 2 (0 for
    /// bottom-up iterations or when instrumentation is off).
    pub settle_ns: u64,
    /// Vertices in the frontier the iteration produced, which the next
    /// iteration starts from (0 at the end of a run to exhaustion).
    pub frontier_vertices: u64,
    /// States newly discovered in this iteration (bits for multi-source).
    pub discovered: u64,
    /// Summary chunks scanned by this iteration's frontier scans and
    /// bottom-up clears (0 for the sequential kernels).
    pub chunks_scanned: u64,
    /// Summary chunks skipped by the same scans (0 for the sequential
    /// kernels).
    pub chunks_skipped: u64,
    /// Per-worker breakdown (empty when instrumentation is off).
    pub per_worker: Vec<WorkerIterStats>,
}

impl IterationStats {
    /// Adjacency entries relaxed this iteration, summed over workers
    /// (0 when instrumentation is off — per-worker rows are absent then).
    pub fn edges_relaxed(&self) -> u64 {
        self.per_worker.iter().map(|w| w.visited_neighbors).sum()
    }

    /// Ratio of the longest to the shortest per-worker busy time
    /// (Figure 9, via [`pbfs_telemetry::max_min_ratio`]). Idle workers are
    /// clamped to 1 ns.
    pub fn busy_skew(&self) -> f64 {
        pbfs_telemetry::max_min_ratio(self.per_worker.iter().map(|w| w.busy_ns))
    }

    /// Deterministic imbalance of updated states across worker queues:
    /// max/mean ratio (1.0 = balanced, `T` = all work on one of `T`
    /// queues; see [`pbfs_telemetry::max_mean_ratio`]). Bounded, unlike
    /// max/min which explodes whenever one queue happens to own almost
    /// nothing in a sparse iteration.
    pub fn update_skew(&self) -> f64 {
        pbfs_telemetry::max_mean_ratio(self.per_worker.iter().map(|w| w.updated_states))
    }

    /// Deterministic imbalance of visited neighbors across worker queues
    /// (max/mean). The paper's Figure 9 effect concentrates here:
    /// identifying newly reachable vertices scans the (clustered)
    /// high-degree frontier in the first top-down phase, while state
    /// updates spread evenly.
    pub fn visited_skew(&self) -> f64 {
        pbfs_telemetry::max_mean_ratio(self.per_worker.iter().map(|w| w.visited_neighbors))
    }

    /// True iff every worker executed at least one task body this
    /// iteration; when false, measured busy-time skew is an artifact of
    /// oversubscription, not of the algorithm.
    pub fn all_workers_busy(&self) -> bool {
        !self.per_worker.is_empty() && self.per_worker.iter().all(|w| w.busy_ns > 0)
    }
}

/// A whole traversal.
#[derive(Clone, Debug, Default)]
pub struct TraversalStats {
    /// Per-iteration details.
    pub iterations: Vec<IterationStats>,
    /// End-to-end wall time (includes state initialization).
    pub total_wall_ns: u64,
    /// Total states discovered (= reached vertices; for multi-source the
    /// sum over all concurrent BFSs, sources included).
    pub total_discovered: u64,
    /// Summary chunks skipped without loading their state words (0 for the
    /// sequential kernels, which read no summary).
    pub summary_chunks_skipped: u64,
    /// Summary chunks scanned because their summary bit was set.
    pub summary_chunks_scanned: u64,
}

impl TraversalStats {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> u32 {
        self.iterations.len() as u32
    }

    /// Iterations that ran bottom-up.
    pub fn bottom_up_iterations(&self) -> usize {
        self.iterations
            .iter()
            .filter(|i| i.direction == Direction::BottomUp)
            .count()
    }

    /// Sums one per-worker field over all iterations, indexed by worker
    /// ([`pbfs_telemetry::fold_per_worker`]; iterations with fewer workers
    /// contribute zeros to the missing slots).
    pub fn fold_workers(&self, f: impl Fn(&WorkerIterStats) -> u64) -> Vec<u64> {
        pbfs_telemetry::fold_per_worker(self.iterations.iter().map(|i| i.per_worker.as_slice()), f)
    }

    /// Sum of per-worker busy time over all iterations, indexed by worker.
    pub fn busy_per_worker(&self) -> Vec<u64> {
        self.fold_workers(|w| w.busy_ns)
    }

    /// Sum of visited neighbors per worker over all iterations (Figure 6).
    pub fn visited_per_worker(&self) -> Vec<u64> {
        self.fold_workers(|w| w.visited_neighbors)
    }

    /// Fraction of summary chunks skipped during summary-guided frontier
    /// scans (0.0 when nothing was scanned, e.g. by the sequential kernels).
    pub fn summary_skip_ratio(&self) -> f64 {
        let total = self.summary_chunks_skipped + self.summary_chunks_scanned;
        if total == 0 {
            0.0
        } else {
            self.summary_chunks_skipped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_with(busy: &[u64], updated: &[u64]) -> IterationStats {
        IterationStats {
            iteration: 1,
            direction: Direction::TopDown,
            wall_ns: 100,
            expand_ns: 0,
            settle_ns: 0,
            frontier_vertices: 1,
            discovered: 10,
            chunks_scanned: 0,
            chunks_skipped: 0,
            per_worker: busy
                .iter()
                .zip(updated)
                .map(|(&b, &u)| WorkerIterStats {
                    busy_ns: b,
                    updated_states: u,
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn skews() {
        let mut it = iter_with(&[100, 20, 50], &[8, 2, 2]);
        assert!((it.busy_skew() - 5.0).abs() < 1e-12);
        // max/mean: 8 / ((8+2+2)/3) = 2.
        assert!((it.update_skew() - 2.0).abs() < 1e-12);
        it.per_worker[0].visited_neighbors = 90;
        it.per_worker[1].visited_neighbors = 0;
        it.per_worker[2].visited_neighbors = 0;
        // All the scanning on one of three queues → imbalance 3.
        assert!((it.visited_skew() - 3.0).abs() < 1e-12);
        assert!(it.all_workers_busy());
        it.per_worker[1].busy_ns = 0;
        assert!(!it.all_workers_busy());
    }

    #[test]
    fn skew_with_idle_worker_is_finite() {
        let it = iter_with(&[100, 0], &[5, 0]);
        assert_eq!(it.busy_skew(), 100.0);
        // max/mean with all updates on one of two queues → 2.
        assert_eq!(it.update_skew(), 2.0);
        let empty = iter_with(&[], &[]);
        assert_eq!(empty.update_skew(), 0.0);
        assert_eq!(empty.visited_skew(), 0.0);
        assert!(!empty.all_workers_busy());
    }

    #[test]
    fn per_worker_aggregation() {
        let t = TraversalStats {
            iterations: vec![iter_with(&[10, 20], &[1, 2]), iter_with(&[5, 5], &[3, 4])],
            ..Default::default()
        };
        assert_eq!(t.busy_per_worker(), vec![15, 25]);
        assert_eq!(t.num_iterations(), 2);
        assert_eq!(t.bottom_up_iterations(), 0);
    }

    #[test]
    fn summary_skip_ratio() {
        let mut t = TraversalStats::default();
        assert_eq!(t.summary_skip_ratio(), 0.0);
        t.summary_chunks_skipped = 30;
        t.summary_chunks_scanned = 10;
        assert!((t.summary_skip_ratio() - 0.75).abs() < 1e-12);
    }
}
