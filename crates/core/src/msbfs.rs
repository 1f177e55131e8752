//! Sequential multi-source MS-BFS (Then et al., VLDB 2014) — the baseline
//! that MS-PBFS parallelizes.
//!
//! Up to `W * 64` BFSs run concurrently on one thread; per-vertex bitsets
//! (`seen`, `frontier`, `next`) merge their traversals whenever several
//! BFSs reach a vertex at the same distance. Listings 1 (top-down) and 2
//! (bottom-up) of the paper are implemented verbatim, plus the bottom-up
//! early-exit and direction switching.

use pbfs_bitset::Bits;
use pbfs_graph::{CsrGraph, VertexId};

use crate::options::BfsOptions;
use crate::policy::{Direction, FrontierState};
use crate::stats::{IterationStats, TraversalStats, WorkerIterStats};
use crate::visitor::MsVisitor;

/// A reusable sequential multi-source BFS over batches of up to `W * 64`
/// sources.
///
/// ```
/// use pbfs_core::msbfs::MsBfs;
/// use pbfs_core::prelude::*;
/// use pbfs_graph::gen;
///
/// let g = gen::cycle(8);
/// let mut bfs: MsBfs<1> = MsBfs::new(g.num_vertices());
/// let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(8, 2);
/// bfs.run(&g, &[0, 4], &BfsOptions::default(), &dists);
/// assert_eq!(dists.distance(0, 4), 4);
/// assert_eq!(dists.distance(1, 4), 0);
/// ```
pub struct MsBfs<const W: usize> {
    seen: Vec<Bits<W>>,
    frontier: Vec<Bits<W>>,
    next: Vec<Bits<W>>,
}

impl<const W: usize> MsBfs<W> {
    /// Allocates state for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            seen: vec![Bits::EMPTY; n],
            frontier: vec![Bits::EMPTY; n],
            next: vec![Bits::EMPTY; n],
        }
    }

    /// Bytes of dynamic BFS state (the Figure 3 quantity for one
    /// instance).
    pub fn state_bytes(&self) -> usize {
        3 * self.seen.len() * W * 8
    }

    /// Runs one batch of concurrent BFSs from `sources`.
    ///
    /// # Panics
    /// Panics if `sources` is empty, exceeds `W * 64`, or contains an
    /// out-of-range vertex.
    pub fn run(
        &mut self,
        g: &CsrGraph,
        sources: &[VertexId],
        opts: &BfsOptions,
        visitor: &impl MsVisitor<W>,
    ) -> TraversalStats {
        let n = g.num_vertices();
        assert_eq!(self.seen.len(), n, "state sized for a different graph");
        assert!(!sources.is_empty(), "need at least one source");
        assert!(sources.len() <= W * 64, "batch exceeds bitset width");
        let start = std::time::Instant::now();
        // Engine-driven runs carry a query-set id; emitting the Iteration
        // spans with it keeps this baseline's traces causally linked to
        // the batch lifecycle, exactly like the parallel kernels.
        let qset = opts.query_set;
        let rec = pbfs_telemetry::recorder();

        self.seen.fill(Bits::EMPTY);
        self.frontier.fill(Bits::EMPTY);
        self.next.fill(Bits::EMPTY);

        let full = Bits::<W>::first_n(sources.len());
        let mut frontier_vertices = 0u64;
        let mut frontier_degree = 0u64;
        let mut unexplored_degree = g.num_directed_edges() as u64;
        for (i, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source out of range");
            let bit = Bits::single(i);
            if self.seen[s as usize].is_empty() {
                frontier_vertices += 1;
                frontier_degree += g.degree(s) as u64;
            }
            self.seen[s as usize] |= bit;
            self.frontier[s as usize] |= bit;
            visitor.on_found(s, 0, bit);
        }
        // Bit `i` is set only at `sources[i]`, so a fully seen source means
        // every source is that one vertex: its degree counts once.
        let s = sources[0];
        if self.seen[s as usize] == full {
            unexplored_degree = unexplored_degree.saturating_sub(g.degree(s) as u64);
        }

        let mut stats = TraversalStats {
            total_discovered: sources.len() as u64,
            ..Default::default()
        };
        let mut direction = Direction::TopDown;
        let mut depth = 0u32;

        while frontier_vertices > 0 {
            if let Some(max) = opts.max_iterations {
                if depth >= max {
                    break;
                }
            }
            direction = opts.policy.decide(&FrontierState {
                frontier_vertices,
                frontier_degree,
                unexplored_degree,
                total_vertices: n as u64,
                current: direction,
            });
            depth += 1;
            let iter_start = std::time::Instant::now();
            let mut visited = 0u64;
            let mut discovered_bits = 0u64;
            let mut new_fv = 0u64;
            let mut new_fd = 0u64;

            match direction {
                Direction::TopDown => {
                    // Listing 1, first phase: aggregate reachability.
                    for v in 0..n {
                        let f = self.frontier[v];
                        if f.is_empty() {
                            continue;
                        }
                        for &nbr in g.neighbors(v as VertexId) {
                            self.next[nbr as usize] |= f;
                        }
                        visited += g.degree(v as VertexId) as u64;
                    }
                    // Listing 1, second phase: identify new discoveries and
                    // clear the frontier for buffer reuse.
                    for v in 0..n {
                        self.frontier[v] = Bits::EMPTY;
                        let nx = self.next[v];
                        if nx.is_empty() {
                            continue;
                        }
                        let new = nx.and_not(&self.seen[v]);
                        if new != nx {
                            self.next[v] = new;
                        }
                        if !new.is_empty() {
                            let merged = self.seen[v] | new;
                            self.seen[v] = merged;
                            visitor.on_found(v as VertexId, depth, new);
                            discovered_bits += new.count_ones() as u64;
                            new_fv += 1;
                            new_fd += g.degree(v as VertexId) as u64;
                            if merged == full {
                                unexplored_degree = unexplored_degree
                                    .saturating_sub(g.degree(v as VertexId) as u64);
                            }
                        }
                    }
                    std::mem::swap(&mut self.frontier, &mut self.next);
                }
                Direction::BottomUp => {
                    // Listing 2 with the early-exit optimization.
                    for u in 0..n {
                        let seen_u = self.seen[u];
                        if seen_u == full {
                            continue;
                        }
                        let mut acc = Bits::EMPTY;
                        for &v in g.neighbors(u as VertexId) {
                            visited += 1;
                            acc |= self.frontier[v as usize];
                            if opts.early_exit && (acc | seen_u) == full {
                                break;
                            }
                        }
                        let new = acc.and_not(&seen_u);
                        if !new.is_empty() {
                            self.next[u] = new;
                            let merged = seen_u | new;
                            self.seen[u] = merged;
                            visitor.on_found(u as VertexId, depth, new);
                            discovered_bits += new.count_ones() as u64;
                            new_fv += 1;
                            new_fd += g.degree(u as VertexId) as u64;
                            if merged == full {
                                unexplored_degree = unexplored_degree
                                    .saturating_sub(g.degree(u as VertexId) as u64);
                            }
                        }
                    }
                    std::mem::swap(&mut self.frontier, &mut self.next);
                    self.next.fill(Bits::EMPTY);
                }
            }

            frontier_vertices = new_fv;
            frontier_degree = new_fd;
            stats.total_discovered += discovered_bits;
            let iter_wall = iter_start.elapsed();
            rec.span_at_ctx(
                0,
                pbfs_telemetry::EventKind::Iteration,
                iter_start,
                iter_wall,
                depth as u64,
                discovered_bits,
                qset,
            );
            stats.iterations.push(IterationStats {
                iteration: depth,
                direction,
                wall_ns: iter_wall.as_nanos() as u64,
                expand_ns: 0,
                settle_ns: 0,
                frontier_vertices,
                discovered: discovered_bits,
                chunks_scanned: 0,
                chunks_skipped: 0,
                per_worker: vec![WorkerIterStats {
                    busy_ns: iter_start.elapsed().as_nanos() as u64,
                    visited_neighbors: visited,
                    updated_states: discovered_bits,
                    tasks: 1,
                    ..Default::default()
                }],
            });
        }

        stats.total_wall_ns = start.elapsed().as_nanos() as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::textbook;
    use crate::visitor::MsDistanceVisitor;
    use pbfs_graph::gen;

    fn check_batch<const W: usize>(g: &CsrGraph, sources: &[VertexId], opts: &BfsOptions) {
        let mut bfs: MsBfs<W> = MsBfs::new(g.num_vertices());
        let dists: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        bfs.run(g, sources, opts, &dists);
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
    fn single_source_matches_oracle() {
        let g = gen::Kronecker::graph500(9).seed(1).generate();
        check_batch::<1>(&g, &[3], &BfsOptions::default());
    }

    #[test]
    fn full_batch_matches_oracle() {
        let g = gen::uniform(300, 1200, 2);
        let sources: Vec<u32> = (0..64).map(|i| (i * 4) % 300).collect();
        check_batch::<1>(&g, &sources, &BfsOptions::default());
    }

    #[test]
    fn wide_bitsets_match_oracle() {
        let g = gen::uniform(200, 700, 3);
        let sources: Vec<u32> = (0..100u32).map(|i| i % 200).collect();
        check_batch::<2>(&g, &sources, &BfsOptions::default());
        check_batch::<4>(&g, &sources, &BfsOptions::default());
    }

    #[test]
    fn duplicate_sources_share_state() {
        let g = gen::path(6);
        check_batch::<1>(&g, &[2, 2, 5], &BfsOptions::default());
    }

    #[test]
    fn forced_directions_match() {
        let g = gen::Kronecker::graph500(8).seed(5).generate();
        let sources: Vec<u32> = (0..16).collect();
        for policy in [
            DirectionPolicy::AlwaysTopDown,
            DirectionPolicy::AlwaysBottomUp,
        ] {
            check_batch::<1>(&g, &sources, &BfsOptions::default().with_policy(policy));
        }
    }

    #[test]
    fn early_exit_off_matches() {
        let g = gen::uniform(150, 600, 8);
        let sources: Vec<u32> = (0..32).collect();
        let opts = BfsOptions {
            early_exit: false,
            ..Default::default()
        };
        check_batch::<1>(&g, &sources, &opts);
    }

    #[test]
    fn disconnected_sources() {
        let g = gen::disjoint_union(&[&gen::path(5), &gen::cycle(4)]);
        check_batch::<1>(&g, &[0, 5], &BfsOptions::default());
    }

    #[test]
    fn max_iterations_truncates() {
        let g = gen::path(10);
        let mut bfs: MsBfs<1> = MsBfs::new(10);
        let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(10, 1);
        let mut opts = BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown);
        opts.max_iterations = Some(3);
        let stats = bfs.run(&g, &[0], &opts, &dists);
        assert_eq!(stats.num_iterations(), 3);
        assert_eq!(dists.distance(0, 3), 3);
        assert_eq!(dists.distance(0, 4), crate::UNREACHED);
    }

    #[test]
    fn traversal_stats_are_consistent() {
        let g = gen::Kronecker::graph500(8).seed(9).generate();
        let mut bfs: MsBfs<1> = MsBfs::new(g.num_vertices());
        let stats = bfs.run(
            &g,
            &[0, 1, 2, 3],
            &BfsOptions::default(),
            &crate::visitor::NoopMsVisitor,
        );
        let per_iter: u64 = stats.iterations.iter().map(|i| i.discovered).sum();
        assert_eq!(
            stats.total_discovered,
            per_iter + 4,
            "sources count at distance 0"
        );
        assert!(stats.num_iterations() > 0);
    }

    #[test]
    fn state_bytes_formula() {
        let bfs: MsBfs<1> = MsBfs::new(1000);
        assert_eq!(bfs.state_bytes(), 3 * 1000 * 8);
        let bfs: MsBfs<8> = MsBfs::new(1000);
        assert_eq!(bfs.state_bytes(), 3 * 1000 * 64);
    }

    #[test]
    fn state_is_reusable_across_runs() {
        let g = gen::cycle(12);
        let mut bfs: MsBfs<1> = MsBfs::new(12);
        for s in 0..12u32 {
            let dists: MsDistanceVisitor<1> = MsDistanceVisitor::new(12, 1);
            bfs.run(&g, &[s], &BfsOptions::default(), &dists);
            assert_eq!(
                dists.distances_of(0),
                textbook::distances(&g, s),
                "source {s}"
            );
        }
    }
}
