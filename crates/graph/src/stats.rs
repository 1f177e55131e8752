//! Graph statistics: degrees, connected components, and the edge counts
//! behind the GTEPS metric.
//!
//! The Graph500 specification (and Table 1 of the paper) defines the number
//! of traversed edges per BFS source as the number of input edges in the
//! connected component of that source, with each undirected edge counted
//! once. [`ComponentInfo`] provides exactly that accounting.

use crate::{CsrGraph, VertexId};

/// Summary statistics of a graph.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Vertices including isolated ones.
    pub num_vertices: usize,
    /// Vertices with at least one neighbor (the count the paper reports).
    pub num_connected_vertices: usize,
    /// Undirected edges after cleanup.
    pub num_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree over connected vertices.
    pub avg_degree: f64,
    /// `hist[b]` counts vertices with degree in `[2^b, 2^(b+1))`;
    /// `hist[0]` additionally counts degree-1 vertices.
    pub degree_log_histogram: Vec<usize>,
    /// Graph memory under the paper's 8-bytes-per-edge model.
    pub paper_model_bytes: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn compute(g: &CsrGraph) -> Self {
        let mut max_degree = 0usize;
        let mut connected = 0usize;
        let mut hist: Vec<usize> = Vec::new();
        for v in g.vertices() {
            let d = g.degree(v);
            if d == 0 {
                continue;
            }
            connected += 1;
            max_degree = max_degree.max(d);
            let bucket = usize::BITS as usize - 1 - d.leading_zeros() as usize;
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        let avg_degree = if connected == 0 {
            0.0
        } else {
            g.num_directed_edges() as f64 / connected as f64
        };
        Self {
            num_vertices: g.num_vertices(),
            num_connected_vertices: connected,
            num_edges: g.num_edges(),
            max_degree,
            avg_degree,
            degree_log_histogram: hist,
            paper_model_bytes: g.paper_model_bytes(),
        }
    }
}

/// Connected components plus per-component undirected edge counts.
pub struct ComponentInfo {
    comp_of: Vec<u32>,
    sizes: Vec<usize>,
    edges: Vec<u64>,
}

impl ComponentInfo {
    /// Labels components with an iterative traversal (no recursion, safe
    /// for web-scale chains).
    pub fn compute(g: &CsrGraph) -> Self {
        const UNSET: u32 = u32::MAX;
        let n = g.num_vertices();
        let mut comp_of = vec![UNSET; n];
        let mut sizes = Vec::new();
        let mut stack: Vec<VertexId> = Vec::new();
        for root in 0..n as VertexId {
            if comp_of[root as usize] != UNSET {
                continue;
            }
            let cid = sizes.len() as u32;
            sizes.push(0);
            comp_of[root as usize] = cid;
            stack.push(root);
            while let Some(v) = stack.pop() {
                sizes[cid as usize] += 1;
                for &nbr in g.neighbors(v) {
                    if comp_of[nbr as usize] == UNSET {
                        comp_of[nbr as usize] = cid;
                        stack.push(nbr);
                    }
                }
            }
        }
        let mut edges = vec![0u64; sizes.len()];
        for (u, _v) in g.edges() {
            edges[comp_of[u as usize] as usize] += 1;
        }
        Self {
            comp_of,
            sizes,
            edges,
        }
    }

    /// Number of components (isolated vertices are singleton components).
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Component id of `v`.
    #[inline]
    pub fn component_of(&self, v: VertexId) -> u32 {
        self.comp_of[v as usize]
    }

    /// Vertices in component `c`.
    pub fn size(&self, c: u32) -> usize {
        self.sizes[c as usize]
    }

    /// Undirected edges inside component `c` — the GTEPS numerator per BFS
    /// from any source in `c` ("each undirected edge is only counted
    /// once").
    pub fn edges_in(&self, c: u32) -> u64 {
        self.edges[c as usize]
    }

    /// Undirected edges in the component of `source`.
    pub fn edges_from_source(&self, source: VertexId) -> u64 {
        self.edges_in(self.component_of(source))
    }

    /// Size of the largest component.
    pub fn largest_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Id of the largest component.
    pub fn largest_component(&self) -> u32 {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Some vertex of the largest component (useful as a BFS source that
    /// reaches most of the graph).
    pub fn vertex_in_largest(&self) -> Option<VertexId> {
        let target = self.largest_component();
        self.comp_of
            .iter()
            .position(|&c| c == target)
            .map(|v| v as VertexId)
    }
}

/// Upper-bounds the diameter by running pseudo-peripheral sweeps: BFS from
/// `probes` vertices and report the maximum eccentricity observed. Exact on
/// trees/paths when probes hit the periphery; a lower bound in general.
pub fn estimate_diameter(g: &CsrGraph, probes: usize, seed: u64) -> u32 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = 0u32;
    let mut from = 0 as VertexId;
    for probe in 0..probes.max(1) {
        let (ecc, far) = eccentricity(g, from);
        best = best.max(ecc);
        // Double-sweep: continue from the farthest vertex; otherwise jump
        // to a random one.
        from = if probe % 2 == 0 {
            far
        } else {
            rng.random_range(0..n as VertexId)
        };
    }
    best
}

/// Single-source BFS returning (max distance, a farthest vertex). Internal:
/// the real BFS implementations live in `pbfs-core`; this tiny one avoids a
/// dependency cycle.
fn eccentricity(g: &CsrGraph, source: VertexId) -> (u32, VertexId) {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    let (mut ecc, mut far) = (0u32, source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d > ecc {
            ecc = d;
            far = v;
        }
        for &nbr in g.neighbors(v) {
            if dist[nbr as usize] == u32::MAX {
                dist[nbr as usize] = d + 1;
                queue.push_back(nbr);
            }
        }
    }
    (ecc, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_star() {
        let s = GraphStats::compute(&gen::star(9));
        assert_eq!(s.num_vertices, 9);
        assert_eq!(s.num_connected_vertices, 9);
        assert_eq!(s.num_edges, 8);
        assert_eq!(s.max_degree, 8);
        // Center degree 8 → bucket 3; leaves degree 1 → bucket 0.
        assert_eq!(s.degree_log_histogram[0], 8);
        assert_eq!(s.degree_log_histogram[3], 1);
        assert_eq!(s.paper_model_bytes, 64);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::compute(&CsrGraph::from_edges(5, &[]));
        assert_eq!(s.num_connected_vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn components_of_disjoint_union() {
        let g = gen::disjoint_union(&[&gen::path(3), &gen::complete(4), &gen::star(2)]);
        let info = ComponentInfo::compute(&g);
        assert_eq!(info.num_components(), 3);
        assert_eq!(info.size(info.component_of(0)), 3);
        assert_eq!(info.size(info.component_of(3)), 4);
        assert_eq!(info.edges_in(info.component_of(0)), 2);
        assert_eq!(info.edges_in(info.component_of(3)), 6);
        assert_eq!(info.edges_from_source(7), 1);
        assert_eq!(info.largest_size(), 4);
        assert_eq!(info.vertex_in_largest(), Some(3));
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let info = ComponentInfo::compute(&g);
        assert_eq!(info.num_components(), 3);
        assert_eq!(info.size(info.component_of(2)), 1);
        assert_eq!(info.edges_in(info.component_of(2)), 0);
    }

    #[test]
    fn component_edges_sum_to_total() {
        let g = gen::uniform(300, 600, 7);
        let info = ComponentInfo::compute(&g);
        let total: u64 = (0..info.num_components() as u32)
            .map(|c| info.edges_in(c))
            .sum();
        assert_eq!(total, g.num_edges() as u64);
    }

    #[test]
    fn diameter_of_path_and_grid() {
        assert_eq!(estimate_diameter(&gen::path(10), 4, 1), 9);
        assert_eq!(estimate_diameter(&gen::grid(5, 4), 6, 1), 7);
        assert_eq!(estimate_diameter(&gen::complete(8), 2, 1), 1);
    }

    #[test]
    fn kronecker_has_small_diameter() {
        let g = gen::Kronecker::graph500(11).seed(2).generate();
        let d = estimate_diameter(&g, 4, 3);
        assert!(d <= 10, "small-world graphs have tiny diameters, got {d}");
    }
}
