//! Workload definitions, their seeded inputs, and the timed set-up that
//! takes an in-memory edge list to a serving engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pbfs_bitset::SUMMARY_CHUNK;
use pbfs_core::build::build_csr_parallel;
use pbfs_core::engine::{EngineConfig, QueryEngine};
use pbfs_core::options::BfsOptions;
use pbfs_core::storage::GraphStore;
use pbfs_graph::gen::{self, Kronecker};
use pbfs_graph::{CsrGraph, VertexId};
use pbfs_sched::WorkerPool;

/// Engine workers: one load-generating client shares the 2-vCPU box.
pub const WORKERS: usize = 2;

/// The graph a workload serves.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// Graph500 Kronecker graph.
    Kronecker {
        /// log2 of the vertex count.
        scale: u32,
        /// Generated edges per vertex.
        edge_factor: usize,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Vertices.
        n: usize,
        /// Ring-lattice degree.
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
}

impl GraphSpec {
    /// Human-readable parameters for the run metadata.
    pub fn describe(&self) -> String {
        match *self {
            GraphSpec::Kronecker { scale, edge_factor } => {
                format!("kronecker scale={scale} edge_factor={edge_factor}")
            }
            GraphSpec::WattsStrogatz { n, k, beta } => {
                format!("watts-strogatz n={n} k={k} beta={beta}")
            }
        }
    }
}

/// How the client offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// One thread keeps this many queries outstanding.
    Closed {
        /// Queries in flight.
        outstanding: usize,
    },
    /// Poisson arrivals at this many queries per second.
    Paced {
        /// Offered rate.
        rate: f64,
    },
}

/// The single writer's schedule (mutating workloads only).
#[derive(Clone, Copy, Debug)]
pub struct Writes {
    /// Completed reads between two mutation batches.
    pub reads_per_batch: u64,
    /// Edge mutations per batch (half inserts, half deletes).
    pub batch: usize,
    /// Every this many batches, the writer compacts.
    pub compact_every: u64,
    /// Batches after which a batch is undone (see `WriteStream`).
    pub undo_after: usize,
}

/// One workload: a graph, an engine configuration and a traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Served graph.
    pub graph: GraphSpec,
    /// Engine shards.
    pub shards: usize,
    /// Engine batch-width cap.
    pub max_batch: usize,
    /// Offered load.
    pub load: Load,
    /// Mutation stream, if any.
    pub writes: Option<Writes>,
    /// Every this many queries (by sequence number) is checked by the
    /// oracle.
    pub sample_every: u64,
}

const KRON14: GraphSpec = GraphSpec::Kronecker {
    scale: 14,
    edge_factor: 16,
};

/// Every workload.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "kron-closed",
        graph: KRON14,
        shards: 1,
        max_batch: 512,
        load: Load::Closed { outstanding: 1024 },
        writes: None,
        sample_every: 64,
    },
    Spec {
        name: "kron-paced",
        graph: KRON14,
        shards: 1,
        max_batch: 512,
        load: Load::Paced { rate: 200.0 },
        writes: None,
        sample_every: 8,
    },
    Spec {
        name: "ws-sharded",
        graph: GraphSpec::WattsStrogatz {
            n: 32_768,
            k: 8,
            beta: 0.1,
        },
        shards: 2,
        max_batch: 64,
        load: Load::Closed { outstanding: 128 },
        writes: None,
        sample_every: 64,
    },
    Spec {
        name: "kron-mutating",
        graph: KRON14,
        shards: 1,
        max_batch: 512,
        load: Load::Closed { outstanding: 1024 },
        writes: Some(Writes {
            reads_per_batch: 16,
            batch: 64,
            compact_every: 64,
            undo_after: 32,
        }),
        sample_every: 512,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The same traffic on a graph 16× smaller, for the smoke test.
    pub fn smoke(mut self) -> Self {
        self.graph = match self.graph {
            GraphSpec::Kronecker { edge_factor, .. } => GraphSpec::Kronecker {
                scale: 10,
                edge_factor,
            },
            GraphSpec::WattsStrogatz { k, beta, .. } => {
                GraphSpec::WattsStrogatz { n: 2048, k, beta }
            }
        };
        self
    }

    /// The engine configuration this workload serves with: defaults
    /// (2 ms flush deadline, autotune, `FrontierMode::Auto`) apart from
    /// workers, shards and the width cap.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default()
            .with_workers(WORKERS)
            .with_shards(self.shards)
            .with_max_batch(self.max_batch)
    }

    /// Answers between two CPU-time readings: whole batch cycles in a
    /// closed loop (a multiple of the 512-wide flush), about a second of
    /// arrivals in an open one.
    pub fn tick_every(&self) -> u64 {
        match self.load {
            Load::Closed { outstanding } => 2 * outstanding.max(512) as u64,
            Load::Paced { rate } => rate.ceil() as u64,
        }
    }

    /// Batch widths this workload's flushes use, widest last.
    pub fn widths(&self) -> &'static [usize] {
        match (self.load, self.max_batch) {
            (Load::Paced { .. }, _) => &[1, 64, 128, 256, 512],
            (Load::Closed { .. }, 64) => &[64],
            _ => &[512],
        }
    }
}

/// A workload's inputs, generated from the seed outside any timing.
pub struct Inputs {
    /// Vertices.
    pub n: usize,
    /// Undirected edge list as generated (before cleanup).
    pub edges: Vec<(VertexId, VertexId)>,
    /// The cleaned-up graph, for source selection and the oracle.
    pub graph: CsrGraph,
    /// Query sources in submission order (Graph500 rule: degree > 0).
    pub sources: Vec<VertexId>,
}

/// Sources drawn per run; the client cycles through them.
const SOURCES: usize = 1 << 15;

/// Seed of every workload's graph. The graph is part of the workload's
/// definition, like its size: `--seed` varies the traffic on it (sources,
/// arrival times, mutations), so runs with different seeds compare the
/// same structure instead of Kronecker draws whose BFS cost differs by
/// tens of percent.
pub const GRAPH_SEED: u64 = 0x6_7261_7068;

impl Inputs {
    /// Generates the workload's graph and the source sequence for `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let (n, edges) = match spec.graph {
            GraphSpec::Kronecker { scale, edge_factor } => {
                let k = Kronecker::graph500(scale)
                    .edge_factor(edge_factor)
                    .seed(GRAPH_SEED);
                (k.num_vertices(), k.edges())
            }
            GraphSpec::WattsStrogatz { n, k, beta } => {
                let g = gen::watts_strogatz(n, k, beta, GRAPH_SEED);
                let edges = g.edges().filter(|&(u, v)| u < v).collect();
                (n, edges)
            }
        };
        let graph = CsrGraph::from_edges(n, &edges);
        let sources = pbfs_bench::datasets::pick_sources(&graph, SOURCES, seed ^ 0x5eed);
        Self {
            n,
            edges,
            graph,
            sources,
        }
    }
}

/// A serving engine and what it took to get there.
pub struct Served {
    /// The engine, answering queries.
    pub engine: QueryEngine,
    /// Its store (the writer mutates through this handle).
    pub store: Arc<GraphStore>,
    /// Per-step set-up times.
    pub times: SetupTimes,
}

/// Set-up broken into its public calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `build_csr_parallel` (Graph500 kernel 1), pool start included.
    pub build: Duration,
    /// `GraphStore::new`.
    pub store: Duration,
    /// `GraphStore::enable_partition` (sharded workloads; zero otherwise).
    pub partition: Duration,
    /// `QueryEngine::with_store`.
    pub start: Duration,
    /// First `submit` → `wait`.
    pub first_result: Duration,
}

impl SetupTimes {
    /// Edge list to first answered query.
    pub fn total(&self) -> Duration {
        self.build + self.store + self.partition + self.start + self.first_result
    }
}

/// Takes the in-memory edge list to a serving engine that has answered
/// its first query, timing every step.
pub fn set_up(spec: &Spec, inputs: &Inputs) -> Served {
    let config = spec.engine_config();
    let split = BfsOptions::default().split_size;
    let t0 = Instant::now();
    let csr = {
        let pool = WorkerPool::new(WORKERS);
        build_csr_parallel(inputs.n, &inputs.edges, &pool, split)
    };
    let t1 = Instant::now();
    let store = GraphStore::new(Arc::new(csr));
    let t2 = Instant::now();
    if spec.shards > 1 {
        // Exactly the layout `QueryEngine::with_store` would attach, which
        // then finds the store partitioned and keeps it.
        store.enable_partition(
            spec.shards,
            WORKERS,
            pbfs_sched::aligned_split(split, SUMMARY_CHUNK),
        );
    }
    let t3 = Instant::now();
    let engine = QueryEngine::with_store(Arc::clone(&store), config);
    let t4 = Instant::now();
    let first = engine
        .submit(inputs.sources[0])
        .and_then(|h| h.wait())
        .expect("first query on a fresh engine");
    let t5 = Instant::now();
    assert_eq!(first.len(), inputs.n, "first result covers the graph");
    Served {
        engine,
        store,
        times: SetupTimes {
            build: t1 - t0,
            store: t2 - t1,
            partition: t3 - t2,
            start: t4 - t3,
            first_result: t5 - t4,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(find("nope").is_none());
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let spec = find("ws-sharded").unwrap().smoke();
        let a = Inputs::generate(&spec, 3);
        let b = Inputs::generate(&spec, 3);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.sources, b.sources);
        assert!(a.sources.iter().all(|&s| a.graph.degree(s) > 0));
    }

    #[test]
    fn set_up_serves_the_generated_graph() {
        let spec = find("ws-sharded").unwrap().smoke();
        let inputs = Inputs::generate(&spec, 1);
        let served = set_up(&spec, &inputs);
        assert_eq!(served.store.num_vertices(), inputs.n);
        assert!(served.store.is_partitioned());
        assert!(served.times.total() > Duration::ZERO);
    }
}
