//! Array-based single- and multi-source BFS algorithms.
//!
//! This crate implements the algorithmic content of *"Parallel Array-Based
//! Single- and Multi-Source Breadth First Searches on Large Dense Graphs"*
//! (Kaufmann, Then, Kemper, Neumann — EDBT 2017) together with the
//! baselines it evaluates against:
//!
//! | Module | Algorithm | Paper section |
//! |---|---|---|
//! | [`textbook`] | queue-based sequential BFS (correctness oracle) | §2 |
//! | [`beamer`] | direction-optimizing BFS, three sequential variants | §2.1, §5.2 |
//! | [`msbfs`] | sequential multi-source MS-BFS | §2.2 |
//! | [`mspbfs`] | **MS-PBFS** — parallel multi-source BFS | §3.1 |
//! | [`smspbfs`] | **SMS-PBFS** — parallel single-source BFS (bit & byte) | §3.2 |
//! | `driver` (crate-private) | the level-synchronous loop under MS-PBFS, SMS-PBFS and the sharded kernel | §3 |
//! | [`batch`] | multi-batch drivers (per-core instances, one-per-socket) | §5.3 |
//! | [`sharded`] | scatter/gather MS-BFS over the partitioned CSR (library kernel; engines run MS-PBFS) | §4.4 |
//! | [`engine`] | online batched query engine (request coalescing, sharding) | — |
//! | [`analytics`] | closeness centrality, neighborhood function, reachability, connected components | §1 |
//! | [`centrality`] | Brandes betweenness, harmonic centrality | §1 |
//! | [`memory`] | BFS-state memory accounting (Figure 3) | §2.3 |
//! | [`validate`] | Graph500-style BFS tree validation | §5 |
//!
//! # Quick start
//!
//! ```
//! use pbfs_core::prelude::*;
//! use pbfs_graph::gen;
//! use pbfs_sched::WorkerPool;
//!
//! let g = gen::Kronecker::graph500(10).seed(1).generate();
//! let pool = WorkerPool::new(4);
//!
//! // Parallel single-source BFS (bit representation).
//! let mut bfs = SmsPbfsBit::new(g.num_vertices());
//! let distances = DistanceVisitor::new(g.num_vertices());
//! bfs.run(&g, &pool, 0, &BfsOptions::default(), &distances);
//!
//! // The textbook oracle agrees.
//! let oracle = pbfs_core::textbook::bfs(&g, 0);
//! assert_eq!(distances.into_distances(), oracle.distances);
//! ```

#![warn(missing_docs)]

// Failpoint shim: `crate::fail_point!` is the real injection macro when the
// `failpoints` feature is on and expands to nothing otherwise. pbfs-fault
// itself is an unconditional dependency (the chaos harness needs its
// registry API in every build); only the macro is feature-gated.
#[cfg(feature = "failpoints")]
pub(crate) use pbfs_fault::fail_point;
#[cfg(not(feature = "failpoints"))]
macro_rules! fail_point {
    ($($tt:tt)*) => {};
}
#[cfg(not(feature = "failpoints"))]
pub(crate) use fail_point;

pub mod analytics;
pub mod batch;
pub mod beamer;
pub mod build;
pub mod centrality;
pub mod chaos;
mod driver;
pub mod engine;
pub mod memory;
pub mod msbfs;
pub mod mspbfs;
pub(crate) mod obs;
pub mod options;
pub mod policy;
pub mod profile;
pub mod sharded;
pub mod smspbfs;
pub mod stats;
pub mod storage;
pub mod textbook;
pub mod validate;
pub mod visitor;

/// Distance value for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::beamer::{DirectionOptBfs, QueueKind};
    pub use crate::engine::{EngineConfig, EngineError, EngineStats, QueryEngine, QueryHandle};
    pub use crate::msbfs::MsBfs;
    pub use crate::mspbfs::MsPbfs;
    pub use crate::options::{AtomicKind, BfsOptions};
    pub use crate::policy::{Direction, DirectionPolicy};
    pub use crate::sharded::ShardedMsBfs;
    pub use crate::smspbfs::{SmsPbfsBit, SmsPbfsByte};
    pub use crate::stats::{IterationStats, TraversalStats};
    pub use crate::storage::{
        Adjacency, EdgeMutation, GraphSnapshot, GraphStore, ShardedAdjacency,
    };
    pub use crate::visitor::{
        DistanceVisitor, MsDistanceVisitor, MsVisitor, NoopMsVisitor, NoopVisitor, ParentVisitor,
        SsVisitor,
    };
    pub use crate::UNREACHED;
}
