//! Graph substrate for the PBFS suite: CSR storage, generators, vertex
//! labelings, statistics and I/O.
//!
//! The BFS algorithms of the paper operate on undirected, unweighted
//! small-world graphs stored in compressed sparse row (CSR) form with 32-bit
//! vertex identifiers (Section 5: "using 32-bit vertex identifiers and
//! requiring 2 × vertex_size = 8 bytes per edge").
//!
//! * [`CsrGraph`] — adjacency storage plus the builder that applies the
//!   Graph500 edge-list cleanup rules (self-loop removal, deduplication,
//!   symmetrization).
//! * [`gen`] — workload generators: the Graph500 Kronecker/R-MAT generator
//!   and synthetic stand-ins for the paper's real-world datasets
//!   (see DESIGN.md for the substitution table), plus deterministic
//!   topologies for testing.
//! * [`labeling`] — vertex relabeling schemes: random, degree-ordered, and
//!   the paper's novel **striped** labeling (Section 4.3).
//! * [`stats`] — degree/component statistics and the GTEPS accounting used
//!   by the evaluation.
//! * [`io`] — text and binary edge-list formats.

#![warn(missing_docs)]

// Failpoint shim: `crate::fail_point!` is the real injection macro when the
// `failpoints` feature is on and expands to nothing otherwise.
#[cfg(feature = "failpoints")]
pub(crate) use pbfs_fault::fail_point;
#[cfg(not(feature = "failpoints"))]
macro_rules! fail_point {
    ($($tt:tt)*) => {};
}
#[cfg(not(feature = "failpoints"))]
pub(crate) use fail_point;

pub mod csr;
pub mod gen;
pub mod io;
pub mod labeling;
pub mod partitioned;
pub mod stats;
pub mod transform;

pub use csr::{BuildOptions, CsrGraph};
pub use io::{GraphIoError, GraphMeta};
pub use labeling::Permutation;
pub use partitioned::{PartitionError, PartitionedCsr};
pub use stats::{ComponentInfo, GraphStats};

/// Vertex identifier. 32 bits suffice for every graph in the evaluation and
/// halve the memory traffic of the hot adjacency scans compared to `usize`.
pub type VertexId = u32;

/// Marker for an unreachable / invalid vertex.
pub const INVALID_VERTEX: VertexId = VertexId::MAX;
