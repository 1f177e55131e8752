//! The (S)MS-PBFS scheduler: per-worker task queues with low-overhead work
//! stealing, a persistent worker pool, and a (simulated) NUMA topology.
//!
//! This crate implements Section 4 of *"Parallel Array-Based Single- and
//! Multi-Source Breadth First Searches on Large Dense Graphs"* (EDBT 2017):
//!
//! * [`TaskQueues`] — task creation (`create_tasks`, Listing 5) and the
//!   lock-free task retrieval with resume-offset work stealing
//!   (`fetch_task`, Listing 6).
//! * [`WorkerPool`] — the parallelized for loop (Listing 7): persistent
//!   workers that fetch task ranges until all queues are drained, with the
//!   calling thread participating as worker 0.
//! * [`Topology`] — a NUMA model mapping workers and task ranges to nodes.
//!   On the evaluation machine of the paper this corresponds to real
//!   sockets; here it is simulated so locality (local vs. stolen vs. remote
//!   task executions) is *measured* rather than assumed. See DESIGN.md for
//!   the substitution rationale.
//! * [`RunStats`] — per-worker instrumentation (busy time, tasks executed /
//!   stolen / remote) powering the utilization and skew experiments
//!   (Figures 2, 6, 7, 9 of the paper).

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

pub mod instrument;
pub mod pool;
pub mod task;
pub mod topology;

pub use instrument::{RunStats, WorkerRun};
pub use pool::{publish_configured_workers, WorkerPool};
pub use task::{aligned_split, TaskQueues, DEFAULT_SPLIT_SIZE};
pub use topology::Topology;

/// Identifies a worker within a [`WorkerPool`]; worker 0 is the caller.
pub type WorkerId = usize;
