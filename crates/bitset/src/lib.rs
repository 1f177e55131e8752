//! Fixed-width k-wide bitsets and dense atomic state arrays.
//!
//! This crate provides the low-level data structures that power the
//! array-based BFS algorithms of the EDBT 2017 paper *"Parallel Array-Based
//! Single- and Multi-Source Breadth First Searches on Large Dense Graphs"*:
//!
//! * [`Bits`] — a `W * 64`-bit wide bitset encoding the state of one vertex
//!   across up to `W * 64` concurrent BFS traversals (the MS-BFS encoding).
//!   Type aliases [`B64`], [`B128`], [`B256`], [`B512`] match the widths the
//!   paper discusses for native CPU register support.
//! * [`StateArray`] — a dense array of `Bits<W>` values, one per vertex,
//!   backed by atomic words so that the first phase of the parallel top-down
//!   traversal can merge frontiers with atomic OR while every other phase
//!   uses cheap relaxed accesses.
//! * [`AtomicBitVec`] / [`AtomicByteVec`] — one-bit- and one-byte-per-vertex
//!   state for the single-source SMS-PBFS variants, including the 64-bit
//!   chunk-skipping scan described in Section 3.2 of the paper.
//! * [`BitVec`] — a plain (non-atomic) bit vector used by the sequential
//!   baselines.
//! * [`FrontierSummary`] — a second-level bitmap (one bit per
//!   [`SUMMARY_CHUNK`] vertices) embedded in the three atomic state types,
//!   maintained by `fetch_or` on first activation, that lets sparse
//!   frontier scans skip inactive chunks in O(active / 4096) instead of
//!   O(V / 64) word loads; see [`summary`].
//! * [`convert`] — the summary-guided gather of a state array into the
//!   sparse `(vertex, bits)` queue that MS-PBFS expands when the online
//!   adaptive frontier controller (`pbfs-core::adapt`) picks the sparse
//!   strategy.
//! * [`prefetch`] — a safe software-prefetch shim (no-op off x86-64) used
//!   by the traversal kernels to hide the CSR offset → adjacency →
//!   destination-state pointer-chase latency.
//! * [`simd`] — runtime-dispatched (AVX-512 → AVX2 → SSE2 → scalar) vector
//!   kernels for the hot bitset operations, bit-identical to the scalar
//!   reference at every level, backed by the 64-byte cache-line-aligned
//!   allocations of the atomic state types.
//!
//! All atomic accessors use `Relaxed` ordering: the BFS algorithms only ever
//! *add* information within an iteration and separate iterations (and the
//! two top-down phases) with full barriers, so no cross-word ordering is
//! required — exactly the argument made in Section 3.1.1 of the paper.

#![warn(missing_docs)]

// Failpoint shim: `crate::fail_point!` is the real injection macro when the
// `failpoints` feature is on and expands to nothing otherwise, so
// instrumented sites need no per-site cfg noise.
#[cfg(feature = "failpoints")]
pub(crate) use pbfs_fault::fail_point;
#[cfg(not(feature = "failpoints"))]
macro_rules! fail_point {
    ($($tt:tt)*) => {};
}
#[cfg(not(feature = "failpoints"))]
pub(crate) use fail_point;

mod aligned;
pub mod bits;
pub mod bitvec;
pub mod bytevec;
pub mod convert;
pub mod prefetch;
pub mod simd;
pub mod state;
pub mod summary;

pub use aligned::CACHE_LINE_BYTES;
pub use bits::{Bits, B128, B256, B512, B64};
pub use bitvec::{AtomicBitVec, BitVec};
pub use bytevec::AtomicByteVec;
pub use simd::{SettleFlags, SimdLevel};
pub use state::StateArray;
pub use summary::{FrontierSummary, ScanStats, SUMMARY_CHUNK, SUMMARY_SPAN};

/// Number of bits per machine word used throughout the crate.
pub const WORD_BITS: usize = 64;

/// Rounds `bits` up to the number of 64-bit words needed to store them.
#[inline]
pub const fn words_for_bits(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}
