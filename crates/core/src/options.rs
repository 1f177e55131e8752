//! Tuning knobs shared by all BFS implementations.

use crate::policy::DirectionPolicy;

/// How the first top-down phase merges frontiers into `next`.
///
/// The paper (Section 3.1.1) formulates the update as a CAS loop; on x86 a
/// single `lock or` (`fetch_or`) has identical semantics because bits are
/// only ever added. The `ablation_atomic` bench quantifies the difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AtomicKind {
    /// `AtomicU64::fetch_or` per word (default).
    #[default]
    FetchOr,
    /// Explicit compare-and-swap loop per word, as written in the paper.
    CasLoop,
}

/// Per-run configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsOptions {
    /// Vertices per task range (`splitSize`, Section 4.2.1). 256+ keeps
    /// scheduling overhead below 1 % on million-vertex graphs.
    pub split_size: usize,
    /// Direction-switching policy.
    pub policy: DirectionPolicy,
    /// Atomic update flavour for the first top-down phase of MS-PBFS. The
    /// single-source states have one update each and ignore it.
    pub atomic: AtomicKind,
    /// 64-bit chunk skipping when scanning dense single-source state
    /// (Section 3.2). MS-PBFS finds non-empty entries with a SIMD mask
    /// either way. Disable only for the ablation bench.
    pub chunk_skip: bool,
    /// Bottom-up early exit once no further bits can be gained
    /// (Section 3.1.2). SMS-PBFS shares the bottom-up body, so this also
    /// stops a single-source pull at its first frontier neighbor; without
    /// it every neighbor is scanned. Disable only for the ablation bench.
    pub early_exit: bool,
    /// Collect per-iteration, per-worker statistics. Costs one `Instant`
    /// read per task; leave off in throughput measurements.
    pub instrument: bool,
    /// Query-set id stamping the traversal's trace spans, causally linking
    /// them to the engine batch being served. `0` = unattributed (direct
    /// kernel invocations outside the engine).
    pub query_set: u64,
    /// Stop after this many iterations (for k-hop queries); `None` runs to
    /// exhaustion.
    pub max_iterations: Option<u32>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            split_size: pbfs_sched::DEFAULT_SPLIT_SIZE,
            policy: DirectionPolicy::default(),
            atomic: AtomicKind::FetchOr,
            chunk_skip: true,
            early_exit: true,
            instrument: false,
            query_set: 0,
            max_iterations: None,
        }
    }
}

impl BfsOptions {
    /// Returns a copy with instrumentation enabled.
    pub fn instrumented(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Returns a copy with the given direction policy.
    pub fn with_policy(mut self, policy: DirectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with the given task range size.
    pub fn with_split_size(mut self, split_size: usize) -> Self {
        self.split_size = split_size;
        self
    }

    /// Returns a copy attributed to the given query-set id (0 clears).
    pub fn with_query_set(mut self, query_set: u64) -> Self {
        self.query_set = query_set;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = BfsOptions::default();
        assert_eq!(o.split_size, 256);
        assert_eq!(o.atomic, AtomicKind::FetchOr);
        assert!(o.chunk_skip);
        assert!(o.early_exit);
        assert!(!o.instrument);
        assert_eq!(o.query_set, 0);
        assert!(o.max_iterations.is_none());
    }

    #[test]
    fn builders() {
        let o = BfsOptions::default().instrumented().with_split_size(64);
        assert!(o.instrument);
        assert_eq!(o.split_size, 64);
    }
}
