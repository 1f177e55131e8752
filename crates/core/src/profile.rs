//! Builds phase-attributed [`TraversalProfile`]s from kernel statistics.
//!
//! [`pbfs_telemetry::profile`] owns the profile *representation* and its
//! renderings (table, JSON, folded stacks); this module owns the
//! *producer*: attributing a [`TraversalStats`] to phases and estimating
//! the byte volume each phase touched under a [`MemoryModel`].
//!
//! The attribution partitions the wall clock exactly:
//!
//! * Each iteration contributes an expansion row (`expand` for top-down
//!   phase 1, `bottom_up` for the pull loop), a `settle` row (top-down
//!   phase 2), and an `other` row holding the iteration wall time not
//!   covered by the measured phases (buffer rotation, frontier clears —
//!   or the whole iteration when the run was not instrumented, since
//!   phase walls are only measured under [`BfsOptions::instrument`]).
//! * A trailing `overhead` row (iteration 0) holds the traversal wall
//!   time outside all iterations: state init and source seeding.
//!
//! Phase walls are clamped into the iteration wall so the rows always sum
//! to [`TraversalProfile::total_ns`] — the reconciliation invariant the
//! renderers rely on.
//!
//! [`BfsOptions::instrument`]: crate::options::BfsOptions

use pbfs_bitset::SUMMARY_CHUNK;
use pbfs_telemetry::{PhaseRow, TraversalProfile};

use crate::memory::MemoryModel;
use crate::policy::Direction;
use crate::stats::TraversalStats;

/// Bytes per CSR adjacency entry (`u32` neighbor ids).
const EDGE_BYTES: u64 = 4;

/// Builds a phase-attributed profile for one traversal.
///
/// `algo` and `width` identify the kernel (e.g. `"mspbfs"`, 64);
/// `model` supplies the per-entry state size used for the `bytes_est`
/// column. The estimate is traffic under the paper's model, not a
/// hardware counter: expansion touches one adjacency entry plus one
/// state entry per relaxed edge, settling rewrites one state entry per
/// discovery, and summary-guided scans read `SUMMARY_CHUNK` state
/// entries per scanned chunk.
pub fn build_profile(
    algo: &str,
    width: usize,
    stats: &TraversalStats,
    model: &MemoryModel,
) -> TraversalProfile {
    let entry_bytes = (model.width_words * 8) as u64;
    let mut rows = Vec::with_capacity(stats.iterations.len() * 3 + 1);
    let mut iter_total = 0u64;
    for it in &stats.iterations {
        iter_total += it.wall_ns;
        let edges = it.edges_relaxed();
        // Clamp measured phase walls into the iteration wall so the three
        // rows partition it exactly even under timer jitter.
        let expand = it.expand_ns.min(it.wall_ns);
        let settle = it.settle_ns.min(it.wall_ns - expand);
        let scan_bytes = it.chunks_scanned * SUMMARY_CHUNK as u64 * entry_bytes;
        rows.push(PhaseRow {
            iteration: it.iteration,
            phase: match it.direction {
                Direction::TopDown => "expand",
                Direction::BottomUp => "bottom_up",
            },
            ns: expand,
            edges,
            scanned: it.chunks_scanned,
            skipped: it.chunks_skipped,
            bytes_est: edges * (EDGE_BYTES + entry_bytes) + scan_bytes,
        });
        if it.direction == Direction::TopDown {
            rows.push(PhaseRow {
                iteration: it.iteration,
                phase: "settle",
                ns: settle,
                edges: 0,
                scanned: 0,
                skipped: 0,
                bytes_est: it.discovered * entry_bytes,
            });
        }
        rows.push(PhaseRow {
            iteration: it.iteration,
            phase: "other",
            ns: it.wall_ns - expand - settle,
            edges: 0,
            scanned: 0,
            skipped: 0,
            bytes_est: 0,
        });
    }
    rows.push(PhaseRow {
        iteration: 0,
        phase: "overhead",
        ns: stats.total_wall_ns.saturating_sub(iter_total),
        edges: 0,
        scanned: 0,
        skipped: 0,
        bytes_est: 0,
    });
    let mut p = TraversalProfile {
        algo: algo.to_string(),
        width,
        total_ns: 0,
        discovered: stats.total_discovered,
        rows,
    };
    p.total_ns = p.rows_total_ns();
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mspbfs::MsPbfs;
    use crate::options::BfsOptions;
    use crate::visitor::NoopMsVisitor;
    use pbfs_graph::gen;
    use pbfs_sched::WorkerPool;

    #[test]
    fn instrumented_profile_reconciles_with_stats() {
        let g = gen::Kronecker::graph500(10).seed(5).generate();
        let pool = WorkerPool::new(3);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let sources: Vec<u32> = (0..64).collect();
        let stats = bfs.run(
            &g,
            &pool,
            &sources,
            &BfsOptions::default().instrumented(),
            &NoopMsVisitor,
        );
        let model = MemoryModel::graph500(g.num_vertices());
        let p = build_profile("mspbfs", 64, &stats, &model);
        assert_eq!(p.rows_total_ns(), p.total_ns);
        // The acceptance bar: table totals reconcile with TraversalStats
        // within 5%. By construction the only slack is the overhead clamp.
        let wall = stats.total_wall_ns as f64;
        assert!(
            (p.total_ns as f64 - wall).abs() <= 0.05 * wall,
            "profile {} vs wall {}",
            p.total_ns,
            stats.total_wall_ns
        );
        // Instrumented top-down iterations carry measured expand/settle
        // time and the relaxed-edge counts.
        assert!(p.rows.iter().any(|r| r.phase == "expand" && r.ns > 0));
        assert!(p.rows.iter().any(|r| r.phase == "settle"));
        let edges: u64 = p.rows.iter().map(|r| r.edges).sum();
        assert!(edges > 0);
        // Summary mode records scan activity in the expansion rows.
        let scans: u64 = p.rows.iter().map(|r| r.scanned + r.skipped).sum();
        assert!(scans > 0);
        assert!(p
            .rows
            .iter()
            .all(|r| r.phase != "expand" || r.bytes_est > 0));
    }

    #[test]
    fn uninstrumented_runs_attribute_iterations_to_other() {
        let g = gen::cycle(500);
        let pool = WorkerPool::new(2);
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let stats = bfs.run(&g, &pool, &[0], &BfsOptions::default(), &NoopMsVisitor);
        let model = MemoryModel::graph500(g.num_vertices());
        let p = build_profile("mspbfs", 1, &stats, &model);
        assert_eq!(p.rows_total_ns(), p.total_ns);
        // No measured phase walls: expansion rows are empty, iteration
        // time lands in `other`.
        assert!(p
            .rows
            .iter()
            .filter(|r| r.phase == "expand" || r.phase == "bottom_up")
            .all(|r| r.ns == 0));
        assert!(p.rows.iter().any(|r| r.phase == "other" && r.ns > 0));
    }
}
