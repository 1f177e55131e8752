//! Per-iteration statistics parity across the parallel kernels.
//!
//! `MsPbfs`, `SmsPbfs` and `ShardedMsBfs` share one level-synchronous
//! driver, which produces their `IterationStats`. Under a fixed top-down
//! schedule every kernel must report the same levels as the sequential
//! `MsBfs`: the same number of iterations, the same discoveries and
//! produced frontier per iteration, and the same total. The sharded
//! kernel must also honour `BfsOptions::instrument` like the others.

use pbfs::core::memory::MemoryModel;
use pbfs::core::prelude::*;
use pbfs::core::profile::build_profile;
use pbfs::graph::{gen, CsrGraph, PartitionedCsr};
use pbfs::sched::WorkerPool;

const WORKERS: usize = 3;

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("uniform(300, 1500, 8)", gen::uniform(300, 1500, 8)),
        (
            "kronecker(8)",
            gen::Kronecker::graph500(8).seed(4).generate(),
        ),
    ]
}

fn top_down() -> BfsOptions {
    BfsOptions::default().with_policy(DirectionPolicy::AlwaysTopDown)
}

/// 48 distinct sources spread over the vertex range.
fn sources(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices() as u32;
    (0..48).map(|i| i * 5 % n).collect()
}

fn sequential(g: &CsrGraph, sources: &[u32]) -> TraversalStats {
    let mut seq: MsBfs<1> = MsBfs::new(g.num_vertices());
    seq.run(g, sources, &top_down(), &NoopMsVisitor)
}

fn assert_same_levels(what: &str, got: &TraversalStats, want: &TraversalStats) {
    assert_eq!(
        got.num_iterations(),
        want.num_iterations(),
        "{what}: iterations"
    );
    for (a, b) in got.iterations.iter().zip(&want.iterations) {
        assert_eq!(a.iteration, b.iteration, "{what}");
        assert_eq!(
            a.discovered, b.discovered,
            "{what}: discovered in iteration {}",
            a.iteration
        );
        assert_eq!(
            a.frontier_vertices, b.frontier_vertices,
            "{what}: frontier produced by iteration {}",
            a.iteration
        );
    }
    assert_eq!(
        got.total_discovered, want.total_discovered,
        "{what}: total discovered"
    );
    // `frontier_vertices` is the frontier an iteration produced, so a run
    // to exhaustion ends on an empty one.
    assert_eq!(
        got.iterations.last().map(|it| it.frontier_vertices),
        Some(0),
        "{what}: last frontier"
    );
}

#[test]
fn multi_source_kernels_match_sequential_levels() {
    let pool = WorkerPool::new(WORKERS);
    for (name, g) in graphs() {
        let sources = sources(&g);
        let want = sequential(&g, &sources);
        assert_same_levels(&format!("{name} MsBfs<1>"), &want, &want);

        let mut par: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let got = par.run(&g, &pool, &sources, &top_down(), &NoopMsVisitor);
        assert_same_levels(&format!("{name} MsPbfs<1>"), &got, &want);

        for parts in [1usize, 2, 3] {
            let part = PartitionedCsr::partition(&g, parts, WORKERS, 64);
            let mut sharded: ShardedMsBfs<1> = ShardedMsBfs::new(g.num_vertices(), parts);
            let got = sharded.run(&part, &pool, &sources, &top_down(), &NoopMsVisitor);
            assert_same_levels(
                &format!("{name} ShardedMsBfs<1>, {parts} partitions"),
                &got,
                &want,
            );
        }
    }
}

#[test]
fn single_source_kernels_match_sequential_levels() {
    let pool = WorkerPool::new(WORKERS);
    for (name, g) in graphs() {
        let mut bit = SmsPbfsBit::new(g.num_vertices());
        let mut byte = SmsPbfsByte::new(g.num_vertices());
        for &s in &sources(&g)[..6] {
            let want = sequential(&g, &[s]);
            let got = bit.run(&g, &pool, s, &top_down(), &NoopVisitor);
            assert_same_levels(&format!("{name} SmsPbfsBit from {s}"), &got, &want);
            let got = byte.run(&g, &pool, s, &top_down(), &NoopVisitor);
            assert_same_levels(&format!("{name} SmsPbfsByte from {s}"), &got, &want);
        }
    }
}

#[test]
fn instrumented_sharded_run_reports_per_worker_work() {
    let g = gen::Kronecker::graph500(9).seed(3).generate();
    let part = PartitionedCsr::partition(&g, 2, WORKERS, 64);
    let pool = WorkerPool::new(WORKERS);
    let sources: Vec<u32> = (0..32).map(|i| i * 13 % 512).collect();
    let opts = top_down().instrumented();

    let mut sharded: ShardedMsBfs<1> = ShardedMsBfs::new(g.num_vertices(), 2);
    let stats = sharded.run(&part, &pool, &sources, &opts, &NoopMsVisitor);
    assert!(stats.num_iterations() > 1);
    for it in &stats.iterations {
        assert_eq!(it.per_worker.len(), WORKERS, "iteration {}", it.iteration);
        let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
        assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
    }
    let model = MemoryModel::graph500(g.num_vertices());
    let profile = build_profile("sharded", 64, &stats, &model);
    assert_eq!(profile.total_ns, stats.total_wall_ns);

    // The scatter relaxes each frontier vertex's whole adjacency once per
    // level, exactly like MS-PBFS's top-down phase 1.
    let mut flat: MsPbfs<1> = MsPbfs::new(g.num_vertices());
    let want = flat.run(&g, &pool, &sources, &opts, &NoopMsVisitor);
    let edges =
        |s: &TraversalStats| -> u64 { s.iterations.iter().map(|it| it.edges_relaxed()).sum() };
    assert!(edges(&want) > 0);
    assert_eq!(edges(&stats), edges(&want));

    // Uninstrumented: no phase walls, no per-worker rows.
    let plain = sharded.run(&part, &pool, &sources, &top_down(), &NoopMsVisitor);
    assert_eq!(plain.num_iterations(), stats.num_iterations());
    for it in &plain.iterations {
        assert_eq!(
            (it.expand_ns, it.settle_ns),
            (0, 0),
            "iteration {}",
            it.iteration
        );
        assert!(it.per_worker.is_empty(), "iteration {}", it.iteration);
    }
}
