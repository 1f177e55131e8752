//! Per-iteration statistics parity across the parallel kernels.
//!
//! `MsPbfs`, `SmsPbfs` and `ShardedMsBfs` share one level-synchronous
//! driver, which produces their `IterationStats`. Under `AlwaysTopDown`
//! every kernel must report the same levels as the sequential `MsBfs`:
//! the same number of iterations, the same discoveries and produced
//! frontier per iteration, and the same total. Under the default
//! direction policy the sharded kernel must take the same directions and
//! levels as `MsPbfs` on summary scans, for every partition count. It
//! must also honour `BfsOptions::instrument` like the others.
//!
//! The engine runs each kernel on a `GraphSnapshot` when its epoch has
//! deltas and on the plain `CsrGraph`/`PartitionedCsr` otherwise. Both
//! arms must produce the same distances, direction decisions and levels,
//! on a clean snapshot and on a dirty one against the CSR its compaction
//! publishes.

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

type Levels = Vec<(Direction, u64, u64)>;

/// What the engine's two dispatch arms must agree on per iteration: the
/// direction decision (which reads `degree` and `num_directed_edges`
/// through the adjacency) and the level it produced.
fn levels(s: &TraversalStats) -> Levels {
    s.iterations
        .iter()
        .map(|it| (it.direction, it.discovered, it.frontier_vertices))
        .collect()
}

fn run_ms<const W: usize, G: Adjacency + ?Sized>(
    g: &G,
    pool: &WorkerPool,
    sources: &[u32],
) -> (Levels, Vec<Vec<u32>>) {
    let n = g.num_vertices();
    let vis = MsDistanceVisitor::<W>::new(n, sources.len());
    let stats = MsPbfs::<W>::new(n).run(g, pool, sources, &BfsOptions::default(), &vis);
    (levels(&stats), vis.into_distances())
}

fn run_sms<G: Adjacency + ?Sized>(g: &G, pool: &WorkerPool, source: u32) -> (Levels, Vec<u32>) {
    let n = g.num_vertices();
    let vis = DistanceVisitor::new(n);
    let stats = SmsPbfsBit::new(n).run(g, pool, source, &BfsOptions::default(), &vis);
    (levels(&stats), vis.into_distances())
}

fn run_sharded<P: ShardedAdjacency + ?Sized>(
    part: &P,
    pool: &WorkerPool,
    sources: &[u32],
) -> (Levels, Vec<Vec<u32>>) {
    let n = part.num_vertices();
    let vis = MsDistanceVisitor::<1>::new(n, sources.len());
    let stats = ShardedMsBfs::<1>::new(n, part.num_nodes()).run(
        part,
        pool,
        sources,
        &BfsOptions::default(),
        &vis,
    );
    (levels(&stats), vis.into_distances())
}

/// Runs every kernel the engine dispatches (`MsPbfs<1>`, `MsPbfs<8>`,
/// `SmsPbfsBit`, `ShardedMsBfs<1>`) once on `snap` and once on the plain
/// `g`/`part` that must describe the same logical graph, and requires
/// identical distances and per-iteration levels. Returns the levels of
/// the `MsPbfs<1>` batch, whose first source is vertex 0.
fn assert_arms_agree(
    what: &str,
    snap: &GraphSnapshot,
    g: &CsrGraph,
    part: &PartitionedCsr,
    pool: &WorkerPool,
) -> Levels {
    let n = g.num_vertices() as u32;
    let few: Vec<u32> = (0..64).map(|i| i * 7 % n).collect();
    let many: Vec<u32> = (0..300).map(|i| i * 3 % n).collect();
    let ms1 = run_ms::<1, _>(g, pool, &few);
    assert_eq!(run_ms::<1, _>(snap, pool, &few), ms1, "{what}: MsPbfs<1>");
    assert_eq!(
        run_ms::<8, _>(snap, pool, &many),
        run_ms::<8, _>(g, pool, &many),
        "{what}: MsPbfs<8>"
    );
    for &s in &few[..4] {
        assert_eq!(
            run_sms(snap, pool, s),
            run_sms(g, pool, s),
            "{what}: SmsPbfsBit from {s}"
        );
    }
    let view = snap.sharded_view().expect("partitioned store");
    assert_eq!(
        run_sharded(&view, pool, &few),
        run_sharded(part, pool, &few),
        "{what}: ShardedMsBfs<1>"
    );
    ms1.0
}

#[test]
fn clean_snapshot_and_plain_csr_report_identical_levels() {
    let pool = WorkerPool::new(WORKERS);
    let g = gen::Kronecker::graph500(10).seed(7).generate();
    let store = GraphStore::new(std::sync::Arc::new(g));
    store.enable_partition(2, WORKERS, 64);
    let snap = store.snapshot();
    assert!(!snap.has_deltas());
    let part = snap.part().expect("partitioned store");
    let ms1 = assert_arms_agree("clean", &snap, snap.base(), part, &pool);
    assert_eq!(ms1[0].0, Direction::BottomUp, "{ms1:?}");
}

/// A dirty snapshot against the CSR that compacting it publishes. The base
/// is a 4000-cycle (8000 directed edges). The batch gives vertex 0 a
/// 300-leaf star and cuts 2000 cycle edges, so the overlay's degree of 0
/// is 302 against the base's 2 and its edge count 4600 against 8000. The
/// seed-level direction test (frontier degree > unexplored degree / 15)
/// of the `MsPbfs<1>` batch, which starts at 0, goes bottom-up on the true
/// counts and would go top-down if either count were read from the base.
#[test]
fn dirty_snapshot_matches_the_csr_its_compaction_publishes() {
    let pool = WorkerPool::new(WORKERS);
    let store = GraphStore::new(std::sync::Arc::new(gen::cycle(4000)));
    store.enable_partition(2, WORKERS, 64);
    let mut batch: Vec<EdgeMutation> = (1..=300)
        .map(|i| EdgeMutation::Insert(0, 10 * i + 5))
        .collect();
    batch.extend((1000..3000).map(|v| EdgeMutation::Delete(v, v + 1)));
    store.apply_batch(&batch).unwrap();
    let dirty = store.snapshot();
    assert_eq!(dirty.num_directed_edges(), 4600);
    assert_eq!(dirty.degree(0), 302);
    store.compact().unwrap();
    let compacted = store.snapshot();
    assert!(!compacted.has_deltas());
    let part = compacted.part().expect("compaction keeps the mirror");
    let ms1 = assert_arms_agree("dirty", &dirty, compacted.base(), part, &pool);
    assert_eq!(ms1[0].0, Direction::BottomUp, "{ms1:?}");
}

/// `ShardedMsBfs<W>` over 1, 2 and 3 partitions of `g` against `MsPbfs<W>`
/// on summary scans, both under the default direction policy: the same
/// distances and per-iteration directions and levels, with at least one
/// level bottom-up.
fn assert_sharded_matches_mspbfs<const W: usize>(
    what: &str,
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[u32],
) {
    let n = g.num_vertices();
    let vis = MsDistanceVisitor::<W>::new(n, sources.len());
    let stats = MsPbfs::<W>::new(n).run(g, pool, sources, &BfsOptions::default(), &vis);
    let want = (levels(&stats), vis.into_distances());
    assert!(
        want.0.iter().any(|l| l.0 == Direction::BottomUp),
        "{what}: no bottom-up level in {:?}",
        want.0
    );
    for parts in [1usize, 2, 3] {
        let part = PartitionedCsr::partition(g, parts, WORKERS, 64);
        let vis = MsDistanceVisitor::<W>::new(n, sources.len());
        let stats = ShardedMsBfs::<W>::new(n, parts).run(
            &part,
            pool,
            sources,
            &BfsOptions::default(),
            &vis,
        );
        assert_eq!(
            (levels(&stats), vis.into_distances()),
            want,
            "{what}: ShardedMsBfs<{W}>, {parts} partitions"
        );
    }
}

/// A path `0..len` whose last vertex is a hub with `leaves` leaves. From
/// vertex 0 the hub's level goes bottom-up only because the path is
/// already explored: the hub's degree is below a fifteenth of all
/// directed edges but above a fifteenth of the unexplored ones, which the
/// policy knows only from the fully-seen degree the kernel reports.
fn broom(len: u32, leaves: u32) -> CsrGraph {
    let hub = len - 1;
    let path = (1..len).map(|v| (v - 1, v));
    let edges: Vec<(u32, u32)> = path.chain((len..len + leaves).map(|l| (hub, l))).collect();
    CsrGraph::from_edges((len + leaves) as usize, &edges)
}

#[test]
fn sharded_kernel_takes_the_mspbfs_directions() {
    let pool = WorkerPool::new(WORKERS);
    let mut cases = graphs();
    cases.push((
        "watts_strogatz(2048, 8, 0.1)",
        gen::watts_strogatz(2048, 8, 0.1, 5),
    ));
    let g = broom(1000, 100);
    assert_sharded_matches_mspbfs::<1>("broom(1000, 100)", &g, &pool, &[0]);
    for (name, g) in cases {
        let n = g.num_vertices() as u32;
        assert_sharded_matches_mspbfs::<1>(name, &g, &pool, &sources(&g));
        let many: Vec<u32> = (0..300).map(|i| i * 3 % n).collect();
        assert_sharded_matches_mspbfs::<8>(name, &g, &pool, &many);
    }
}

#[test]
fn instrumented_sharded_bottom_up_reports_per_worker_work() {
    let g = gen::Kronecker::graph500(9).seed(3).generate();
    let part = PartitionedCsr::partition(&g, 2, WORKERS, 64);
    let pool = WorkerPool::new(WORKERS);
    let sources: Vec<u32> = (0..32).map(|i| i * 13 % 512).collect();
    let opts = BfsOptions::default().instrumented();

    let mut sharded: ShardedMsBfs<1> = ShardedMsBfs::new(g.num_vertices(), 2);
    let stats = sharded.run(&part, &pool, &sources, &opts, &NoopMsVisitor);
    let pulls: Vec<_> = stats
        .iterations
        .iter()
        .filter(|it| it.direction == Direction::BottomUp)
        .collect();
    assert!(!pulls.is_empty(), "{:?}", levels(&stats));
    for it in &stats.iterations {
        assert_eq!(it.per_worker.len(), WORKERS, "iteration {}", it.iteration);
        let updated: u64 = it.per_worker.iter().map(|w| w.updated_states).sum();
        assert_eq!(updated, it.discovered, "iteration {}", it.iteration);
    }
    for it in pulls {
        let visited: u64 = it.per_worker.iter().map(|w| w.visited_neighbors).sum();
        assert!(visited > 0, "iteration {}", it.iteration);
        assert_eq!(it.settle_ns, 0, "iteration {}", it.iteration);
    }
    let model = MemoryModel::graph500(g.num_vertices());
    let profile = build_profile("sharded", 64, &stats, &model);
    assert_eq!(profile.total_ns, stats.total_wall_ns);

    // Scatter and pull scan exactly the adjacency entries MS-PBFS's
    // top-down phase 1 and bottom-up phase scan on the same levels.
    let mut flat: MsPbfs<1> = MsPbfs::new(g.num_vertices());
    let want = flat.run(&g, &pool, &sources, &opts, &NoopMsVisitor);
    assert_eq!(levels(&stats), levels(&want));
    let edges = |s: &TraversalStats| -> Vec<u64> {
        s.iterations.iter().map(|it| it.edges_relaxed()).collect()
    };
    assert_eq!(edges(&stats), edges(&want));

    // Uninstrumented: no phase walls, no per-worker rows.
    let plain = sharded.run(
        &part,
        &pool,
        &sources,
        &BfsOptions::default(),
        &NoopMsVisitor,
    );
    assert_eq!(levels(&plain), levels(&stats));
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

/// From one source under the default options, the single-source kernels
/// take the directions and produce the levels of `MsPbfs<1>` and of
/// `ShardedMsBfs<1>` over 1 and 2 partitions: the direction policy sees
/// the same frontier, frontier degree and fully-seen degree whichever
/// state the traversal keeps.
#[test]
fn single_source_kernels_take_the_mspbfs_directions() {
    let pool = WorkerPool::new(WORKERS);
    let kron = gen::Kronecker::graph500(8).seed(4).generate();
    let hub = (0..kron.num_vertices() as u32)
        .max_by_key(|&v| kron.degree(v))
        .unwrap();
    let cases = [
        ("kronecker(8)", kron, hub),
        ("broom(1000, 100)", broom(1000, 100), 0),
    ];
    for (name, g, s) in &cases {
        let (n, s) = (g.num_vertices(), *s);
        let opts = BfsOptions::default();
        let vis = MsDistanceVisitor::<1>::new(n, 1);
        let stats = MsPbfs::<1>::new(n).run(g, &pool, &[s], &opts, &vis);
        let want = (levels(&stats), vis.into_distances().remove(0));
        assert!(
            want.0.iter().any(|l| l.0 == Direction::BottomUp),
            "{name}: no bottom-up level in {:?}",
            want.0
        );

        let vis = DistanceVisitor::new(n);
        let stats = SmsPbfsBit::new(n).run(g, &pool, s, &opts, &vis);
        let got = (levels(&stats), vis.into_distances());
        assert_eq!(got, want, "{name}: SmsPbfsBit from {s}");

        let vis = DistanceVisitor::new(n);
        let stats = SmsPbfsByte::new(n).run(g, &pool, s, &opts, &vis);
        let got = (levels(&stats), vis.into_distances());
        assert_eq!(got, want, "{name}: SmsPbfsByte from {s}");

        for parts in [1usize, 2] {
            let part = PartitionedCsr::partition(g, parts, WORKERS, 64);
            let (levels, mut dists) = run_sharded(&part, &pool, &[s]);
            assert_eq!(
                (levels, dists.remove(0)),
                want,
                "{name}: ShardedMsBfs<1>, {parts} partitions, from {s}"
            );
        }
    }
}

/// Vertex 0 joined to vertices `1..=fan`, plus a path from vertex `fan`
/// through `len` further vertices. From vertex 0 the first level stays
/// top-down only if vertex 0's degree is taken off the unexplored degree
/// once.
fn fan_path(fan: u32, len: u32) -> CsrGraph {
    let spokes = (1..=fan).map(|v| (0, v));
    let path = (fan..fan + len).map(|v| (v, v + 1));
    let edges: Vec<(u32, u32)> = spokes.chain(path).collect();
    CsrGraph::from_edges((fan + len + 1) as usize, &edges)
}

/// A batch whose sources are all one vertex `s` traverses like a single
/// BFS from `s`: every multi-source kernel takes, per iteration, the
/// directions `SmsPbfsBit` takes from `s`, since a repeated source adds
/// its degree to the fully-seen degree once.
#[test]
fn duplicate_sources_take_the_single_source_directions() {
    let pool = WorkerPool::new(WORKERS);
    let directions = |s: &TraversalStats| -> Vec<Direction> {
        s.iterations.iter().map(|it| it.direction).collect()
    };
    let kron = gen::Kronecker::graph500(8).seed(4).generate();
    let hub = (0..kron.num_vertices() as u32)
        .max_by_key(|&v| kron.degree(v))
        .unwrap();
    let cases = [
        ("fan_path(10, 73)", fan_path(10, 73), 0),
        ("kronecker(8)", kron, hub),
    ];
    for (name, g, s) in &cases {
        let (n, s, opts) = (g.num_vertices(), *s, BfsOptions::default());
        let want = directions(&SmsPbfsBit::new(n).run(g, &pool, s, &opts, &NoopVisitor));
        let pair = [s, s];

        let got = MsPbfs::<1>::new(n).run(g, &pool, &pair, &opts, &NoopMsVisitor);
        assert_eq!(directions(&got), want, "{name}: MsPbfs<1> on [{s}, {s}]");
        let got = MsBfs::<1>::new(n).run(g, &pair, &opts, &NoopMsVisitor);
        assert_eq!(directions(&got), want, "{name}: MsBfs<1> on [{s}, {s}]");
        for parts in [1usize, 2] {
            let part = PartitionedCsr::partition(g, parts, WORKERS, 64);
            let got =
                ShardedMsBfs::<1>::new(n, parts).run(&part, &pool, &pair, &opts, &NoopMsVisitor);
            assert_eq!(
                directions(&got),
                want,
                "{name}: ShardedMsBfs<1>, {parts} partitions, on [{s}, {s}]"
            );
        }
    }
}
