//! Differential tests: every BFS implementation must agree with the
//! textbook oracle (and with each other) across graph families, vertex
//! labelings, bitset widths, thread counts and option combinations.

use pbfs::core::beamer::{DirectionOptBfs, QueueKind};
use pbfs::core::msbfs::MsBfs;
use pbfs::core::mspbfs::MsPbfs;
use pbfs::core::prelude::*;
use pbfs::core::textbook;
use pbfs::graph::labeling::LabelingScheme;
use pbfs::graph::{gen, CsrGraph};
use pbfs::sched::WorkerPool;

/// All single-source implementations produce these distances for `g`.
fn all_single_source_distances(g: &CsrGraph, source: u32, workers: usize) -> Vec<Vec<u32>> {
    let pool = WorkerPool::new(workers);
    let opts = BfsOptions::default();
    let mut out = Vec::new();
    for kind in [QueueKind::Gapbs, QueueKind::Sparse, QueueKind::Dense] {
        out.push(DirectionOptBfs::new(kind).run(g, source));
    }
    {
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let v = DistanceVisitor::new(g.num_vertices());
        bfs.run(g, &pool, source, &opts, &v);
        out.push(v.into_distances());
    }
    {
        let mut bfs = SmsPbfsByte::new(g.num_vertices());
        let v = DistanceVisitor::new(g.num_vertices());
        bfs.run(g, &pool, source, &opts, &v);
        out.push(v.into_distances());
    }
    {
        let mut bfs: MsBfs<1> = MsBfs::new(g.num_vertices());
        let v: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 1);
        bfs.run(g, &[source], &opts, &v);
        out.push(v.distances_of(0));
    }
    {
        let mut bfs: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let v: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 1);
        bfs.run(g, &pool, &[source], &opts, &v);
        out.push(v.distances_of(0));
    }
    out
}

#[test]
fn every_algorithm_matches_oracle_across_graph_families() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("kronecker", gen::Kronecker::graph500(10).seed(1).generate()),
        ("uniform", gen::uniform(2000, 10_000, 2)),
        ("social", gen::social_network(2000, 12, 3)),
        ("web", gen::web_graph(2000, 10, 4)),
        ("collab", gen::collaboration(1500, 1200, 5)),
        ("hub", gen::hub_heavy(10, 20, 6)),
        ("grid", gen::grid(45, 44)),
        ("path", gen::path(1500)),
    ];
    for (name, g) in &graphs {
        let source = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) > 0)
            .unwrap();
        let oracle = textbook::distances(g, source);
        for (i, d) in all_single_source_distances(g, source, 4)
            .into_iter()
            .enumerate()
        {
            assert_eq!(&d, &oracle, "graph {name}, implementation #{i}");
        }
    }
}

#[test]
fn labelings_preserve_distances() {
    let g = gen::Kronecker::graph500(10).seed(7).generate();
    let source = 17u32;
    let oracle = textbook::distances(&g, source);
    let pool = WorkerPool::new(3);
    for scheme in [
        LabelingScheme::Random(5),
        LabelingScheme::DegreeOrdered,
        LabelingScheme::Striped {
            workers: 3,
            task_size: 128,
        },
    ] {
        let perm = scheme.permutation(&g);
        let h = perm.apply(&g);
        let mut bfs = SmsPbfsBit::new(h.num_vertices());
        let v = DistanceVisitor::new(h.num_vertices());
        bfs.run(&h, &pool, perm.new_of(source), &BfsOptions::default(), &v);
        let translated = perm.unapply_values(&v.distances());
        assert_eq!(translated, oracle, "{scheme:?}");
    }
}

#[test]
fn multi_source_agrees_with_repeated_single_source() {
    let g = gen::social_network(1200, 14, 9);
    let sources: Vec<u32> = (0..96).map(|i| (i * 11) % 1200).collect();
    let pool = WorkerPool::new(4);
    let opts = BfsOptions::default();
    let mut ms: MsPbfs<2> = MsPbfs::new(g.num_vertices());
    let v: MsDistanceVisitor<2> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
    ms.run(&g, &pool, &sources, &opts, &v);
    let mut ss = SmsPbfsByte::new(g.num_vertices());
    for (i, &s) in sources.iter().enumerate().step_by(7) {
        let sv = DistanceVisitor::new(g.num_vertices());
        ss.run(&g, &pool, s, &opts, &sv);
        assert_eq!(v.distances_of(i), sv.distances(), "source {s}");
    }
}

#[test]
fn thread_counts_do_not_change_results() {
    let g = gen::Kronecker::graph500(9).seed(11).generate();
    let oracle = textbook::distances(&g, 0);
    for workers in [1usize, 2, 3, 5, 8, 16] {
        for d in all_single_source_distances(&g, 0, workers) {
            assert_eq!(d, oracle, "workers={workers}");
        }
    }
}

#[test]
fn option_matrix_is_correct() {
    let g = gen::uniform(800, 4000, 13);
    let oracle = textbook::distances(&g, 3);
    let pool = WorkerPool::new(4);
    for policy in [
        DirectionPolicy::default(),
        DirectionPolicy::AlwaysTopDown,
        DirectionPolicy::AlwaysBottomUp,
        DirectionPolicy::Heuristic {
            alpha: 2.0,
            beta: 2.0,
        },
    ] {
        for chunk_skip in [true, false] {
            for split in [64usize, 100, 256, 10_000] {
                let mut opts = BfsOptions::default()
                    .with_policy(policy)
                    .with_split_size(split);
                opts.chunk_skip = chunk_skip;
                let mut bfs = SmsPbfsBit::new(g.num_vertices());
                let v = DistanceVisitor::new(g.num_vertices());
                bfs.run(&g, &pool, 3, &opts, &v);
                assert_eq!(
                    v.distances(),
                    oracle,
                    "policy={policy:?} chunk_skip={chunk_skip} split={split}"
                );
            }
        }
    }
}

#[test]
fn wide_widths_match_across_implementations() {
    let g = gen::uniform(500, 2500, 17);
    let sources: Vec<u32> = (0..200).map(|i| (i * 3) % 500).collect();
    let pool = WorkerPool::new(3);
    let opts = BfsOptions::default();
    let mut seq: MsBfs<4> = MsBfs::new(500);
    let vs: MsDistanceVisitor<4> = MsDistanceVisitor::new(500, sources.len());
    seq.run(&g, &sources, &opts, &vs);
    let mut par: MsPbfs<4> = MsPbfs::new(500);
    let vp: MsDistanceVisitor<4> = MsDistanceVisitor::new(500, sources.len());
    par.run(&g, &pool, &sources, &opts, &vp);
    for i in 0..sources.len() {
        assert_eq!(vs.distances_of(i), vp.distances_of(i), "batch index {i}");
    }
}

#[test]
fn parent_trees_validate_for_all_single_source_algorithms() {
    let g = gen::social_network(1500, 12, 19);
    let source = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    let pool = WorkerPool::new(4);
    let opts = BfsOptions::default();
    // SMS-PBFS bit.
    {
        let d = DistanceVisitor::new(g.num_vertices());
        let p = ParentVisitor::new(g.num_vertices(), source);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        bfs.run(
            &g,
            &pool,
            source,
            &opts,
            &pbfs::core::visitor::PairVisitor(&d, &p),
        );
        pbfs::core::validate::validate_tree(&g, source, &p.parents(), &d.distances()).unwrap();
    }
    // SMS-PBFS byte.
    {
        let d = DistanceVisitor::new(g.num_vertices());
        let p = ParentVisitor::new(g.num_vertices(), source);
        let mut bfs = SmsPbfsByte::new(g.num_vertices());
        bfs.run(
            &g,
            &pool,
            source,
            &opts,
            &pbfs::core::visitor::PairVisitor(&d, &p),
        );
        pbfs::core::validate::validate_tree(&g, source, &p.parents(), &d.distances()).unwrap();
    }
    // Beamer variants.
    for kind in [QueueKind::Gapbs, QueueKind::Sparse, QueueKind::Dense] {
        let d = DistanceVisitor::new(g.num_vertices());
        let p = ParentVisitor::new(g.num_vertices(), source);
        let bfs = DirectionOptBfs::new(kind);
        bfs.run_with(&g, source, &pbfs::core::visitor::PairVisitor(&d, &p));
        pbfs::core::validate::validate_tree(&g, source, &p.parents(), &d.distances())
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

#[test]
fn query_engine_matches_oracle_across_widths_and_workers() {
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    let graphs: Vec<(&str, Arc<CsrGraph>)> = vec![
        (
            "kronecker",
            Arc::new(gen::Kronecker::graph500(9).seed(3).generate()),
        ),
        ("uniform", Arc::new(gen::uniform(1200, 7000, 23))),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
    let mut total_queries = 0usize;
    for (name, g) in &graphs {
        let n = g.num_vertices() as u32;
        // The textbook oracle, computed once per distinct source.
        let mut oracle: HashMap<u32, Vec<u32>> = HashMap::new();
        for max_batch in [64usize, 128, 256, 512] {
            for workers in [1usize, 2, 4] {
                let config = EngineConfig::default()
                    .with_workers(workers)
                    .with_max_batch(max_batch)
                    .with_max_latency(Duration::from_micros(500));
                let engine = QueryEngine::new(Arc::clone(g), config);
                let handles: Vec<QueryHandle> = (0..42)
                    .map(|_| engine.submit(rng.random_range(0..n)).unwrap())
                    .collect();
                total_queries += handles.len();
                for h in handles {
                    let source = h.source();
                    let got = h.wait().unwrap();
                    let want = oracle
                        .entry(source)
                        .or_insert_with(|| textbook::bfs(g, source).distances);
                    assert_eq!(
                        &got, want,
                        "{name}: source {source} max_batch={max_batch} workers={workers}"
                    );
                }
            }
        }
    }
    assert!(total_queries >= 1000, "ran {total_queries} queries");
}

#[test]
fn simd_dispatch_levels_are_bit_identical_end_to_end() {
    use pbfs::bitset::simd::set_level;
    use pbfs::bitset::SimdLevel;
    use std::sync::Arc;
    use std::time::Duration;

    // One MS-PBFS batch at the current dispatch level, all distances out.
    fn run_batch<const W: usize>(
        g: &CsrGraph,
        pool: &WorkerPool,
        sources: &[u32],
    ) -> Vec<Vec<u32>> {
        let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
        let v: MsDistanceVisitor<W> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        bfs.run(g, pool, sources, &BfsOptions::default(), &v);
        (0..sources.len()).map(|i| v.distances_of(i)).collect()
    }

    fn run_widths(g: &CsrGraph, pool: &WorkerPool, sources: &[u32]) -> Vec<Vec<Vec<u32>>> {
        vec![
            run_batch::<1>(g, pool, &sources[..64]),
            run_batch::<2>(g, pool, &sources[..128]),
            run_batch::<4>(g, pool, &sources[..256]),
            run_batch::<8>(g, pool, sources),
        ]
    }

    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("kronecker", gen::Kronecker::graph500(9).seed(29).generate()),
        ("uniform", gen::uniform(1500, 9000, 31)),
    ];
    let pool = WorkerPool::new(4);
    let mut total = 0usize;
    for (name, g) in &graphs {
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = (0..512u32).map(|i| (i * 7) % n).collect();
        // The scalar kernels are the semantic reference; every vector level
        // (clamped to hardware, so this also passes on a scalar-only CPU)
        // must reproduce their traversals bit-for-bit, at widths 64–512.
        set_level(Some(SimdLevel::Scalar));
        let reference = run_widths(g, &pool, &sources);
        for level in SimdLevel::ALL {
            if level == SimdLevel::Scalar {
                continue;
            }
            let effective = set_level(Some(level));
            let got = run_widths(g, &pool, &sources);
            total += 64 + 128 + 256 + 512;
            assert_eq!(
                got, reference,
                "{name}: {level:?} (effective {effective:?}) diverged from scalar"
            );
        }
    }

    // Same property through the batched query engine: a scalar run and an
    // auto (strongest-available) run answer identical distances.
    let g = Arc::new(gen::Kronecker::graph500(9).seed(37).generate());
    let n = g.num_vertices() as u32;
    let config = EngineConfig::default()
        .with_workers(2)
        .with_max_batch(128)
        .with_max_latency(Duration::from_micros(500));
    let mut by_level = Vec::new();
    for forced in [Some(SimdLevel::Scalar), None] {
        set_level(forced);
        let engine = QueryEngine::new(Arc::clone(&g), config);
        let handles: Vec<QueryHandle> = (0..128).map(|i| engine.submit(i % n).unwrap()).collect();
        let answers: Vec<Vec<u32>> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        total += answers.len();
        by_level.push(answers);
    }
    assert_eq!(
        by_level[0], by_level[1],
        "query engine diverged between --simd scalar and --simd auto"
    );

    // Leave the process-wide dispatch on automatic for the other tests.
    set_level(None);
    assert!(total >= 1000, "compared only {total} traversals");
}

#[test]
fn empty_and_tiny_graphs() {
    // Single vertex.
    let g = CsrGraph::from_edges(1, &[]);
    let pool = WorkerPool::new(2);
    let mut bfs = SmsPbfsBit::new(1);
    let v = DistanceVisitor::new(1);
    let stats = bfs.run(&g, &pool, 0, &BfsOptions::default(), &v);
    assert_eq!(v.distances(), vec![0]);
    assert_eq!(stats.total_discovered, 1);
    // Two disconnected vertices.
    let g = CsrGraph::from_edges(2, &[]);
    let mut bfs = SmsPbfsByte::new(2);
    let v = DistanceVisitor::new(2);
    bfs.run(&g, &pool, 1, &BfsOptions::default(), &v);
    assert_eq!(v.distances(), vec![pbfs::core::UNREACHED, 0]);
}
