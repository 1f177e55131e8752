//! Property-based tests over random graphs: correctness of every BFS
//! implementation against the oracle, labeling invariance, and scheduler
//! partition properties.

use proptest::prelude::*;

use pbfs::core::msbfs::MsBfs;
use pbfs::core::mspbfs::MsPbfs;
use pbfs::core::prelude::*;
use pbfs::core::textbook;
use pbfs::graph::{CsrGraph, Permutation};
use pbfs::sched::{TaskQueues, WorkerPool};

/// Runs `f` on a helper thread and fails if it does not finish in `d` —
/// the liveness watchdog for the engine fault property below. (On timeout
/// the helper thread leaks — acceptable in a failing test.)
fn with_watchdog<T: Send + 'static>(
    d: std::time::Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(d) {
        Ok(v) => {
            let _ = worker.join();
            v
        }
        Err(_) => panic!("watchdog: blocked for more than {d:?} (liveness violation)"),
    }
}

/// Batches containing this source are failed by the injected fault hook.
const FAULT_SOURCE: u32 = 7;

fn proptest_fault_hook(_pool: &WorkerPool, sources: &[u32]) {
    if sources.contains(&FAULT_SOURCE) {
        panic!("injected batch fault");
    }
}

/// Strategy: an arbitrary undirected graph with 1..=80 vertices and up to
/// 300 raw edges (self loops and duplicates included — cleanup is part of
/// what we test).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..=80).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..=300)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sms_pbfs_bit_matches_oracle(g in arb_graph(), src_raw in 0u32..80, workers in 1usize..5) {
        let src = src_raw % g.num_vertices() as u32;
        let oracle = textbook::distances(&g, src);
        let pool = WorkerPool::new(workers);
        let mut bfs = SmsPbfsBit::new(g.num_vertices());
        let v = DistanceVisitor::new(g.num_vertices());
        bfs.run(&g, &pool, src, &BfsOptions::default(), &v);
        prop_assert_eq!(v.distances(), oracle);
    }

    #[test]
    fn sms_pbfs_byte_matches_oracle(g in arb_graph(), src_raw in 0u32..80) {
        let src = src_raw % g.num_vertices() as u32;
        let oracle = textbook::distances(&g, src);
        let pool = WorkerPool::new(3);
        let mut bfs = SmsPbfsByte::new(g.num_vertices());
        let v = DistanceVisitor::new(g.num_vertices());
        bfs.run(&g, &pool, src, &BfsOptions::default(), &v);
        prop_assert_eq!(v.distances(), oracle);
    }

    #[test]
    fn ms_variants_match_oracle(
        g in arb_graph(),
        sources_raw in proptest::collection::vec(0u32..80, 1..=70),
    ) {
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = sources_raw.iter().map(|&s| s % n).collect();
        let opts = BfsOptions::default();
        let mut seq: MsBfs<2> = MsBfs::new(g.num_vertices());
        let vs: MsDistanceVisitor<2> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        seq.run(&g, &sources, &opts, &vs);
        let pool = WorkerPool::new(3);
        let mut par: MsPbfs<2> = MsPbfs::new(g.num_vertices());
        let vp: MsDistanceVisitor<2> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        par.run(&g, &pool, &sources, &opts, &vp);
        for (i, &s) in sources.iter().enumerate() {
            let oracle = textbook::distances(&g, s);
            prop_assert_eq!(vs.distances_of(i), oracle.clone(), "seq, source {}", s);
            prop_assert_eq!(vp.distances_of(i), oracle, "par, source {}", s);
        }
    }

    #[test]
    fn beamer_variants_match_oracle(g in arb_graph(), src_raw in 0u32..80) {
        use pbfs::core::beamer::{DirectionOptBfs, QueueKind};
        let src = src_raw % g.num_vertices() as u32;
        let oracle = textbook::distances(&g, src);
        for kind in [QueueKind::Gapbs, QueueKind::Sparse, QueueKind::Dense] {
            prop_assert_eq!(&DirectionOptBfs::new(kind).run(&g, src), &oracle);
        }
    }

    #[test]
    fn random_relabeling_preserves_distances(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let src = 0u32;
        let perm = Permutation::random(n, seed);
        let h = perm.apply(&g);
        let oracle = textbook::distances(&g, src);
        let relabeled = textbook::distances(&h, perm.new_of(src));
        prop_assert_eq!(perm.unapply_values(&relabeled), oracle);
    }

    #[test]
    fn striped_labeling_is_bijective(
        n in 1usize..200,
        workers in 1usize..9,
        task in 1usize..70,
    ) {
        let g = pbfs::graph::gen::uniform(n, 2 * n, 1);
        let perm = Permutation::striped(&g, workers, task);
        prop_assert!(perm.is_valid());
    }

    #[test]
    fn task_queues_partition_exactly(
        total in 0usize..5000,
        split in 1usize..600,
        workers in 1usize..9,
        fetcher in 0usize..9,
    ) {
        let q = TaskQueues::new(total, split, workers);
        let mut cursor = 0;
        let mut covered = vec![false; total];
        while let Some((r, _)) = q.fetch(fetcher % workers, &mut cursor) {
            for i in r {
                prop_assert!(!covered[i], "item {} twice", i);
                covered[i] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn bitset_or_distributes_over_andnot(
        a in proptest::array::uniform2(any::<u64>()),
        b in proptest::array::uniform2(any::<u64>()),
        c in proptest::array::uniform2(any::<u64>()),
    ) {
        use pbfs::bitset::Bits;
        let (a, b, c) = (Bits::from_words(a), Bits::from_words(b), Bits::from_words(c));
        // (a | b) & ~c == (a & ~c) | (b & ~c)
        prop_assert_eq!((a | b).and_not(&c), a.and_not(&c) | b.and_not(&c));
        // count_ones is additive over disjoint sets
        let disjoint = a.and_not(&b);
        prop_assert_eq!(
            (disjoint | (a & b)).count_ones(),
            disjoint.count_ones() + (a & b).count_ones()
        );
    }

    #[test]
    fn partitioned_csr_serves_identical_adjacency(
        g in arb_graph(),
        nodes in 1usize..5,
        workers in 1usize..7,
        split in 1usize..40,
    ) {
        use pbfs::graph::partitioned::PartitionedCsr;
        let workers = workers.max(nodes);
        let p = PartitionedCsr::partition(&g, nodes, workers, split);
        for v in g.vertices() {
            prop_assert_eq!(p.neighbors(v), g.neighbors(v));
        }
        let back = p.to_csr();
        prop_assert_eq!(back.targets(), g.targets());
    }

    #[test]
    fn parallel_builder_matches_sequential(
        n in 1usize..60,
        edges_raw in proptest::collection::vec((0u32..60, 0u32..60), 0..=150),
        workers in 1usize..5,
        split in 1usize..50,
    ) {
        let edges: Vec<(u32, u32)> = edges_raw
            .iter()
            .map(|&(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let seq = CsrGraph::from_edges(n, &edges);
        let pool = WorkerPool::new(workers);
        let par = pbfs::core::build::build_csr_parallel(n, &edges, &pool, split);
        prop_assert_eq!(seq.offsets(), par.offsets());
        prop_assert_eq!(seq.targets(), par.targets());
    }

    #[test]
    fn engine_interleavings_never_lose_or_cross_wire(
        g in arb_graph(),
        ops in proptest::collection::vec((0u32..80, any::<bool>()), 1..=40),
        max_batch in 1usize..70,
        workers in 1usize..4,
    ) {
        use std::collections::HashMap;
        use std::sync::Arc;
        use std::time::Duration;

        let n = g.num_vertices() as u32;
        let g = Arc::new(g);
        let config = EngineConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_max_latency(Duration::from_micros(200));
        let mut engine = QueryEngine::new(Arc::clone(&g), config);
        // Each in-flight handle is tagged with the oracle distances of its
        // source; a cross-wired result would fail its tag's comparison.
        let mut oracle: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut pending: Vec<(u32, QueryHandle, Vec<u32>)> = Vec::new();
        let (mut submitted, mut delivered) = (0usize, 0usize);
        for &(src_raw, drain_now) in &ops {
            let src = src_raw % n;
            let expect = oracle
                .entry(src)
                .or_insert_with(|| textbook::distances(&g, src))
                .clone();
            let h = engine.submit(src).unwrap();
            prop_assert_eq!(h.source(), src);
            pending.push((src, h, expect));
            submitted += 1;
            if drain_now {
                for (src, h, expect) in pending.drain(..) {
                    prop_assert_eq!(h.wait().unwrap(), expect, "drained source {}", src);
                    delivered += 1;
                }
            }
        }
        engine.shutdown();
        for (src, h, expect) in pending.drain(..) {
            prop_assert_eq!(h.wait().unwrap(), expect, "post-shutdown source {}", src);
            delivered += 1;
        }
        prop_assert_eq!(delivered, submitted, "every query answered exactly once");
    }

    #[test]
    fn engine_fault_interleavings_every_handle_resolves(
        g in arb_graph(),
        ops in proptest::collection::vec((0u32..80, 0u32..4), 1..=30),
        max_queue in 1usize..8,
        workers in 1usize..4,
    ) {
        use std::sync::Arc;
        use std::time::Duration;

        // Interleaves submit / bounded-wait submit / fault-triggering
        // submit / drain against a tiny bounded queue with an injected
        // panic hook. The liveness property: every handle that was issued
        // resolves to exactly one Ok (oracle-checked) or typed Err — no
        // hangs (watchdog-enforced), no raw disconnects.
        with_watchdog(Duration::from_secs(60), move || -> Result<(), TestCaseError> {
            let n = g.num_vertices() as u32;
            let g = Arc::new(g);
            let config = EngineConfig::default()
                .with_workers(workers)
                .with_max_queue(max_queue)
                .with_max_latency(Duration::from_micros(200))
                .with_fault_hook(proptest_fault_hook);
            let mut engine = QueryEngine::new(Arc::clone(&g), config);
            let mut pending: Vec<QueryHandle> = Vec::new();
            let mut resolved = 0usize;
            let mut issued = 0usize;
            let drain = |pending: &mut Vec<QueryHandle>,
                             resolved: &mut usize|
             -> Result<(), TestCaseError> {
                for h in pending.drain(..) {
                    let src = h.source();
                    match h.wait() {
                        Ok(d) => {
                            // The hook matches the literal FAULT_SOURCE, so
                            // the guarantee only exists when it is a vertex.
                            if n > FAULT_SOURCE {
                                prop_assert!(src != FAULT_SOURCE, "faulted source answered");
                            }
                            prop_assert_eq!(d, textbook::distances(&g, src), "source {}", src);
                        }
                        Err(EngineError::BatchFailed { .. })
                        | Err(EngineError::ShutDown) => {}
                        Err(e) => prop_assert!(false, "untyped failure: {:?}", e),
                    }
                    *resolved += 1;
                }
                Ok(())
            };
            for &(src_raw, kind) in &ops {
                let src = if kind == 2 { FAULT_SOURCE % n } else { src_raw % n };
                let submitted = match kind {
                    1 => engine.submit_timeout(src, Duration::from_millis(20)),
                    _ => engine.submit(src),
                };
                match submitted {
                    Ok(h) => {
                        prop_assert_eq!(h.source(), src);
                        pending.push(h);
                        issued += 1;
                    }
                    Err(EngineError::Overloaded { max_queue: mq }) => {
                        prop_assert_eq!(mq, max_queue);
                    }
                    Err(e) => prop_assert!(false, "unexpected submit error: {:?}", e),
                }
                if kind == 3 {
                    drain(&mut pending, &mut resolved)?;
                }
            }
            engine.begin_shutdown();
            drain(&mut pending, &mut resolved)?;
            engine.shutdown();
            prop_assert_eq!(resolved, issued, "every issued handle resolved exactly once");
            Ok(())
        })?;
    }

    #[test]
    fn summary_frontier_scans_match_textbook(
        g in arb_graph(),
        sources_raw in proptest::collection::vec(0u32..80, 1..=64),
        workers in 1usize..5,
    ) {
        // The summary bitmap is conservative ("may be active"); a missed
        // mark would shrink the visit set. The textbook BFS is the ground
        // truth: the summary-guided kernels must discover exactly its
        // states, for multi-source and single-source kernels alike.
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = sources_raw.iter().map(|&s| s % n).collect();
        let opts = BfsOptions::default();
        let pool = WorkerPool::new(workers);

        let mut ms: MsPbfs<1> = MsPbfs::new(g.num_vertices());
        let vm: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), sources.len());
        ms.run(&g, &pool, &sources, &opts, &vm);
        for (i, &s) in sources.iter().enumerate() {
            prop_assert_eq!(vm.distances_of(i), textbook::distances(&g, s), "ms source {}", s);
        }

        let src = sources[0];
        let d = DistanceVisitor::new(g.num_vertices());
        SmsPbfsBit::new(g.num_vertices()).run(&g, &pool, src, &opts, &d);
        prop_assert_eq!(d.distances(), textbook::distances(&g, src), "sms source {}", src);
    }

    #[test]
    fn distance_triangle_inequality_on_edges(g in arb_graph(), src_raw in 0u32..80) {
        // For every edge (u, v): |d(u) - d(v)| ≤ 1 when both reached.
        let src = src_raw % g.num_vertices() as u32;
        let d = textbook::distances(&g, src);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != pbfs::core::UNREACHED && dv != pbfs::core::UNREACHED {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({}, {})", u, v);
            } else {
                prop_assert_eq!(du, dv, "edge with one endpoint unreached");
            }
        }
    }
}
