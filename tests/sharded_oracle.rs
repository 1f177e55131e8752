//! Differential-testing oracle harness for the sharded engine, whose
//! shards each run MS-PBFS (SMS-PBFS for a singleton) on their own
//! dispatcher and pool: with `EngineConfig::shards` ∈ {2, 4} every
//! query's distances must be **bit-identical** to the single-shard
//! engine's — across every supported batch width, including the
//! singleton path — and a poisoned shard must fail only its own batches
//! while the others keep serving.

use std::sync::Arc;
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::graph::CsrGraph;
use pbfs::sched::WorkerPool;

/// Deterministic source batch: `count` spread-out vertices of a graph
/// with `n` vertices.
fn spread_sources(n: usize, count: usize) -> Vec<u32> {
    (0..count)
        .map(|i| ((i as u64 * 2654435761) % n as u64) as u32)
        .collect()
}

/// Submits `sources` to a fresh engine with the given shard count and
/// width cap, waits for every result in submission order, and shuts the
/// engine down.
fn run_engine(g: &Arc<CsrGraph>, shards: usize, width: usize, sources: &[u32]) -> Vec<Vec<u32>> {
    let cfg = EngineConfig::default()
        .with_workers(4)
        .with_shards(shards)
        .with_max_batch(width)
        .with_max_latency(Duration::from_millis(5));
    let mut e = QueryEngine::new(Arc::clone(g), cfg);
    let handles: Vec<QueryHandle> = sources.iter().map(|&s| e.submit(s).unwrap()).collect();
    let results = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    e.shutdown();
    results
}

/// The acceptance matrix: every supported batch width × shard counts
/// {1, 2, 4}, 1000+ query comparisons total. The single-shard engine is
/// the oracle; the sharded engines run per-shard MS-PBFS over the same
/// CSR and must reproduce its distances bit for bit.
#[test]
fn sharded_engine_is_bit_identical_across_shard_counts() {
    let g = Arc::new(pbfs::graph::gen::Kronecker::graph500(9).seed(17).generate());
    let n = g.num_vertices();
    let mut compared = 0usize;
    for width in [64usize, 128, 256, 512] {
        let sources = spread_sources(n, width);
        let baseline = run_engine(&g, 1, width, &sources);
        for shards in [2usize, 4] {
            let got = run_engine(&g, shards, width, &sources);
            assert_eq!(got.len(), baseline.len());
            for (i, (a, b)) in got.iter().zip(&baseline).enumerate() {
                assert_eq!(a, b, "width {width} shards {shards} source {}", sources[i]);
                compared += 1;
            }
        }
    }
    assert!(
        compared >= 1000,
        "oracle must cover 1000+ query comparisons: {compared}"
    );
}

/// A lone submission takes the singleton flush path (width 1); under
/// sharding that path runs SMS-PBFS on one shard and must still match the
/// textbook oracle exactly.
#[test]
fn sharded_singleton_path_matches_textbook() {
    let g = Arc::new(pbfs::graph::gen::uniform(500, 2000, 23));
    for shards in [1usize, 2, 4] {
        for src in [0u32, 250, 499] {
            let oracle = pbfs::core::textbook::bfs(&g, src).distances;
            let got = run_engine(&g, shards, 64, &[src]);
            assert_eq!(got, vec![oracle], "shards {shards} source {src}");
        }
    }
}

fn poison_source_zero(_pool: &WorkerPool, sources: &[u32]) {
    if sources.contains(&0) {
        panic!("injected: poisoned shard");
    }
}

/// Panic containment across shards: source 0 is routed (round-robin) only
/// to shard 0 and the fault hook poisons every batch containing it. The
/// other shard's queries must all succeed with oracle-exact distances.
#[test]
fn per_shard_panic_injection_fails_only_that_shard() {
    let g = Arc::new(pbfs::graph::gen::uniform(300, 1200, 31));
    let cfg = EngineConfig::default()
        .with_workers(2)
        .with_shards(2)
        .with_max_latency(Duration::from_micros(200))
        .with_fault_hook(poison_source_zero);
    let mut e = QueryEngine::new(Arc::clone(&g), cfg);
    let mut poisoned = Vec::new();
    let mut healthy = Vec::new();
    for i in 0..60u32 {
        if i % 2 == 0 {
            poisoned.push(e.submit(0).unwrap());
        } else {
            healthy.push(e.submit(1 + i / 2).unwrap());
        }
    }
    for h in poisoned {
        assert!(
            matches!(h.wait(), Err(EngineError::BatchFailed { .. })),
            "poisoned shard must fail its batches"
        );
    }
    for h in healthy {
        let src = h.source();
        let oracle = pbfs::core::textbook::bfs(&g, src).distances;
        assert_eq!(h.wait().unwrap(), oracle, "healthy shard, source {src}");
    }
    e.shutdown();
    let s = e.stats();
    assert_eq!(s.failed, 30);
    assert!(s.queries >= 30, "healthy shard kept serving: {s:?}");
}
