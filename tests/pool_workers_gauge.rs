//! `pbfs_pool_workers` reports the configured worker total, not the size
//! of whichever pool happened to be built last. A test binary of its own:
//! the gauge is process-global, and no other test here builds pools or
//! engines that could move it concurrently.

use std::sync::Arc;
use std::time::Duration;

use pbfs::core::engine::{EngineConfig, QueryEngine};
use pbfs::graph::gen;
use pbfs::sched::WorkerPool;

fn pool_workers() -> i64 {
    match pbfs::telemetry::registry()
        .snapshot()
        .find("pbfs_pool_workers", "")
        .map(|s| s.value.clone())
    {
        Some(pbfs::telemetry::SampleValue::Gauge(v)) => v,
        other => panic!("pbfs_pool_workers missing or not a gauge: {other:?}"),
    }
}

#[test]
fn gauge_reports_the_configured_total_over_all_shards() {
    let g = Arc::new(gen::Kronecker::graph500(6).seed(1).generate());

    // Two workers dealt over two shards: one per shard pool, two in all.
    // Each shard pool (and each dispatcher's caller-only pool) is built
    // after the engine publishes the total, and must not overwrite it.
    let mut e = QueryEngine::new(
        Arc::clone(&g),
        EngineConfig::default()
            .with_workers(2)
            .with_shards(2)
            .with_max_latency(Duration::from_micros(100)),
    );
    for s in 0..4 {
        e.submit(s).unwrap().wait().unwrap();
    }
    assert_eq!(pool_workers(), 2);

    // Pools built later by unrelated code leave it alone.
    drop(WorkerPool::new(1));
    drop(WorkerPool::new(3));
    assert_eq!(pool_workers(), 2);
    e.shutdown();

    // More shards than workers: every shard pool still gets one worker.
    let e = QueryEngine::new(
        Arc::clone(&g),
        EngineConfig::default().with_workers(2).with_shards(3),
    );
    e.submit(0).unwrap().wait().unwrap();
    assert_eq!(pool_workers(), 3);
    drop(e);

    let e = QueryEngine::new(g, EngineConfig::default().with_workers(4));
    e.submit(0).unwrap().wait().unwrap();
    assert_eq!(pool_workers(), 4);
}
