//! Engine oracle for partial wide flushes: batches of 300 queries under a
//! width cap of 512 and of 100 under a cap of 128, flushed by a short
//! deadline rather than a full queue. On a clean epoch their distances
//! are expanded from the per-level record, whose words and rows are only
//! partly used by such a batch; a dirty epoch stores them per vertex.
//! Every delivered result must equal the textbook BFS, at shards {1, 2},
//! on a clean epoch, on a dirty epoch after `apply_batch`, and on a graph
//! deep enough to pass the record's level cap.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::core::textbook;
use pbfs::graph::{gen, CsrGraph};

/// `(width cap, queries per shard)`: each flush is a partial batch at the
/// cap's width.
const PARTIAL: [(usize, usize); 2] = [(512, 300), (128, 100)];

/// Engines in this binary share the process-global registry and the
/// failpoint registry; the tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(shards: usize, cap: usize) -> EngineConfig {
    EngineConfig::default()
        .with_workers(2)
        .with_shards(shards)
        .with_max_batch(cap)
        .with_max_latency(Duration::from_millis(50))
}

/// Sources spread over the graph, with every 50th query on vertex 0 so a
/// batch also holds repeated sources.
fn sources(n: usize, queries: usize) -> Vec<u32> {
    (0..queries)
        .map(|i| {
            if i % 50 == 0 {
                0
            } else {
                ((i * 7919) % n) as u32
            }
        })
        .collect()
}

/// The logical graph of the store's current epoch as a plain CSR.
fn rebuilt(store: &GraphStore) -> CsrGraph {
    let snap = store.snapshot();
    let mut edges = Vec::new();
    for v in 0..snap.num_vertices() as u32 {
        for &w in snap.neighbors_fast(v) {
            if w > v {
                edges.push((v, w));
            }
        }
    }
    CsrGraph::from_edges(snap.num_vertices(), &edges)
}

/// Sends every partial flush of [`PARTIAL`] at shards {1, 2} through an
/// engine over `store`, mutated first by `mutate`, and checks each result
/// against the textbook BFS on the same logical graph.
fn check_partial_flushes(g: &Arc<CsrGraph>, mutate: &[EdgeMutation], what: &str) {
    for shards in [1usize, 2] {
        for (cap, per_shard) in PARTIAL {
            let store = GraphStore::new(Arc::clone(g));
            let mut engine = QueryEngine::with_store(Arc::clone(&store), config(shards, cap));
            if !mutate.is_empty() {
                store.apply_batch(mutate).unwrap();
                assert!(store.snapshot().has_deltas(), "{what}: epoch must be dirty");
            }
            let reference = rebuilt(&store);
            let queries = sources(g.num_vertices(), shards * per_shard);
            let handles: Vec<QueryHandle> =
                queries.iter().map(|&s| engine.submit(s).unwrap()).collect();
            let mut oracle: HashMap<u32, Vec<u32>> = HashMap::new();
            for h in handles {
                let s = h.source();
                let got = h.wait().unwrap();
                let want = oracle
                    .entry(s)
                    .or_insert_with(|| textbook::distances(&reference, s));
                assert_eq!(&got, want, "{what}: shards {shards} cap {cap} source {s}");
            }
            let stats = engine.stats();
            engine.shutdown();
            assert_eq!(stats.queries, queries.len() as u64);
            assert!(
                stats.width_histogram.contains_key(&cap),
                "{what}: shards {shards} cap {cap}: no flush at the cap's width: {:?}",
                stats.width_histogram
            );
        }
    }
}

#[test]
fn partial_wide_flushes_on_clean_epoch_match_textbook() {
    let _serial = serial();
    let g = Arc::new(gen::Kronecker::graph500(10).seed(3).generate());
    check_partial_flushes(&g, &[], "clean");
}

#[test]
fn partial_wide_flushes_on_dirty_epoch_match_textbook() {
    let _serial = serial();
    let g = Arc::new(gen::Kronecker::graph500(10).seed(3).generate());
    let n = g.num_vertices() as u32;
    let inserts = (0..64u32).map(|i| EdgeMutation::Insert((i * 37) % n, (i * 101 + 7) % n));
    let deletes = (0..8u32).flat_map(|v| {
        let first = g.neighbors(v).first();
        first.map(|&w| EdgeMutation::Delete(v, w))
    });
    let mutate: Vec<EdgeMutation> = inserts.chain(deletes).collect();
    check_partial_flushes(&g, &mutate, "dirty");
}

/// A path of 600 vertices is hundreds of levels deep, far past the 18
/// levels a 300-query batch records at width 512 (and the 25 of a
/// 100-query batch at width 128): the deeper levels go straight into the
/// rows and are merged with the expanded ones.
#[test]
fn partial_wide_flushes_past_the_level_cap_match_textbook() {
    let _serial = serial();
    let g = Arc::new(gen::path(600));
    check_partial_flushes(&g, &[], "deep");
}

/// A panic inside the expansion of a wide batch fails that batch alone
/// with `BatchFailed`; the engine then serves oracle-exact results.
#[cfg(feature = "failpoints")]
#[test]
fn panic_during_expansion_fails_only_its_batch() {
    use pbfs::fault::{FailAction, FailConfig};

    let _serial = serial();
    let g = Arc::new(gen::Kronecker::graph500(10).seed(3).generate());
    let mut engine = QueryEngine::new(Arc::clone(&g), config(1, 512));
    pbfs::fault::configure(
        "core.visitor.expand",
        FailConfig {
            action: FailAction::Panic(Some("injected expansion fault".into())),
            probability: 1.0,
            max: Some(1),
        },
    );
    let queries = sources(g.num_vertices(), 300);
    let failed: Vec<QueryHandle> = queries.iter().map(|&s| engine.submit(s).unwrap()).collect();
    for h in failed {
        match h.wait() {
            Err(EngineError::BatchFailed { reason }) => {
                assert!(
                    reason.contains("injected expansion fault"),
                    "reason: {reason}"
                )
            }
            other => panic!("the batch must fail, got {other:?}"),
        }
    }
    pbfs::fault::remove("core.visitor.expand");
    let handles: Vec<QueryHandle> = queries.iter().map(|&s| engine.submit(s).unwrap()).collect();
    for h in handles {
        let s = h.source();
        assert_eq!(h.wait().unwrap(), textbook::distances(&g, s), "source {s}");
    }
    let stats = engine.stats();
    engine.shutdown();
    assert_eq!(stats.batch_failures, 1);
    assert_eq!(stats.failed, 300);
}
