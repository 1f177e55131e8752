//! Integration tests for the versioned storage seam: the query engine
//! over a live `GraphStore`, snapshot isolation across epochs, compaction
//! semantics, and the live-epochs accounting the chaos oracle relies on.

use std::sync::Arc;
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::core::storage;
use pbfs::core::textbook;
use pbfs::graph::{gen, CsrGraph};

/// The `pbfs_storage_epochs_live` gauge is process-global, so tests in
/// this binary serialize on one mutex to keep its accounting exact.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(2)
        .with_max_latency(Duration::from_micros(100))
}

/// BFS oracle over any adjacency view, via the public trait.
fn oracle<G: Adjacency>(g: &G, s: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[s as usize] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors_fast(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Queries submitted after a mutation batch publishes are answered from
/// the new epoch: the engine pins a fresh snapshot per coalesced batch.
#[test]
fn engine_serves_each_published_epoch_in_order() {
    let _gate = GATE.lock().unwrap();
    // A path 0-1-2-...-9: distances are large and easy to perturb.
    let g = Arc::new(gen::path(10));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(Arc::clone(&store), config());

    let before = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(before[9], 9);

    // Shortcut 0-9: published before the next submit, so the next batch's
    // snapshot must include it.
    store.apply_batch(&[EdgeMutation::Insert(0, 9)]).unwrap();
    let after = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(after[9], 1);
    assert_eq!(after[7], 3, "0-9-8-7 now beats 0-1-..-7 from below");
    assert_eq!(after, oracle(&store.snapshot(), 0));

    // Deleting the original first hop reroutes everything through 9.
    store.apply_batch(&[EdgeMutation::Delete(0, 1)]).unwrap();
    let rerouted = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(rerouted, oracle(&store.snapshot(), 0));
    assert_eq!(rerouted[1], 9, "1 is now only reachable the long way round");
}

/// A sharded engine (MS-PBFS per shard over the pinned snapshot) tracks
/// mutations too: dirty vertices are served from the overlay, and
/// compaction changes only the epoch serving the answers. It runs over two
/// stores: a fresh one, which the engine leaves unpartitioned, and one
/// given a partition mirror before the engine starts (as the benchmark's
/// set-up does), whose mirror must survive compaction.
#[test]
fn sharded_engine_tracks_mutations() {
    let _gate = GATE.lock().unwrap();
    let g = Arc::new(gen::Kronecker::graph500(8).seed(5).generate());
    let n = g.num_vertices() as u32;
    for prepartitioned in [false, true] {
        let store = GraphStore::new(Arc::clone(&g));
        if prepartitioned {
            store.enable_partition(2, 2, 64);
        }
        let engine = QueryEngine::with_store(Arc::clone(&store), config().with_shards(2));
        assert_eq!(
            store.is_partitioned(),
            prepartitioned,
            "the engine attaches no mirror of its own"
        );

        let sources: Vec<u32> = (0..8).map(|i| (i * 31) % n).collect();
        for &s in &sources {
            let d = engine.submit(s).unwrap().wait().unwrap();
            assert_eq!(d, oracle(&store.snapshot(), s), "clean epoch, source {s}");
        }

        store
            .apply_batch(&[
                EdgeMutation::Insert(0, n - 1),
                EdgeMutation::Insert(1, n / 2),
                EdgeMutation::Delete(0, 1),
            ])
            .unwrap();
        for &s in &sources {
            let d = engine.submit(s).unwrap().wait().unwrap();
            assert_eq!(d, oracle(&store.snapshot(), s), "dirty epoch, source {s}");
        }

        // Compaction folds the overlay into a fresh base; answers must not
        // change, only the epoch serving them.
        let before = store.current_epoch();
        store.compact().unwrap();
        assert!(store.current_epoch() > before);
        let compacted = store.snapshot();
        assert!(!compacted.has_deltas());
        if prepartitioned {
            let part = compacted.part().expect("mirror survives compaction");
            for v in 0..n {
                assert_eq!(
                    part.neighbors(v),
                    compacted.base().neighbors(v),
                    "vertex {v}"
                );
            }
        }
        for &s in &sources {
            let d = engine.submit(s).unwrap().wait().unwrap();
            assert_eq!(d, oracle(&store.snapshot(), s), "compacted, source {s}");
        }
    }
}

/// Wide multi-source batches traverse the delta overlay identically to
/// the textbook oracle on the equivalent rebuilt CSR.
#[test]
fn batched_queries_on_dirty_epoch_match_rebuilt_graph() {
    let _gate = GATE.lock().unwrap();
    let g = Arc::new(gen::uniform(500, 1500, 7));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(
        Arc::clone(&store),
        config().with_max_latency(Duration::from_millis(20)),
    );
    store
        .apply_batch(&[
            EdgeMutation::Insert(0, 499),
            EdgeMutation::Insert(13, 250),
            EdgeMutation::Delete(0, 499), // net no-op on this pair
            EdgeMutation::Insert(7, 400),
        ])
        .unwrap();

    // The logical graph, rebuilt independently through the compaction
    // path of a second store — the differential reference.
    let reference = {
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
    };

    // Enough simultaneous queries to coalesce into a real MS batch.
    let sources: Vec<u32> = (0..80).map(|i| (i * 13) % 500).collect();
    let handles: Vec<_> = sources.iter().map(|&s| engine.submit(s).unwrap()).collect();
    for (s, h) in sources.iter().zip(handles) {
        assert_eq!(
            h.wait().unwrap(),
            textbook::bfs(&reference, *s).distances,
            "source {s}"
        );
    }
    let stats = engine.stats();
    assert!(
        stats.width_histogram.keys().any(|w| *w > 1),
        "at least one multi-source width expected, got {:?}",
        stats.width_histogram
    );
}

/// Epoch accounting drains: snapshots pin epochs while held, and once the
/// engine and store drop, every epoch is reclaimed (gauge back to the
/// baseline) — the invariant `pbfs_storage_epochs_live` exports.
#[test]
fn epochs_live_gauge_returns_to_baseline_after_drain() {
    let _gate = GATE.lock().unwrap();
    let baseline = storage::epochs_live();
    let g = Arc::new(gen::cycle(64));
    let store = GraphStore::new(g);
    let engine = QueryEngine::with_store(Arc::clone(&store), config());

    let pinned = store.snapshot(); // pins epoch 1
    store.apply_batch(&[EdgeMutation::Insert(0, 32)]).unwrap();
    store.apply_batch(&[EdgeMutation::Insert(1, 33)]).unwrap();
    assert!(
        storage::epochs_live() >= baseline + 2,
        "old epoch pinned + current"
    );

    let d = engine.submit(0).unwrap().wait().unwrap();
    assert_eq!(d, oracle(&store.snapshot(), 0));
    assert_eq!(pinned.epoch(), 1);
    assert!(
        !pinned.has_deltas(),
        "the pinned epoch never saw the inserts"
    );

    drop(pinned);
    drop(engine);
    assert_eq!(
        storage::epochs_live(),
        baseline + 1,
        "only the store's current epoch may remain"
    );
    drop(store);
    assert_eq!(storage::epochs_live(), baseline);
}
