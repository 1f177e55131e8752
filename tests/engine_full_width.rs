//! Engine oracle at full batch width on a power-of-two graph: every
//! delivered result of 512-wide MS-PBFS flushes must equal the textbook
//! BFS, on the single-shard engine and under sharding. A Kronecker graph
//! has `n = 2^scale` vertices, the size at which per-query result rows
//! would share a `2^k` stride if they were laid out as one matrix.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::core::textbook;
use pbfs::graph::gen;

const WIDTH: usize = 512;
/// Full-width batches flushed by each shard's dispatcher.
const BATCHES_PER_SHARD: usize = 2;

#[test]
fn full_width_batches_on_power_of_two_graph_match_textbook() {
    let g = Arc::new(gen::Kronecker::graph500(12).seed(5).generate());
    let n = g.num_vertices();
    assert!(n.is_power_of_two(), "n = {n}");
    let mut oracle: HashMap<u32, Vec<u32>> = HashMap::new();
    for shards in [1usize, 2] {
        // Only a full queue flushes: the deadline is far beyond the test.
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_shards(shards)
            .with_max_batch(WIDTH)
            .with_max_latency(Duration::from_secs(600));
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);
        let queries = shards * BATCHES_PER_SHARD * WIDTH;
        let handles: Vec<QueryHandle> = (0..queries)
            .map(|i| engine.submit(((i * 7919) % n) as u32).unwrap())
            .collect();
        for h in handles {
            let source = h.source();
            let got = h.wait().unwrap();
            let want = oracle
                .entry(source)
                .or_insert_with(|| textbook::distances(&g, source));
            assert_eq!(&got, want, "shards {shards} source {source}");
        }
        let stats = engine.stats();
        engine.shutdown();
        assert_eq!(
            stats.width_histogram,
            BTreeMap::from([(WIDTH, (shards * BATCHES_PER_SHARD) as u64)]),
            "shards {shards}: every flush must be full width"
        );
    }
}
