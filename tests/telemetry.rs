//! End-to-end telemetry: a query-engine replay with recording on must
//! yield a Chrome trace containing per-worker task spans, BFS
//! iteration/phase spans and the batch lifecycle, and a metrics snapshot
//! that exports as well-formed Prometheus text and JSON.

use std::sync::{Arc, Mutex};

use pbfs::telemetry::{self, EventKind};
use pbfs::{EngineConfig, QueryEngine};
use pbfs_json::ToJson;

/// The trace recorder is process-global; tests that enable/drain it must
/// not overlap or they steal each other's events.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn engine_replay_produces_full_trace_and_metrics() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = Arc::new(pbfs::graph::gen::Kronecker::graph500(9).seed(3).generate());
    let n = g.num_vertices() as u32;
    let rec = telemetry::recorder();
    rec.drain(); // isolate from anything the harness ran earlier
    rec.set_enabled(true);

    let mut engine = QueryEngine::new(Arc::clone(&g), EngineConfig::default().with_workers(2));
    let handles: Vec<_> = (0..100).map(|i| engine.submit(i % n).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }
    engine.shutdown();
    rec.set_enabled(false);
    let dump = rec.drain();

    // Per-worker task spans, BFS structure, batch lifecycle.
    assert!(dump.events_of(EventKind::Task).count() > 0);
    assert!(dump.events_of(EventKind::Iteration).count() > 0);
    let phases = dump.events_of(EventKind::TopDownPhase1).count()
        + dump.events_of(EventKind::TopDownPhase2).count()
        + dump.events_of(EventKind::BottomUp).count();
    assert!(phases > 0, "no phase spans recorded");
    assert!(dump.events_of(EventKind::BatchSubmit).count() >= 100);
    assert!(dump.events_of(EventKind::BatchCoalesce).count() >= 1);
    assert!(dump.events_of(EventKind::BatchFlush).count() >= 1);
    assert!(dump.events_of(EventKind::BatchComplete).count() >= 1);
    // Task spans sit on worker lanes; batch spans on the engine lane.
    assert!(dump
        .events_of(EventKind::Task)
        .all(|(lane, _)| lane < telemetry::CLIENT_LANE));
    assert!(dump
        .events_of(EventKind::BatchFlush)
        .all(|(lane, _)| lane == telemetry::ENGINE_LANE));

    // The Chrome trace export round-trips through the JSON parser and
    // carries both duration and instant events.
    let chrome = telemetry::export::chrome_trace(&dump);
    let parsed = pbfs_json::parse(&chrome.to_string_pretty()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();
    assert!(
        events.len() > dump.total_events(),
        "metadata records missing"
    );
    assert!(events
        .iter()
        .any(|e| e["name"].as_str() == Some("task") && e["ph"].as_str() == Some("X")));
    // batch_submit is a span (submit → coalesce) emitted by the
    // dispatcher once the covering batch's query-set id is known.
    assert!(events
        .iter()
        .any(|e| e["name"].as_str() == Some("batch_submit") && e["ph"].as_str() == Some("X")));

    // Metrics snapshot: every layer registered its families, and both
    // exporters accept the result.
    let snap = telemetry::registry().snapshot();
    let text = telemetry::export::prometheus_text(&snap);
    for family in [
        "pbfs_engine_queue_depth",
        "pbfs_engine_in_flight_queries",
        "pbfs_engine_batch_width_bucket",
        "pbfs_engine_query_latency_ns_bucket",
        "pbfs_engine_queries_total",
        "pbfs_sched_tasks_total",
        "pbfs_sched_steals_total",
        "pbfs_bfs_iterations_total",
        "pbfs_bfs_traversals_total",
        "pbfs_telemetry_dropped_events_total",
        "pbfs_trace_dropped_events_total",
        "pbfs_graph_vertices",
        "pbfs_graph_edges",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(text.contains("direction=\"top_down\""));
    assert!(text.contains("direction=\"bottom_up\""));
    assert!(snap.find("pbfs_engine_queries_total", "").is_some());

    let parsed = pbfs_json::parse(&snap.to_json().to_string_pretty()).unwrap();
    assert!(parsed["metrics"].as_array().unwrap().len() >= 10);
}

/// A multi-source batch traces its materialization (turning the
/// traversal's output into per-query rows) as a `batch_materialize` span
/// on the engine lane, nested inside the batch's `batch_flush` and
/// carrying the same query-set id.
#[test]
fn multi_source_batch_traces_its_materialization() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = Arc::new(pbfs::graph::gen::Kronecker::graph500(9).seed(3).generate());
    let n = g.num_vertices() as u32;
    let rec = telemetry::recorder();
    rec.drain();
    rec.set_enabled(true);

    // 200 queries flushed by the deadline: one 256-wide batch, expanded
    // from the level record.
    let cfg = EngineConfig::default()
        .with_workers(2)
        .with_max_latency(std::time::Duration::from_millis(50));
    let mut engine = QueryEngine::new(Arc::clone(&g), cfg);
    let handles: Vec<_> = (0..200).map(|i| engine.submit(i % n).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }
    engine.shutdown();
    rec.set_enabled(false);
    let dump = rec.drain();

    let flushes: Vec<_> = dump.events_of(EventKind::BatchFlush).collect();
    let spans: Vec<_> = dump.events_of(EventKind::BatchMaterialize).collect();
    assert!(!spans.is_empty(), "no batch_materialize span");
    for (lane, m) in &spans {
        assert_eq!(*lane, telemetry::ENGINE_LANE);
        assert!(m.qset > 0, "batch_materialize without a query set");
        assert!(m.a >= 64 && m.b >= 2, "a multi-source batch: {m:?}");
        let (_, flush) = flushes
            .iter()
            .find(|(_, f)| f.qset == m.qset)
            .expect("batch_materialize without its batch_flush");
        assert!(
            flush.start_ns <= m.start_ns && m.start_ns + m.dur_ns <= flush.start_ns + flush.dur_ns,
            "batch_materialize {m:?} not inside batch_flush {flush:?}"
        );
    }
    assert!(
        spans.iter().any(|(_, m)| m.a == 256),
        "expected the 256-wide batch: {spans:?}"
    );
    let chrome = telemetry::export::chrome_trace(&dump);
    let parsed = pbfs_json::parse(&chrome.to_string_pretty()).unwrap();
    assert!(parsed["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .any(|e| e["name"].as_str() == Some("batch_materialize") && e["ph"].as_str() == Some("X")));
}

/// Satellite of the causal-tracing work: under *concurrent* submitters
/// the Chrome trace must still be structurally sound — valid JSON,
/// timestamps monotone within every lane, and each batch lifecycle span
/// (submit → coalesce → flush → iteration → complete) stamped with the
/// nonzero query-set id that links the client, engine and kernel lanes.
#[test]
fn concurrent_replay_trace_is_causally_linked() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = Arc::new(pbfs::graph::gen::Kronecker::graph500(9).seed(7).generate());
    let n = g.num_vertices() as u32;
    let rec = telemetry::recorder();
    rec.drain();
    rec.set_enabled(true);

    let mut engine = QueryEngine::new(Arc::clone(&g), EngineConfig::default().with_workers(2));
    std::thread::scope(|s| {
        // 800 queries exceed the widest coalesce width, so the replay is
        // guaranteed to split into multiple batches (= query sets).
        for t in 0..4u32 {
            let engine = &engine;
            s.spawn(move || {
                let handles: Vec<_> = (0..200)
                    .map(|i| engine.submit((t * 200 + i) % n).unwrap())
                    .collect();
                for h in handles {
                    h.wait().unwrap();
                }
            });
        }
    });
    engine.shutdown();
    rec.set_enabled(false);
    let dump = rec.drain();

    let chrome = telemetry::export::chrome_trace(&dump);
    let parsed = pbfs_json::parse(&chrome.to_string_pretty()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();

    // Timestamps are monotone within each lane (export orders them).
    let mut last_ts = std::collections::HashMap::new();
    for e in events {
        if e["ph"].as_str() == Some("M") {
            continue;
        }
        let tid = e["tid"].as_u64().unwrap();
        let ts = e["ts"].as_f64().unwrap();
        let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
        assert!(ts >= prev, "lane {tid} ts went backwards: {prev} -> {ts}");
    }

    // Every batch lifecycle span carries a nonzero query-set id, and
    // each query set observed at submission shows up in the coalesce,
    // flush and complete stages — the causal chain is closed.
    use std::collections::HashSet;
    let lifecycle = [
        "batch_submit",
        "batch_coalesce",
        "batch_flush",
        "batch_complete",
    ];
    let mut qsets: Vec<HashSet<u64>> = vec![HashSet::new(); lifecycle.len()];
    for e in events {
        let Some(name) = e["name"].as_str() else {
            continue;
        };
        if let Some(i) = lifecycle.iter().position(|l| *l == name) {
            let qset = e["args"]["qset"].as_u64().unwrap_or(0);
            assert!(qset > 0, "{name} span without a query-set id: {e:?}");
            qsets[i].insert(qset);
        }
    }
    assert!(qsets[0].len() >= 2, "expected multiple query sets");
    for (stage, seen) in lifecycle.iter().zip(&qsets).skip(1) {
        assert_eq!(
            seen, &qsets[0],
            "{stage} query sets diverge from batch_submit"
        );
    }
    // Kernel iteration spans are attributed to those same query sets.
    let iter_qsets: HashSet<u64> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("iteration"))
        .filter_map(|e| e["args"]["qset"].as_u64())
        .collect();
    assert!(!iter_qsets.is_empty(), "no attributed iteration spans");
    assert!(
        iter_qsets.is_subset(&qsets[0]),
        "iteration spans carry unknown query sets"
    );
}

/// The legacy sequential baselines (MS-BFS and the Beamer variants) must
/// carry `BfsOptions::query_set` into their Iteration trace spans like
/// every other kernel — previously the option was silently dropped and
/// their traces could not be causally linked to a batch.
#[test]
fn legacy_kernels_propagate_query_set_to_iteration_spans() {
    use pbfs::core::beamer::{DirectionOptBfs, QueueKind};
    use pbfs::core::msbfs::MsBfs;
    use pbfs::core::prelude::*;

    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = pbfs::graph::gen::uniform(200, 800, 5);
    let rec = telemetry::recorder();
    rec.drain();
    rec.set_enabled(true);

    let mut ms: MsBfs<1> = MsBfs::new(g.num_vertices());
    let v: MsDistanceVisitor<1> = MsDistanceVisitor::new(g.num_vertices(), 2);
    ms.run(&g, &[0, 1], &BfsOptions::default().with_query_set(4242), &v);

    let beamer = DirectionOptBfs::new(QueueKind::Sparse);
    let (dist, stats) = beamer.run_with_opts(
        &g,
        0,
        &BfsOptions::default().with_query_set(4343),
        &NoopVisitor,
    );
    assert_eq!(dist, pbfs::core::textbook::distances(&g, 0));
    assert!(stats.num_iterations() > 0);

    rec.set_enabled(false);
    let dump = rec.drain();
    let chrome = telemetry::export::chrome_trace(&dump);
    let parsed = pbfs_json::parse(&chrome.to_string_pretty()).unwrap();
    let iter_qsets: std::collections::HashSet<u64> = parsed["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["name"].as_str() == Some("iteration"))
        .filter_map(|e| e["args"]["qset"].as_u64())
        .collect();
    assert!(
        iter_qsets.contains(&4242),
        "MsBfs dropped its query-set id: {iter_qsets:?}"
    );
    assert!(
        iter_qsets.contains(&4343),
        "DirectionOptBfs dropped its query-set id: {iter_qsets:?}"
    );
}
