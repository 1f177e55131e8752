//! `EngineConfig` knob validation: zero and absurd values must surface as
//! documented clamps or typed errors — never panics and never hangs. Each
//! test runs under a watchdog so a regression to "silent hang" fails the
//! test instead of stalling CI.

use std::sync::Arc;
use std::time::Duration;

use pbfs::core::prelude::*;
use pbfs::graph::gen;

/// Run `f` on a helper thread; panic if it has not finished in `secs`.
fn with_watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("test body panicked"),
        Err(_) => panic!("test body exceeded the {secs}s watchdog (hang)"),
    }
}

fn engine(config: EngineConfig) -> QueryEngine {
    QueryEngine::new(Arc::new(gen::cycle(32)), config)
}

/// The builder clamps a zero queue bound to 1, and a full queue rejects
/// with the typed `Overloaded` error rather than blocking or panicking.
#[test]
fn zero_max_queue_clamps_to_one_and_overflow_is_typed() {
    let config = EngineConfig::default()
        .with_workers(1)
        .with_max_queue(0)
        // Park the one admitted query in the coalescing window so the
        // second submission deterministically finds the queue full.
        .with_max_latency(Duration::from_secs(60))
        .with_drain_timeout(Some(Duration::ZERO));
    assert_eq!(config.max_queue, 1, "with_max_queue(0) clamps to 1");

    with_watchdog(30, move || {
        let mut e = engine(config);
        let parked = e.submit(0).expect("first query fits the queue of 1");
        let err = e.submit(1).expect_err("queue of 1 is now full");
        assert_eq!(err, EngineError::Overloaded { max_queue: 1 });
        // Shutdown with a zero drain bound abandons the parked query
        // promptly instead of serving out the 60s flush window.
        e.shutdown();
        assert_eq!(parked.wait(), Err(EngineError::ShutDown));
    });
}

/// A raw zero `max_queue` (struct literal, bypassing the builder clamp)
/// is a documented degenerate config: every submission is refused with
/// `Overloaded`, but nothing panics or hangs.
#[test]
fn raw_zero_max_queue_refuses_all_submissions() {
    let config = EngineConfig {
        max_queue: 0,
        ..EngineConfig::default()
    };
    with_watchdog(30, move || {
        let e = engine(config);
        for source in 0..4 {
            assert_eq!(
                e.submit(source).expect_err("queue of 0 admits nothing"),
                EngineError::Overloaded { max_queue: 0 }
            );
        }
        assert_eq!(e.stats().rejected, 4);
    });
}

/// A zero query timeout expires every query with the typed `Expired`
/// error before it can batch — queries never hang and never run.
#[test]
fn zero_query_timeout_expires_instead_of_hanging() {
    let config = EngineConfig::default()
        .with_workers(1)
        // Flush far later than expiry so the timeout path must win.
        .with_max_latency(Duration::from_secs(60))
        .with_query_timeout(Some(Duration::ZERO))
        .with_drain_timeout(Some(Duration::ZERO));
    with_watchdog(30, move || {
        let e = engine(config);
        for source in 0..4 {
            match e.submit(source).unwrap().wait() {
                Err(EngineError::Expired { .. }) => {}
                other => panic!("expected Expired, got {other:?}"),
            }
        }
        // The accumulator is bumped after the client-visible send; poll
        // briefly (the watchdog bounds this) for the count to settle.
        while e.stats().expired < 4 {
            std::thread::sleep(Duration::from_millis(5));
        }
    });
}

/// A zero drain timeout means shutdown abandons still-queued queries
/// immediately with `ShutDown` — drop never blocks on the flush window.
#[test]
fn zero_drain_timeout_fails_pending_queries_promptly() {
    let config = EngineConfig::default()
        .with_workers(1)
        .with_max_queue(16)
        .with_max_latency(Duration::from_secs(60))
        .with_drain_timeout(Some(Duration::ZERO));
    with_watchdog(30, move || {
        let mut e = engine(config);
        let handles: Vec<_> = (0..8).map(|s| e.submit(s).unwrap()).collect();
        e.shutdown();
        for h in handles {
            assert_eq!(h.wait(), Err(EngineError::ShutDown));
        }
        assert_eq!(
            e.submit(0).expect_err("engine is shut down"),
            EngineError::ShutDown
        );
    });
}

/// A raw `shards: 0` (struct literal, bypassing `with_shards`) is clamped
/// by the dispatcher to one shard and the engine serves normally.
#[test]
fn raw_zero_shards_is_clamped_and_serves() {
    assert_eq!(EngineConfig::default().with_shards(0).shards, 1);
    let config = EngineConfig {
        shards: 0,
        ..EngineConfig::default().with_max_latency(Duration::from_micros(100))
    };
    with_watchdog(30, move || {
        let e = engine(config);
        let d = e.submit(0).unwrap().wait().unwrap();
        assert_eq!(d[16], 16, "opposite side of the 32-cycle");
    });
}

/// Absurdly large knob values must not overflow or stall: a huge queue
/// bound, a huge shard count (clamped to 255 shards), and saturating
/// timeouts all serve correctly.
#[test]
fn absurd_knob_values_are_clamped_not_panics() {
    let config = EngineConfig::default()
        .with_workers(3)
        .with_shards(usize::MAX)
        .with_max_queue(usize::MAX)
        .with_max_latency(Duration::from_micros(100))
        .with_query_timeout(Some(Duration::MAX))
        .with_drain_timeout(Some(Duration::MAX));
    with_watchdog(60, move || {
        // min(usize::MAX, 255) shards over 64 vertices: most shards serve
        // no query, which their dispatchers must tolerate.
        let e = QueryEngine::new(Arc::new(gen::cycle(64)), config);
        let d = e.submit(1).unwrap().wait().unwrap();
        assert_eq!(d[33], 32);
    });
}
