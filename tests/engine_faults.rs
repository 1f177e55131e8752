//! Fault containment end-to-end: injected panics fail only their own
//! batch (and the engine keeps serving oracle-correct results), a full
//! queue exerts backpressure instead of growing, stale queries expire,
//! and shutdown never leaves a handle hanging. Every blocking assertion
//! runs under a watchdog so a liveness bug fails the test instead of
//! wedging the harness.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pbfs::core::textbook;
use pbfs::graph::gen;
use pbfs::sched::WorkerPool;
use pbfs::{EngineConfig, EngineError, QueryEngine};

/// Runs `f` on a helper thread and panics if it does not finish in `d`.
/// (On timeout the helper thread leaks — acceptable in a failing test.)
fn with_watchdog<T: Send + 'static>(d: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
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

const WATCHDOG: Duration = Duration::from_secs(60);

/// Source ids that trigger the injected faults below.
const CALLER_BOOM: u32 = 190;
const WORKER_BOOM: u32 = 191;

/// Chaos hook: one magic source panics on the dispatcher thread itself,
/// the other panics a spawned pool worker (exercising real pool poisoning
/// and the worker-panic propagation path).
fn fault_hook(pool: &WorkerPool, sources: &[u32]) {
    if sources.contains(&WORKER_BOOM) {
        pool.run(|w| {
            if w > 0 {
                panic!("injected worker fault");
            }
        });
    }
    if sources.contains(&CALLER_BOOM) {
        panic!("injected dispatcher fault");
    }
}

fn worker_panics_total() -> u64 {
    pbfs::telemetry::registry()
        .counter(
            "pbfs_sched_worker_panics_total",
            "Panics caught on pool workers inside parallel loop bodies",
        )
        .get()
}

#[test]
fn batch_panic_fails_only_that_batch_and_engine_recovers() {
    with_watchdog(WATCHDOG, || {
        let g = Arc::new(gen::uniform(200, 800, 7));
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_latency(Duration::from_millis(200))
            .with_fault_hook(fault_hook);
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);

        // Phase 1: a batch containing the dispatcher-panic source fails
        // as a unit — every sibling gets the same typed error.
        let doomed: Vec<_> = [1, 2, CALLER_BOOM, 3]
            .iter()
            .map(|&s| engine.submit(s).unwrap())
            .collect();
        for h in doomed {
            match h.wait() {
                Err(EngineError::BatchFailed { reason }) => {
                    assert!(reason.contains("injected dispatcher fault"), "{reason}");
                }
                other => panic!("expected BatchFailed, got {other:?}"),
            }
        }

        // Phase 2: the very next batch succeeds with oracle-correct
        // distances — fresh algorithm state, healthy pool.
        let h = engine.submit(5).unwrap();
        assert_eq!(h.wait().unwrap(), textbook::distances(&g, 5));

        // Phase 3: a panic on a spawned pool worker poisons the pool;
        // the batch fails, the panic is counted, and the pool recovers.
        let panics_before = worker_panics_total();
        let doomed: Vec<_> = [8, WORKER_BOOM, 9]
            .iter()
            .map(|&s| engine.submit(s).unwrap())
            .collect();
        for h in doomed {
            match h.wait() {
                Err(EngineError::BatchFailed { reason }) => {
                    assert!(
                        reason.contains("panicked inside a parallel loop"),
                        "{reason}"
                    );
                }
                other => panic!("expected BatchFailed, got {other:?}"),
            }
        }
        assert!(
            worker_panics_total() > panics_before,
            "worker panic must be observable in telemetry, not just stderr"
        );

        // Phase 4: recovered again.
        let h = engine.submit(10).unwrap();
        assert_eq!(h.wait().unwrap(), textbook::distances(&g, 10));

        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.batch_failures, 2, "{stats:?}");
        assert_eq!(stats.failed, 7, "{stats:?}");
        assert_eq!(stats.queries, 2, "only successful queries counted");
    });
}

#[test]
fn full_queue_rejects_with_overloaded_and_drains_on_shutdown() {
    with_watchdog(WATCHDOG, || {
        let g = Arc::new(gen::grid(8, 8));
        // A long flush deadline keeps the queued queries parked so the
        // admission bound is hit deterministically.
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_queue(2)
            .with_max_latency(Duration::from_secs(30));
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);

        let parked: Vec<_> = (0..2).map(|s| engine.submit(s).unwrap()).collect();
        assert_eq!(
            engine.submit(3).unwrap_err(),
            EngineError::Overloaded { max_queue: 2 }
        );
        // The blocking variant waits for room, but none appears before
        // its deadline either.
        assert_eq!(
            engine
                .submit_timeout(3, Duration::from_millis(50))
                .unwrap_err(),
            EngineError::Overloaded { max_queue: 2 }
        );

        // Shutdown flushes the parked queries rather than abandoning them.
        engine.begin_shutdown();
        let oracle = textbook::distances(&g, 0);
        assert_eq!(parked.len(), 2);
        for (s, h) in parked.into_iter().enumerate() {
            assert_eq!(h.source(), s as u32);
            let want = if s == 0 {
                oracle.clone()
            } else {
                textbook::distances(&g, s as u32)
            };
            assert_eq!(h.wait().unwrap(), want);
        }
        engine.shutdown();
        assert_eq!(engine.stats().rejected, 2);
    });
}

#[test]
fn submit_timeout_admits_once_room_appears() {
    with_watchdog(WATCHDOG, || {
        let g = Arc::new(gen::grid(8, 8));
        // Short flush deadline: the dispatcher drains the queue quickly,
        // so a blocked submit_timeout gets its slot.
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_queue(1)
            .with_max_latency(Duration::from_millis(1));
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);

        let mut handles = Vec::new();
        for s in 0..20 {
            match engine.submit_timeout(s, Duration::from_secs(10)) {
                Ok(h) => handles.push(h),
                Err(e) => panic!("bounded-wait submit should admit, got {e:?}"),
            }
        }
        for h in handles {
            let src = h.source();
            assert_eq!(h.wait().unwrap(), textbook::distances(&g, src));
        }
        engine.shutdown();
    });
}

#[test]
fn stale_queries_expire_with_typed_error() {
    with_watchdog(WATCHDOG, || {
        let g = Arc::new(gen::grid(8, 8));
        // The flush deadline is far beyond the per-query deadline, so the
        // query must be expired, not batched.
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_latency(Duration::from_secs(30))
            .with_query_timeout(Some(Duration::from_millis(20)));
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);

        let h = engine.submit(0).unwrap();
        match h.wait() {
            Err(EngineError::Expired { waited }) => {
                assert!(waited >= Duration::from_millis(20), "{waited:?}");
            }
            other => panic!("expected Expired, got {other:?}"),
        }
        engine.shutdown();
        assert_eq!(engine.stats().expired, 1);
    });
}

#[test]
fn zero_drain_deadline_fails_pending_with_shutdown_error() {
    with_watchdog(WATCHDOG, || {
        let g = Arc::new(gen::grid(8, 8));
        let cfg = EngineConfig::default()
            .with_workers(2)
            .with_max_latency(Duration::from_secs(30))
            .with_drain_timeout(Some(Duration::ZERO));
        let mut engine = QueryEngine::new(Arc::clone(&g), cfg);

        let parked: Vec<_> = (0..3).map(|s| engine.submit(s).unwrap()).collect();
        engine.shutdown();
        for h in parked {
            assert_eq!(h.wait().unwrap_err(), EngineError::ShutDown);
        }
        assert_eq!(engine.stats().failed, 3);
        assert_eq!(engine.submit(0).unwrap_err(), EngineError::ShutDown);
    });
}

#[test]
fn submit_shutdown_race_resolves_every_handle() {
    with_watchdog(WATCHDOG, || {
        for round in 0..15u64 {
            let g = Arc::new(gen::uniform(64, 192, round));
            let cfg = EngineConfig::default()
                .with_workers(2)
                .with_max_queue(8)
                .with_max_latency(Duration::from_micros(200));
            let mut engine = QueryEngine::new(Arc::clone(&g), cfg);
            std::thread::scope(|scope| {
                let eng = &engine;
                let submitters: Vec<_> = (0..3u32)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut handles = Vec::new();
                            for i in 0..60u32 {
                                match eng.submit((i * 3 + t) % 64) {
                                    Ok(h) => handles.push(h),
                                    Err(EngineError::ShutDown) => break,
                                    Err(EngineError::Overloaded { .. }) => continue,
                                    Err(e) => panic!("unexpected submit error: {e:?}"),
                                }
                            }
                            handles
                        })
                    })
                    .collect();
                scope.spawn(move || {
                    std::thread::yield_now();
                    eng.begin_shutdown();
                });
                for s in submitters {
                    for h in s.join().unwrap() {
                        // Admitted before shutdown → a result; lost the
                        // drain race → ShutDown. Never a hang or a
                        // disconnect.
                        match h.wait() {
                            Ok(d) => assert_eq!(d.len(), 64),
                            Err(EngineError::ShutDown) => {}
                            Err(e) => panic!("unexpected wait error: {e:?}"),
                        }
                    }
                }
            });
            engine.shutdown();
        }
    });
}
