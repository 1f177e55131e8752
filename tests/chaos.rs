//! Chaos soak integration tests: live failpoints against the batched
//! query engine. Compiled only with `--features failpoints` (CI's chaos
//! smoke step); the default build verifies the sites compile out instead.

#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pbfs::core::chaos::{self, ChaosConfig};
use pbfs::core::engine::{EngineConfig, EngineError, QueryEngine};
use pbfs::core::textbook;
use pbfs::fault::{FailAction, FailConfig};
use pbfs::graph::{gen, io};

/// The failpoint registry is process-global: every test that arms sites
/// must hold this.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on a helper thread and fails if it does not finish in `d` —
/// the no-hang watchdog. (On timeout the helper thread leaks —
/// acceptable in a failing test.)
fn with_watchdog<T: Send + 'static>(d: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
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

/// The acceptance bar: 25+ seeded schedules, every engine invariant held,
/// and the harness demonstrably injected faults.
#[test]
fn chaos_soak_holds_engine_invariants_across_25_schedules() {
    let _g = guard();
    let report = with_watchdog(Duration::from_secs(300), || {
        chaos::run(&ChaosConfig {
            schedules: 25,
            seed: 42,
            scale: 7,
            queries: 32,
            workers: 3,
            shards: 1,
            schedule_timeout: Duration::from_secs(30),
        })
    });
    assert!(
        report.passed(),
        "chaos violations:\n{}",
        report.violations().join("\n")
    );
    assert_eq!(report.outcomes.len(), 25);
    assert!(
        report.triggered_total > 0,
        "25 schedules with a guaranteed p=1 site each must fire something"
    );
    assert!(
        report.ok_total() > 0,
        "the engine should still answer queries between faults"
    );
}

/// The soak invariants hold with the engine sharded across two simulated
/// sockets too: faults (the `core.sharded.phase` site is not among them,
/// since no engine schedule runs the sharded kernel) stay contained to
/// the shard they hit, and every Ok answer remains oracle-exact.
#[test]
fn chaos_soak_holds_invariants_with_two_shards() {
    let _g = guard();
    let report = with_watchdog(Duration::from_secs(180), || {
        chaos::run(&ChaosConfig {
            schedules: 8,
            seed: 43,
            scale: 7,
            queries: 24,
            workers: 2,
            shards: 2,
            schedule_timeout: Duration::from_secs(30),
        })
    });
    assert!(
        report.passed(),
        "sharded chaos violations:\n{}",
        report.violations().join("\n")
    );
    assert_eq!(report.outcomes.len(), 8);
    assert!(report.triggered_total > 0);
    assert!(report.ok_total() > 0);
}

/// The same master seed arms the same sites with the same specs in every
/// schedule — a failing soak can be replayed exactly.
#[test]
fn chaos_schedules_are_deterministic_per_seed() {
    let _g = guard();
    let cfg = ChaosConfig {
        schedules: 5,
        seed: 7,
        scale: 6,
        queries: 8,
        workers: 2,
        shards: 1,
        schedule_timeout: Duration::from_secs(30),
    };
    let a = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    let b = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    let sites = |r: &pbfs::core::chaos::ChaosReport| -> Vec<Vec<String>> {
        r.outcomes.iter().map(|o| o.sites.clone()).collect()
    };
    assert_eq!(sites(&a), sites(&b), "armed schedules must replay exactly");
    let seeds = |r: &pbfs::core::chaos::ChaosReport| -> Vec<u64> {
        r.outcomes.iter().map(|o| o.seed).collect()
    };
    assert_eq!(seeds(&a), seeds(&b));
}

/// Determinism is pinned across the newer execution axes too, not just
/// the default stack: the same master seed replays the same armed sites
/// on the two-shard engine and under the forced-scalar
/// SIMD kernels.
#[test]
fn chaos_schedules_are_deterministic_with_shards_and_scalar_simd() {
    use pbfs::bitset::simd::{set_level, SimdLevel};

    let _g = guard();
    let sites = |r: &pbfs::core::chaos::ChaosReport| -> Vec<Vec<String>> {
        r.outcomes.iter().map(|o| o.sites.clone()).collect()
    };
    let seeds = |r: &pbfs::core::chaos::ChaosReport| -> Vec<u64> {
        r.outcomes.iter().map(|o| o.seed).collect()
    };

    // Axis 1: two shards.
    let cfg = ChaosConfig {
        schedules: 4,
        seed: 11,
        scale: 6,
        queries: 8,
        workers: 2,
        shards: 2,
        schedule_timeout: Duration::from_secs(30),
    };
    let a = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    let b = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    assert!(a.passed(), "sharded replay run A violated invariants");
    assert!(b.passed(), "sharded replay run B violated invariants");
    assert_eq!(
        sites(&a),
        sites(&b),
        "sharded schedules must replay exactly"
    );
    assert_eq!(seeds(&a), seeds(&b));

    // Axis 2: forced-scalar SIMD kernels (as `PBFS_SIMD=scalar` would
    // select). Restored before the assertion so a failure cannot leak the
    // override into other tests.
    let prev = set_level(Some(SimdLevel::Scalar));
    let cfg = ChaosConfig {
        schedules: 4,
        seed: 13,
        scale: 6,
        queries: 8,
        workers: 2,
        shards: 1,
        schedule_timeout: Duration::from_secs(30),
    };
    let a = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    let b = with_watchdog(Duration::from_secs(120), move || chaos::run(&cfg));
    set_level(Some(prev));
    assert!(a.passed(), "scalar replay run A violated invariants");
    assert!(b.passed(), "scalar replay run B violated invariants");
    assert_eq!(sites(&a), sites(&b), "scalar schedules must replay exactly");
    assert_eq!(seeds(&a), seeds(&b));
}

/// The mutating soak acceptance bar: 25+ seeded schedules on the sharded
/// engine, each racing edge-mutation batches and compactions against
/// query traffic under storage faults (apply, publish, compact and
/// reclaim are each armed deterministically across the soak). Every query
/// must match exactly one epoch live during its window — a torn result or
/// a leaked/prematurely-freed epoch is a violation the report carries.
#[test]
fn mutating_chaos_soak_holds_per_epoch_oracle_across_25_schedules() {
    let _g = guard();
    let report = with_watchdog(Duration::from_secs(300), || {
        chaos::run_mutating(&ChaosConfig {
            schedules: 25,
            seed: 42,
            scale: 7,
            queries: 24,
            workers: 3,
            shards: 2,
            schedule_timeout: Duration::from_secs(30),
        })
    });
    assert!(
        report.passed(),
        "mutating chaos violations:\n{}",
        report.violations().join("\n")
    );
    assert_eq!(report.outcomes.len(), 25);
    assert!(
        report.triggered_total > 0,
        "each schedule arms a p=1 storage site; something must fire"
    );
    assert!(
        report.ok_total() > 0,
        "the engine should answer queries while the graph mutates"
    );
    let mutations: u64 = report.outcomes.iter().map(|o| o.mutations).sum();
    assert!(
        mutations > 0,
        "mutation batches must land between injected faults"
    );
    assert!(
        report.outcomes.iter().any(|o| o.epochs > 1),
        "schedules must publish epochs beyond the initial one"
    );
}

/// The reader failpoints inject a typed `GraphIoError::Injected` through
/// the return-form macro, honoring the fire-count limit.
#[test]
fn io_failpoints_inject_typed_errors() {
    let _g = guard();
    pbfs::fault::clear_all();
    let g = gen::cycle(16);
    let mut bin = Vec::new();
    io::write_binary(&g, &mut bin).unwrap();

    pbfs::fault::configure(
        "graph.io.read_binary",
        FailConfig::always(FailAction::ReturnError).with_max(1),
    );
    match io::read_binary(&bin[..]) {
        Err(io::GraphIoError::Injected { site }) => assert_eq!(site, "graph.io.read_binary"),
        other => panic!("expected injected error, got {other:?}"),
    }
    // max=1 exhausted: the same bytes now parse.
    let h = io::read_binary(&bin[..]).expect("fault budget exhausted");
    assert_eq!(h.num_vertices(), 16);

    pbfs::fault::configure(
        "graph.io.read_text",
        FailConfig::always(FailAction::ReturnError).with_max(1),
    );
    let mut txt = Vec::new();
    io::write_text(&g, &mut txt).unwrap();
    assert!(matches!(
        io::read_text(&txt[..]),
        Err(io::GraphIoError::Injected { .. })
    ));
    assert!(io::read_text(&txt[..]).is_ok());
    pbfs::fault::clear_all();
}

/// A sustained panic storm at the flush site: every query resolves
/// exactly once (Ok or BatchFailed), the dispatcher survives, and after
/// the storm the engine serves oracle-correct answers again.
#[test]
fn engine_survives_panic_storm_and_recovers() {
    let _g = guard();
    pbfs::fault::clear_all();
    pbfs::fault::set_seed(99);
    pbfs::fault::configure(
        "core.engine.flush",
        FailConfig::always(FailAction::Panic(None)).with_max(50),
    );

    let graph = Arc::new(gen::Kronecker::graph500(7).seed(3).generate());
    let n = graph.num_vertices();
    let verdict = with_watchdog(Duration::from_secs(60), {
        let graph = Arc::clone(&graph);
        move || {
            let engine = QueryEngine::new(
                Arc::clone(&graph),
                EngineConfig::default()
                    .with_workers(2)
                    .with_max_latency(Duration::from_millis(1))
                    .with_drain_timeout(Some(Duration::from_secs(2))),
            );
            let handles: Vec<_> = (0..20u32)
                .map(|i| {
                    engine
                        .submit(i % n as u32)
                        .expect("admission is fault-free")
                })
                .collect();
            let (mut ok, mut failed) = (0u32, 0u32);
            for h in handles {
                match h.wait() {
                    Ok(_) => ok += 1,
                    Err(EngineError::BatchFailed { .. }) => failed += 1,
                    Err(other) => panic!("unexpected error under panic storm: {other}"),
                }
            }
            // Storm over: a probe must heal and match the oracle.
            pbfs::fault::clear_all();
            let d = engine
                .submit(0)
                .expect("engine accepts after storm")
                .wait()
                .expect("engine answers after storm");
            (ok, failed, d)
        }
    });
    let (ok, failed, probe) = verdict;
    assert_eq!(ok + failed, 20, "exactly-once: every query resolved");
    assert!(failed > 0, "the storm must have hit something");
    assert_eq!(probe, textbook::bfs(&graph, 0).distances);
    pbfs::fault::clear_all();
}

/// Faults inside the traversal phases and scheduler (not just the engine
/// shell) are survived: arm the deepest sites directly with certainty.
#[test]
fn deep_sites_fire_and_are_survived() {
    let _g = guard();
    pbfs::fault::clear_all();
    pbfs::fault::set_seed(5);
    for (site, max) in [
        ("sched.pool.worker", 3u64),
        ("sched.task.fetch", 2),
        ("core.smspbfs.phase", 2),
        ("bitset.summary.mark", 2),
    ] {
        pbfs::fault::configure(
            site,
            FailConfig::always(FailAction::Panic(None)).with_max(max),
        );
    }
    let graph = Arc::new(gen::Kronecker::graph500(7).seed(11).generate());
    let n = graph.num_vertices();
    with_watchdog(Duration::from_secs(60), {
        let graph = Arc::clone(&graph);
        move || {
            let engine = QueryEngine::new(
                Arc::clone(&graph),
                EngineConfig::default()
                    .with_workers(3)
                    .with_max_latency(Duration::from_millis(1))
                    .with_drain_timeout(Some(Duration::from_secs(2))),
            );
            let handles: Vec<_> = (0..12u32)
                .map(|i| engine.submit((i * 7) % n as u32).expect("admission"))
                .collect();
            for h in handles {
                match h.wait() {
                    Ok(_) | Err(EngineError::BatchFailed { .. }) => {}
                    Err(other) => panic!("unexpected: {other}"),
                }
            }
        }
    });
    let fired: u64 = pbfs::fault::stats().iter().map(|s| s.triggered).sum();
    assert!(fired > 0, "at least one deep site must have fired");
    pbfs::fault::clear_all();
}

/// Flushes below `INLINE_FLUSH_WORK` run on the dispatcher thread alone,
/// so a panic armed on every spawned pool worker cannot touch them, while
/// a flush above the threshold still runs on the shard's pool and fails.
#[test]
fn narrow_flushes_never_enter_a_spawned_worker() {
    use pbfs::core::engine::INLINE_FLUSH_WORK;

    let _g = guard();
    pbfs::fault::clear_all();
    let graph = Arc::new(gen::Kronecker::graph500(10).seed(5).generate());
    let m = graph.num_directed_edges();
    assert!(2 * m < INLINE_FLUSH_WORK, "2-query flushes must be narrow");
    assert!(64 * m >= INLINE_FLUSH_WORK, "64-query flushes must be wide");
    let n = graph.num_vertices() as u32;
    let wide: Vec<u32> = (0..64).map(|i| (i * 13) % n).collect();

    pbfs::fault::configure(
        "sched.pool.worker",
        FailConfig::always(FailAction::Panic(None)),
    );
    let worker_faults = || -> u64 {
        pbfs::fault::stats()
            .iter()
            .filter(|s| s.site == "sched.pool.worker")
            .map(|s| s.triggered)
            .sum()
    };
    // Submits every source before waiting on any, so they can coalesce.
    let answer = |engine: &QueryEngine, sources: &[u32]| {
        let handles: Vec<_> = sources.iter().map(|&s| engine.submit(s).unwrap()).collect();
        handles
            .into_iter()
            .map(|h| (h.source(), h.wait()))
            .collect::<Vec<_>>()
    };
    let (narrow, fired_narrow, failed_wide, fired_wide, healed, stats) =
        with_watchdog(Duration::from_secs(60), {
            let graph = Arc::clone(&graph);
            move || {
                // The long deadline coalesces the pair into one 2-query
                // flush; the cap flushes the 64 sources as soon as all
                // are queued.
                let mut engine = QueryEngine::new(
                    Arc::clone(&graph),
                    EngineConfig::default()
                        .with_workers(2)
                        .with_max_batch(64)
                        .with_max_latency(Duration::from_millis(200)),
                );
                let mut narrow = answer(&engine, &[3]);
                narrow.extend(answer(&engine, &[7, 11]));
                let fired_narrow = worker_faults();
                let failed_wide = answer(&engine, &wide);
                let fired_wide = worker_faults();
                pbfs::fault::clear_all();
                let healed = answer(&engine, &wide);
                engine.shutdown();
                (
                    narrow,
                    fired_narrow,
                    failed_wide,
                    fired_wide,
                    healed,
                    engine.stats(),
                )
            }
        });
    pbfs::fault::clear_all();

    for (s, got) in narrow {
        assert_eq!(
            got,
            Ok(textbook::bfs(&graph, s).distances),
            "narrow source {s}"
        );
    }
    assert_eq!(fired_narrow, 0, "a narrow flush entered a spawned worker");
    for (_, got) in failed_wide {
        match got {
            Err(EngineError::BatchFailed { reason }) => {
                assert!(
                    reason.contains("panicked inside a parallel loop"),
                    "{reason}"
                )
            }
            other => panic!("a wide flush must run on the pool and fail, got {other:?}"),
        }
    }
    assert!(
        fired_wide > 0,
        "the wide flush never reached a spawned worker"
    );
    for (s, got) in healed {
        assert_eq!(
            got,
            Ok(textbook::bfs(&graph, s).distances),
            "healed source {s}"
        );
    }
    // One singleton, one 2-query flush, one healed 64-query flush; the
    // failed flush is not counted.
    assert_eq!(stats.width_histogram.get(&1), Some(&1), "{stats:?}");
    assert_eq!(stats.width_histogram.get(&64), Some(&2), "{stats:?}");
    assert_eq!(stats.batch_failures, 1, "{stats:?}");
}

/// Every kernel reaches its own failpoint sites through the shared
/// traversal driver. Each level-head site is armed alone: only its own
/// kernel panics there, the other two run through it untouched.
#[test]
fn every_kernel_reaches_its_own_sites() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use pbfs::core::options::BfsOptions;
    use pbfs::core::prelude::{MsPbfs, NoopMsVisitor, NoopVisitor, ShardedMsBfs, SmsPbfsBit};
    use pbfs::graph::PartitionedCsr;
    use pbfs::sched::WorkerPool;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kernel {
        MsPbfs,
        SmsPbfs,
        Sharded,
    }
    const KERNELS: [Kernel; 3] = [Kernel::MsPbfs, Kernel::SmsPbfs, Kernel::Sharded];

    let _g = guard();
    let g = gen::Kronecker::graph500(7).seed(9).generate();
    let n = g.num_vertices();
    let part = PartitionedCsr::partition(&g, 2, 2, 64);
    let sources: Vec<u32> = (0..8).map(|i| i * 11 % n as u32).collect();
    // Runs `kernel` on a fresh pool; true iff it panicked.
    let panics = |kernel: Kernel, opts: &BfsOptions| -> bool {
        let pool = WorkerPool::new(2);
        catch_unwind(AssertUnwindSafe(|| match kernel {
            Kernel::MsPbfs => {
                let mut bfs: MsPbfs<1> = MsPbfs::new(n);
                bfs.run(&g, &pool, &sources, opts, &NoopMsVisitor);
            }
            Kernel::SmsPbfs => {
                SmsPbfsBit::new(n).run(&g, &pool, sources[0], opts, &NoopVisitor);
            }
            Kernel::Sharded => {
                let mut bfs: ShardedMsBfs<1> = ShardedMsBfs::new(n, 2);
                bfs.run(&part, &pool, &sources, opts, &NoopMsVisitor);
            }
        }))
        .is_err()
    };
    let arm = |site: &str| {
        pbfs::fault::clear_all();
        pbfs::fault::configure(
            site,
            FailConfig::always(FailAction::Panic(None)).with_max(1),
        );
    };
    let triggered = || -> Vec<(String, u64)> {
        pbfs::fault::stats()
            .into_iter()
            .filter(|s| s.triggered > 0)
            .map(|s| (s.site, s.triggered))
            .collect()
    };

    let plain = BfsOptions::default();
    for (site, owner) in [
        ("core.mspbfs.phase", Kernel::MsPbfs),
        ("core.smspbfs.phase", Kernel::SmsPbfs),
        ("core.sharded.phase", Kernel::Sharded),
    ] {
        arm(site);
        for other in KERNELS.into_iter().filter(|&k| k != owner) {
            assert!(!panics(other, &plain), "{other:?} reached {site}");
        }
        assert!(panics(owner, &plain), "{owner:?} never reached {site}");
        assert_eq!(triggered(), vec![(site.to_string(), 1)], "{site}");
    }
    pbfs::fault::clear_all();
}
