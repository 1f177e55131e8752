//! Chaos soak harness: seeded randomized fault schedules against the
//! batched query engine, with a textbook-BFS oracle.
//!
//! Each *schedule* derives a deterministic sub-seed, configures a random
//! subset of the workspace's failpoint sites (random actions, probabilities
//! and fire-count limits), then drives concurrent query traffic through a
//! [`QueryEngine`] and checks the engine's failure-model invariants:
//!
//! 1. **Exactly-once resolution** — every admitted query terminates with
//!    one `Ok` or one typed [`EngineError`]; [`EngineError::Internal`] (a
//!    lost result channel) is a violation.
//! 2. **Correctness under faults** — every `Ok` result matches the
//!    [`textbook`] oracle exactly.
//! 3. **Recovery** — after the schedule's faults are cleared, a probe
//!    query must succeed: the worker pool and algorithm state healed.
//! 4. **No hangs** — the whole schedule (traffic, drain, shutdown) runs
//!    under a watchdog; a timeout is a violation, never a stuck process.
//!
//! The harness compiles in every build. Without the `failpoints` feature
//! the schedules still run (useful as a smoke test) but no fault ever
//! fires; [`pbfs_fault::enabled`] tells callers which mode they are in.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use pbfs_fault::{FailAction, FailConfig};
use pbfs_graph::{gen, CsrGraph, VertexId};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::engine::{EngineConfig, EngineError, QueryEngine};
use crate::storage::{Adjacency, EdgeMutation, GraphSnapshot, GraphStore};
use crate::textbook;

/// Failpoint sites a chaos schedule may arm. Ingestion sites
/// (`graph.io.*`, `graph.csr.build`) are deliberately absent: the graph is
/// built during schedule *setup*, and those sites are exercised by the
/// dedicated corrupt-input and injection tests instead.
pub const CHAOS_SITES: &[&str] = &[
    "sched.pool.dispatch",
    "sched.pool.worker",
    "sched.pool.respawn",
    "sched.task.fetch",
    "core.engine.coalesce",
    "core.engine.flush",
    "core.engine.drain",
    "core.engine.expire",
    "core.mspbfs.phase",
    "core.smspbfs.phase",
    "bitset.summary.mark",
    "bitset.summary.clear",
    // ReturnError here forces the SIMD dispatch to fall back to the scalar
    // kernels mid-run; results must stay oracle-exact because every vector
    // level is bit-identical to scalar.
    "bitset.simd.dispatch",
    // Storage epoch sites. In a non-mutating schedule apply/publish/compact
    // are never evaluated (harmless no-ops); `storage.reclaim` fires
    // whenever an epoch drops and must be survived by *every* engine
    // teardown.
    "storage.apply",
    "storage.publish",
    "storage.compact",
    "storage.reclaim",
];

/// The storage fault sites a mutating soak guarantees coverage of: each
/// schedule arms one of these deterministically (rotating by schedule
/// index), so a full soak exercises mutation, publish, compaction and
/// reclamation faults.
pub const STORAGE_SITES: &[&str] = &[
    "storage.apply",
    "storage.publish",
    "storage.compact",
    "storage.reclaim",
];

/// Parameters of a chaos soak run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Independent fault schedules to run.
    pub schedules: usize,
    /// Master seed; schedule `i` uses a sub-seed derived from it.
    pub seed: u64,
    /// Kronecker scale of the workload graph (2^scale vertices).
    pub scale: u32,
    /// Queries submitted per schedule.
    pub queries: usize,
    /// Engine worker threads.
    pub workers: usize,
    /// Engine shards ([`EngineConfig::shards`]): above 1, every schedule
    /// soaks the per-shard dispatcher, queue and pool stacks (round-robin
    /// admission and per-shard panic isolation).
    pub shards: usize,
    /// Watchdog bound for one whole schedule (traffic + drain + shutdown).
    pub schedule_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            schedules: 25,
            seed: 42,
            scale: 8,
            queries: 48,
            workers: 4,
            shards: 1,
            schedule_timeout: Duration::from_secs(30),
        }
    }
}

/// What one schedule did and found.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Schedule index within the run.
    pub schedule: usize,
    /// The derived sub-seed (failpoint streams and traffic shape).
    pub seed: u64,
    /// The armed sites as `site=spec` strings.
    pub sites: Vec<String>,
    /// Queries answered `Ok` with oracle-identical distances.
    pub ok: u64,
    /// Queries that terminated with a typed, expected error
    /// (`BatchFailed`, `Expired`, `Overloaded`, `ShutDown`).
    pub typed_failures: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Faults that actually fired during this schedule.
    pub triggered: u64,
    /// Failpoint evaluations that did not fire during this schedule.
    pub skipped: u64,
    /// Edge mutations applied (mutating soak only; 0 otherwise).
    pub mutations: u64,
    /// Graph epochs published after engine start (mutating soak only).
    pub epochs: u64,
    /// Invariant violations (empty = schedule passed).
    pub violations: Vec<String>,
}

/// Aggregated result of a chaos soak run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Per-schedule outcomes, in order.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Faults fired across all schedules.
    pub triggered_total: u64,
    /// Evaluations that did not fire across all schedules.
    pub skipped_total: u64,
}

impl ChaosReport {
    /// All violations across all schedules, prefixed with their schedule.
    pub fn violations(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .flat_map(|o| {
                o.violations
                    .iter()
                    .map(move |v| format!("schedule {} (seed {}): {v}", o.schedule, o.seed))
            })
            .collect()
    }

    /// `true` when no schedule violated an invariant.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.violations.is_empty())
    }

    /// Total `Ok` queries across all schedules.
    pub fn ok_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ok).sum()
    }

    /// Total typed failures across all schedules.
    pub fn typed_failures_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.typed_failures).sum()
    }
}

/// SplitMix64 step used to derive independent per-schedule sub-seeds.
fn sub_seed(master: u64, index: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a random fault schedule: 2–4 distinct sites, the first armed
/// deterministically (p = 1, so every schedule injects *something* when
/// the feature is on), the rest probabilistic. Every site has a fire-count
/// limit — an unbounded panic storm would otherwise starve the engine's
/// retry loops forever.
fn arm_sites(rng: &mut StdRng) -> Vec<String> {
    let mut pool: Vec<&str> = CHAOS_SITES.to_vec();
    let count = rng.random_range(2..=4usize);
    let mut armed = Vec::with_capacity(count);
    for i in 0..count {
        let pick = rng.random_range(0..pool.len());
        let site = pool.swap_remove(pick);
        let action = match rng.random_range(0..4u32) {
            0 => FailAction::Panic(None),
            1 => FailAction::Sleep(rng.random_range(1..=3u64)),
            2 => FailAction::Yield,
            _ => FailAction::ReturnError, // counted no-op at non-return sites
        };
        let config = if i == 0 {
            FailConfig::always(action).with_max(rng.random_range(1..=3u64))
        } else {
            FailConfig::always(action)
                .with_probability(0.05 + rng.random::<f64>() * 0.45)
                .with_max(rng.random_range(1..=5u64))
        };
        armed.push(format!("{site}={}", config.to_spec()));
        pbfs_fault::configure(site, config);
    }
    armed
}

/// Runs one schedule to completion. May hang if the engine's no-hang
/// invariant is broken — the caller watchdogs this.
fn run_schedule(cfg: &ChaosConfig, schedule: usize) -> ScheduleOutcome {
    let seed = sub_seed(cfg.seed, schedule);
    let mut rng = StdRng::seed_from_u64(seed);

    // Setup runs fault-free: the graph and oracle must be trustworthy.
    pbfs_fault::clear_all();
    let graph: Arc<CsrGraph> = Arc::new(gen::Kronecker::graph500(cfg.scale).seed(seed).generate());
    let n = graph.num_vertices();

    pbfs_fault::set_seed(seed);
    let sites = arm_sites(&mut rng);

    let engine = QueryEngine::new(
        Arc::clone(&graph),
        EngineConfig::default()
            .with_workers(cfg.workers)
            .with_shards(cfg.shards)
            .with_max_latency(Duration::from_millis(1))
            .with_max_queue(256)
            .with_query_timeout(Some(Duration::from_secs(5)))
            .with_drain_timeout(Some(Duration::from_secs(2))),
    );

    let mut violations: Vec<String> = Vec::new();
    let ok = AtomicU64::new(0);
    let typed = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let sources: Vec<VertexId> = (0..cfg.queries)
        .map(|_| rng.random_range(0..n as u32))
        .collect();

    // Two client threads submitting interleaved halves, like the engine's
    // differential tests: faults must be survived under concurrency, not
    // just in sequence.
    let mismatches = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for half in 0..2usize {
            let engine = &engine;
            let graph = &graph;
            let (ok, typed, rejected) = (&ok, &typed, &rejected);
            let sources = &sources;
            clients.push(scope.spawn(move || {
                let mut local: Vec<String> = Vec::new();
                for &s in sources.iter().skip(half).step_by(2) {
                    match engine.submit_timeout(s, Duration::from_millis(500)) {
                        Ok(handle) => match handle.wait() {
                            Ok(distances) => {
                                if distances == textbook::bfs(graph, s).distances {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    local.push(format!(
                                        "distances from source {s} disagree with oracle"
                                    ));
                                }
                            }
                            Err(EngineError::Internal(msg)) => {
                                local.push(format!("exactly-once violated for source {s}: {msg}"));
                            }
                            Err(_) => {
                                typed.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                local
            }));
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("chaos client thread panicked"))
            .collect::<Vec<String>>()
    });
    violations.extend(mismatches);

    // Snapshot fault activity before disarming.
    let (mut triggered, mut skipped) = (0u64, 0u64);
    for s in pbfs_fault::stats() {
        triggered += s.triggered;
        skipped += s.skipped;
    }

    // Recovery probe: with faults cleared, the engine must serve a correct
    // answer — proof the pool respawned and algorithm state was rebuilt.
    pbfs_fault::clear_all();
    let probe = rng.random_range(0..n as u32);
    match engine.submit(probe).and_then(|h| h.wait()) {
        Ok(distances) => {
            if distances != textbook::bfs(&graph, probe).distances {
                violations.push(format!("recovery probe from {probe} disagrees with oracle"));
            }
        }
        Err(e) => violations.push(format!("recovery probe failed: {e}")),
    }

    // Shutdown must complete (bounded by drain_timeout); a hang here trips
    // the caller's watchdog.
    drop(engine);

    ScheduleOutcome {
        schedule,
        seed,
        sites,
        ok: ok.into_inner(),
        typed_failures: typed.into_inner(),
        rejected: rejected.into_inner(),
        triggered,
        skipped,
        mutations: 0,
        epochs: 0,
        violations,
    }
}

/// Runs `cfg.schedules` fault schedules and aggregates the outcomes.
///
/// Each schedule is watchdogged by `cfg.schedule_timeout`: a hang is
/// recorded as a violation (the stuck schedule's thread is leaked, its
/// engine abandoned) and the run continues with the next schedule.
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    run_with(cfg, run_schedule)
}

fn run_with(
    cfg: &ChaosConfig,
    schedule_fn: fn(&ChaosConfig, usize) -> ScheduleOutcome,
) -> ChaosReport {
    let mut report = ChaosReport::default();
    for schedule in 0..cfg.schedules {
        let (tx, rx) = mpsc::channel();
        let cfg_copy = *cfg;
        let _worker = std::thread::Builder::new()
            .name(format!("chaos-schedule-{schedule}"))
            .spawn(move || {
                let _ = tx.send(schedule_fn(&cfg_copy, schedule));
            })
            .expect("failed to spawn chaos schedule thread");
        let outcome = match rx.recv_timeout(cfg.schedule_timeout) {
            Ok(outcome) => outcome,
            Err(_) => {
                // Disarm so the leaked thread stops injecting into
                // subsequent schedules.
                pbfs_fault::clear_all();
                ScheduleOutcome {
                    schedule,
                    seed: sub_seed(cfg.seed, schedule),
                    sites: Vec::new(),
                    ok: 0,
                    typed_failures: 0,
                    rejected: 0,
                    triggered: 0,
                    skipped: 0,
                    mutations: 0,
                    epochs: 0,
                    violations: vec![format!(
                        "schedule hung: no completion within {:?} (no-hang invariant)",
                        cfg.schedule_timeout
                    )],
                }
            }
        };
        report.triggered_total += outcome.triggered;
        report.skipped_total += outcome.skipped;
        report.outcomes.push(outcome);
    }
    pbfs_fault::clear_all();
    report
}

/// Mutation traffic per mutating schedule: batches applied by the mutator
/// thread, edge mutations per batch, and the cadence of explicit
/// compaction attempts.
const MUT_BATCHES: usize = 8;
const MUT_BATCH_SIZE: usize = 6;
const MUT_COMPACT_EVERY: usize = 3;

/// Runs the *mutating* soak: every schedule interleaves edge-mutation
/// batches (and compactions) with concurrent query traffic against the
/// same [`GraphStore`], under storage faults, and checks the torn-graph
/// oracle — each query's distances must exactly match the textbook BFS on
/// *some* epoch that was published during the query's lifetime, never a
/// mix of epochs. Additionally the `pbfs_storage_epochs_live` gauge must
/// return to its pre-schedule baseline once the engine, the recorded
/// snapshots and the store drain: no epoch leak past the pinned window,
/// no premature free.
pub fn run_mutating(cfg: &ChaosConfig) -> ChaosReport {
    run_with(cfg, run_mut_schedule)
}

/// Textbook BFS oracle over any adjacency view — the per-epoch reference
/// the torn-graph oracle compares against.
fn oracle_distances<G: Adjacency>(g: &G, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![crate::UNREACHED; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize] + 1;
        for &w in g.neighbors_fast(v) {
            if dist[w as usize] == crate::UNREACHED {
                dist[w as usize] = d;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Arms a mutating schedule: one storage site deterministically (rotating
/// by schedule index, so a full soak covers apply, publish, compact *and*
/// reclaim faults), plus 1–2 random extra sites from the whole pool.
fn arm_sites_mutating(rng: &mut StdRng, schedule: usize) -> Vec<String> {
    let primary = STORAGE_SITES[schedule % STORAGE_SITES.len()];
    let action = match rng.random_range(0..3u32) {
        0 => FailAction::Panic(None),
        1 => FailAction::Sleep(rng.random_range(1..=3u64)),
        _ => FailAction::ReturnError,
    };
    let config = FailConfig::always(action).with_max(rng.random_range(1..=3u64));
    let mut armed = vec![format!("{primary}={}", config.to_spec())];
    pbfs_fault::configure(primary, config);
    let mut pool: Vec<&str> = CHAOS_SITES
        .iter()
        .copied()
        .filter(|s| *s != primary)
        .collect();
    for _ in 0..rng.random_range(1..=2usize) {
        let site = pool.swap_remove(rng.random_range(0..pool.len()));
        let action = match rng.random_range(0..4u32) {
            0 => FailAction::Panic(None),
            1 => FailAction::Sleep(rng.random_range(1..=3u64)),
            2 => FailAction::Yield,
            _ => FailAction::ReturnError,
        };
        let config = FailConfig::always(action)
            .with_probability(0.05 + rng.random::<f64>() * 0.45)
            .with_max(rng.random_range(1..=5u64));
        armed.push(format!("{site}={}", config.to_spec()));
        pbfs_fault::configure(site, config);
    }
    armed
}

/// A completed query with the epoch window it ran inside: `lo` was
/// published at submit time, `hi` at result time, so a correct engine must
/// have served it from one epoch in `lo..=hi`.
struct EpochWindowResult {
    source: VertexId,
    distances: Vec<u32>,
    lo: u64,
    hi: u64,
}

/// One mutating schedule. Same lifecycle as [`run_schedule`], plus a
/// mutator thread racing the clients and the deferred per-epoch oracle.
fn run_mut_schedule(cfg: &ChaosConfig, schedule: usize) -> ScheduleOutcome {
    let seed = sub_seed(cfg.seed, schedule);
    let mut rng = StdRng::seed_from_u64(seed);

    // Setup runs fault-free: the graph, store and engine must be healthy
    // before faults arm — the soak tests serving under faults, not setup.
    pbfs_fault::clear_all();
    let live_baseline = crate::storage::epochs_live();
    let graph: Arc<CsrGraph> = Arc::new(gen::Kronecker::graph500(cfg.scale).seed(seed).generate());
    let n = graph.num_vertices();
    let store = GraphStore::new(graph);
    let engine = QueryEngine::with_store(
        Arc::clone(&store),
        EngineConfig::default()
            .with_workers(cfg.workers)
            .with_shards(cfg.shards)
            .with_max_latency(Duration::from_millis(1))
            .with_max_queue(256)
            .with_query_timeout(Some(Duration::from_secs(5)))
            .with_drain_timeout(Some(Duration::from_secs(2))),
    );

    // Every epoch the engine can serve is recorded here as a pinned
    // snapshot keyed by epoch number. The initial entry is the epoch the
    // engine starts on; the mutator records each epoch it publishes.
    // Publishing happens-before `apply_batch`/`compact` returns, and the
    // oracle only runs after all threads join, so the map is complete for
    // every window a client observed.
    let epochs: Mutex<BTreeMap<u64, GraphSnapshot>> = Mutex::new(BTreeMap::new());
    {
        let snap = store.snapshot();
        epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(snap.epoch(), snap);
    }

    pbfs_fault::set_seed(seed);
    let sites = arm_sites_mutating(&mut rng, schedule);

    let mut violations: Vec<String> = Vec::new();
    let typed = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let mutations = AtomicU64::new(0);
    let sources: Vec<VertexId> = (0..cfg.queries)
        .map(|_| rng.random_range(0..n as u32))
        .collect();
    // Pre-drawn mutation plan, so the traffic shape is a pure function of
    // the schedule seed (the interleaving with queries is not, which is
    // the point of the soak).
    let plan: Vec<Vec<EdgeMutation>> = (0..MUT_BATCHES)
        .map(|_| {
            (0..MUT_BATCH_SIZE)
                .map(|_| {
                    let u = rng.random_range(0..n as u32);
                    let v = (u + 1 + rng.random_range(0..n as u32 - 1)) % n as u32;
                    if rng.random::<f64>() < 0.6 {
                        EdgeMutation::Insert(u, v)
                    } else {
                        EdgeMutation::Delete(u, v)
                    }
                })
                .collect()
        })
        .collect();

    let (mut results, mismatches) = std::thread::scope(|scope| {
        // Mutator: races the clients, applying batches (and periodically
        // compacting) under armed storage faults. A fault-failed or
        // panicked call must leave the store serving its previous epoch —
        // every *successful* publish is recorded for the oracle.
        let mutator = {
            let (store, epochs, plan, mutations) = (&store, &epochs, &plan, &mutations);
            scope.spawn(move || {
                for (i, batch) in plan.iter().enumerate() {
                    let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        store.apply_batch(batch)
                    }));
                    if let Ok(Ok(_epoch)) = applied {
                        mutations.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        let snap = store.snapshot();
                        epochs
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(snap.epoch(), snap);
                    }
                    if (i + 1) % MUT_COMPACT_EVERY == 0 {
                        let compacted =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                store.compact()
                            }));
                        if let Ok(Ok(_epoch)) = compacted {
                            let snap = store.snapshot();
                            epochs
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(snap.epoch(), snap);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };

        let mut clients = Vec::new();
        for half in 0..2usize {
            let engine = &engine;
            let store = &store;
            let (typed, rejected) = (&typed, &rejected);
            let sources = &sources;
            clients.push(scope.spawn(move || {
                let mut local: Vec<EpochWindowResult> = Vec::new();
                let mut local_violations: Vec<String> = Vec::new();
                for &s in sources.iter().skip(half).step_by(2) {
                    let lo = store.current_epoch();
                    match engine.submit_timeout(s, Duration::from_millis(500)) {
                        Ok(handle) => match handle.wait() {
                            Ok(distances) => {
                                let hi = store.current_epoch();
                                local.push(EpochWindowResult {
                                    source: s,
                                    distances,
                                    lo,
                                    hi,
                                });
                            }
                            Err(EngineError::Internal(msg)) => {
                                local_violations
                                    .push(format!("exactly-once violated for source {s}: {msg}"));
                            }
                            Err(_) => {
                                typed.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                (local, local_violations)
            }));
        }
        let mut results = Vec::new();
        let mut mismatches = Vec::new();
        for c in clients {
            let (local, local_violations) = c.join().expect("chaos client thread panicked");
            results.extend(local);
            mismatches.extend(local_violations);
        }
        mutator.join().expect("chaos mutator thread panicked");
        (results, mismatches)
    });
    violations.extend(mismatches);

    // Torn-graph oracle, deferred until the epoch map is complete: each
    // result must equal the textbook BFS on at least one epoch published
    // within its submit→result window. A result matching *no* live epoch
    // is torn — it mixed adjacency from two epochs.
    let epochs = epochs.into_inner().unwrap_or_else(PoisonError::into_inner);
    let epochs_published = epochs.len() as u64;
    let mut oracle_cache: BTreeMap<(u64, VertexId), Vec<u32>> = BTreeMap::new();
    let ok = results.len() as u64;
    for r in results.drain(..) {
        let mut matched = false;
        let mut window = 0usize;
        for (&epoch, snap) in epochs.range(r.lo..=r.hi) {
            window += 1;
            let want = oracle_cache
                .entry((epoch, r.source))
                .or_insert_with(|| oracle_distances(snap, r.source));
            if *want == r.distances {
                matched = true;
                break;
            }
        }
        if window == 0 {
            violations.push(format!(
                "no epoch recorded in window [{}, {}] for source {}",
                r.lo, r.hi, r.source
            ));
        } else if !matched {
            violations.push(format!(
                "torn result from source {}: matches none of the {window} epochs live in [{}, {}]",
                r.source, r.lo, r.hi
            ));
        }
    }

    // Snapshot fault activity before disarming.
    let (mut triggered, mut skipped) = (0u64, 0u64);
    for s in pbfs_fault::stats() {
        triggered += s.triggered;
        skipped += s.skipped;
    }

    // Recovery probe against the *final* epoch: with faults cleared, the
    // engine must serve the current graph exactly — compaction panics or
    // fault-failed mutations never left it wedged on a stale or torn view.
    pbfs_fault::clear_all();
    let probe = rng.random_range(0..n as u32);
    match engine.submit(probe).and_then(|h| h.wait()) {
        Ok(distances) => {
            let want = oracle_distances(&store.snapshot(), probe);
            if distances != want {
                violations.push(format!("recovery probe from {probe} disagrees with oracle"));
            }
        }
        Err(e) => violations.push(format!("recovery probe failed: {e}")),
    }

    // Drain: engine shutdown, then release every recorded snapshot. Only
    // the store's own current epoch may remain pinned — anything more is a
    // reclamation leak, anything less a premature free.
    drop(engine);
    drop(epochs);
    drop(oracle_cache);
    let live = crate::storage::epochs_live();
    if live != live_baseline + 1 {
        violations.push(format!(
            "epochs_live after drain is {live}, want baseline {live_baseline} + 1 (store's current epoch)"
        ));
    }
    drop(store);
    let live = crate::storage::epochs_live();
    if live != live_baseline {
        violations.push(format!(
            "epochs_live after store drop is {live}, want baseline {live_baseline}"
        ));
    }

    ScheduleOutcome {
        schedule,
        seed,
        sites,
        ok,
        typed_failures: typed.into_inner(),
        rejected: rejected.into_inner(),
        triggered,
        skipped,
        mutations: mutations.into_inner(),
        epochs: epochs_published,
        violations,
    }
}
