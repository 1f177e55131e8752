//! Subcommand implementations.

use std::time::{Duration, Instant};

use pbfs_bench::report::Report;
use pbfs_bitset::SimdLevel;
use pbfs_core::analytics::closeness_centrality;
use pbfs_core::batch::{gteps, total_traversed_edges};
use pbfs_core::beamer::{DirectionOptBfs, QueueKind};
use pbfs_core::centrality::{betweenness_centrality_parallel, harmonic_centrality};
use pbfs_core::engine::{EngineConfig, EngineError, QueryEngine};
use pbfs_core::options::{BfsOptions, DEFAULT_PREFETCH_DISTANCE};
use pbfs_core::policy::FrontierMode;
use pbfs_core::smspbfs::{SmsPbfsBit, SmsPbfsByte};
use pbfs_core::storage::{EdgeMutation, GraphStore};
use pbfs_core::textbook;
use pbfs_core::validate::validate_tree;
use pbfs_core::visitor::{DistanceVisitor, MsDistanceVisitor, PairVisitor, ParentVisitor};
use pbfs_core::UNREACHED;
use pbfs_graph::labeling::LabelingScheme;
use pbfs_graph::stats::{estimate_diameter, ComponentInfo, GraphStats};
use pbfs_graph::{gen, io, CsrGraph};
use pbfs_sched::{publish_configured_workers, WorkerPool};

use crate::args::{Args, USAGE};

/// Routes `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    // Pin the bitset-kernel dispatch level before anything traverses:
    // `--simd` beats the PBFS_SIMD environment default, and requests the
    // CPU cannot honor are clamped (loudly) rather than crashing.
    let effective = match args.get("simd") {
        Some(spec) => {
            let wanted = SimdLevel::parse(spec)
                .ok_or_else(|| format!("invalid value for --simd: {spec}"))?;
            let effective = pbfs_bitset::simd::set_level(Some(wanted));
            if effective != wanted {
                eprintln!(
                    "warning: --simd {} not supported by this CPU; clamped to {}",
                    wanted.name(),
                    effective.name()
                );
            }
            effective
        }
        None => pbfs_bitset::simd::current(),
    };
    // Every scrape or trace any subcommand produces is attributable to
    // this binary — including which kernel ISA produced its numbers.
    pbfs_telemetry::register_build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("PBFS_GIT_SHA").unwrap_or("unknown"),
        if pbfs_fault::enabled() {
            "failpoints"
        } else {
            "default"
        },
        effective.name(),
    );
    if args.has("help") || args.positional.is_empty() {
        println!("{USAGE}");
        return Ok(());
    }
    let name = args.positional[0].as_str();
    let (_, run, flags) = COMMANDS
        .iter()
        .find(|(command, ..)| *command == name)
        .ok_or_else(|| format!("unknown command: {name}"))?;
    args.reject_unknown_flags(name, flags)?;
    run(&args)
}

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand with the space-separated flags it reads (`-o` is
/// `output`). Any other flag, apart from the global `--simd` and
/// `--help`, is rejected before the command runs, so a misspelled knob
/// cannot silently fall back to its default.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "generate",
        generate,
        "scale vertices degree seed text output",
    ),
    ("stats", stats, "text"),
    (
        "bfs",
        bfs,
        "source algo workers frontier prefetch-distance adapt-hysteresis \
         adapt-sample-interval validate text",
    ),
    (
        "centrality",
        centrality,
        "measure top workers frontier prefetch-distance adapt-hysteresis \
         adapt-sample-interval text",
    ),
    ("relabel", relabel, "scheme workers seed text output"),
    (
        "queries",
        queries,
        "scale queries threads workers shards max-batch max-latency-us rate seed text \
         max-queue query-timeout drain-timeout frontier prefetch-distance adapt-hysteresis \
         adapt-sample-interval trace-out mutations",
    ),
    (
        "metrics",
        metrics,
        "scale queries threads workers shards seed max-queue frontier prefetch-distance \
         adapt-hysteresis adapt-sample-interval json text",
    ),
    (
        "profile",
        profile,
        "scale seed source algo batch workers frontier prefetch-distance adapt-hysteresis \
         adapt-sample-interval output folded-out text",
    ),
    (
        "top",
        top,
        "scale queries threads workers seed interval-ms ticks frontier prefetch-distance \
         adapt-hysteresis adapt-sample-interval text",
    ),
    (
        "chaos",
        chaos,
        "schedules seed scale queries workers shards schedule-timeout metrics-out mutate",
    ),
];

fn load(args: &Args, pos: usize) -> Result<CsrGraph, String> {
    let path = args
        .positional
        .get(pos)
        .ok_or_else(|| "missing graph file argument".to_string())?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if args.has("text") {
        io::read_text(file).map_err(|e| format!("{path}: {e}"))
    } else {
        io::read_binary(file).map_err(|e| format!("{path}: {e}"))
    }
}

fn save(args: &Args, g: &CsrGraph) -> Result<(), String> {
    let path = args.require("output")?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let result = if args.has("text") {
        io::write_text(g, file)
    } else {
        io::write_binary(g, file)
    };
    result.map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "wrote {path}: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

/// Builds [`BfsOptions`] from the shared traversal knobs: `--frontier
/// flat|summary|auto`, `--prefetch-distance N`, and the adaptive
/// controller's `--adapt-hysteresis` / `--adapt-sample-interval` (only
/// consulted when the frontier mode is `auto`, the default).
fn bfs_options(args: &Args) -> Result<BfsOptions, String> {
    let mut opts = BfsOptions::default();
    if let Some(s) = args.get("frontier") {
        let mode = FrontierMode::parse(s)
            .ok_or_else(|| format!("invalid value for --frontier: {s} (flat, summary or auto)"))?;
        opts = opts.with_frontier_mode(mode);
    }
    let adapt = opts
        .adapt
        .with_hysteresis(args.num("adapt-hysteresis", opts.adapt.hysteresis)?)
        .with_sample_interval(args.num("adapt-sample-interval", opts.adapt.sample_interval)?);
    let pd: usize = args.num("prefetch-distance", DEFAULT_PREFETCH_DISTANCE)?;
    Ok(opts.with_adapt(adapt).with_prefetch_distance(pd))
}

fn workers(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let w: usize = args.num("workers", default)?;
    if w == 0 {
        return Err("--workers must be positive".into());
    }
    Ok(w)
}

fn generate(args: &Args) -> Result<(), String> {
    let kind = args.positional.get(1).ok_or("missing generator kind")?;
    let seed: u64 = args.num("seed", 42)?;
    let scale: u32 = args.num("scale", 14)?;
    let vertices: usize = args.num("vertices", 1usize << scale)?;
    let g = match kind.as_str() {
        "kronecker" => gen::Kronecker::graph500(scale)
            .edge_factor(args.num("degree", 16)?)
            .seed(seed)
            .generate(),
        "kg0" => gen::Kronecker::graph500(scale)
            .edge_factor(args.num("degree", 64)?)
            .seed(seed)
            .generate(),
        "social" => gen::social_network(vertices, args.num("degree", 16)?, seed),
        "web" => gen::web_graph(vertices, args.num("degree", 14)?, seed),
        "collab" => gen::collaboration(vertices, vertices * 3 / 2, seed),
        "hub" => gen::hub_heavy(scale, args.num("degree", 28)?, seed),
        "uniform" => gen::uniform(vertices, vertices * args.num("degree", 8)? / 2, seed),
        "watts-strogatz" => gen::watts_strogatz(vertices, args.num("degree", 6)?, 0.1, seed),
        other => return Err(format!("unknown generator: {other}")),
    };
    save(args, &g)
}

fn stats(args: &Args) -> Result<(), String> {
    let g = load(args, 1)?;
    let s = GraphStats::compute(&g);
    let comps = ComponentInfo::compute(&g);
    println!("vertices           {}", s.num_vertices);
    println!("connected vertices {}", s.num_connected_vertices);
    println!("edges              {}", s.num_edges);
    println!("max degree         {}", s.max_degree);
    println!("avg degree         {:.2}", s.avg_degree);
    println!("components         {}", comps.num_components());
    println!("largest component  {}", comps.largest_size());
    println!("diameter (est.)    {}", estimate_diameter(&g, 6, 1));
    println!("memory (8 B/edge)  {}", s.paper_model_bytes);
    print!("degree histogram  ");
    for (b, count) in s.degree_log_histogram.iter().enumerate() {
        if *count > 0 {
            print!(" [2^{b}]={count}");
        }
    }
    println!();
    Ok(())
}

fn bfs(args: &Args) -> Result<(), String> {
    let g = load(args, 1)?;
    let source: u32 = args.num("source", 0)?;
    if source as usize >= g.num_vertices() {
        return Err(format!("source {source} out of range"));
    }
    let algo = args.get("algo").unwrap_or("sms-bit");
    let w = workers(args)?;
    publish_configured_workers(w);
    let pool = WorkerPool::new(w);
    let opts = bfs_options(args)?;
    let n = g.num_vertices();
    let dists = DistanceVisitor::new(n);
    let parents = ParentVisitor::new(n, source);
    let both = PairVisitor(&dists, &parents);
    let t0 = Instant::now();
    match algo {
        "sms-bit" => {
            SmsPbfsBit::new(n).run(&g, &pool, source, &opts, &both);
        }
        "sms-byte" => {
            SmsPbfsByte::new(n).run(&g, &pool, source, &opts, &both);
        }
        "ms" => {
            // Single source through the multi-source machinery.
            let mv: MsDistanceVisitor<1> = MsDistanceVisitor::new(n, 1);
            let mut ms: pbfs_core::mspbfs::MsPbfs<1> = pbfs_core::mspbfs::MsPbfs::new(n);
            ms.run(&g, &pool, &[source], &opts, &mv);
            for (v, d) in mv.distances_of(0).into_iter().enumerate() {
                if d != UNREACHED {
                    dists.on_found(v as u32, d);
                }
            }
        }
        "beamer" => {
            DirectionOptBfs::new(QueueKind::Sparse).run_with(&g, source, &both);
        }
        "textbook" => {
            let t = textbook::bfs(&g, source);
            for (v, d) in t.distances.iter().enumerate() {
                if *d != UNREACHED {
                    dists.on_found(v as u32, *d);
                }
            }
        }
        other => return Err(format!("unknown algorithm: {other}")),
    }
    let ns = t0.elapsed().as_nanos() as u64;
    use pbfs_core::visitor::SsVisitor as _;

    let d = dists.distances();
    let reached = d.iter().filter(|&&x| x != UNREACHED).count();
    let max_dist = d
        .iter()
        .filter(|&&x| x != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    let comps = ComponentInfo::compute(&g);
    println!("algorithm   {algo}");
    println!("source      {source}");
    println!("reached     {reached} / {}", g.num_vertices());
    println!("max dist    {max_dist}");
    println!("time        {:.3} ms", ns as f64 / 1e6);
    println!(
        "GTEPS       {:.4}",
        gteps(total_traversed_edges(&comps, &[source]), ns)
    );
    if args.has("validate") {
        if algo == "ms" || algo == "textbook" {
            // No parent tree collected on these paths; validate distances
            // against the oracle instead.
            let oracle = textbook::distances(&g, source);
            if d != oracle {
                return Err("distance validation failed".into());
            }
            println!("validated   distances match the textbook oracle");
        } else {
            validate_tree(&g, source, &parents.parents(), &d).map_err(|e| e.to_string())?;
            println!("validated   Graph500 tree checks passed");
        }
    }
    Ok(())
}

fn centrality(args: &Args) -> Result<(), String> {
    let g = load(args, 1)?;
    let measure = args.require("measure")?;
    let top: usize = args.num("top", 10)?;
    let w = workers(args)?;
    publish_configured_workers(w);
    let pool = WorkerPool::new(w);
    let opts = bfs_options(args)?;
    let sources: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let t0 = Instant::now();
    let values: Vec<f64> = match measure {
        "closeness" => closeness_centrality::<1>(&g, &pool, &sources, &opts).values(),
        "harmonic" => harmonic_centrality::<1>(&g, &pool, &sources, &opts),
        "betweenness" => betweenness_centrality_parallel(&g, &sources, w),
        other => return Err(format!("unknown measure: {other}")),
    };
    eprintln!(
        "{measure} over {} vertices in {:.2}s",
        sources.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut idx: Vec<u32> = sources.clone();
    idx.sort_by(|&a, &b| {
        values[b as usize]
            .total_cmp(&values[a as usize])
            .then(a.cmp(&b))
    });
    for &v in idx.iter().take(top) {
        println!("{v}\t{:.6}\tdegree {}", values[v as usize], g.degree(v));
    }
    Ok(())
}

/// Replays a synthetic query-arrival trace through the batched query
/// engine and prints a JSON throughput report.
/// One step of a `--mutations` script: a coalesced batch to publish as a
/// new epoch, or a compaction folding the overlay into a fresh CSR.
enum MutationOp {
    Apply(Vec<EdgeMutation>),
    Compact,
}

/// Parses a streaming-mutation script: one op per line — `add U V`,
/// `del U V` (accumulate into the pending batch), `commit` (publish the
/// batch as one epoch), `compact` (publish any pending batch, then fold
/// the overlay) — with `#` comments and blank lines ignored. Mutations
/// after the last `commit` form a final implicit batch.
fn parse_mutation_script(path: &str) -> Result<Vec<MutationOp>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut ops = Vec::new();
    let mut batch: Vec<EdgeMutation> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let op = words.next().expect("non-empty line has a first token");
        let fail = |msg: &str| Err(format!("{path}:{}: {msg}: {raw:?}", idx + 1));
        match op {
            "add" | "del" => {
                let (Some(u), Some(v)) = (words.next(), words.next()) else {
                    return fail("expected two vertex ids");
                };
                let (Ok(u), Ok(v)) = (u.parse(), v.parse()) else {
                    return fail("vertex ids must be u32");
                };
                if words.next().is_some() {
                    return fail("trailing tokens");
                }
                batch.push(if op == "add" {
                    EdgeMutation::Insert(u, v)
                } else {
                    EdgeMutation::Delete(u, v)
                });
            }
            "commit" | "compact" => {
                if words.next().is_some() {
                    return fail("trailing tokens");
                }
                if !batch.is_empty() {
                    ops.push(MutationOp::Apply(std::mem::take(&mut batch)));
                }
                if op == "compact" {
                    ops.push(MutationOp::Compact);
                }
            }
            _ => return fail("expected add/del/commit/compact"),
        }
    }
    if !batch.is_empty() {
        ops.push(MutationOp::Apply(batch));
    }
    Ok(ops)
}

fn queries(args: &Args) -> Result<(), String> {
    use pbfs_json::ToJson;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let scale: u32 = args.num("scale", 12)?;
    let num_queries: usize = args.num("queries", 1000)?;
    let seed: u64 = args.num("seed", 42)?;
    let threads: usize = match args.get("threads") {
        Some(_) => args.num("threads", 0)?,
        None => workers(args)?,
    };
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let max_batch: usize = args.num("max-batch", 512)?;
    let max_latency_us: u64 = args.num("max-latency-us", 2000)?;
    let rate: f64 = args.num("rate", 0.0)?; // queries/sec; 0 = open loop
    let max_queue: usize = args.num("max-queue", 8192)?;
    let query_timeout_ms: u64 = args.num("query-timeout", 0)?; // 0 = off
    let drain_timeout_ms: u64 = args.num("drain-timeout", 0)?; // 0 = unbounded

    // A file argument replays against that graph; otherwise generate the
    // Kronecker graph of the requested scale.
    let graph_file = args.positional.get(1).cloned();
    let g = if graph_file.is_some() {
        load(args, 1)?
    } else {
        gen::Kronecker::graph500(scale).seed(seed).generate()
    };
    let (num_vertices, num_edges) = (g.num_vertices(), g.num_edges());
    if num_vertices == 0 {
        return Err("graph has no vertices".into());
    }

    let trace_out = args.get("trace-out").map(str::to_owned);
    if trace_out.is_some() {
        pbfs_telemetry::recorder().set_enabled(true);
    }

    let shards: usize = args.num("shards", 1)?;
    let nonzero_ms = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let cfg = EngineConfig::default()
        .with_workers(threads)
        .with_shards(shards)
        .with_max_batch(max_batch)
        .with_max_latency(Duration::from_micros(max_latency_us))
        .with_max_queue(max_queue)
        .with_query_timeout(nonzero_ms(query_timeout_ms))
        .with_drain_timeout(nonzero_ms(drain_timeout_ms))
        .with_bfs(bfs_options(args)?);
    let mutations_file = args.get("mutations").map(str::to_owned);
    let mutation_ops = match &mutations_file {
        Some(path) => parse_mutation_script(path)?,
        None => Vec::new(),
    };
    // The engine always rides a versioned store; without --mutations it
    // simply never leaves its first epoch and serves the clean-graph path.
    let store = GraphStore::new(std::sync::Arc::new(g));
    let mut engine = QueryEngine::with_store(std::sync::Arc::clone(&store), cfg);
    let (mut mutations_applied, mut batches_applied, mut compactions) = (0u64, 0u64, 0u64);
    let mut run_op = |op: MutationOp| -> Result<(), String> {
        match op {
            MutationOp::Apply(batch) => {
                store
                    .apply_batch(&batch)
                    .map_err(|e| format!("--mutations: {e}"))?;
                mutations_applied += batch.len() as u64;
                batches_applied += 1;
            }
            MutationOp::Compact => {
                store.compact().map_err(|e| format!("--mutations: {e}"))?;
                compactions += 1;
            }
        }
        Ok(())
    };
    let total_ops = mutation_ops.len();
    let mut op_iter = mutation_ops.into_iter().enumerate().peekable();

    // Synthetic arrival trace: uniformly random sources; with --rate,
    // exponential interarrival gaps (Poisson arrivals), else back-to-back.
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut next_arrival = 0.0f64;
    let mut handles = Vec::with_capacity(num_queries);
    let (mut rejected_submits, mut dropped) = (0u64, 0u64);
    for i in 0..num_queries {
        // Mutation script ops are spread evenly across the replay, each
        // applied (and published) before the query that makes it due.
        while let Some((k, _)) = op_iter.peek() {
            if i < ((k + 1) * num_queries) / (total_ops + 1) {
                break;
            }
            let (_, op) = op_iter.next().expect("peeked");
            run_op(op)?;
        }
        if rate > 0.0 {
            let u: f64 = rng.random();
            next_arrival += -(1.0 - u).ln() / rate;
            let target = start + Duration::from_secs_f64(next_arrival);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let source = rng.random_range(0..num_vertices as u32);
        // Backpressure: an immediate rejection falls back to a bounded
        // blocking submit; a query rejected even then is dropped and
        // counted rather than aborting the replay.
        match engine.submit(source) {
            Ok(h) => handles.push(h),
            Err(EngineError::Overloaded { .. }) => {
                rejected_submits += 1;
                match engine.submit_timeout(source, Duration::from_secs(5)) {
                    Ok(h) => handles.push(h),
                    Err(EngineError::Overloaded { .. }) => dropped += 1,
                    Err(e) => return Err(e.to_string()),
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    // Ops the integer stride left over (e.g. more ops than queries) run
    // after the traffic so every script line is always applied.
    for (_, op) in op_iter {
        run_op(op)?;
    }
    let mut reached_total = 0u64;
    let (mut failed, mut expired) = (0u64, 0u64);
    for h in handles {
        match h.wait() {
            Ok(d) => reached_total += d.iter().filter(|&&x| x != UNREACHED).count() as u64,
            Err(EngineError::Expired { .. }) => expired += 1,
            Err(EngineError::BatchFailed { .. } | EngineError::ShutDown) => failed += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    let wall = start.elapsed();
    engine.shutdown();
    let stats = engine.stats();

    if let Some(path) = &trace_out {
        let rec = pbfs_telemetry::recorder();
        rec.set_enabled(false);
        let dump = rec.drain();
        let json = pbfs_telemetry::export::chrome_trace(&dump).to_string_pretty();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote {path}: {} trace events on {} lanes ({} dropped)",
            dump.total_events(),
            dump.lanes.len(),
            dump.total_dropped()
        );
        if dump.total_dropped() > 0 {
            eprintln!(
                "warning: {} trace events were overwritten because a lane's \
                 ring filled (pbfs_trace_dropped_events_total); the trace has \
                 gaps — replay fewer queries or trace a shorter window",
                dump.total_dropped()
            );
        }
    }

    let us = |ns: u64| ns as f64 / 1e3;
    let mut rows = vec![
        vec!["queries".into(), stats.queries.to_string()],
        vec!["batches".into(), stats.batches.to_string()],
    ];
    for (w, count) in &stats.width_histogram {
        rows.push(vec![format!("batches@width={w}"), count.to_string()]);
    }
    rows.push(vec![
        "p50 latency (µs)".into(),
        format!("{:.1}", us(stats.p50_latency_ns)),
    ]);
    rows.push(vec![
        "p99 latency (µs)".into(),
        format!("{:.1}", us(stats.p99_latency_ns)),
    ]);
    rows.push(vec![
        "queries/sec".into(),
        format!("{:.0}", stats.queries_per_sec),
    ]);
    if mutations_file.is_some() {
        rows.push(vec![
            "mutations applied".into(),
            mutations_applied.to_string(),
        ]);
        rows.push(vec!["mutation batches".into(), batches_applied.to_string()]);
        rows.push(vec!["compactions".into(), compactions.to_string()]);
        rows.push(vec![
            "final epoch".into(),
            store.current_epoch().to_string(),
        ]);
    }
    if rejected_submits + dropped + expired + failed + stats.expired + stats.failed > 0 {
        rows.push(vec![
            "rejected submits".into(),
            rejected_submits.to_string(),
        ]);
        rows.push(vec!["dropped (still full)".into(), dropped.to_string()]);
        rows.push(vec!["expired in queue".into(), stats.expired.to_string()]);
        rows.push(vec![
            "failed (panic/drain)".into(),
            stats.failed.to_string(),
        ]);
    }

    let payload = pbfs_json::json!({
        "config": {
            "graph": (graph_file
                .as_deref()
                .map(|f| format!("file:{f}"))
                .unwrap_or_else(|| format!("kronecker-scale-{scale}"))),
            "queries": num_queries,
            "threads": threads,
            "max_batch": max_batch,
            "max_latency_us": max_latency_us,
            "rate": rate,
            "seed": seed,
            "max_queue": max_queue,
            "query_timeout_ms": query_timeout_ms,
            "drain_timeout_ms": drain_timeout_ms,
            "vertices": num_vertices,
            "edges": num_edges
        },
        "replay_wall_ns": (wall.as_nanos() as u64),
        "mutations": {
            "file": (mutations_file.clone().unwrap_or_default()),
            "applied": mutations_applied,
            "batches": batches_applied,
            "compactions": compactions,
            "final_epoch": (store.current_epoch())
        },
        "reached_total": reached_total,
        "rejected_submits": rejected_submits,
        "dropped": dropped,
        "expired_waits": expired,
        "failed_waits": failed,
        "stats": (stats.to_json())
    });
    let report = Report::new(
        "queries",
        "batched BFS query engine replay",
        &["metric", "value"],
        rows,
        &payload,
    );
    eprint!("{}", report.render());
    println!("{}", report.json.to_string_pretty());
    Ok(())
}

/// Runs a small query replay so every subsystem registers and populates
/// its metrics, then prints the telemetry registry — Prometheus text
/// exposition by default, JSON with `--json`. (There is no long-running
/// daemon to scrape, so the replay stands in for live traffic.)
fn metrics(args: &Args) -> Result<(), String> {
    use pbfs_json::ToJson;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let scale: u32 = args.num("scale", 10)?;
    let num_queries: usize = args.num("queries", 200)?;
    let seed: u64 = args.num("seed", 42)?;
    let threads: usize = match args.get("threads") {
        Some(_) => args.num("threads", 0)?,
        None => workers(args)?,
    };
    if threads == 0 {
        return Err("--threads must be positive".into());
    }

    let g = if args.positional.get(1).is_some() {
        load(args, 1)?
    } else {
        gen::Kronecker::graph500(scale).seed(seed).generate()
    };
    let n = g.num_vertices();
    if n == 0 {
        return Err("graph has no vertices".into());
    }

    let max_queue: usize = args.num("max-queue", 8192)?;
    let shards: usize = args.num("shards", 1)?;
    let cfg = EngineConfig::default()
        .with_workers(threads)
        .with_shards(shards)
        .with_max_queue(max_queue)
        .with_bfs(bfs_options(args)?);
    let mut engine = QueryEngine::from_graph(g, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut handles = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        // A deliberately tiny --max-queue exercises the backpressure
        // path; rejections are counted by the engine's own metrics and
        // must not abort the replay.
        match engine.submit(rng.random_range(0..n as u32)) {
            Ok(h) => handles.push(h),
            Err(EngineError::Overloaded { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    for h in handles {
        match h.wait() {
            Ok(_) => {}
            Err(
                EngineError::Overloaded { .. }
                | EngineError::Expired { .. }
                | EngineError::BatchFailed { .. }
                | EngineError::ShutDown,
            ) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    engine.shutdown();

    let snapshot = pbfs_telemetry::registry().snapshot();
    if args.has("json") {
        println!("{}", snapshot.to_json().to_string_pretty());
    } else {
        print!("{}", pbfs_telemetry::export::prometheus_text(&snapshot));
    }
    Ok(())
}

/// Runs one instrumented traversal and prints its phase-attributed
/// profile: per-iteration expand/settle/bottom-up wall time, edges
/// relaxed, summary-scan activity, and modeled bytes touched. `-o` writes
/// the profile as JSON; `--folded-out` writes flamegraph-compatible
/// folded stacks.
fn profile(args: &Args) -> Result<(), String> {
    use pbfs_core::memory::MemoryModel;
    use pbfs_core::profile::build_profile;
    use pbfs_json::ToJson;

    let scale: u32 = args.num("scale", 12)?;
    let seed: u64 = args.num("seed", 42)?;
    let g = if args.positional.get(1).is_some() {
        load(args, 1)?
    } else {
        gen::Kronecker::graph500(scale).seed(seed).generate()
    };
    let n = g.num_vertices();
    if n == 0 {
        return Err("graph has no vertices".into());
    }
    pbfs_telemetry::set_graph_info(n as u64, g.num_edges() as u64);
    let algo = args.get("algo").unwrap_or("ms");
    let source: u32 = args.num("source", 0)?;
    if source as usize >= n {
        return Err(format!("source {source} out of range"));
    }
    let w = workers(args)?;
    publish_configured_workers(w);
    let pool = WorkerPool::new(w);
    let opts = bfs_options(args)?.instrumented();
    // Byte-volume estimates use the graph's real edge factor, not the
    // Graph500 default, so `bytes_est` tracks the loaded dataset.
    let model = MemoryModel {
        vertices: n,
        edge_factor: (g.num_edges() / n).max(1),
        width_words: 1,
    };
    let (name, width, stats) = match algo {
        "ms" => {
            let batch: usize = args.num("batch", 64)?;
            if batch == 0 || batch > 64 {
                return Err("--batch must be in 1..=64".into());
            }
            // Deterministic source spread across the vertex range.
            let stride = (n / batch).max(1);
            let sources: Vec<u32> = (0..batch)
                .map(|i| ((source as usize + i * stride) % n) as u32)
                .collect();
            let mut bfs: pbfs_core::mspbfs::MsPbfs<1> = pbfs_core::mspbfs::MsPbfs::new(n);
            let visitor: MsDistanceVisitor<1> = MsDistanceVisitor::new(n, sources.len());
            let stats = bfs.run(&g, &pool, &sources, &opts, &visitor);
            ("mspbfs", batch, stats)
        }
        "sms-bit" => {
            let visitor = DistanceVisitor::new(n);
            let stats = SmsPbfsBit::new(n).run(&g, &pool, source, &opts, &visitor);
            ("smspbfs-bit", 1, stats)
        }
        "sms-byte" => {
            let visitor = DistanceVisitor::new(n);
            let stats = SmsPbfsByte::new(n).run(&g, &pool, source, &opts, &visitor);
            ("smspbfs-byte", 1, stats)
        }
        other => {
            return Err(format!(
                "unknown algorithm: {other} (ms, sms-bit or sms-byte)"
            ))
        }
    };
    let p = build_profile(name, width, &stats, &model);
    print!("{}", p.table());
    println!(
        "reconciliation: profile {} ns vs traversal wall {} ns ({:+.2}%)",
        p.total_ns,
        stats.total_wall_ns,
        100.0 * (p.total_ns as f64 - stats.total_wall_ns as f64)
            / stats.total_wall_ns.max(1) as f64
    );
    if let Some(path) = args.get("output") {
        std::fs::write(path, p.to_json().to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.get("folded-out") {
        std::fs::write(path, p.folded()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Reads a quantile off a histogram snapshot's cumulative bucket counts
/// (the bucket upper bound containing the q-th sample; 0 when empty).
fn snapshot_quantile(h: &pbfs_telemetry::HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    for (i, &c) in h.cumulative.iter().enumerate() {
        if c >= rank {
            return h.bounds.get(i).copied().unwrap_or(h.sum / h.count.max(1));
        }
    }
    h.sum / h.count
}

/// Live engine dashboard: drives a background replay and prints one line
/// per tick with query/batch rates, queue depth, latency quantiles and
/// trace drops read from the telemetry registry — the scrape-side view of
/// the engine under load. Bounded by `--ticks` so it terminates in CI.
fn top(args: &Args) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let scale: u32 = args.num("scale", 10)?;
    let seed: u64 = args.num("seed", 42)?;
    let num_queries: usize = args.num("queries", 5000)?;
    let interval_ms: u64 = args.num("interval-ms", 500)?;
    let ticks: u64 = args.num("ticks", 5)?;
    if ticks == 0 || interval_ms == 0 {
        return Err("--ticks and --interval-ms must be positive".into());
    }
    let threads: usize = match args.get("threads") {
        Some(_) => args.num("threads", 0)?,
        None => workers(args)?,
    };
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let g = if args.positional.get(1).is_some() {
        load(args, 1)?
    } else {
        gen::Kronecker::graph500(scale).seed(seed).generate()
    };
    let n = g.num_vertices();
    if n == 0 {
        return Err("graph has no vertices".into());
    }
    let cfg = EngineConfig::default()
        .with_workers(threads)
        .with_bfs(bfs_options(args)?);
    let engine = Arc::new(QueryEngine::from_graph(g, cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let submitter = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..num_queries {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // Results are discarded (dropped handles are harmless);
                // the dashboard only needs the load, and backpressure
                // waits rather than erroring.
                let _ =
                    engine.submit_timeout(rng.random_range(0..n as u32), Duration::from_secs(1));
            }
        })
    };

    let counter = |s: &pbfs_telemetry::Snapshot, name: &str| -> u64 {
        match s.find(name, "").map(|m| &m.value) {
            Some(pbfs_telemetry::SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    };
    let gauge = |s: &pbfs_telemetry::Snapshot, name: &str| -> i64 {
        match s.find(name, "").map(|m| &m.value) {
            Some(pbfs_telemetry::SampleValue::Gauge(v)) => *v,
            _ => 0,
        }
    };
    println!(
        "{:>4}  {:>9} {:>8} {:>8} {:>6} {:>9} {:>10} {:>10} {:>6}",
        "tick", "queries", "rate/s", "batches", "queue", "in-flight", "p50(µs)", "p99(µs)", "drops"
    );
    let mut prev_queries = 0u64;
    for tick in 1..=ticks {
        std::thread::sleep(Duration::from_millis(interval_ms));
        let s = pbfs_telemetry::registry().snapshot();
        let queries = counter(&s, "pbfs_engine_queries_total");
        let rate = (queries - prev_queries) as f64 / (interval_ms as f64 / 1e3);
        prev_queries = queries;
        let (p50, p99) = match s.find("pbfs_engine_query_latency_ns", "").map(|m| &m.value) {
            Some(pbfs_telemetry::SampleValue::Histogram(h)) => {
                (snapshot_quantile(h, 0.50), snapshot_quantile(h, 0.99))
            }
            _ => (0, 0),
        };
        println!(
            "{:>4}  {:>9} {:>8.0} {:>8} {:>6} {:>9} {:>10.1} {:>10.1} {:>6}",
            tick,
            queries,
            rate,
            counter(&s, "pbfs_engine_batches_total"),
            gauge(&s, "pbfs_engine_queue_depth"),
            gauge(&s, "pbfs_engine_in_flight_queries"),
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            counter(&s, "pbfs_trace_dropped_events_total"),
        );
    }
    stop.store(true, Ordering::Relaxed);
    let _ = submitter.join();
    // Last Arc owner: drop shuts the engine down and drains the backlog.
    drop(engine);
    Ok(())
}

/// Runs the chaos soak harness: seeded randomized failpoint schedules
/// against the batched query engine with a textbook-BFS oracle. Exits
/// nonzero on any invariant violation, and — when the `failpoints` feature
/// is compiled in — when no fault fired at all (a dead harness must not
/// pass as green).
fn chaos(args: &Args) -> Result<(), String> {
    use pbfs_core::chaos::{ChaosConfig, ChaosReport};

    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        schedules: args.num("schedules", defaults.schedules)?,
        seed: args.num("seed", defaults.seed)?,
        scale: args.num("scale", defaults.scale)?,
        queries: args.num("queries", defaults.queries)?,
        workers: args.num("workers", defaults.workers)?,
        shards: args.num("shards", defaults.shards)?,
        schedule_timeout: Duration::from_secs(
            args.num("schedule-timeout", defaults.schedule_timeout.as_secs())?,
        ),
    };
    if cfg.schedules == 0 {
        return Err("--schedules must be positive".into());
    }
    if !pbfs_fault::enabled() {
        eprintln!(
            "warning: built without the `failpoints` feature — schedules run \
             fault-free (smoke mode); rebuild with --features failpoints to inject"
        );
    }

    let mutate = args.has("mutate");
    let report: ChaosReport = if mutate {
        pbfs_core::chaos::run_mutating(&cfg)
    } else {
        pbfs_core::chaos::run(&cfg)
    };
    for o in &report.outcomes {
        let storage = if mutate {
            format!(" mut {:>3} epochs {:>3}", o.mutations, o.epochs)
        } else {
            String::new()
        };
        eprintln!(
            "schedule {:>3} seed {:>20} ok {:>3} typed-err {:>3} rejected {:>3} \
             fired {:>3}{storage} {} [{}]",
            o.schedule,
            o.seed,
            o.ok,
            o.typed_failures,
            o.rejected,
            o.triggered,
            if o.violations.is_empty() {
                "pass"
            } else {
                "FAIL"
            },
            o.sites.join("; "),
        );
    }
    println!(
        "chaos: {} schedules, {} ok queries, {} typed failures, \
         {} faults fired, {} skipped, {} violations",
        report.outcomes.len(),
        report.ok_total(),
        report.typed_failures_total(),
        report.triggered_total,
        report.skipped_total,
        report.violations().len(),
    );

    if let Some(path) = args.get("metrics-out") {
        let snapshot = pbfs_telemetry::registry().snapshot();
        let text = pbfs_telemetry::export::prometheus_text(&snapshot);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    let violations = report.violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        return Err(format!("{} chaos invariant violation(s)", violations.len()));
    }
    if pbfs_fault::enabled() && report.triggered_total == 0 {
        return Err(
            "failpoints are enabled but no fault fired — harness is not exercising anything".into(),
        );
    }
    Ok(())
}

fn relabel(args: &Args) -> Result<(), String> {
    let g = load(args, 1)?;
    let w = workers(args)?;
    let seed: u64 = args.num("seed", 42)?;
    let scheme = match args.require("scheme")? {
        "striped" => LabelingScheme::Striped {
            workers: w,
            task_size: 256,
        },
        "ordered" => LabelingScheme::DegreeOrdered,
        "random" => LabelingScheme::Random(seed),
        other => return Err(format!("unknown scheme: {other}")),
    };
    let relabeled = scheme.apply(&g);
    save(args, &relabeled)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::args::BOOL_FLAGS;

    fn run(cmdline: &str) -> Result<(), String> {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        dispatch(&argv)
    }

    fn rejects_flags(result: &Result<(), String>) -> bool {
        matches!(result, Err(e) if e.starts_with("unknown flag"))
    }

    /// A fresh scratch directory for one test's files.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbfs-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The flags USAGE documents for `command`: those on its synopsis
    /// line and the bracketed continuation lines below it.
    fn usage_flags(command: &str) -> Vec<String> {
        let head = format!("  pbfs {command} ");
        let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next().expect("every command has a USAGE entry");
        let synopsis =
            std::iter::once(first).chain(lines.take_while(|l| l.trim_start().starts_with('[')));
        let mut flags: Vec<String> = synopsis
            .flat_map(|l| l.split(|c: char| c.is_whitespace() || "[]|".contains(c)))
            .filter(|t| t.starts_with('-') && t.len() > 1)
            .map(String::from)
            .collect();
        flags.sort();
        flags.dedup();
        flags
    }

    #[test]
    fn misspelled_flags_fail_naming_flag_and_command() {
        let err = run("queries --scale 6 --queries 10 --treads 2 --max-batchh 8").unwrap_err();
        assert_eq!(
            err,
            "unknown flags for `pbfs queries`: --max-batchh, --treads"
        );
        let err = run("bfs g.bin --sorce 3").unwrap_err();
        assert_eq!(err, "unknown flag for `pbfs bfs`: --sorce");
        let err = run("chaos --schedule 2").unwrap_err();
        assert_eq!(err, "unknown flag for `pbfs chaos`: --schedule");
        // A flag another command reads is still foreign here.
        assert!(rejects_flags(&run("chaos --max-batch 64")));
        assert!(rejects_flags(&run("stats g.bin --validate")));
    }

    #[test]
    fn every_usage_flag_passes_the_flag_check() {
        for (command, ..) in COMMANDS {
            let flags = usage_flags(command);
            assert!(!flags.is_empty(), "{command}");
            // Values that fail to parse make each command stop before doing
            // any work, so only the flag check itself is exercised.
            let mut cmdline = format!("{command} --simd auto");
            for flag in &flags {
                cmdline.push(' ');
                cmdline.push_str(flag);
                if !BOOL_FLAGS.contains(&flag.trim_start_matches('-')) {
                    cmdline.push_str(" bogus");
                }
            }
            let result = run(&cmdline);
            assert!(!rejects_flags(&result), "{cmdline}: {result:?}");
        }
    }

    #[test]
    fn bfs_and_queries_run_with_every_usage_flag() {
        let dir = scratch_dir("runs");
        let graph = dir.join("g.txt");
        let (graph, trace, script) = (
            graph.display(),
            dir.join("trace.json"),
            dir.join("mutations.txt"),
        );
        std::fs::write(&script, "add 0 5\ncommit\ncompact\n").unwrap();
        run(&format!(
            "generate uniform --vertices 64 --degree 4 --seed 1 --text -o {graph}"
        ))
        .unwrap();
        run(&format!(
            "bfs {graph} --text --source 0 --algo sms-bit --workers 1 --frontier auto \
             --prefetch-distance 4 --adapt-hysteresis 2 --adapt-sample-interval 1 --validate"
        ))
        .unwrap();
        run(&format!(
            "queries {graph} --text --scale 6 --queries 16 --threads 1 --shards 1 \
             --max-batch 64 --max-latency-us 500 --rate 0 --seed 3 --max-queue 64 \
             --query-timeout 0 --drain-timeout 0 --frontier auto --prefetch-distance 4 \
             --adapt-hysteresis 2 --adapt-sample-interval 1 --trace-out {} --mutations {}",
            trace.display(),
            script.display()
        ))
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_runs_with_every_usage_flag() {
        // With live failpoints the soak would inject faults into the other
        // tests sharing this process; the flag check is covered above.
        if pbfs_fault::enabled() {
            return;
        }
        let dir = scratch_dir("chaos");
        let metrics = dir.join("metrics.txt");
        for mode in ["", "--mutate"] {
            run(&format!(
                "chaos --schedules 1 --seed 3 --scale 5 --queries 8 --workers 1 --shards 1 \
                 --schedule-timeout 30 --metrics-out {} {mode}",
                metrics.display()
            ))
            .unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
