//! End-to-end benchmark of the batched BFS query engine.
//!
//! One client process drives `QueryEngine` and `GraphStore` through their
//! public API, checks sampled answers against the textbook BFS, and prints
//! every metric by name with its unit and sample count. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with no tracing:
//!   `cpu_ms_per_query`, `peak_rss_mb`, `setup_s`.
//! * `--trace 1` splits the window into an untraced and a traced half
//!   (spans around every call the client makes; written to
//!   `$CARGO_TARGET_DIR/perfbench-traces/`), then replays the kernels the
//!   workload used, and reports the per-layer metrics.
//! * `--smoke` runs the same traffic on a 16× smaller graph.
//!
//! Exits 1 if any sampled answer is wrong, 2 on a usage error.

mod client;
mod oracle;
mod replay;
mod report;
mod schedule;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbfs_bitset::SUMMARY_CHUNK;
use pbfs_core::engine::{EngineStats, QueryEngine};
use pbfs_core::storage::GraphStore;
use pbfs_graph::{CsrGraph, PartitionedCsr};
use pbfs_sched::WorkerPool;

use client::{Client, Outcome, Plan, Window};
use replay::{KernelRow, MsReplay};
use report::Report;
use schedule::WriteStream;
use stats::{mean, median, quantile, sliding_rate};
use trace::Tracer;
use workload::{Inputs, Load, Served, SetupTimes, Spec, WORKERS};

/// Set-ups per run, split around the measured window; `setup_s` is their
/// median.
const SETUPS: usize = 31;
/// Unmeasured steady traffic before the first window.
const WARM: Duration = Duration::from_secs(2);
/// Mutation batches applied before the dirty-epoch kernel replay: half the
/// compaction interval, about the mean overlay size the workload serves
/// with (and the churn's peak distance from the generated graph).
const DIRTY_REPLAY_BATCHES: u64 = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut spec) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.smoke {
        spec = spec.smoke();
    }
    run(&spec, &args)
}

fn run(spec: &Spec, args: &Args) -> ExitCode {
    let origin = Instant::now();
    let inputs = Inputs::generate(spec, args.seed);
    println!(
        "workload {} seed {} | {} | n={} m={} | workers={} shards={} max_batch={} | simd={} nproc={}",
        spec.name,
        args.seed,
        spec.graph.describe(),
        inputs.n,
        inputs.graph.num_edges(),
        WORKERS,
        spec.shards,
        spec.max_batch,
        pbfs_bitset::simd::current().name(),
        sys::nproc(),
    );

    let setups = if args.smoke { 3 } else { SETUPS };
    let mut times = Vec::with_capacity(setups);
    let served = set_ups(spec, &inputs, setups / 2 + 1, &mut times);
    warm_widths(&served.engine, spec, &inputs);

    let secs = Duration::from_secs(args.seconds);
    let plan = Plan {
        warm: if args.smoke { WARM / 10 } else { WARM },
        windows: if args.trace {
            vec![(secs / 2, false), (secs / 2, true)]
        } else {
            vec![(secs, false)]
        },
    };
    let client = Client::new(*spec, &inputs, &served.store, args.seed, origin);
    let outcome = client.run(&served.engine, &served.store, &plan);
    let peak_rss = sys::peak_rss_mib();
    drop(served);
    drop(set_ups(spec, &inputs, setups - times.len(), &mut times));

    let checking = Instant::now();
    let verdict = match &outcome.log {
        Some(log) => oracle::check_windows(&inputs.graph, log, &outcome.samples),
        None => oracle::check_static(&inputs.graph, &outcome.samples),
    };
    println!(
        "oracle: {} sampled results checked in {:.2} s",
        verdict.verified,
        checking.elapsed().as_secs_f64()
    );
    for m in verdict.mismatches.iter().take(10) {
        eprintln!("mismatch: {m}");
    }
    let mismatches = verdict.mismatches.len() as u64;
    let sent: u64 = outcome.windows.iter().map(|w| w.sent).sum();
    let ok: u64 = outcome.windows.iter().map(|w| w.ok).sum();
    let failed: u64 = outcome.windows.iter().map(|w| w.failed).sum::<u64>() + mismatches;
    for (i, w) in outcome.windows.iter().enumerate() {
        let d = Delta::of(&w.stats);
        println!(
            "window {i}{}: {:.3} s, sent {} ok {} failed {}, {:.1} q/s, p50 {:.2} ms, p99 {:.2} ms, {:.1} queries/batch, batches by width {:?}, bfs {:.2} ms/batch, host steal {:.1}%",
            if w.traced { " (traced)" } else { "" },
            w.len_s,
            w.sent,
            w.ok,
            w.failed,
            window_qps(spec, w),
            quantile(&w.latency_ms, 0.5).unwrap_or(f64::INFINITY),
            quantile(&w.latency_ms, 0.99).unwrap_or(f64::INFINITY),
            d.queries / d.batches,
            d.widths.iter().filter(|x| x.1 > 0.0).map(|&(w, c)| (w, c as u64)).collect::<Vec<_>>(),
            d.bfs_ns / 1e6 / d.batches,
            w.steal * 100.0
        );
    }
    println!(
        "queries: sent {sent}, succeeded {ok}, failed {failed} (oracle checked {}, mismatches {mismatches})",
        verdict.verified
    );

    let mut report = Report::default();
    if args.trace {
        per_layer(
            &mut report,
            spec,
            args,
            &inputs,
            &times,
            &outcome,
            verdict.verified,
            mismatches,
        );
    } else {
        end_to_end(&mut report, &outcome.windows[0], &times, peak_rss);
    }
    print!("{}", report.table());
    println!("{}", report.json(mismatches == 0, ok + failed, failed));
    if mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `count` (at least one) timed set-ups one after another and returns
/// the last engine, still serving. `setup_s` is the median over set-ups
/// made before and after the measured window, so a burst of host
/// contention at either end moves at most one of the two groups.
fn set_ups(spec: &Spec, inputs: &Inputs, count: usize, times: &mut Vec<SetupTimes>) -> Served {
    let mut served = None;
    for _ in 0..count.max(1) {
        // The previous engine shuts down before the next set-up starts.
        drop(served.take());
        let s = workload::set_up(spec, inputs);
        times.push(s.times);
        served = Some(s);
    }
    served.expect("at least one set-up")
}

/// Untimed batches at every width the workload flushes at, so lazily
/// allocated per-width kernel state exists before anything is measured.
fn warm_widths(engine: &QueryEngine, spec: &Spec, inputs: &Inputs) {
    let mut next = inputs.sources.iter().rev().cycle();
    for &width in spec.widths() {
        let burst = if width == 1 { 1 } else { width * spec.shards };
        for _ in 0..2 {
            let handles: Vec<_> = (0..burst)
                .map(|_| engine.submit(*next.next().expect("cycled sources")))
                .collect();
            for h in handles {
                h.and_then(|h| h.wait()).expect("warm-up query");
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> Duration) -> f64 {
    median(&times.iter().map(|t| ms(f(t))).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// End-to-end metrics: what a query costs the operator in CPU, the
/// serving process's peak memory (`VmHWM`, reset at every tick), and the
/// time to a serving engine.
/// Throughput and latency are reported per layer instead (`client.*`): on
/// a shared host they follow host contention further than any usable
/// regression bound.
fn end_to_end(report: &mut Report, w: &Window, times: &[SetupTimes], peak_rss: f64) {
    let intervals = w.ticks.len().saturating_sub(1);
    report.add("cpu_ms_per_query", "ms", cpu_ms_per_query(w), intervals);
    // The peak between two ticks, median over the window: one unlucky
    // overlap of two batches' results does not decide the run.
    match median(&w.tick_peak_mb) {
        Some(peak) => report.add("peak_rss_mb", "MiB", peak, w.tick_peak_mb.len()),
        None => report.add("peak_rss_mb", "MiB", peak_rss, 1),
    }
    report.add(
        "setup_s",
        "s",
        median_of(times, SetupTimes::total) / 1e3,
        times.len(),
    );
}

/// Process CPU per answered query between the window's first and last
/// tick, so a closed loop is measured over whole batch cycles rather than
/// cut mid-batch at the window's edges.
fn cpu_ms_per_query(w: &Window) -> f64 {
    match (w.ticks.first(), w.ticks.last()) {
        (Some(a), Some(b)) if b.1 > a.1 => (b.0 - a.0) * 1e3 / (b.1 - a.1) as f64,
        _ => w.cpu_s * 1e3 / w.ok.max(1) as f64,
    }
}

/// Answers per second: for a closed loop the median sliding rate over
/// `outstanding` answers (whole batch cycles); for an open loop the
/// answers over the window, which follows the offered rate.
fn window_qps(spec: &Spec, w: &Window) -> f64 {
    let whole = w.ok as f64 / w.len_s;
    let (Load::Closed { outstanding }, Some(&t0)) = (spec.load, w.done_at.first()) else {
        return whole;
    };
    let done: Vec<f64> = w
        .done_at
        .iter()
        .map(|&t| t.saturating_duration_since(t0).as_secs_f64())
        .collect();
    sliding_rate(&done, outstanding).unwrap_or(whole)
}

/// Engine counter deltas over one window.
struct Delta {
    queries: f64,
    batches: f64,
    bfs_ns: f64,
    widths: Vec<(usize, f64)>,
}

impl Delta {
    fn of(stats: &(EngineStats, EngineStats)) -> Self {
        let (a, b) = stats;
        let widths = b
            .width_histogram
            .iter()
            .map(|(&w, &c)| {
                (
                    w,
                    (c - a.width_histogram.get(&w).copied().unwrap_or(0)) as f64,
                )
            })
            .collect();
        Self {
            queries: (b.queries - a.queries) as f64,
            batches: ((b.batches - a.batches) as f64).max(1.0),
            bfs_ns: (b.bfs_wall_ns - a.bfs_wall_ns) as f64,
            widths,
        }
    }

    fn width(&self, w: usize) -> f64 {
        self.widths.iter().find(|x| x.0 == w).map_or(0.0, |x| x.1)
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    spec: &Spec,
    args: &Args,
    inputs: &Inputs,
    times: &[SetupTimes],
    outcome: &Outcome,
    verified: u64,
    mismatches: u64,
) {
    let (plain, traced) = (&outcome.windows[0], &outcome.windows[1]);
    let mut tracer = Tracer::new(Instant::now(), 3, true);
    let replaying = Instant::now();
    let replays = replay_kernels(spec, args, inputs, &mut tracer);
    println!("kernel replay: {:.2} s", replaying.elapsed().as_secs_f64());
    let shards = spec.shards as f64;
    let n = inputs.n as f64;
    let d = Delta::of(&traced.stats);
    let nb = d.batches as usize;
    let setups = times.len();

    report.add(
        "graph.build_ms",
        "ms",
        median_of(times, |t| t.build),
        setups,
    );
    report.add(
        "graph.partition_ms",
        "ms",
        median_of(times, |t| t.partition),
        setups,
    );
    report.add(
        "engine.start_ms",
        "ms",
        median_of(times, |t| t.start),
        setups,
    );
    report.add(
        "engine.first_result_ms",
        "ms",
        median_of(times, |t| t.first_result),
        setups,
    );

    let submit_us = outcome.tracer.durations("engine.submit", 1e3);
    report.add(
        "engine.submit_us.p50",
        "us",
        median(&submit_us).unwrap_or(0.0),
        submit_us.len(),
    );
    report.add(
        "engine.submit_us.p99",
        "us",
        quantile(&submit_us, 0.99).unwrap_or(0.0),
        submit_us.len(),
    );
    report.add(
        "engine.queries_per_batch",
        "count",
        d.queries / d.batches,
        nb,
    );
    for w in [1, 64, 128, 256, 512] {
        report.add(
            format!("engine.width_share.w{w}"),
            "ratio",
            d.width(w) / d.batches,
            nb,
        );
    }
    let cycle_ms = traced.len_s * 1e3 * shards / d.batches;
    report.add(
        "engine.bfs_ms_per_batch",
        "ms",
        d.bfs_ns / 1e6 / d.batches,
        nb,
    );
    report.add(
        "engine.outside_bfs_share",
        "ratio",
        1.0 - d.bfs_ns / (traced.len_s * 1e9 * shards),
        nb,
    );
    report.add("engine.dispatch_cycle_ms", "ms", cycle_ms, nb);
    // Visitor (n × 4 B per query) plus one copied distance vector per
    // query for multi-source batches; singletons hand their visitor over.
    let singles = d.width(1);
    let result_bytes = (d.queries - singles) * n * 4.0 * 2.0 + singles * n * 4.0;
    report.add(
        "engine.result_mb_per_batch",
        "MiB",
        result_bytes / d.batches / (1 << 20) as f64,
        nb,
    );

    // Reconciliation: in a closed loop the dispatcher is never idle, so its
    // cycle per batch should be the replayed kernel plus materialization;
    // what is left is coalescing, delivery and interference.
    let main = replays.main();
    let dirty_ratio = replays.dirty_ratio();
    let kernel_ms = median(&main.run_ms).unwrap_or(0.0) * dirty_ratio;
    let mat_ms = median(&main.materialize_ms).unwrap_or(0.0);
    let unattributed = match spec.load {
        Load::Closed { .. } => {
            let share = 1.0 - (kernel_ms + mat_ms) / cycle_ms;
            println!(
                "reconciliation: dispatcher cycle {cycle_ms:.2} ms/batch = {} kernel {kernel_ms:.2} ms + materialize {mat_ms:.2} ms + unattributed {:.1}% (in-engine kernel {:.2} ms/batch)",
                main.kernel,
                share * 100.0,
                d.bfs_ns / 1e6 / d.batches
            );
            share
        }
        Load::Paced { .. } => 0.0,
    };
    report.add("engine.unattributed_share", "ratio", unattributed, nb);

    for name in ["mspbfs", "smspbfs", "sharded"] {
        kernel_metrics(report, name, replays.row(name));
    }
    report.add(
        "sched.busy_skew",
        "ratio",
        median(&main.busy_skew).unwrap_or(1.0),
        main.busy_skew.len(),
    );
    report.add(
        "sched.stolen_share",
        "ratio",
        main.steals.0 as f64 / main.steals.1.max(1) as f64,
        main.steals.1 as usize,
    );

    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    report.add(
        "storage.apply_ms.p50",
        "ms",
        q(&traced.apply_ms, 0.5),
        traced.apply_ms.len(),
    );
    report.add(
        "storage.apply_ms.p99",
        "ms",
        q(&traced.apply_ms, 0.99),
        traced.apply_ms.len(),
    );
    report.add(
        "storage.compact_ms",
        "ms",
        q(&traced.compact_ms, 0.5),
        traced.compact_ms.len(),
    );
    report.add(
        "storage.snapshot_us",
        "us",
        q(&traced.snapshot_us, 0.5),
        traced.snapshot_us.len(),
    );
    report.add(
        "storage.dirty_vertices",
        "count",
        traced.dirty_max as f64,
        traced.apply_ms.len(),
    );
    report.add(
        "storage.epochs_live_max",
        "count",
        traced.epochs_live_max as f64,
        traced.apply_ms.len(),
    );
    report.add(
        "storage.dirty_kernel_ratio",
        "ratio",
        dirty_ratio,
        replays.dirty.as_ref().map_or(0, |r| r.batches),
    );

    report.add(
        "client.late_ms.mean",
        "ms",
        mean(&traced.late_ms).unwrap_or(0.0),
        traced.late_ms.len(),
    );
    report.add(
        "client.late_ms.max",
        "ms",
        traced.late_ms.iter().copied().fold(0.0, f64::max),
        traced.late_ms.len(),
    );
    // Throughput and latency from the untraced half (see `end_to_end`).
    let lat = &plain.latency_ms;
    report.add(
        "client.qps",
        "1/s",
        window_qps(spec, plain),
        plain.ok as usize,
    );
    for (name, q) in [("client.p50_ms", 0.5), ("client.p99_ms", 0.99)] {
        report.add(
            name,
            "ms",
            quantile(lat, q).unwrap_or(f64::INFINITY),
            lat.len(),
        );
    }
    report.add(
        "client.verified",
        "count",
        verified as f64,
        verified as usize,
    );
    report.add(
        "client.mismatches",
        "count",
        mismatches as f64,
        verified as usize,
    );
    let qps_plain = plain.ok as f64 / plain.len_s;
    let qps_traced = traced.ok as f64 / traced.len_s;
    report.add(
        "telemetry.trace_overhead",
        "ratio",
        1.0 - qps_traced / qps_plain,
        (plain.ok + traced.ok) as usize,
    );

    let mut all = Tracer::new(Instant::now(), 0, true);
    all.absorb(tracer);
    let spans = outcome.tracer.to_json_lines() + &all.to_json_lines();
    write_trace(spec, args, &spans);
}

fn kernel_metrics(report: &mut Report, name: &str, row: Option<&KernelRow>) {
    let empty = KernelRow::default();
    let r = row.unwrap_or(&empty);
    let b = r.batches;
    let per = |x: f64, by: f64| if by > 0.0 { x / by } else { 0.0 };
    let time = if name == "smspbfs" {
        "query_ms"
    } else {
        "batch_ms"
    };
    report.add(
        format!("{name}.{time}"),
        "ms",
        median(&r.run_ms).unwrap_or(0.0),
        r.run_ms.len(),
    );
    if name != "smspbfs" {
        report.add(
            format!("{name}.materialize_ms"),
            "ms",
            median(&r.materialize_ms).unwrap_or(0.0),
            r.materialize_ms.len(),
        );
    }
    let edges = r.edges as f64;
    report.add(
        format!("{name}.ns_per_edge"),
        "ns",
        per(r.run_ms.iter().sum::<f64>() * 1e6, edges),
        b,
    );
    report.add(
        format!("{name}.edges_per_query"),
        "count",
        per(edges, r.queries as f64),
        b,
    );
    report.add(
        format!("{name}.iterations"),
        "count",
        per(r.iterations as f64, b as f64),
        b,
    );
    report.add(
        format!("{name}.bottom_up_iter_share"),
        "ratio",
        per(r.bottom_up_iterations as f64, r.iterations as f64),
        b,
    );
    let total: u64 = r.phase_ns.iter().sum();
    for (i, phase) in ["expand", "bottom_up", "settle", "other"]
        .iter()
        .enumerate()
    {
        report.add(
            format!("{name}.{phase}_share"),
            "ratio",
            per(r.phase_ns[i] as f64, total as f64),
            b,
        );
    }
    report.add(
        format!("{name}.bytes_est_per_edge"),
        "B",
        per(r.bytes_est as f64, edges),
        b,
    );
    report.add(
        format!("{name}.chunk_skip_ratio"),
        "ratio",
        per(r.chunks.0 as f64, (r.chunks.0 + r.chunks.1) as f64),
        b,
    );
}

/// The kernel rows one workload's replay produced.
struct Replays {
    rows: Vec<KernelRow>,
    /// MS-PBFS on a dirty epoch (mutating workloads).
    dirty: Option<KernelRow>,
}

impl Replays {
    fn row(&self, kernel: &str) -> Option<&KernelRow> {
        self.rows.iter().find(|r| r.kernel == kernel)
    }

    /// The kernel serving the workload's widest flushes.
    fn main(&self) -> &KernelRow {
        self.rows.last().expect("every workload replays a kernel")
    }

    /// Dirty-epoch over clean-epoch replay time, the median over batches
    /// replayed back to back on both; 1 without writes.
    fn dirty_ratio(&self) -> f64 {
        let Some(d) = &self.dirty else {
            return 1.0;
        };
        let ratios: Vec<f64> = d
            .run_ms
            .iter()
            .zip(&self.main().run_ms)
            .map(|(dirty, clean)| dirty / clean)
            .collect();
        median(&ratios).unwrap_or(1.0)
    }
}

/// Replays, on the workload's graph and source sequence, the kernels its
/// flushes ran: single-source SMS-PBFS for width-1 flushes, MS-PBFS (or
/// the scatter/gather kernel when sharded) at the dominant width.
fn replay_kernels(spec: &Spec, args: &Args, inputs: &Inputs, tracer: &mut Tracer) -> Replays {
    let pool = WorkerPool::for_shard(spec.shards, WORKERS, 0);
    let opts = spec.engine_config().bfs;
    let g = &inputs.graph;
    let src = &inputs.sources;
    let scale = |b: usize| if args.smoke { b.min(2) } else { b };
    let mut rows = Vec::new();
    let mut dirty = None;
    match (spec.load, spec.shards) {
        (Load::Paced { .. }, _) => {
            rows.push(replay::smspbfs(g, &pool, &src[..scale(32)], &opts, tracer));
            rows.push(replay::mspbfs::<1, _>(
                g,
                &pool,
                src,
                64,
                scale(8),
                &opts,
                tracer,
            ));
        }
        (Load::Closed { .. }, 1) => match spec.writes {
            None => rows.push(replay::mspbfs::<8, _>(
                g,
                &pool,
                src,
                512,
                scale(8),
                &opts,
                tracer,
            )),
            Some(writes) => {
                let copy = CsrGraph::from_raw_parts(g.offsets().into(), g.targets().into());
                let store = GraphStore::new(Arc::new(copy));
                let mut stream = WriteStream::new(
                    inputs.n,
                    &inputs.edges,
                    writes.batch,
                    writes.undo_after,
                    client::write_seed(args.seed),
                );
                for _ in 0..DIRTY_REPLAY_BATCHES {
                    store
                        .apply_batch(&stream.next_batch())
                        .expect("replay mutation batch");
                }
                let snap = store.snapshot();
                // Clean and dirty batches alternate, so their ratio is not
                // a measure of host drift between two replay phases.
                let mut clean = MsReplay::<8>::new(inputs.n, 512);
                let mut dirtied = MsReplay::<8>::new(inputs.n, 512);
                for batch in src.chunks_exact(512).take(scale(8)) {
                    clean.batch(g, &pool, batch, &opts, tracer);
                    dirtied.batch(&snap, &pool, batch, &opts, tracer);
                }
                rows.push(clean.row);
                dirty = Some(dirtied.row);
            }
        },
        (Load::Closed { .. }, shards) => {
            let split = pbfs_sched::aligned_split(opts.split_size, SUMMARY_CHUNK);
            let part = PartitionedCsr::partition(g, shards, WORKERS, split);
            rows.push(replay::sharded::<1, _>(
                &part,
                &pool,
                src,
                64,
                scale(8),
                &opts,
                tracer,
            ));
        }
    }
    Replays { rows, dirty }
}

/// Writes the spans of a traced run under the build directory.
fn write_trace(spec: &Spec, args: &Args, spans: &str) {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&base).join("perfbench-traces");
    let path = dir.join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => println!(
            "spans: {} ({} lines)",
            path.display(),
            spans.lines().count()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
