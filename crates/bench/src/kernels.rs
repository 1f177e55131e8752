//! Frontier-kernel benchmark: Flat vs Summary vs Auto iteration across
//! batch widths, plus the `fetch_or` vs CAS-loop atomic microbenchmark.
//!
//! This is the harness behind `BENCH_4.json` and the CI regression smoke
//! (`cargo run -p pbfs-bench --release --bin kernels`). Two fixed-seed
//! graphs are exercised:
//!
//! * **kron-dense** — a Graph500 Kronecker graph, the paper's evaluation
//!   shape. Frontiers saturate within two iterations, so the summary
//!   bitmap cannot skip much; this is the *overhead* side of the bet, and
//!   the `--check` gate fails if `Summary` costs more than 10 % over
//!   `Flat` here.
//! * **uniform-sparse** — a uniform graph with average degree 2. Frontiers
//!   stay tiny relative to the vertex array for many iterations; this is
//!   the *payoff* side, where the skip ratio should be substantial.
//!
//! All timings are wall-clock nanoseconds per directed edge of the graph
//! (total traversal time over `num_directed_edges`), reported as the
//! median and the minimum over `trials` runs.

use std::time::Instant;

use pbfs_core::adapt::AdaptDecision;
use pbfs_core::mspbfs::MsPbfs;
use pbfs_core::options::{AtomicKind, BfsOptions};
use pbfs_core::policy::FrontierMode;
use pbfs_core::smspbfs::{SmsPbfsBit, SmsPbfsByte};
use pbfs_core::visitor::{NoopMsVisitor, NoopVisitor};
use pbfs_graph::{gen, CsrGraph};
use pbfs_sched::WorkerPool;

use crate::datasets::pick_sources;
use crate::report::Report;

/// Batch widths exercised by the multi-source rows (bits per vertex).
pub const WIDTHS: [usize; 4] = [64, 128, 256, 512];

/// Parameters of the kernel suite.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Kronecker scale of the dense graph (the sparse graph gets
    /// `4 << scale` vertices).
    pub scale: u32,
    /// Worker pool size.
    pub workers: usize,
    /// RNG seed for graphs and sources.
    pub seed: u64,
    /// Timed repetitions per configuration (median/min are taken over
    /// these).
    pub trials: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            scale: 12,
            workers: 4,
            seed: 42,
            trials: 5,
        }
    }
}

impl KernelConfig {
    /// The CI smoke variant: small enough to finish well under the 90 s
    /// budget on a shared runner, still large enough that ns-per-edge is
    /// not pure noise.
    pub fn quick(mut self) -> Self {
        self.scale = 10;
        self.trials = 3;
        self
    }
}

/// One timed kernel configuration.
pub struct KernelRow {
    /// Graph name (`kron-dense` or `uniform-sparse`).
    pub graph: String,
    /// Algorithm (`ms-pbfs`, `sms-bit`, `sms-byte`).
    pub algo: String,
    /// Concurrent sources (64–512 for MS, 1 for SMS).
    pub width: usize,
    /// Frontier mode (`Flat`, `Summary` or `Auto`).
    pub mode: String,
    /// Bitset-kernel dispatch level the row ran at (`scalar`, `sse2`,
    /// `avx2` or `avx512`).
    pub simd: String,
    /// Median wall nanoseconds per directed edge over the trials.
    pub median_ns_per_edge: f64,
    /// Minimum wall nanoseconds per directed edge over the trials.
    pub min_ns_per_edge: f64,
    /// Fraction of summary chunks skipped (0 in Flat mode).
    pub skip_ratio: f64,
    /// Number of timed repetitions.
    pub trials: usize,
}

/// One adaptive-controller decision, attributed to the benchmark
/// configuration whose traversal took it (from the last timed trial).
pub struct DecisionRow {
    /// Graph name.
    pub graph: String,
    /// Algorithm.
    pub algo: String,
    /// Batch width.
    pub width: usize,
    /// Iteration the switch took effect in.
    pub iteration: u32,
    /// Representation (or direction) switched away from.
    pub from: String,
    /// Representation (or direction) switched to.
    pub to: String,
    /// Which threshold fired.
    pub reason: String,
}

/// One atomic-microbenchmark configuration.
pub struct AtomicRow {
    /// `fetch_or` or `cas_loop`.
    pub kind: String,
    /// Minimum nanoseconds per 64-bit state update over the trials.
    pub ns_per_op: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median/min ns-per-edge and skip ratio of one timed series.
struct Timing {
    median: f64,
    min: f64,
    skip: f64,
}

impl Timing {
    fn from_samples(samples: &mut [f64], skip: f64) -> Self {
        Self {
            median: median(samples),
            min: minimum(samples),
            skip,
        }
    }
}

/// Times MS-PBFS at width `64 * W` in the given mode.
///
/// With `scalar_compare`, every trial is immediately followed by the same
/// traversal forced to the scalar kernels, and the second return value
/// carries that series' [`Timing`]. Interleaving trial-by-trial — instead
/// of running a scalar sweep after the whole matrix — means both series
/// see the same machine state (frequency, co-tenants, cache), so their
/// delta measures the kernels, not clock drift between bench phases.
fn bench_ms<const W: usize>(
    g: &CsrGraph,
    pool: &WorkerPool,
    sources: &[u32],
    opts: &BfsOptions,
    trials: usize,
    scalar_compare: bool,
) -> (Timing, Vec<AdaptDecision>, Option<Timing>) {
    let edges = g.num_directed_edges().max(1) as f64;
    let native = pbfs_bitset::simd::current();
    let mut bfs: MsPbfs<W> = MsPbfs::new(g.num_vertices());
    let mut samples = Vec::with_capacity(trials);
    let mut scalar_samples = Vec::with_capacity(trials);
    let mut skip = 0.0;
    let mut scalar_skip = 0.0;
    let mut decisions = Vec::new();
    for _ in 0..trials {
        let t0 = Instant::now();
        let stats = bfs.run(g, pool, sources, opts, &NoopMsVisitor);
        samples.push(t0.elapsed().as_nanos() as f64 / edges);
        skip = stats.summary_skip_ratio();
        decisions = stats.adapt_decisions;
        if scalar_compare {
            pbfs_bitset::simd::set_level(Some(pbfs_bitset::SimdLevel::Scalar));
            let t0 = Instant::now();
            let stats = bfs.run(g, pool, sources, opts, &NoopMsVisitor);
            scalar_samples.push(t0.elapsed().as_nanos() as f64 / edges);
            scalar_skip = stats.summary_skip_ratio();
            pbfs_bitset::simd::set_level(Some(native));
        }
    }
    let main = Timing::from_samples(&mut samples, skip);
    let scalar = scalar_compare.then(|| Timing::from_samples(&mut scalar_samples, scalar_skip));
    (main, decisions, scalar)
}

/// Times one SMS-PBFS representation in the given mode.
fn bench_sms(
    g: &CsrGraph,
    pool: &WorkerPool,
    source: u32,
    opts: &BfsOptions,
    trials: usize,
    byte_repr: bool,
) -> (f64, f64, f64, Vec<AdaptDecision>) {
    let edges = g.num_directed_edges().max(1) as f64;
    let mut samples = Vec::with_capacity(trials);
    let mut skip = 0.0;
    let mut decisions = Vec::new();
    for _ in 0..trials {
        let t0 = Instant::now();
        let stats = if byte_repr {
            SmsPbfsByte::new(g.num_vertices()).run(g, pool, source, opts, &NoopVisitor)
        } else {
            SmsPbfsBit::new(g.num_vertices()).run(g, pool, source, opts, &NoopVisitor)
        };
        samples.push(t0.elapsed().as_nanos() as f64 / edges);
        skip = stats.summary_skip_ratio();
        decisions = stats.adapt_decisions;
    }
    (median(&mut samples), minimum(&samples), skip, decisions)
}

fn opts_for(mode: FrontierMode) -> BfsOptions {
    let pd = match mode {
        FrontierMode::Flat => 0,
        FrontierMode::Summary | FrontierMode::Auto => pbfs_core::options::DEFAULT_PREFETCH_DISTANCE,
    };
    BfsOptions::default()
        .with_frontier_mode(mode)
        .with_prefetch_distance(pd)
}

fn decision_rows(
    graph: &str,
    algo: &str,
    width: usize,
    decisions: &[AdaptDecision],
) -> Vec<DecisionRow> {
    decisions
        .iter()
        .map(|d| DecisionRow {
            graph: graph.to_string(),
            algo: algo.to_string(),
            width,
            iteration: d.iteration,
            from: d.from.to_string(),
            to: d.to.to_string(),
            reason: d.reason.to_string(),
        })
        .collect()
}

/// Everything one kernel-suite run produces: the timed rows plus the
/// adaptive controller's decision log from the `Auto` configurations.
pub struct KernelOutput {
    /// Timed rows (graph × mode × algo × width).
    pub rows: Vec<KernelRow>,
    /// Controller decisions taken during the `Auto` rows' last trials.
    pub decisions: Vec<DecisionRow>,
}

/// Runs every kernel configuration and returns rows + decision log.
///
/// The full matrix runs at the session's effective SIMD dispatch level
/// (every row carries its name). When that level is above scalar, each
/// Summary-mode MS-PBFS trial is immediately followed by a scalar-forced
/// trial of the same configuration (see `bench_ms`), producing a paired
/// `simd: "scalar"` row per (graph, width) — the wide-bitset rows are
/// where the vector kernels matter, and trial-level interleaving keeps
/// the comparison immune to machine drift across the run. The dispatch
/// level is restored after each forced trial.
pub fn run_kernels(cfg: &KernelConfig) -> KernelOutput {
    let dense = gen::Kronecker::graph500(cfg.scale)
        .seed(cfg.seed)
        .generate();
    let sparse_n = 4usize << cfg.scale;
    let sparse = gen::uniform_connected(sparse_n, sparse_n, cfg.seed + 1);
    let pool = WorkerPool::new(cfg.workers);
    let native = pbfs_bitset::simd::current();
    let mut rows = Vec::new();
    let mut all_decisions = Vec::new();

    for (gname, g) in [("kron-dense", &dense), ("uniform-sparse", &sparse)] {
        for mode in [
            FrontierMode::Flat,
            FrontierMode::Summary,
            FrontierMode::Auto,
        ] {
            let opts = opts_for(mode);
            let scalar_compare =
                mode == FrontierMode::Summary && native != pbfs_bitset::SimdLevel::Scalar;
            for width in WIDTHS {
                let sources = pick_sources(g, width, cfg.seed + width as u64);
                let (timing, decisions, scalar) = match width {
                    64 => bench_ms::<1>(g, &pool, &sources, &opts, cfg.trials, scalar_compare),
                    128 => bench_ms::<2>(g, &pool, &sources, &opts, cfg.trials, scalar_compare),
                    256 => bench_ms::<4>(g, &pool, &sources, &opts, cfg.trials, scalar_compare),
                    512 => bench_ms::<8>(g, &pool, &sources, &opts, cfg.trials, scalar_compare),
                    other => unreachable!("unsupported width {other}"),
                };
                all_decisions.extend(decision_rows(gname, "ms-pbfs", width, &decisions));
                rows.push(KernelRow {
                    graph: gname.to_string(),
                    algo: "ms-pbfs".to_string(),
                    width,
                    mode: format!("{mode:?}"),
                    simd: native.name().to_string(),
                    median_ns_per_edge: timing.median,
                    min_ns_per_edge: timing.min,
                    skip_ratio: timing.skip,
                    trials: cfg.trials,
                });
                if let Some(s) = scalar {
                    rows.push(KernelRow {
                        graph: gname.to_string(),
                        algo: "ms-pbfs".to_string(),
                        width,
                        mode: format!("{mode:?}"),
                        simd: "scalar".to_string(),
                        median_ns_per_edge: s.median,
                        min_ns_per_edge: s.min,
                        skip_ratio: s.skip,
                        trials: cfg.trials,
                    });
                }
            }
            let source = pick_sources(g, 1, cfg.seed)[0];
            for (algo, byte_repr) in [("sms-bit", false), ("sms-byte", true)] {
                let (med, min, skip, decisions) =
                    bench_sms(g, &pool, source, &opts, cfg.trials, byte_repr);
                all_decisions.extend(decision_rows(gname, algo, 1, &decisions));
                rows.push(KernelRow {
                    graph: gname.to_string(),
                    algo: algo.to_string(),
                    width: 1,
                    mode: format!("{mode:?}"),
                    simd: native.name().to_string(),
                    median_ns_per_edge: med,
                    min_ns_per_edge: min,
                    skip_ratio: skip,
                    trials: cfg.trials,
                });
            }
        }
    }

    KernelOutput {
        rows,
        decisions: all_decisions,
    }
}

/// The satellite microbenchmark: `StateArray::fetch_or` (one `lock or`)
/// vs `StateArray::fetch_or_cas` (the paper's CAS loop) on an
/// uncontended single-thread update stream — the steady-state cost a
/// phase-1 expansion pays per discovered state.
pub fn run_atomics(cfg: &KernelConfig) -> Vec<AtomicRow> {
    use pbfs_bitset::{Bits, StateArray};
    let n = 1usize << 16;
    let passes = if cfg.trials < 5 { 4 } else { 16 };
    let mut rows = Vec::new();
    for kind in [AtomicKind::FetchOr, AtomicKind::CasLoop] {
        // Fresh state per kind: both must pay for real updates, not for
        // pre-check short-circuits on bits the other kind already set.
        let state: StateArray<1> = StateArray::new(n);
        let mut best = f64::INFINITY;
        for pass in 0..passes {
            // Rotate the bit each pass so updates never become no-ops
            // until the word saturates (64 passes would be needed).
            let bits = Bits::<1>::single(pass % 64);
            let t0 = Instant::now();
            match kind {
                AtomicKind::FetchOr => {
                    for v in 0..n {
                        state.fetch_or(v, bits);
                    }
                }
                AtomicKind::CasLoop => {
                    for v in 0..n {
                        state.fetch_or_cas(v, bits);
                    }
                }
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
        }
        rows.push(AtomicRow {
            kind: match kind {
                AtomicKind::FetchOr => "fetch_or".to_string(),
                AtomicKind::CasLoop => "cas_loop".to_string(),
            },
            ns_per_op: best,
        });
    }
    rows
}

/// The CI regression gate: on the dense graph, the summed MS-PBFS medians
/// under `Summary` must not exceed the `Flat` sum by more than 10 %.
/// Aggregating over the four widths keeps the gate robust against
/// single-width timer noise on shared runners. Only rows from the `native`
/// dispatch level participate — the scalar-forced comparison axis must not
/// leak into the Flat-vs-Summary ratio.
pub fn check_summary_regression(rows: &[KernelRow], native: &str) -> Result<String, String> {
    let sum = |mode: &str| -> f64 {
        rows.iter()
            .filter(|r| {
                r.graph == "kron-dense" && r.algo == "ms-pbfs" && r.mode == mode && r.simd == native
            })
            .map(|r| r.median_ns_per_edge)
            .sum()
    };
    let (flat, summary) = (sum("Flat"), sum("Summary"));
    if flat <= 0.0 || summary <= 0.0 {
        return Err("missing Flat or Summary rows for the dense graph".into());
    }
    let ratio = summary / flat;
    let msg = format!(
        "dense MS-PBFS medians: Summary/Flat = {ratio:.3} ({summary:.2} vs {flat:.2} ns/edge)"
    );
    if ratio > 1.10 {
        Err(format!("{msg} — exceeds the 10% regression budget"))
    } else {
        Ok(msg)
    }
}

/// The auto-tuning CI gate: on every graph, the summed `Auto` medians must
/// not exceed the sum of the per-configuration best static mode
/// (`min(Flat, Summary)` for each algo × width) by more than 8 %.
/// Aggregating over all configurations of a graph keeps the gate robust
/// against single-configuration timer noise on shared runners.
pub fn check_auto_regression(rows: &[KernelRow], native: &str) -> Result<String, String> {
    let mut msgs = Vec::new();
    for graph in ["kron-dense", "uniform-sparse"] {
        let mut keys: Vec<(&str, usize)> = rows
            .iter()
            .filter(|r| r.graph == graph && r.simd == native)
            .map(|r| (r.algo.as_str(), r.width))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let (mut best_sum, mut auto_sum, mut configs) = (0.0f64, 0.0f64, 0usize);
        for (algo, width) in keys {
            let med = |mode: &str| {
                rows.iter()
                    .find(|r| {
                        r.graph == graph
                            && r.algo == algo
                            && r.width == width
                            && r.mode == mode
                            && r.simd == native
                    })
                    .map(|r| r.median_ns_per_edge)
            };
            let (Some(flat), Some(summary), Some(auto)) =
                (med("Flat"), med("Summary"), med("Auto"))
            else {
                continue;
            };
            best_sum += flat.min(summary);
            auto_sum += auto;
            configs += 1;
        }
        if configs == 0 || best_sum <= 0.0 {
            return Err(format!("no complete Flat/Summary/Auto triples for {graph}"));
        }
        let ratio = auto_sum / best_sum;
        let msg = format!(
            "{graph}: Auto/best-static = {ratio:.3} over {configs} configs \
             ({auto_sum:.2} vs {best_sum:.2} ns/edge)"
        );
        if ratio > 1.08 {
            return Err(format!("{msg} — exceeds the 8% auto-tuning budget"));
        }
        msgs.push(msg);
    }
    Ok(msgs.join("; "))
}

/// Assembles the decision-log artifact document.
pub fn decisions_json(cfg: &KernelConfig, decisions: &[DecisionRow]) -> pbfs_json::Json {
    pbfs_json::json!({
        "bench": "kernels-adapt-decisions",
        "config": {
            "scale": cfg.scale,
            "workers": cfg.workers,
            "seed": cfg.seed,
            "trials": cfg.trials,
        },
        "decisions": decisions,
    })
}

/// Renders kernel rows as a [`Report`] (id `kernels`).
pub fn kernels_report(cfg: &KernelConfig, rows: &[KernelRow]) -> Report {
    let table = rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                r.algo.clone(),
                r.width.to_string(),
                r.mode.clone(),
                r.simd.clone(),
                format!("{:.2}", r.median_ns_per_edge),
                format!("{:.2}", r.min_ns_per_edge),
                format!("{:.3}", r.skip_ratio),
            ]
        })
        .collect();
    Report::new(
        "kernels",
        &format!(
            "Flat vs Summary vs Auto frontier kernels (scale {}, {} workers, {} trials)",
            cfg.scale, cfg.workers, cfg.trials
        ),
        &[
            "graph",
            "algo",
            "width",
            "mode",
            "simd",
            "med ns/edge",
            "min ns/edge",
            "skip",
        ],
        table,
        rows,
    )
}

/// Renders atomic rows as a [`Report`] (id `atomics`).
pub fn atomics_report(rows: &[AtomicRow]) -> Report {
    let table = rows
        .iter()
        .map(|r| vec![r.kind.clone(), format!("{:.2}", r.ns_per_op)])
        .collect();
    Report::new(
        "atomics",
        "fetch_or vs CAS-loop state update (uncontended, 64k entries)",
        &["kind", "ns/op"],
        table,
        rows,
    )
}

/// Assembles the full `BENCH_4.json` document.
pub fn bench4_json(
    cfg: &KernelConfig,
    kernels: &[KernelRow],
    atomics: &[AtomicRow],
) -> pbfs_json::Json {
    pbfs_json::json!({
        "bench": "kernels",
        "config": {
            "scale": cfg.scale,
            "workers": cfg.workers,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "simd": pbfs_bitset::simd::current().name(),
        },
        "kernels": kernels,
        "atomics": atomics,
    })
}

pbfs_json::to_json_struct!(KernelRow {
    graph,
    algo,
    width,
    mode,
    simd,
    median_ns_per_edge,
    min_ns_per_edge,
    skip_ratio,
    trials
});
pbfs_json::to_json_struct!(AtomicRow { kind, ns_per_op });
pbfs_json::to_json_struct!(DecisionRow {
    graph,
    algo,
    width,
    iteration,
    from,
    to,
    reason
});
