//! Online adaptive frontier auto-tuning.
//!
//! The static `FrontierMode::{Flat,Summary}` configuration leaves
//! performance on the table whenever a traversal crosses a frontier-size
//! regime mid-flight: a handful of active vertices wants a sparse queue,
//! a saturated frontier wants a plain linear scan, and everything in
//! between wants the summary-guided chunk skip. [`AdaptController`]
//! implements the `judge()`-style threshold policy that picks the scan
//! strategy *per iteration* from a sampled [`FrontierSample`], with
//! hysteresis so borderline frontiers do not flap between
//! representations. Direction switching (top-down vs bottom-up) goes
//! through the same hysteresis filter.
//!
//! Every decision is recorded three ways so policies are auditable
//! post-hoc: the `pbfs_adapt_switches_total{from,to,reason}` counter
//! family, an [`AdaptSwitch`](pbfs_telemetry::EventKind::AdaptSwitch)
//! trace mark, and an in-memory [`AdaptDecision`] log returned with the
//! run's [`TraversalStats`](crate::stats::TraversalStats).
//!
//! All decisions are functions of the sample stream alone: replaying the
//! same samples through a fresh controller yields the same switch
//! sequence, which the deterministic-replay test pins against a golden
//! trace. Correctness never depends on a decision — every strategy scans
//! a superset of the active frontier — so the worst possible policy bug
//! is a slowdown.

use std::sync::{Arc, OnceLock};

use pbfs_telemetry::Counter;

use crate::policy::Direction;

/// How a traversal kernel walks the frontier during one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Gather the active entries into a sorted vertex queue and iterate
    /// that — O(frontier) work, plus the gather.
    Sparse,
    /// Linear scan over the full vertex range — O(V), no summary reads.
    Flat,
    /// Summary-guided chunk skipping — O(active chunks) state loads.
    Summary,
}

impl ScanStrategy {
    /// Stable label used in metrics and decision logs.
    pub fn name(self) -> &'static str {
        match self {
            ScanStrategy::Sparse => "sparse",
            ScanStrategy::Flat => "flat",
            ScanStrategy::Summary => "summary",
        }
    }

    fn code(self) -> u64 {
        match self {
            ScanStrategy::Sparse => 0,
            ScanStrategy::Flat => 1,
            ScanStrategy::Summary => 2,
        }
    }
}

/// Thresholds and damping for the online controller.
///
/// Embedded in [`BfsOptions`](crate::options::BfsOptions); only consulted
/// when `frontier_mode == FrontierMode::Auto`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptConfig {
    /// Iterations to dwell on a representation after a switch before the
    /// policy may switch again (`--adapt-hysteresis`). 0 disables damping.
    pub hysteresis: u32,
    /// Sample and re-judge every N-th iteration
    /// (`--adapt-sample-interval`); intermediate iterations keep the
    /// current strategy. 1 = judge every iteration.
    pub sample_interval: u32,
    /// Active-entry density (`frontier_vertices / V`) at or below which
    /// the sparse queue wins: the gather is O(frontier) and the scan
    /// touches nothing else.
    pub sparse_cutoff: f64,
    /// Density at or above which the flat linear scan wins: nearly every
    /// summary chunk is active, so chunk skipping is pure overhead.
    pub dense_cutoff: f64,
    /// Test hook: switch representation every judged iteration, cycling
    /// sparse → flat → summary, regardless of the sample. Exercises every
    /// conversion path; results must stay bit-identical.
    pub force_switch: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            hysteresis: 2,
            sample_interval: 1,
            sparse_cutoff: 1.0 / 1024.0,
            dense_cutoff: 0.375,
            force_switch: false,
        }
    }
}

impl AdaptConfig {
    /// Returns a copy with the given switch damping.
    pub fn with_hysteresis(mut self, iterations: u32) -> Self {
        self.hysteresis = iterations;
        self
    }

    /// Returns a copy with the given sampling interval (clamped to ≥ 1).
    pub fn with_sample_interval(mut self, interval: u32) -> Self {
        self.sample_interval = interval.max(1);
        self
    }

    /// Returns a copy in forced-switch stress mode.
    pub fn forced(mut self) -> Self {
        self.force_switch = true;
        self
    }
}

/// One iteration's frontier measurement, taken at the per-iteration
/// barrier where the previous phases' counters are complete.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierSample {
    /// Iteration about to run (1-based).
    pub iteration: u32,
    /// Active entries in the frontier array.
    pub frontier_vertices: u64,
    /// Summed out-degree of the frontier.
    pub frontier_degree: u64,
    /// Vertices in the graph.
    pub total_vertices: u64,
}

impl FrontierSample {
    /// Fraction of vertices active in the frontier.
    pub fn density(&self) -> f64 {
        if self.total_vertices == 0 {
            0.0
        } else {
            self.frontier_vertices as f64 / self.total_vertices as f64
        }
    }
}

/// One recorded controller decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptDecision {
    /// Iteration the switch took effect in.
    pub iteration: u32,
    /// Representation (or direction) switched away from.
    pub from: &'static str,
    /// Representation (or direction) switched to.
    pub to: &'static str,
    /// Which threshold fired.
    pub reason: &'static str,
}

pbfs_json::to_json_struct!(AdaptDecision {
    iteration,
    from,
    to,
    reason
});

/// The per-traversal online controller.
pub struct AdaptController {
    cfg: AdaptConfig,
    scan: ScanStrategy,
    scan_dwell: u32,
    dir_dwell: u32,
    log: Vec<AdaptDecision>,
}

impl AdaptController {
    /// Creates a controller starting on the summary strategy (the static
    /// default before auto-tuning existed).
    pub fn new(cfg: AdaptConfig) -> Self {
        let _ = metrics(); // families registered even if nothing switches
        Self {
            cfg,
            scan: ScanStrategy::Summary,
            scan_dwell: 0,
            dir_dwell: 0,
            log: Vec::new(),
        }
    }

    /// Strategy currently in effect.
    pub fn current(&self) -> ScanStrategy {
        self.scan
    }

    /// Decisions taken so far.
    pub fn log(&self) -> &[AdaptDecision] {
        &self.log
    }

    /// Consumes the controller, returning its decision log.
    pub fn into_log(self) -> Vec<AdaptDecision> {
        self.log
    }

    /// `judge()`: picks the scan strategy for the iteration described by
    /// `s`, switching (with hysteresis) when a density threshold fires.
    pub fn decide_scan(&mut self, s: &FrontierSample) -> ScanStrategy {
        crate::fail_point!("core.adapt.sample");
        metrics().samples.inc();
        if self.cfg.force_switch {
            let to = match self.scan {
                ScanStrategy::Sparse => ScanStrategy::Flat,
                ScanStrategy::Flat => ScanStrategy::Summary,
                ScanStrategy::Summary => ScanStrategy::Sparse,
            };
            self.switch_scan(s.iteration, to, "forced");
            return self.scan;
        }
        if !s
            .iteration
            .wrapping_sub(1)
            .is_multiple_of(self.cfg.sample_interval.max(1))
        {
            return self.scan;
        }
        if self.scan_dwell > 0 {
            self.scan_dwell -= 1;
            return self.scan;
        }
        let density = s.density();
        let (want, reason) = if density <= self.cfg.sparse_cutoff {
            (ScanStrategy::Sparse, "sparse_frontier")
        } else if density >= self.cfg.dense_cutoff {
            (ScanStrategy::Flat, "dense_frontier")
        } else {
            (ScanStrategy::Summary, "mixed_frontier")
        };
        if want != self.scan {
            self.switch_scan(s.iteration, want, reason);
            self.scan_dwell = self.cfg.hysteresis;
        }
        self.scan
    }

    /// Filters the direction policy's choice through the same hysteresis:
    /// a direction switch is taken at most once per dwell window.
    /// Direction never affects results, so suppressing a switch is always
    /// safe.
    pub fn decide_direction(
        &mut self,
        iteration: u32,
        current: Direction,
        wanted: Direction,
    ) -> Direction {
        if wanted == current {
            self.dir_dwell = self.dir_dwell.saturating_sub(1);
            return current;
        }
        if self.dir_dwell > 0 {
            self.dir_dwell -= 1;
            return current;
        }
        self.dir_dwell = self.cfg.hysteresis;
        let name = |d: Direction| match d {
            Direction::TopDown => "top_down",
            Direction::BottomUp => "bottom_up",
        };
        self.record(iteration, name(current), name(wanted), "direction_policy");
        wanted
    }

    fn switch_scan(&mut self, iteration: u32, to: ScanStrategy, reason: &'static str) {
        let from = self.scan;
        self.scan = to;
        self.record(iteration, from.name(), to.name(), reason);
        pbfs_telemetry::recorder().mark(
            0,
            pbfs_telemetry::EventKind::AdaptSwitch,
            iteration as u64,
            from.code() * 4 + to.code(),
        );
    }

    fn record(
        &mut self,
        iteration: u32,
        from: &'static str,
        to: &'static str,
        reason: &'static str,
    ) {
        pbfs_telemetry::registry()
            .counter_with(
                "pbfs_adapt_switches_total",
                &format!("from=\"{from}\",to=\"{to}\",reason=\"{reason}\""),
                SWITCH_HELP,
            )
            .inc();
        self.log.push(AdaptDecision {
            iteration,
            from,
            to,
            reason,
        });
    }
}

const SWITCH_HELP: &str = "Adaptive controller switches by source, target and triggering rule";

/// Always-on adapt counters.
pub(crate) struct AdaptMetrics {
    /// Frontier samples judged.
    pub samples: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static AdaptMetrics {
    static METRICS: OnceLock<AdaptMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = pbfs_telemetry::registry();
        // Register one canonical switches series eagerly so the family is
        // exported (at 0) even before the first switch — the telemetry
        // validator requires the family on every metrics snapshot.
        let _ = r.counter_with(
            "pbfs_adapt_switches_total",
            "from=\"summary\",to=\"sparse\",reason=\"sparse_frontier\"",
            SWITCH_HELP,
        );
        AdaptMetrics {
            samples: r.counter(
                "pbfs_adapt_samples_total",
                "Frontier samples judged by the adaptive controller",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: u32, fv: u64, n: u64) -> FrontierSample {
        FrontierSample {
            iteration,
            frontier_vertices: fv,
            frontier_degree: fv * 8,
            total_vertices: n,
        }
    }

    #[test]
    fn thresholds_pick_expected_strategies() {
        let mut c = AdaptController::new(AdaptConfig::default().with_hysteresis(0));
        assert_eq!(c.decide_scan(&sample(1, 1, 1 << 20)), ScanStrategy::Sparse);
        assert_eq!(
            c.decide_scan(&sample(2, 1 << 15, 1 << 20)),
            ScanStrategy::Summary
        );
        assert_eq!(
            c.decide_scan(&sample(3, 1 << 19, 1 << 20)),
            ScanStrategy::Flat
        );
        assert_eq!(c.log().len(), 3);
        assert_eq!(c.log()[0].reason, "sparse_frontier");
        assert_eq!(c.log()[1].reason, "mixed_frontier");
        assert_eq!(c.log()[2].reason, "dense_frontier");
    }

    #[test]
    fn hysteresis_dampens_flapping() {
        let mut c = AdaptController::new(AdaptConfig::default().with_hysteresis(2));
        assert_eq!(c.decide_scan(&sample(1, 1, 1 << 20)), ScanStrategy::Sparse);
        // The frontier explodes immediately, but the controller dwells for
        // two iterations before re-judging.
        assert_eq!(
            c.decide_scan(&sample(2, 1 << 19, 1 << 20)),
            ScanStrategy::Sparse
        );
        assert_eq!(
            c.decide_scan(&sample(3, 1 << 19, 1 << 20)),
            ScanStrategy::Sparse
        );
        assert_eq!(
            c.decide_scan(&sample(4, 1 << 19, 1 << 20)),
            ScanStrategy::Flat
        );
        assert_eq!(c.log().len(), 2);
    }

    #[test]
    fn sample_interval_skips_judging() {
        let mut c = AdaptController::new(
            AdaptConfig::default()
                .with_hysteresis(0)
                .with_sample_interval(3),
        );
        assert_eq!(c.decide_scan(&sample(1, 1, 1 << 20)), ScanStrategy::Sparse);
        // Iterations 2 and 3 are not judged at all.
        assert_eq!(
            c.decide_scan(&sample(2, 1 << 19, 1 << 20)),
            ScanStrategy::Sparse
        );
        assert_eq!(
            c.decide_scan(&sample(3, 1 << 19, 1 << 20)),
            ScanStrategy::Sparse
        );
        assert_eq!(
            c.decide_scan(&sample(4, 1 << 19, 1 << 20)),
            ScanStrategy::Flat
        );
    }

    #[test]
    fn forced_mode_cycles_every_iteration() {
        let mut c = AdaptController::new(AdaptConfig::default().forced());
        let seq: Vec<ScanStrategy> = (1..=6)
            .map(|i| c.decide_scan(&sample(i, 100, 1 << 20)))
            .collect();
        assert_eq!(
            seq,
            vec![
                ScanStrategy::Sparse,
                ScanStrategy::Flat,
                ScanStrategy::Summary,
                ScanStrategy::Sparse,
                ScanStrategy::Flat,
                ScanStrategy::Summary,
            ]
        );
        assert!(c.log().iter().all(|d| d.reason == "forced"));
    }

    #[test]
    fn replay_is_deterministic() {
        let samples: Vec<FrontierSample> = vec![
            sample(1, 1, 1 << 16),
            sample(2, 900, 1 << 16),
            sample(3, 40_000, 1 << 16),
            sample(4, 40_000, 1 << 16),
            sample(5, 200, 1 << 16),
            sample(6, 3, 1 << 16),
        ];
        let run = |cfg: AdaptConfig| {
            let mut c = AdaptController::new(cfg);
            for s in &samples {
                c.decide_scan(s);
            }
            c.into_log()
        };
        let a = run(AdaptConfig::default());
        let b = run(AdaptConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn direction_hysteresis_suppresses_flip_flop() {
        let mut c = AdaptController::new(AdaptConfig::default().with_hysteresis(2));
        let d1 = c.decide_direction(2, Direction::TopDown, Direction::BottomUp);
        assert_eq!(d1, Direction::BottomUp);
        // Wants to flip right back: suppressed for the dwell window.
        assert_eq!(
            c.decide_direction(3, d1, Direction::TopDown),
            Direction::BottomUp
        );
        assert_eq!(
            c.decide_direction(4, d1, Direction::TopDown),
            Direction::BottomUp
        );
        assert_eq!(
            c.decide_direction(5, d1, Direction::TopDown),
            Direction::TopDown
        );
        assert_eq!(c.log().len(), 2);
        assert!(c.log().iter().all(|d| d.reason == "direction_policy"));
    }
}
