//! Order statistics over raw samples.
//!
//! Every quantile the benchmark reports is computed here from the client's
//! own samples — never read back from the engine's bucketed histograms,
//! whose bucket bounds are ×1.5 apart.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the "R-7" rule). `f64::INFINITY` entries stand
/// for failed operations and sort last. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] over an already ascending, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    // An infinite upper neighbour makes the interpolated quantile infinite:
    // a failed operation misses every latency limit.
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Median throughput over a sliding span of `span` completions: the median
/// over `i ≥ span` of `span / (t[i] − t[i − span])`. Completions of one
/// batch arrive together, so a span of whole batches measures batch
/// cycles; the median ignores the odd slow cycle. `None` when there are
/// not more than `span` completions.
pub fn sliding_rate(done_s: &[f64], span: usize) -> Option<f64> {
    if span == 0 || done_s.len() <= span {
        return None;
    }
    let rates: Vec<f64> = done_s
        .windows(span + 1)
        .map(|w| span as f64 / (w[span] - w[0]).max(1e-9))
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        // 1 + 3 · 0.25 = position 0.75 → 1 + 0.75
        assert_eq!(quantile(&s, 0.25), Some(1.75));
    }

    #[test]
    fn matches_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.25), Some(3.25));
        assert_eq!(quantile(&s, 0.5), Some(5.5));
        assert_eq!(quantile(&s, 0.75), Some(7.75));
    }

    #[test]
    fn p99_of_a_hundred_samples() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let p99 = quantile(&s, 0.99).unwrap();
        assert!((p99 - 98.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn failures_sort_last_and_poison_the_tail() {
        let mut s: Vec<f64> = (0..99).map(f64::from).collect();
        s.push(f64::INFINITY);
        assert_eq!(median(&s), Some(49.5));
        assert_eq!(quantile(&s, 1.0), Some(f64::INFINITY));
        assert!(quantile(&s, 0.995).unwrap().is_infinite());
    }

    #[test]
    fn sliding_rate_of_steady_bursts() {
        // Bursts of 4 completions every 0.5 s: 8 per second.
        let t: Vec<f64> = (0..40).map(|i| (i / 4) as f64 * 0.5).collect();
        assert_eq!(sliding_rate(&t, 8), Some(8.0));
        // One slow cycle does not move the median.
        let mut slow = t.clone();
        for x in slow.iter_mut().skip(20) {
            *x += 2.0;
        }
        assert_eq!(sliding_rate(&slow, 8), Some(8.0));
        assert_eq!(sliding_rate(&t[..8], 8), None);
    }
}
