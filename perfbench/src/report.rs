//! Named metrics with units and sample counts, rendered as a table for
//! people and as the one-line JSON result that ends standard output.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, e.g. `qps` or `engine.submit_us.p99`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric; a non-finite value (a quantile over failures) is
    /// reported as the largest finite number so the JSON stays valid.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { f64::MAX };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Aligned `name  value unit  (n=samples)` lines.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_shape() {
        let mut r = Report::default();
        r.add("latency_ms", "ms", 1.25, 10);
        r.add("setup_s", "s", 0.0001, 3);
        r.add("p99_ms", "ms", f64::INFINITY, 3);
        let j = r.json(true, 1000, 0);
        assert!(j.starts_with(r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"#));
        assert!(j.contains(r#""latency_ms": {"value": 1.25, "unit": "ms"}"#));
        assert!(j.contains(r#""setup_s": {"value": 0.0001, "unit": "s"}"#));
        assert!(!j.contains("inf") && !j.contains("NaN"));
        assert!(j.ends_with("}}"));
        assert_eq!(r.table().lines().count(), 3);
    }
}
