//! The benchmark's own spans around every public call it makes into the
//! library. Spans live in memory and are written out when the run ends;
//! the library itself carries no instrumentation for them.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within one run (the recording thread is in the top bits).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `engine.submit`.
    pub name: &'static str,
    /// Start, ns after the run's origin.
    pub start_ns: u64,
    /// End, ns after the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. A disabled tracer records nothing and
/// allocates nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread` of a run whose clock starts at
    /// `origin`.
    pub fn new(origin: Instant, thread: u64, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a finished call and returns its id (0 when disabled).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = (self.thread << 48) | self.next;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations, in `unit_ns` units, of every span named `name`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / unit_ns)
            .collect()
    }

    /// One JSON object per line: `{"id","parent","name","start_ns","end_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let o = Instant::now();
        let mut t = Tracer::new(o, 1, false);
        assert_eq!(t.record("x", 0, o, o), 0);
        assert!(t.to_json_lines().is_empty());
    }

    #[test]
    fn spans_link_to_their_cause() {
        let o = Instant::now();
        let mut t = Tracer::new(o, 1, true);
        let cause = t.record("submit", 0, o, o + Duration::from_nanos(1000));
        let effect = t.record(
            "wait",
            cause,
            o + Duration::from_nanos(1500),
            o + Duration::from_nanos(1800),
        );
        assert_ne!(cause, effect);
        assert_eq!(cause >> 48, 1, "thread tag in the top bits");
        assert_eq!(t.durations("wait", 1.0), vec![300.0]);
        let lines = t.to_json_lines();
        assert!(lines.contains(&format!(r#""id":{effect},"parent":{cause},"name":"wait""#)));
        assert_eq!(lines.lines().count(), 2);
    }
}
