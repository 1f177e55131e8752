//! Per-worker timeline tracing: bounded ring buffers of spans and marks.
//!
//! Recording is gated on one global flag read with a single relaxed load;
//! when it is off every record call is a branch on a cached bool, so the
//! tracing layer costs nothing on the hot path until someone turns it on
//! (`pbfs queries --trace-out`, a test, a live debugging session).
//!
//! Each *lane* (worker id, or one of the reserved lanes below) owns a
//! bounded ring: when it fills, the oldest events are overwritten and
//! counted in a dropped-events total, so a runaway trace degrades to "the
//! most recent window" instead of unbounded memory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::metrics::Counter;

/// Number of timeline lanes. Worker ids map to lanes directly; the top
/// lanes are reserved for non-worker threads.
pub const LANES: usize = 64;

/// Lane used by a query-engine dispatcher thread for batch-lifecycle
/// spans. (The dispatcher also participates as pool worker 0; batch spans
/// get their own timeline so the two are distinguishable in a viewer.)
pub const ENGINE_LANE: usize = LANES - 1;

/// Lane used by client threads submitting queries (submit marks).
pub const CLIENT_LANE: usize = LANES - 2;

/// Lowest lane reserved for the dispatchers of engine shards ≥ 1 (shard 0
/// keeps [`ENGINE_LANE`]). Shards `1..=13` map downward from
/// `CLIENT_LANE - 1`; higher shard ids wrap within the reserved band.
/// Worker lanes below this bound are unaffected — the repo never runs
/// pools wide enough to reach lane 48.
pub const FIRST_SHARD_LANE: usize = LANES - 16;

/// Timeline lane of the engine dispatcher serving `shard`.
///
/// Shard 0 is the classic single-dispatcher lane ([`ENGINE_LANE`]), so
/// unsharded traces are byte-identical to before sharding existed; every
/// further shard gets its own lane in the reserved band just below the
/// client lane.
pub fn engine_lane(shard: usize) -> usize {
    if shard == 0 {
        ENGINE_LANE
    } else {
        let band = CLIENT_LANE - FIRST_SHARD_LANE; // lanes 48..=61
        CLIENT_LANE - 1 - ((shard - 1) % band)
    }
}

/// Default ring capacity per lane.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// What a [`TraceEvent`] describes. Spans have a duration; marks are
/// instantaneous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One task range executed by a worker (`a` = items, `b` = 1 if the
    /// range was stolen).
    Task,
    /// A worker took a range from another queue (`a` = victim worker,
    /// `b` = items). Mark.
    Steal,
    /// One BFS iteration (`a` = depth, `b` = states discovered).
    Iteration,
    /// Top-down phase 1: frontier expansion (`a` = frontier vertices).
    TopDownPhase1,
    /// Top-down phase 2: discovery/filter (`a` = frontier vertices).
    TopDownPhase2,
    /// Bottom-up pull phase (`a` = frontier vertices).
    BottomUp,
    /// The direction policy switched direction (`a` = depth, `b` = 1 for
    /// bottom-up, 0 for top-down). Mark.
    DirectionSwitch,
    /// One query's submit→coalesce wait: starts when the query entered the
    /// engine queue, ends when the dispatcher drained it into a batch
    /// (`a` = source, `b` = query id).
    BatchSubmit,
    /// Oldest-submit → batch-drain interval: how long queries waited for
    /// co-batched company (`a` = batch size, `b` = chosen width).
    BatchCoalesce,
    /// The BFS execution of one flushed batch (`a` = width, `b` = batch
    /// size).
    BatchFlush,
    /// A multi-source batch's distances were materialized into per-query
    /// rows, inside its `BatchFlush` (`a` = width, `b` = batch size).
    BatchMaterialize,
    /// A batch's results were delivered (`a` = width, `b` = batch size).
    /// Mark.
    BatchComplete,
    /// A batch's execution panicked and every query in it failed with a
    /// typed error (`a` = width, `b` = batch size). Mark.
    BatchFailed,
    /// A pool worker panicked inside a parallel loop body (`a` = worker,
    /// `b` = dispatch epoch). Mark.
    WorkerPanic,
    /// The graph store published a new epoch (`a` = epoch, `b` = cause:
    /// 0 = mutation batch, 1 = compaction, 2 = partition attach). Mark.
    EpochPublish,
    /// A batch pinned a storage epoch for its traversal (`a` = epoch,
    /// `b` = batch width); the ctx links it to the batch's query set. Mark.
    EpochPin,
}

impl EventKind {
    /// Short stable name (Chrome trace event `name`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Task => "task",
            EventKind::Steal => "steal",
            EventKind::Iteration => "iteration",
            EventKind::TopDownPhase1 => "top_down_phase1",
            EventKind::TopDownPhase2 => "top_down_phase2",
            EventKind::BottomUp => "bottom_up",
            EventKind::DirectionSwitch => "direction_switch",
            EventKind::BatchSubmit => "batch_submit",
            EventKind::BatchCoalesce => "batch_coalesce",
            EventKind::BatchFlush => "batch_flush",
            EventKind::BatchMaterialize => "batch_materialize",
            EventKind::BatchComplete => "batch_complete",
            EventKind::BatchFailed => "batch_failed",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::EpochPublish => "epoch_publish",
            EventKind::EpochPin => "epoch_pin",
        }
    }

    /// Chrome trace category.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Task | EventKind::Steal | EventKind::WorkerPanic => "sched",
            EventKind::Iteration
            | EventKind::TopDownPhase1
            | EventKind::TopDownPhase2
            | EventKind::BottomUp
            | EventKind::DirectionSwitch => "bfs",
            EventKind::BatchSubmit
            | EventKind::BatchCoalesce
            | EventKind::BatchFlush
            | EventKind::BatchMaterialize
            | EventKind::BatchComplete
            | EventKind::BatchFailed => "engine",
            EventKind::EpochPublish | EventKind::EpochPin => "storage",
        }
    }

    /// True for duration events, false for instant marks.
    pub fn is_span(self) -> bool {
        !matches!(
            self,
            EventKind::Steal
                | EventKind::DirectionSwitch
                | EventKind::BatchComplete
                | EventKind::BatchFailed
                | EventKind::WorkerPanic
        )
    }

    /// Names of the `a`/`b` payload fields (Chrome trace `args` keys).
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Task => ("items", "stolen"),
            EventKind::Steal => ("victim", "items"),
            EventKind::Iteration => ("depth", "discovered"),
            EventKind::TopDownPhase1 | EventKind::TopDownPhase2 | EventKind::BottomUp => {
                ("frontier_vertices", "unused")
            }
            EventKind::DirectionSwitch => ("depth", "bottom_up"),
            EventKind::BatchSubmit => ("source", "query"),
            EventKind::BatchCoalesce => ("batch", "width"),
            EventKind::BatchFlush => ("width", "batch"),
            EventKind::BatchMaterialize => ("width", "batch"),
            EventKind::BatchComplete => ("width", "batch"),
            EventKind::BatchFailed => ("width", "batch"),
            EventKind::WorkerPanic => ("worker", "epoch"),
            EventKind::EpochPublish => ("epoch", "cause"),
            EventKind::EpochPin => ("epoch", "width"),
        }
    }
}

/// One recorded timeline event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// First payload field (see [`EventKind::arg_names`]).
    pub a: u64,
    /// Second payload field.
    pub b: u64,
    /// Query-set id causally linking this event to the batch that produced
    /// it (`0` = unattributed — the event happened outside any batch).
    pub qset: u64,
}

/// Bounded event ring: oldest events are overwritten once full.
struct Ring {
    buf: Vec<TraceEvent>,
    /// Total events ever pushed; `buf` holds the last `min(head, cap)`.
    head: u64,
}

impl Ring {
    fn push(&mut self, cap: usize, e: TraceEvent) -> bool {
        let dropped = if self.buf.len() < cap {
            self.buf.push(e);
            false
        } else {
            let idx = (self.head % cap as u64) as usize;
            self.buf[idx] = e;
            true
        };
        self.head += 1;
        dropped
    }

    fn drain(&mut self, cap: usize) -> (Vec<TraceEvent>, u64) {
        let dropped = self.head.saturating_sub(self.buf.len() as u64);
        let events = if self.head > cap as u64 {
            // The ring wrapped: chronological order starts at head % cap.
            let split = (self.head % cap as u64) as usize;
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[split..]);
            out.extend_from_slice(&self.buf[..split]);
            out
        } else {
            std::mem::take(&mut self.buf)
        };
        self.buf = Vec::new();
        self.head = 0;
        (events, dropped)
    }
}

/// The per-lane timeline recorder. Usually accessed through the global
/// [`crate::recorder`]; tests construct their own.
pub struct TraceRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    lanes: Vec<CachePadded<Mutex<Ring>>>,
    dropped: Option<Arc<Counter>>,
}

impl TraceRecorder {
    /// A disabled recorder with `capacity` events per lane. `dropped`, if
    /// given, is incremented for every overwritten event (wire it to a
    /// registry counter so drops are observable).
    pub fn new(capacity: usize, dropped: Option<Arc<Counter>>) -> Self {
        let mut lanes = Vec::with_capacity(LANES);
        lanes.resize_with(LANES, || {
            CachePadded::new(Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
            }))
        });
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            lanes,
            dropped,
        }
    }

    /// Turns recording on or off. Off is the default; all record calls
    /// reduce to one relaxed load while off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts timing a span: `Some(now)` while recording, `None` (free)
    /// while off. Pass the result to [`Self::span`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span begun with [`Self::start`]; no-op if it returned `None`.
    #[inline]
    pub fn span(&self, lane: usize, kind: EventKind, started: Option<Instant>, a: u64, b: u64) {
        if let Some(t0) = started {
            self.span_at_ctx(lane, kind, t0, t0.elapsed(), a, b, 0);
        }
    }

    /// Like [`Self::span`] but attributes the span to query-set `qset`.
    #[inline]
    pub fn span_ctx(
        &self,
        lane: usize,
        kind: EventKind,
        started: Option<Instant>,
        a: u64,
        b: u64,
        qset: u64,
    ) {
        if let Some(t0) = started {
            self.span_at_ctx(lane, kind, t0, t0.elapsed(), a, b, qset);
        }
    }

    /// Records a span from an externally measured `(start, duration)`
    /// pair; no-op while recording is off.
    #[inline]
    pub fn span_at(
        &self,
        lane: usize,
        kind: EventKind,
        start: Instant,
        dur: Duration,
        a: u64,
        b: u64,
    ) {
        self.span_at_ctx(lane, kind, start, dur, a, b, 0);
    }

    /// Like [`Self::span_at`] but attributes the span to query-set `qset`.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at_ctx(
        &self,
        lane: usize,
        kind: EventKind,
        start: Instant,
        dur: Duration,
        a: u64,
        b: u64,
        qset: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(
            lane,
            TraceEvent {
                kind,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                a,
                b,
                qset,
            },
        );
    }

    /// Records an instantaneous mark; no-op while recording is off.
    #[inline]
    pub fn mark(&self, lane: usize, kind: EventKind, a: u64, b: u64) {
        self.mark_ctx(lane, kind, a, b, 0);
    }

    /// Like [`Self::mark`] but attributes the mark to query-set `qset`.
    #[inline]
    pub fn mark_ctx(&self, lane: usize, kind: EventKind, a: u64, b: u64, qset: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(
            lane,
            TraceEvent {
                kind,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                dur_ns: 0,
                a,
                b,
                qset,
            },
        );
    }

    fn push(&self, lane: usize, e: TraceEvent) {
        let mut ring = self.lanes[lane % LANES].lock();
        if ring.push(self.capacity, e) {
            if let Some(c) = &self.dropped {
                c.add_at(lane, 1);
            }
        }
    }

    /// Takes every recorded event, emptying all rings. Lanes that never
    /// recorded anything are omitted.
    pub fn drain(&self) -> TraceDump {
        let mut lanes = Vec::new();
        for (id, lane) in self.lanes.iter().enumerate() {
            let (events, dropped) = lane.lock().drain(self.capacity);
            if !events.is_empty() || dropped > 0 {
                lanes.push(LaneDump {
                    lane: id,
                    events,
                    dropped,
                });
            }
        }
        TraceDump { lanes }
    }
}

/// Drained contents of one lane's ring.
#[derive(Clone, Debug)]
pub struct LaneDump {
    /// Lane id (worker id, [`ENGINE_LANE`], or [`CLIENT_LANE`]).
    pub lane: usize,
    /// Events in chronological push order (the newest `capacity` ones).
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

/// Drained contents of a whole recorder.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Per-lane dumps, ordered by lane id; empty lanes omitted.
    pub lanes: Vec<LaneDump>,
}

impl TraceDump {
    /// Total events across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total dropped events across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Iterates over all events of the given kind, with their lane.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = (usize, &TraceEvent)> {
        self.lanes.iter().flat_map(move |l| {
            l.events
                .iter()
                .filter(move |e| e.kind == kind)
                .map(move |e| (l.lane, e))
        })
    }

    /// Human-readable name for a lane in exports.
    pub fn lane_name(lane: usize) -> String {
        match lane {
            ENGINE_LANE => "engine".to_string(),
            CLIENT_LANE => "clients".to_string(),
            l if (FIRST_SHARD_LANE..CLIENT_LANE).contains(&l) => {
                format!("engine-shard-{}", CLIENT_LANE - l)
            }
            w => format!("worker-{w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = TraceRecorder::new(8, None);
        assert!(rec.start().is_none());
        rec.mark(0, EventKind::Steal, 1, 2);
        rec.span(0, EventKind::Task, rec.start(), 1, 0);
        assert_eq!(rec.drain().total_events(), 0);
    }

    #[test]
    fn spans_and_marks_round_trip() {
        let rec = TraceRecorder::new(8, None);
        rec.set_enabled(true);
        let t = rec.start();
        assert!(t.is_some());
        rec.span(3, EventKind::Task, t, 128, 1);
        rec.mark(3, EventKind::Steal, 2, 128);
        let dump = rec.drain();
        assert_eq!(dump.lanes.len(), 1);
        assert_eq!(dump.lanes[0].lane, 3);
        let events = &dump.lanes[0].events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Task);
        assert_eq!((events[0].a, events[0].b), (128, 1));
        assert_eq!(events[1].kind, EventKind::Steal);
        assert_eq!(events[1].dur_ns, 0);
        assert!(events[1].start_ns >= events[0].start_ns);
        // Drained rings are empty.
        assert_eq!(rec.drain().total_events(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let dropped = Arc::new(Counter::new());
        let rec = TraceRecorder::new(4, Some(Arc::clone(&dropped)));
        rec.set_enabled(true);
        for i in 0..10u64 {
            rec.mark(1, EventKind::Steal, i, 0);
        }
        let dump = rec.drain();
        assert_eq!(dump.lanes[0].dropped, 6);
        assert_eq!(dropped.get(), 6);
        // The surviving events are the newest four, oldest first.
        let kept: Vec<u64> = dump.lanes[0].events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disable_mid_span_drops_the_span() {
        let rec = TraceRecorder::new(8, None);
        rec.set_enabled(true);
        let t = rec.start();
        rec.set_enabled(false);
        rec.span(0, EventKind::Task, t, 0, 0);
        rec.set_enabled(true);
        assert_eq!(rec.drain().total_events(), 0);
    }

    #[test]
    fn qset_round_trips_and_defaults_to_zero() {
        let rec = TraceRecorder::new(8, None);
        rec.set_enabled(true);
        let t = rec.start();
        rec.span_ctx(0, EventKind::BatchFlush, t, 64, 3, 7);
        rec.mark_ctx(0, EventKind::BatchComplete, 64, 3, 7);
        rec.mark(0, EventKind::Steal, 1, 2);
        let dump = rec.drain();
        let events = &dump.lanes[0].events;
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].qset, 7);
        assert_eq!(events[1].qset, 7);
        assert_eq!(events[2].qset, 0);
    }

    #[test]
    fn batch_submit_is_a_span() {
        assert!(EventKind::BatchSubmit.is_span());
    }

    #[test]
    fn lane_names() {
        assert_eq!(TraceDump::lane_name(0), "worker-0");
        assert_eq!(TraceDump::lane_name(ENGINE_LANE), "engine");
        assert_eq!(TraceDump::lane_name(CLIENT_LANE), "clients");
        assert_eq!(TraceDump::lane_name(CLIENT_LANE - 1), "engine-shard-1");
        assert_eq!(TraceDump::lane_name(FIRST_SHARD_LANE), "engine-shard-14");
    }

    #[test]
    fn shard_lanes_are_distinct_and_reserved() {
        assert_eq!(engine_lane(0), ENGINE_LANE);
        assert_eq!(engine_lane(1), CLIENT_LANE - 1);
        assert_eq!(engine_lane(2), CLIENT_LANE - 2);
        // Distinct per shard up to the reserved band, never colliding with
        // the client or the shard-0 engine lane.
        let lanes: std::collections::HashSet<usize> = (0..14).map(engine_lane).collect();
        assert_eq!(lanes.len(), 14);
        for s in 1..64 {
            let l = engine_lane(s);
            assert!((FIRST_SHARD_LANE..CLIENT_LANE).contains(&l), "shard {s}");
        }
    }
}
