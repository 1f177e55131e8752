//! The load-generating client: a closed loop (one thread keeping N queries
//! outstanding, optionally also the single writer) or an open loop (one
//! generator thread submitting on a Poisson schedule, the main thread
//! collecting results). Each run is a warm phase followed by measured
//! windows; every window is accounted separately.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pbfs_core::engine::{EngineError, EngineStats, QueryEngine, QueryHandle};
use pbfs_core::storage::{self, GraphStore};
use pbfs_graph::VertexId;

use crate::oracle::{digest, EpochLog, Sample};
use crate::schedule::{Poisson, WriteStream};
use crate::sys::{self, HostCpu};
use crate::trace::Tracer;
use crate::workload::{Inputs, Load, Spec, Writes};

/// Seed of the writer's mutation stream in a run seeded `seed`.
pub fn write_seed(seed: u64) -> u64 {
    seed ^ 0x0037_17e5
}

/// A wait that blocks longer than this starts a new burst of results.
const BURST_GAP: Duration = Duration::from_micros(200);

/// Warm phase, then measured windows `(length, traced)`.
pub struct Plan {
    /// Unmeasured traffic before the first window.
    pub warm: Duration,
    /// Measured windows in order.
    pub windows: Vec<(Duration, bool)>,
}

/// What one measured window saw.
#[derive(Debug)]
pub struct Window {
    /// Spans were recorded during this window.
    pub traced: bool,
    /// Measured length in seconds.
    pub len_s: f64,
    /// Queries submitted.
    pub sent: u64,
    /// Queries whose distances arrived.
    pub ok: u64,
    /// Queries refused at submission or failed by the engine, plus oracle
    /// mismatches (added after checking).
    pub failed: u64,
    /// Scheduled send → distances in hand, ms; `+∞` for failures.
    pub latency_ms: Vec<f64>,
    /// When each successful query's distances arrived.
    pub done_at: Vec<Instant>,
    /// Generator lateness behind schedule, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Process CPU seconds (user + system) spent in the window.
    pub cpu_s: f64,
    /// `(process CPU seconds, queries answered)` read every
    /// [`Spec::tick_every`] answers, starting at the window's opening.
    pub ticks: Vec<(f64, u64)>,
    /// Peak resident set (MiB) between consecutive ticks; empty when the
    /// kernel cannot reset the process's high-water mark.
    pub tick_peak_mb: Vec<f64>,
    /// Host steal share over the window.
    pub steal: f64,
    /// Engine counters at the window's start and end.
    pub stats: (EngineStats, EngineStats),
    /// `GraphStore::apply_batch` latencies, ms.
    pub apply_ms: Vec<f64>,
    /// `GraphStore::compact` latencies, ms.
    pub compact_ms: Vec<f64>,
    /// `GraphStore::snapshot` latencies, µs.
    pub snapshot_us: Vec<f64>,
    /// Largest dirty-vertex count seen after a write.
    pub dirty_max: usize,
    /// Largest `pbfs_storage_epochs_live` seen after a write.
    pub epochs_live_max: i64,
}

impl Window {
    fn empty(traced: bool) -> Self {
        Self {
            traced,
            len_s: 0.0,
            sent: 0,
            ok: 0,
            failed: 0,
            latency_ms: Vec::new(),
            done_at: Vec::new(),
            late_ms: Vec::new(),
            cpu_s: 0.0,
            ticks: Vec::new(),
            tick_peak_mb: Vec::new(),
            steal: 0.0,
            stats: (EngineStats::default(), EngineStats::default()),
            apply_ms: Vec::new(),
            compact_ms: Vec::new(),
            snapshot_us: Vec::new(),
            dirty_max: 0,
            epochs_live_max: 0,
        }
    }
}

/// A window being filled, with the readings taken when it opened.
struct Open {
    w: Window,
    at: Instant,
    cpu: f64,
    host: HostCpu,
    /// Peak resident set is tracked per tick.
    peaks: bool,
}

impl Open {
    fn new(engine: &QueryEngine, traced: bool) -> Self {
        let mut w = Window::empty(traced);
        w.stats.0 = engine.stats();
        let cpu = sys::process_cpu_s();
        w.ticks.push((cpu, 0));
        Self {
            w,
            at: Instant::now(),
            cpu,
            host: HostCpu::now(),
            peaks: sys::reset_peak_rss(),
        }
    }

    /// After an answered query: takes the CPU and memory readings of a
    /// tick every `every` answers.
    fn answered(&mut self, every: u64) {
        if !self.w.ok.is_multiple_of(every) {
            return;
        }
        self.w.ticks.push((sys::process_cpu_s(), self.w.ok));
        if self.peaks {
            self.w.tick_peak_mb.push(sys::peak_rss_mib());
            sys::reset_peak_rss();
        }
    }

    fn close(mut self, engine: &QueryEngine) -> Window {
        self.w.len_s = self.at.elapsed().as_secs_f64();
        self.w.cpu_s = sys::process_cpu_s() - self.cpu;
        self.w.steal = self.host.steal_share_until(&HostCpu::now());
        self.w.stats.1 = engine.stats();
        self.w
    }
}

/// Phase boundaries of a [`Plan`] from a start instant.
struct Phases {
    ends: Vec<Instant>,
    traced: Vec<bool>,
    /// Index of the current phase; 0 is the warm phase.
    cur: usize,
}

impl Phases {
    fn new(plan: &Plan, start: Instant) -> Self {
        let mut at = start + plan.warm;
        let mut ends = vec![at];
        let mut traced = vec![false];
        for &(len, t) in &plan.windows {
            at += len;
            ends.push(at);
            traced.push(t);
        }
        Self {
            ends,
            traced,
            cur: 0,
        }
    }

    fn end(&self) -> Instant {
        *self.ends.last().expect("plan has a warm phase")
    }
}

/// The single writer's state.
struct Writer {
    cfg: Writes,
    stream: WriteStream,
    reads: u64,
    batches: u64,
    log: EpochLog,
}

/// One query in flight.
struct InFlight {
    seq: u64,
    source: VertexId,
    due: Instant,
    lo: u64,
    span: u64,
    handle: Result<QueryHandle, EngineError>,
}

/// Client state that carries across windows: the source cursor, sequence
/// numbers, oracle samples, the writer and the span recorder.
pub struct Client<'a> {
    spec: Spec,
    inputs: &'a Inputs,
    seed: u64,
    seq: u64,
    samples: Vec<Sample>,
    writer: Option<Writer>,
    /// Epochs published when the previous and the latest burst of results
    /// began arriving (a wait that blocked starts a burst).
    bursts: (u64, u64),
    /// Spans of the main thread (the generator's are absorbed at the end).
    tracer: Tracer,
}

/// What a finished run hands to the oracle.
pub struct Outcome {
    /// Measured windows.
    pub windows: Vec<Window>,
    /// Sampled results.
    pub samples: Vec<Sample>,
    /// The writer's log, if the workload writes.
    pub log: Option<EpochLog>,
    /// Spans recorded during traced windows.
    pub tracer: Tracer,
}

impl<'a> Client<'a> {
    /// A client for `spec` over `inputs`; the writer (if any) follows a
    /// stream seeded from `seed`.
    pub fn new(
        spec: Spec,
        inputs: &'a Inputs,
        store: &GraphStore,
        seed: u64,
        origin: Instant,
    ) -> Self {
        let writer = spec.writes.map(|cfg| Writer {
            cfg,
            stream: WriteStream::new(
                inputs.n,
                &inputs.edges,
                cfg.batch,
                cfg.undo_after,
                write_seed(seed),
            ),
            reads: 0,
            batches: 0,
            log: EpochLog {
                first: store.current_epoch(),
                entries: Vec::new(),
            },
        });
        Self {
            spec,
            inputs,
            seed,
            seq: 0,
            samples: Vec::new(),
            writer,
            bursts: (0, 0),
            tracer: Tracer::new(origin, 1, false),
        }
    }

    fn next_source(&mut self) -> (u64, VertexId) {
        let seq = self.seq;
        self.seq += 1;
        (
            seq,
            self.inputs.sources[seq as usize % self.inputs.sources.len()],
        )
    }

    fn sampled(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.spec.sample_every)
    }

    /// Runs the plan against a serving engine and drains it.
    pub fn run(mut self, engine: &QueryEngine, store: &GraphStore, plan: &Plan) -> Outcome {
        let windows = match self.spec.load {
            Load::Closed { outstanding } => self.closed(engine, store, plan, outstanding),
            Load::Paced { rate } => self.paced(engine, store, plan, rate),
        };
        Outcome {
            windows,
            samples: self.samples,
            log: self.writer.map(|w| w.log),
            tracer: self.tracer,
        }
    }

    fn submit(&mut self, engine: &QueryEngine, store: &GraphStore, due: Instant) -> InFlight {
        let (seq, source) = self.next_source();
        let lo = if self.sampled(seq) {
            store.current_epoch()
        } else {
            0
        };
        let start = Instant::now();
        let handle = engine.submit(source);
        let span = self
            .tracer
            .record("engine.submit", 0, start, Instant::now());
        InFlight {
            seq,
            source,
            due,
            lo,
            span,
            handle,
        }
    }

    /// Waits for one query and books it into `w`. Returns whether the
    /// distances arrived.
    fn complete(&mut self, store: &GraphStore, q: InFlight, w: &mut Window) -> bool {
        let start = Instant::now();
        let result = q.handle.and_then(QueryHandle::wait);
        let done = Instant::now();
        self.tracer.record("engine.wait", q.span, start, done);
        if done - start > BURST_GAP {
            self.bursts = (self.bursts.1, store.current_epoch());
        }
        match result {
            Ok(distances) => {
                w.ok += 1;
                w.done_at.push(done);
                w.latency_ms
                    .push(done.saturating_duration_since(q.due).as_secs_f64() * 1e3);
                if self.sampled(q.seq) {
                    self.samples.push(Sample {
                        seq: q.seq,
                        source: q.source,
                        lo: q.lo,
                        hi: store.current_epoch(),
                        // A batch pins its epoch as the one before it
                        // completes, when that batch's results start to
                        // arrive and before the writes they trigger.
                        hint: self.bursts.0,
                        digest: digest(&distances),
                    });
                }
                true
            }
            Err(e) => {
                eprintln!("query {} from {} failed: {e}", q.seq, q.source);
                w.failed += 1;
                w.latency_ms.push(f64::INFINITY);
                false
            }
        }
    }

    /// After a completed read: the writer's turn, if one is due.
    fn maybe_write(&mut self, store: &GraphStore, w: &mut Window) {
        let Some(wr) = self.writer.as_mut() else {
            return;
        };
        wr.reads += 1;
        if !wr.reads.is_multiple_of(wr.cfg.reads_per_batch) {
            return;
        }
        let batch = wr.stream.next_batch();
        let start = Instant::now();
        let applied = store.apply_batch(&batch);
        let done = Instant::now();
        self.tracer.record("storage.apply_batch", 0, start, done);
        let epoch = applied.unwrap_or_else(|e| panic!("mutation batch rejected: {e:?}"));
        w.apply_ms.push((done - start).as_secs_f64() * 1e3);
        wr.log.entries.push((epoch, batch));
        wr.batches += 1;
        if wr.batches.is_multiple_of(wr.cfg.compact_every) {
            let start = Instant::now();
            let compacted = store.compact();
            let done = Instant::now();
            self.tracer.record("storage.compact", 0, start, done);
            let epoch = compacted.unwrap_or_else(|e| panic!("compaction failed: {e:?}"));
            w.compact_ms.push((done - start).as_secs_f64() * 1e3);
            if wr.log.entries.last().map(|e| e.0) != Some(epoch) {
                wr.log.entries.push((epoch, Vec::new()));
            }
        }
        let start = Instant::now();
        let snap = store.snapshot();
        let done = Instant::now();
        self.tracer.record("storage.snapshot", 0, start, done);
        w.snapshot_us.push((done - start).as_secs_f64() * 1e6);
        w.dirty_max = w.dirty_max.max(snap.delta().dirty_vertices());
        drop(snap);
        w.epochs_live_max = w.epochs_live_max.max(storage::epochs_live());
    }

    fn closed(
        &mut self,
        engine: &QueryEngine,
        store: &GraphStore,
        plan: &Plan,
        outstanding: usize,
    ) -> Vec<Window> {
        let mut phases = Phases::new(plan, Instant::now());
        let mut windows = Vec::new();
        let mut cur = Open::new(engine, false);
        let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(outstanding);
        while queue.len() < outstanding {
            let q = self.submit(engine, store, Instant::now());
            cur.w.sent += 1;
            queue.push_back(q);
        }
        loop {
            if Instant::now() >= phases.ends[phases.cur] {
                let done = std::mem::replace(&mut cur, Open::new(engine, false));
                if phases.cur > 0 {
                    windows.push(done.close(engine));
                }
                phases.cur += 1;
                if phases.cur == phases.ends.len() {
                    break;
                }
                cur.w.traced = phases.traced[phases.cur];
                self.tracer.set_enabled(cur.w.traced);
            }
            let q = queue
                .pop_front()
                .expect("closed loop keeps queries in flight");
            if self.complete(store, q, &mut cur.w) {
                cur.answered(self.spec.tick_every());
                self.maybe_write(store, &mut cur.w);
            }
            let q = self.submit(engine, store, Instant::now());
            cur.w.sent += 1;
            queue.push_back(q);
        }
        self.tracer.set_enabled(false);
        self.drain(store, queue, &mut windows);
        windows
    }

    /// Collects what is still in flight after the last window. Failures
    /// here count against the last window.
    fn drain(
        &mut self,
        store: &GraphStore,
        rest: impl IntoIterator<Item = InFlight>,
        windows: &mut [Window],
    ) {
        let mut scratch = Window::empty(false);
        for q in rest {
            self.complete(store, q, &mut scratch);
        }
        if let Some(last) = windows.last_mut() {
            last.failed += scratch.failed;
        }
    }

    fn paced(
        &mut self,
        engine: &QueryEngine,
        store: &GraphStore,
        plan: &Plan,
        rate: f64,
    ) -> Vec<Window> {
        let start = Instant::now();
        let mut phases = Phases::new(plan, start);
        let end = phases.end();
        let marks: Vec<(Instant, bool)> = phases
            .ends
            .iter()
            .copied()
            .zip(phases.traced.iter().copied())
            .collect();
        // The generator submits with its own copy of the cursor and its own
        // tracer; the main thread collects, samples and accounts.
        let mut gen = Client {
            spec: self.spec,
            inputs: self.inputs,
            seed: self.seed,
            seq: self.seq,
            samples: Vec::new(),
            writer: None,
            bursts: (0, 0),
            tracer: Tracer::new(start, 2, false),
        };
        let arrivals = Poisson::new(rate, self.seed ^ 0xa221_7a15);
        let (tx, rx) = mpsc::channel::<(InFlight, f64)>();
        let mut windows = Vec::new();
        std::thread::scope(|scope| {
            let generator = scope.spawn(move || {
                for offset in arrivals {
                    let due = start + offset;
                    if due >= end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let traced = marks.iter().find(|(e, _)| due < *e).is_some_and(|m| m.1);
                    gen.tracer.set_enabled(traced);
                    let late = Instant::now().saturating_duration_since(due);
                    let q = gen.submit(engine, store, due);
                    if tx.send((q, late.as_secs_f64() * 1e3)).is_err() {
                        break;
                    }
                }
                gen
            });
            let mut cur = Open::new(engine, false);
            for (q, late) in rx {
                // Queries are booked by the phase they were due in.
                while q.due >= phases.ends[phases.cur] {
                    let done = std::mem::replace(&mut cur, Open::new(engine, false));
                    if phases.cur > 0 {
                        windows.push(done.close(engine));
                    }
                    phases.cur += 1;
                    cur.w.traced = phases.traced[phases.cur];
                    self.tracer.set_enabled(cur.w.traced);
                }
                cur.w.sent += 1;
                cur.w.late_ms.push(late);
                if self.complete(store, q, &mut cur.w) {
                    cur.answered(self.spec.tick_every());
                }
            }
            if phases.cur > 0 {
                windows.push(cur.close(engine));
            }
            let gen = generator.join().expect("generator thread panicked");
            self.seq = gen.seq;
            self.tracer.absorb(gen.tracer);
        });
        self.tracer.set_enabled(false);
        windows
    }
}
