//! Per-worker span recording.
//!
//! The hot loops this crate observes are lock-free by construction
//! (clippy's `disallowed_types` bans `Mutex`/`RwLock` in
//! `engine/src/kernels/`), so recording state is handed out exactly like
//! the engine's `Scratch`: one [`Recorder`] per worker thread, created
//! from a shared [`TraceSession`], mutated without any synchronisation,
//! and merged into a [`crate::Trace`] after the parallel-for joins.
//!
//! The disabled path is a few branches: [`StageObs::start`] returns a
//! `None` timestamp without reading the clock, and [`StageObs::record`]
//! returns on the first branch. [`NoObs`] compiles away entirely (the
//! same zero-cost-generic discipline the kernels already use for
//! `memsim::Tracer`). The `obsv_overhead` bench in `crates/bench` asserts
//! the disabled-recorder path stays within 2% of `NoObs`.

use crate::span::{SpanRecord, Stage, NO_BLOCK, NO_QUERY};
use std::time::Instant;

/// Default per-worker ring capacity (spans kept per recorder).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Global observability configuration. Off by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsvConfig {
    /// Master switch. When false, recorders never read the clock and
    /// never allocate.
    pub enabled: bool,
    /// Bounded per-worker ring capacity; when full the oldest span is
    /// overwritten and the drop is counted.
    pub ring_capacity: usize,
}

impl Default for ObsvConfig {
    fn default() -> Self {
        ObsvConfig { enabled: false, ring_capacity: DEFAULT_RING_CAPACITY }
    }
}

impl ObsvConfig {
    /// Tracing enabled with the default ring capacity.
    pub fn on() -> ObsvConfig {
        ObsvConfig { enabled: true, ..ObsvConfig::default() }
    }

    /// Tracing disabled (the default).
    pub fn off() -> ObsvConfig {
        ObsvConfig::default()
    }
}

/// An opaque span start token. `None` means the observer is disabled and
/// the clock was never read.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(pub(crate) Option<Instant>);

impl SpanStart {
    /// A token that records nothing when passed to [`StageObs::record`].
    pub fn disabled() -> SpanStart {
        SpanStart(None)
    }
}

/// Stage observation hook threaded through the engine kernels, mirroring
/// how they are generic over `memsim::Tracer`: production code that does
/// not trace passes [`NoObs`] (compiles away); traced runs pass a
/// per-worker [`Recorder`].
pub trait StageObs {
    /// Begin a span (reads the clock only when enabled).
    fn start(&mut self) -> SpanStart;
    /// Finish a span started with [`StageObs::start`], attributing it to
    /// `stage` at the observer's current (trace, query, block) context.
    fn record(&mut self, stage: Stage, start: SpanStart);
}

/// The no-op observer: both methods compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObs;

impl StageObs for NoObs {
    #[inline(always)]
    fn start(&mut self) -> SpanStart {
        SpanStart(None)
    }

    #[inline(always)]
    fn record(&mut self, _stage: Stage, _start: SpanStart) {}
}

/// A tracing session: the shared configuration plus the epoch all span
/// timestamps are relative to. One session per traced operation (a batch
/// search, a server lifetime); hand each worker a [`Recorder`] via
/// [`TraceSession::recorder`].
#[derive(Clone, Copy, Debug)]
pub struct TraceSession {
    config: ObsvConfig,
    epoch: Instant,
}

impl TraceSession {
    /// Start a session with `config`; the epoch is "now".
    pub fn new(config: ObsvConfig) -> TraceSession {
        TraceSession { config, epoch: Instant::now() }
    }

    /// A session that records nothing (the production default).
    pub fn disabled() -> TraceSession {
        TraceSession::new(ObsvConfig::off())
    }

    /// The session's configuration.
    pub fn config(&self) -> ObsvConfig {
        self.config
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The instant all span `start_ns` values are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Create a worker-local recorder for this session. Disabled sessions
    /// hand out recorders that never allocate or read the clock.
    pub fn recorder(&self) -> Recorder {
        Recorder {
            enabled: self.config.enabled,
            epoch: self.epoch,
            capacity: if self.config.enabled { self.config.ring_capacity } else { 0 },
            ring: Vec::new(),
            write: 0,
            seq: 0,
            dropped: 0,
            trace_id: 0,
            query: NO_QUERY,
            block: NO_BLOCK,
            worker: 0,
        }
    }
}

/// A per-worker bounded span ring. No locks, no sharing: exactly one
/// worker mutates a recorder, and the driver merges recorders after the
/// parallel-for joins (see [`crate::Trace::absorb`]).
///
/// When the ring is full the **oldest** span is overwritten and
/// [`Recorder::dropped`] is incremented; sequence numbers keep the
/// surviving spans ordered.
#[derive(Clone, Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    capacity: usize,
    ring: Vec<SpanRecord>,
    /// Next overwrite slot once the ring is full.
    write: usize,
    seq: u64,
    dropped: u64,
    trace_id: u64,
    query: u32,
    block: u32,
    worker: u32,
}

impl Recorder {
    /// Set the (trace, query, block) coordinate attached to subsequently
    /// recorded spans.
    #[inline]
    pub fn set_ctx(&mut self, trace_id: u64, query: u32, block: u32) {
        self.trace_id = trace_id;
        self.query = query;
        self.block = block;
    }

    /// Set the worker index stamped on subsequently recorded spans.
    pub fn set_worker(&mut self, worker: u32) {
        self.worker = worker;
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans currently held (bounded by the ring capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no span has been recorded (or recording is disabled).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record a span with explicit start/end instants (the serving layer
    /// times queue waits across threads this way). No-op when disabled.
    pub fn record_between(&mut self, stage: Stage, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.push(stage, start, end);
    }

    /// Consume the recorder, returning its spans in recording order.
    pub fn into_spans(self) -> (Vec<SpanRecord>, u64) {
        let mut spans = self.ring;
        // The ring wraps at `write`; rotate so recording order (== seq
        // order) is restored without a sort.
        if self.dropped > 0 && self.write < spans.len() {
            spans.rotate_left(self.write);
        }
        (spans, self.dropped)
    }

    fn push(&mut self, stage: Stage, t0: Instant, end: Instant) {
        let rec = SpanRecord {
            trace_id: self.trace_id,
            seq: self.seq,
            stage,
            query: self.query,
            block: self.block,
            worker: self.worker,
            start_ns: saturating_ns(t0.duration_since(self.epoch)),
            dur_ns: saturating_ns(end.duration_since(t0)),
        };
        self.seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.write] = rec;
            self.write = (self.write + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

impl StageObs for Recorder {
    #[inline]
    fn start(&mut self) -> SpanStart {
        if self.enabled {
            SpanStart(Some(Instant::now()))
        } else {
            SpanStart(None)
        }
    }

    #[inline]
    fn record(&mut self, stage: Stage, start: SpanStart) {
        let Some(t0) = start.0 else { return };
        let end = Instant::now();
        self.push(stage, t0, end);
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_never_allocates() {
        let session = TraceSession::disabled();
        let mut rec = session.recorder();
        let t = rec.start();
        assert!(t.0.is_none(), "disabled start must not read the clock");
        rec.record(Stage::Seed, t);
        rec.record_between(Stage::Search, session.epoch(), Instant::now());
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.ring.capacity(), 0, "no allocation when disabled");
    }

    #[test]
    fn enabled_recorder_stamps_context_and_sequences() {
        let session = TraceSession::new(ObsvConfig::on());
        let mut rec = session.recorder();
        rec.set_worker(3);
        rec.set_ctx(7, 1, 2);
        let t = rec.start();
        rec.record(Stage::Seed, t);
        rec.set_ctx(7, 1, 5);
        let t = rec.start();
        rec.record(Stage::Reorder, t);
        let (spans, dropped) = rec.into_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Seed);
        assert_eq!((spans[0].trace_id, spans[0].query, spans[0].block), (7, 1, 2));
        assert_eq!(spans[1].stage, Stage::Reorder);
        assert_eq!(spans[1].block, 5);
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert!(spans.iter().all(|s| s.worker == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let session =
            TraceSession::new(ObsvConfig { enabled: true, ring_capacity: 4 });
        let mut rec = session.recorder();
        for i in 0..10u32 {
            rec.set_ctx(0, i, 0);
            let t = rec.start();
            rec.record(Stage::Seed, t);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let (spans, dropped) = rec.into_spans();
        assert_eq!(dropped, 6);
        // The survivors are the newest four, in recording order.
        let queries: Vec<u32> = spans.iter().map(|s| s.query).collect();
        assert_eq!(queries, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let session =
            TraceSession::new(ObsvConfig { enabled: true, ring_capacity: 0 });
        let mut rec = session.recorder();
        let t = rec.start();
        rec.record(Stage::Seed, t);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn record_between_uses_explicit_instants() {
        let session = TraceSession::new(ObsvConfig::on());
        let mut rec = session.recorder();
        let a = session.epoch() + std::time::Duration::from_micros(10);
        let b = session.epoch() + std::time::Duration::from_micros(35);
        rec.record_between(Stage::QueueWait, a, b);
        let (spans, _) = rec.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ns, 10_000);
        assert_eq!(spans[0].dur_ns, 25_000);
    }

    #[test]
    fn noobs_is_inert() {
        let mut o = NoObs;
        let t = o.start();
        assert!(t.0.is_none());
        o.record(Stage::Ungapped, t);
    }
}
