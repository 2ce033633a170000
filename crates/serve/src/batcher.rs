//! Admission control and micro-batching.
//!
//! The paper's Alg. 3 runs a *batch* of queries through a serial loop
//! over index blocks with a dynamic parallel-for over the queries inside
//! each block — throughput comes from batching, because every block is
//! paged through the cache hierarchy once per batch instead of once per
//! query. A network daemon receives queries one connection at a time, so
//! this module rebuilds batches at the door:
//!
//! * a **bounded admission queue** — overflow is answered immediately
//!   with a typed `Overloaded` error and a retry hint rather than letting
//!   the queue (and tail latency) grow without bound;
//! * a **batch former** that coalesces queued requests until either
//!   `max_batch` requests are waiting or `max_delay` has passed since the
//!   dispatcher last went idle (or, for a request admitted while it was
//!   busy, since that admission) — an idle server dispatches at once,
//!   a loaded one keeps batching;
//! * a single dispatcher that concatenates the coalesced queries, runs
//!   one `engine::search_batch` (preserving the block-serial,
//!   query-parallel schedule), and **demultiplexes** per-query results
//!   back to their submitters via [`engine::split_batch`].
//!
//! Coalescing is invisible to callers because every engine stage is
//! per-query independent; the loopback integration tests pin this down
//! with `engine::verify::results_identical`.
//!
//! Only requests with an identical effective configuration (`ConfigSig`)
//! share a batch — mixing E-value cutoffs would change results.
//!
//! **Failure model.** Deadlines are enforced at the batcher, not just at
//! the engine: a queued request whose deadline passes is rejected with a
//! typed `DeadlineExceeded` *before* batch extraction, so it never
//! consumes a batch slot and never splits a batch of live companions
//! (see `split_expired`'s unit tests for the regression this fixes).
//! The forming window wakes at the earliest queued deadline, not only at
//! `max_delay`, so expiry is answered promptly. Dispatch propagates the
//! batch's effective deadline and the daemon's [`faultfn::Faults`] plan
//! into the engine; a sharded search that loses some shards comes back
//! **degraded** — survivors' results, tagged with the failed shard ids
//! and residue coverage — while losing every shard is a typed error.

use crate::proto::{Degraded, ErrorCode, ParamOverrides, WireError};
use crate::stats::{ServeStats, Trigger};
use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, ShardedIndex};
use engine::{split_batch, EngineKind, QueryResult, SearchConfig, ShardFailCause};
use obsv::{ObsvConfig, Stage, Trace, TraceSession, NO_BLOCK, NO_QUERY};
use scoring::NeighborTable;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The resident index a daemon serves from: either one monolithic block
/// index, or K per-shard indexes searched concurrently and merged with
/// global-database statistics (paper Sec. V; `mublastpd --shards K`).
/// Sharding is invisible in the results — the merge is byte-identical to
/// an unsharded search — so the choice is purely an execution-shape knob.
pub enum ResidentIndex {
    /// One index over the whole database (the default).
    Single(DbIndex),
    /// A partitioned database with one index per shard.
    Sharded(ShardedIndex),
    /// Disk-resident per-shard block stores behind a shared LRU block
    /// cache (`mublastpd --block-cache-bytes N`): the sharded dispatch,
    /// degradation, and merge machinery runs unchanged through the
    /// engine's backend seam, but blocks are decoded on demand instead of
    /// held resident.
    Streaming(blockstore::StreamingShards<std::fs::File>),
}

impl ResidentIndex {
    /// The monolithic index, when this is the unsharded variant.
    pub fn as_single(&self) -> Option<&DbIndex> {
        match self {
            ResidentIndex::Single(index) => Some(index),
            _ => None,
        }
    }

    /// The sharded index, when this is the sharded variant.
    pub fn as_sharded(&self) -> Option<&ShardedIndex> {
        match self {
            ResidentIndex::Sharded(sharded) => Some(sharded),
            _ => None,
        }
    }

    /// `(sequences, residues)` per shard, when this variant dispatches
    /// shard-wise (resident or streaming); `None` for a monolithic index.
    fn shard_info(&self) -> Option<Vec<(u64, u64)>> {
        let shape = |db: &SequenceDb| (db.len() as u64, db.total_residues() as u64);
        match self {
            ResidentIndex::Single(_) => None,
            ResidentIndex::Sharded(sharded) => {
                Some(sharded.shards().iter().map(|s| shape(&s.db)).collect())
            }
            ResidentIndex::Streaming(streaming) => {
                Some(streaming.shards().iter().map(|s| shape(&s.db)).collect())
            }
        }
    }
}

/// Everything the daemon loads once and then serves from: the database,
/// its resident index (monolithic or sharded), the neighbor table, and
/// the base search configuration (threads, sort algorithm).
pub struct SearchContext {
    pub db: SequenceDb,
    pub index: ResidentIndex,
    pub neighbors: NeighborTable,
    pub base: SearchConfig,
}

/// The per-request knobs that must agree for two requests to share a
/// batch: the engine and every parameter that affects results. Requests
/// with different signatures are dispatched in separate batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConfigSig {
    kind_code: u8,
    evalue_bits: u64,
    max_reported: u32,
    seg: bool,
    /// Requested top-k, if any: a top-k request must never share a batch
    /// with an exhaustive one (or a different k) — the pruning threshold
    /// is part of the effective configuration.
    top_k: Option<u32>,
}

impl SearchContext {
    /// The batch-compatibility signature of a request against this
    /// context's defaults.
    pub(crate) fn sig(&self, kind: EngineKind, overrides: &ParamOverrides) -> ConfigSig {
        ConfigSig {
            kind_code: crate::proto::engine_to_wire(kind),
            evalue_bits: overrides
                .evalue_cutoff
                .unwrap_or(self.base.params.evalue_cutoff)
                .to_bits(),
            max_reported: overrides
                .max_reported
                .unwrap_or(self.base.params.max_reported as u32),
            seg: overrides.seg_filter.unwrap_or(self.base.params.seg_filter),
            top_k: overrides.top_k.or(self.base.top_k),
        }
    }

    /// Materialize the effective `SearchConfig` for a signature.
    pub(crate) fn config_for(&self, sig: ConfigSig) -> SearchConfig {
        let mut c = self.base.clone();
        c.kind = match crate::proto::engine_from_wire(sig.kind_code) {
            Ok(kind) => kind,
            Err(_) => self.base.kind, // unreachable: sigs are built from valid kinds
        };
        c.params.evalue_cutoff = f64::from_bits(sig.evalue_bits);
        c.params.max_reported = sig.max_reported as usize;
        c.params.seg_filter = sig.seg;
        c.top_k = sig.top_k;
        c
    }
}

/// Fault site: a submission is refused `Overloaded` as if the admission
/// queue were full, regardless of its actual depth.
pub(crate) const FAULT_QUEUE_FULL: &str = "batcher.queue_full";
/// Fault site: a queued job is condemned at batch extraction as if its
/// deadline had passed (checked once per job per extraction).
pub(crate) const FAULT_EXPIRE: &str = "batcher.expire";

/// Batching and admission knobs.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Admission-queue capacity; requests beyond this get `Overloaded`.
    pub queue_cap: usize,
    /// Most requests coalesced into one engine dispatch.
    pub max_batch: usize,
    /// Longest a queued request waits for companions that recent traffic
    /// says may be coming: the forming window closes this long after the
    /// dispatcher last went idle (finished a dispatch, or was created), or
    /// after the head request's admission when that is earlier. So a
    /// request that finds the dispatcher idle for `max_delay` or longer is
    /// dispatched at once, while closed-loop clients, whose next requests
    /// arrive just after the replies that released them, still meet inside
    /// the window the end of that dispatch opens.
    pub max_delay: Duration,
    /// Stage-span tracing, off by default. When enabled, batches that
    /// contain a tracing request record per-stage spans and the stats
    /// frame grows per-stage latency digests.
    pub obsv: ObsvConfig,
    /// Log requests slower than this (µs, admission to reply) to stderr;
    /// 0 disables the slow-query log.
    pub slow_query_us: u64,
    /// Deterministic fault injection (`FAULT_QUEUE_FULL`,
    /// `FAULT_EXPIRE`, and — via dispatch — the engine's shard site).
    /// Unarmed (the default) costs one branch per check.
    pub faults: faultfn::Faults,
    /// Structured JSON event sink (`mublastpd --event-log`): slow
    /// queries (gated by `slow_query_us`), shard degradation, and cache
    /// pressure are appended per dispatched request. `None` (the
    /// default) logs nothing.
    pub event_log: Option<Arc<crate::events::EventLog>>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            queue_cap: 64,
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            obsv: ObsvConfig::off(),
            slow_query_us: 0,
            faults: faultfn::Faults::none(),
            event_log: None,
        }
    }
}

/// Successful batch output for one submitter: per-query results in
/// submission order, plus this request's spans when it asked to be
/// traced under a tracing daemon (an empty [`Trace`] otherwise).
#[derive(Clone, Debug)]
pub(crate) struct BatchOutput {
    pub results: Vec<QueryResult>,
    /// The trace id the request ran under (assigned at admission).
    pub trace_id: u64,
    pub trace: Trace,
    /// `Some` when the batch ran sharded and lost some (not all) shards:
    /// the results above cover only the surviving shards. Survivors are
    /// never re-scored — per-shard E-values use global statistics — so
    /// present rows are byte-identical to a fault-free run's.
    pub degraded: Option<Degraded>,
    /// Index blocks this request's batch fetched and searched (0 for
    /// exhaustive dispatches, which do not count blocks).
    pub blocks_scanned: u64,
    /// Index blocks the batch's top-k bound check pruned without a fetch.
    pub blocks_skipped: u64,
}

/// What a submitter eventually receives: per-query results in submission
/// order, or a typed error (deadline expiry, internal failure).
pub(crate) type BatchReply = Result<BatchOutput, WireError>;

/// Why a submission was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// Queue full; retry after the hinted back-off.
    Overloaded { retry_after_ms: u32 },
    /// The batcher is draining and accepts no new work.
    ShuttingDown,
}

struct Job {
    queries: Vec<Sequence>,
    sig: ConfigSig,
    reply: mpsc::Sender<BatchReply>,
    admitted: Instant,
    deadline: Option<Instant>,
    /// Assigned at admission; engine spans are rebased onto it.
    trace_id: u64,
    /// Whether the submitter wants its spans back with the results.
    want_trace: bool,
}

struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    opts: BatchOptions,
    ctx: Arc<SearchContext>,
    stats: Arc<ServeStats>,
    /// One session per daemon lifetime: the epoch all spans are relative
    /// to. Disabled sessions hand out recorders that never read the clock.
    session: TraceSession,
    /// Server-assigned trace ids (monotone from 1; 0 means "unassigned"
    /// on the wire, so the counter never yields it).
    next_trace: AtomicU64,
}

fn lock(queue: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn wait_timeout<'a>(
    cv: &Condvar,
    guard: MutexGuard<'a, QueueState>,
    dur: Duration,
) -> MutexGuard<'a, QueueState> {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// The admission queue plus its batch-forming worker thread.
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Start the batch-forming worker over a loaded search context.
    pub(crate) fn new(
        ctx: Arc<SearchContext>,
        opts: BatchOptions,
        stats: Arc<ServeStats>,
    ) -> Batcher {
        assert!(opts.queue_cap > 0, "queue_cap must be positive");
        assert!(opts.max_batch > 0, "max_batch must be positive");
        if let Some(info) = ctx.index.shard_info() {
            // Declare the shard layout once so stats frames carry one
            // row per shard from the first snapshot on.
            stats.init_shards(&info);
        }
        // Declare what the index costs in memory, so stats frames answer
        // "how much RAM does the database take" from the first snapshot:
        // resident variants pin their decoded bytes for the daemon's
        // lifetime; the streaming variant hands over its live block cache.
        match &ctx.index {
            ResidentIndex::Single(index) => stats.set_index_memory(index.memory_bytes() as u64),
            ResidentIndex::Sharded(sharded) => stats.set_index_memory(
                sharded.shards().iter().map(|s| s.index.memory_bytes() as u64).sum(),
            ),
            ResidentIndex::Streaming(streaming) => {
                stats.set_block_cache(Arc::clone(streaming.cache()));
            }
        }
        let session = TraceSession::new(opts.obsv);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            opts,
            ctx,
            stats,
            session,
            next_trace: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        // Idle since now, not since whenever the thread first runs.
        let created = Instant::now();
        let worker = std::thread::spawn(move || worker_loop(&worker_shared, created));
        Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// [`Batcher::submit_traced`] with a batcher-assigned trace id and no
    /// spans requested.
    #[cfg(test)]
    pub(crate) fn submit(
        &self,
        queries: Vec<Sequence>,
        kind: EngineKind,
        overrides: &ParamOverrides,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<BatchReply>, SubmitError> {
        self.submit_traced(queries, kind, overrides, deadline, 0, false)
            .map(|(rx, _)| rx)
    }

    /// Submit one request. On admission, returns the receiver the reply
    /// will arrive on (the batcher answers every admitted job, even
    /// during a drain). On refusal, returns immediately. `trace_id` 0
    /// asks the batcher to assign one (returned alongside the receiver);
    /// `want_trace` requests this job's spans back in its
    /// [`BatchOutput`].
    pub(crate) fn submit_traced(
        &self,
        queries: Vec<Sequence>,
        kind: EngineKind,
        overrides: &ParamOverrides,
        deadline: Option<Duration>,
        trace_id: u64,
        want_trace: bool,
    ) -> Result<(mpsc::Receiver<BatchReply>, u64), SubmitError> {
        let sig = self.shared.ctx.sig(kind, overrides);
        let trace_id = if trace_id != 0 {
            trace_id
        } else {
            self.shared.next_trace.fetch_add(1, Ordering::SeqCst) + 1
        };
        let mut state = lock(&self.shared.queue);
        if state.draining {
            return Err(SubmitError::ShuttingDown);
        }
        // The fault check runs first so the site's occurrence count is
        // "submissions seen", independent of queue depth.
        // lint: allow(lock-across-fire): Faults::fire is a pair of atomic
        // counter ops — it cannot block or take a lock under `queue`.
        let injected_full = self.shared.opts.faults.fire(FAULT_QUEUE_FULL);
        if injected_full || state.jobs.len() >= self.shared.opts.queue_cap {
            drop(state);
            self.shared.stats.on_reject();
            return Err(SubmitError::Overloaded {
                retry_after_ms: self.retry_hint_ms(),
            });
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        state.jobs.push_back(Job {
            queries,
            sig,
            reply: tx,
            admitted: now,
            deadline: deadline.map(|d| now + d),
            trace_id,
            want_trace,
        });
        let depth = state.jobs.len();
        drop(state);
        self.shared.stats.on_admit(depth);
        self.shared.cv.notify_all();
        Ok((rx, trace_id))
    }

    /// Requests currently waiting in the queue.
    pub(crate) fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Configured admission capacity.
    pub(crate) fn queue_cap(&self) -> usize {
        self.shared.opts.queue_cap
    }

    /// Suggested client back-off when refused: one forming window plus
    /// slack.
    fn retry_hint_ms(&self) -> u32 {
        u32::try_from(self.shared.opts.max_delay.as_millis())
            .unwrap_or(u32::MAX)
            .saturating_add(10)
    }

    /// Stop admitting, dispatch everything already queued, and join the
    /// worker. Idempotent; safe to call from several threads.
    pub(crate) fn shutdown(&self) {
        {
            let mut state = lock(&self.shared.queue);
            state.draining = true;
        }
        self.shared.cv.notify_all();
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Remove queued jobs whose deadline has passed — or that the
/// [`FAULT_EXPIRE`] site condemns — preserving the order of the rest.
/// With nothing to remove, which is what nearly every wake of the forming
/// loop finds, the queue is only read: nothing moves, nothing is allocated.
///
/// This runs *before* batch extraction, so a dead job never takes a batch
/// slot, a dead head with a different [`ConfigSig`] never splits its live
/// companions into separate batches, and a drain counts the dead as
/// `expired`, never as served.
fn split_expired(jobs: &mut VecDeque<Job>, now: Instant, faults: &faultfn::Faults) -> Vec<Job> {
    let mut expired = Vec::new();
    let mut i = 0;
    while i < jobs.len() {
        if jobs[i].deadline.is_some_and(|d| now >= d) || faults.fire(FAULT_EXPIRE) {
            expired.extend(jobs.remove(i));
        } else {
            i += 1;
        }
    }
    expired
}

/// Answer each expired job with a typed `DeadlineExceeded` and count it.
fn reject_expired(shared: &Shared, expired: Vec<Job>, now: Instant) {
    for job in expired {
        shared.stats.on_expire();
        let waited = now.saturating_duration_since(job.admitted);
        let _ = job.reply.send(Err(WireError {
            code: ErrorCode::DeadlineExceeded,
            message: format!("deadline passed after {} ms in queue", waited.as_millis()),
            retry_after_ms: 0,
        }));
    }
}

/// Extract the dispatch set: the longest queue prefix sharing the head
/// request's configuration (prefix order keeps FIFO fairness — a
/// differently-configured head is never starved by later arrivals).
fn take_batch(jobs: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let sig = jobs.front().map(|j| j.sig);
    let same = |j: &&Job| Some(j.sig) == sig;
    let n = jobs.iter().take(max_batch).take_while(same).count();
    jobs.drain(..n).collect()
}

/// When the forming window over a head request admitted at `head` closes
/// ([`BatchOptions::max_delay`]). `idle_since` is when the dispatcher last
/// ran out of work. `bet_lost`: the dispatch that ended there was an
/// [`Trigger::Idle`] one, a bet that its request was alone. A head that
/// arrived while it ran shows a burst or a closed loop released together,
/// so the window re-opens in full and the traffic re-forms its batch; held
/// only to its admission plus `max_delay` the head would leave at once,
/// one request out of phase with such clients for good.
fn window(idle_since: Instant, bet_lost: bool, head: Instant, max_delay: Duration) -> Instant {
    idle_since.min(if bet_lost { idle_since } else { head }) + max_delay
}

fn worker_loop(shared: &Shared, mut idle_since: Instant) {
    let mut bet = false; // the previous dispatch was an `Idle` one
    loop {
        let mut state = lock(&shared.queue);
        // Wait for work; an empty queue under drain means we are done.
        while state.jobs.is_empty() {
            if state.draining {
                return;
            }
            state = wait(&shared.cv, state);
        }
        // Forming window: coalesce until max_batch companions are queued,
        // a drain flushes the queue, or the window closes. The wake time
        // is the *earlier* of the window end and the earliest queued
        // deadline, so expiry is answered promptly instead of aging out
        // the whole window first.
        let trigger = loop {
            if state.draining {
                break Trigger::Drain;
            }
            if state.jobs.len() >= shared.opts.max_batch {
                break Trigger::Full;
            }
            let now = Instant::now();
            // lint: allow(lock-across-fire): `Faults::none()` never fires,
            // and Faults::fire is atomics-only in any case.
            let expired = split_expired(&mut state.jobs, now, &faultfn::Faults::none());
            if !expired.is_empty() {
                // Answer the dead with the queue lock released: the reply
                // receiver may react immediately (in-process loopback) and
                // must not contend with this worker for `queue`.
                drop(state);
                reject_expired(shared, expired, now);
                state = lock(&shared.queue);
                continue;
            }
            let Some(head) = state.jobs.front().map(|j| j.admitted) else {
                break Trigger::Aged; // everything queued had expired
            };
            let formed_by = window(idle_since, bet, head, shared.opts.max_delay);
            if now >= formed_by {
                // Closed before the head even arrived ⇔ nothing was held.
                let idle = formed_by <= head;
                break if idle { Trigger::Idle } else { Trigger::Aged };
            }
            let wake = state
                .jobs
                .iter()
                .filter_map(|j| j.deadline)
                .fold(formed_by, Instant::min);
            state = wait_timeout(&shared.cv, state, wake.saturating_duration_since(now));
        };
        // Extraction: reject the dead first (with fault injection, so the
        // chaos suite can condemn arbitrary queued jobs), then batch the
        // live prefix.
        let now = Instant::now();
        // lint: allow(lock-across-fire): Faults::fire is atomics-only and
        // cannot block while `queue` is held.
        let expired = split_expired(&mut state.jobs, now, &shared.opts.faults);
        let batch = take_batch(&mut state.jobs, shared.opts.max_batch);
        drop(state);
        reject_expired(shared, expired, now);
        if !batch.is_empty() {
            shared.stats.on_dispatch(trigger);
            dispatch(shared, batch);
            (idle_since, bet) = (Instant::now(), trigger == Trigger::Idle);
        }
    }
}

/// Fold one sharded (resident or streaming) dispatch into the stats
/// counters and the `(results, trace, loss)` triple `dispatch` threads to
/// the demultiplexer.
#[allow(
    clippy::type_complexity,
    reason = "the sharded reply tuple is read once, here"
)]
fn absorb_sharded(
    shared: &Shared,
    out: engine::ShardedOutput,
    shard_count: usize,
) -> (
    Vec<QueryResult>,
    Trace,
    Option<(Vec<engine::ShardFailure>, usize, usize, usize)>,
    engine::TopKStats,
) {
    shared.stats.on_shard_batch(&out.timings);
    shared.stats.on_shard_failures(&out.failed);
    let loss = (!out.failed.is_empty())
        .then_some((out.failed, out.covered_residues, out.total_residues, shard_count));
    (out.results, out.trace, loss, out.topk)
}

fn dispatch(shared: &Shared, mut live: Vec<Job>) {
    let now = Instant::now();
    // One coalesced engine run over the concatenated queries. Tracing is
    // per batch: the engine records only when some member asked for spans
    // (a disabled session costs a branch per stage).
    let sizes: Vec<usize> = live.iter().map(|j| j.queries.len()).collect();
    let waits: Vec<Duration> = live
        .iter()
        .map(|j| now.saturating_duration_since(j.admitted))
        .collect();
    let mut all_queries: Vec<Sequence> = Vec::with_capacity(sizes.iter().sum());
    for job in &mut live {
        all_queries.append(&mut job.queries);
    }
    let mut config = shared.ctx.config_for(live[0].sig);
    // The batch's effective deadline: shards may be cancelled only once
    // *every* member is past due, so it is the latest member deadline —
    // and unbounded if any member has none.
    config.deadline = if live.iter().all(|j| j.deadline.is_some()) {
        live.iter().filter_map(|j| j.deadline).max()
    } else {
        None
    };
    config.faults = shared.opts.faults.clone();
    let session = if shared.session.is_enabled() && live.iter().any(|j| j.want_trace) {
        shared.session
    } else {
        TraceSession::disabled()
    };
    // Cache-pressure detection (streaming contexts under an event log):
    // evictions during this dispatch mean the batch's working set no
    // longer fits the block-cache budget.
    let cache_before = match &shared.ctx.index {
        ResidentIndex::Streaming(streaming) if shared.opts.event_log.is_some() => {
            let cache = Arc::clone(streaming.cache());
            let before = cache.counters().snapshot();
            Some((cache, before))
        }
        _ => None,
    };
    let searched_at = Instant::now();
    let (results, mut trace, shard_loss, topk) = match &shared.ctx.index {
        ResidentIndex::Single(index) => {
            // A resident index cannot fail to fetch (`Error = Infallible`).
            let Ok(out) = engine::search_batch_blocks(
                &shared.ctx.db,
                index,
                &shared.ctx.neighbors,
                &all_queries,
                &config,
                None,
                &session,
            );
            (out.results, out.trace, None, out.topk)
        }
        ResidentIndex::Sharded(sharded) => {
            let shard_count = sharded.shards().len();
            let out = engine::search_batch_sharded_traced(
                sharded,
                &shared.ctx.neighbors,
                &all_queries,
                &config,
                &session,
            );
            absorb_sharded(shared, out, shard_count)
        }
        ResidentIndex::Streaming(streaming) => {
            // Same dispatch/degradation/merge machinery through the
            // engine's backend seam — blocks stream through the cache
            // instead of living resident, and storage failures degrade
            // exactly like lost shards.
            let shard_count = streaming.shards().len();
            let out = engine::search_batch_backend_traced(
                streaming,
                &shared.ctx.neighbors,
                &all_queries,
                &config,
                &session,
            );
            absorb_sharded(shared, out, shard_count)
        }
    };
    let search_done = Instant::now();
    shared
        .stats
        .on_batch(live.len(), &waits, search_done - searched_at);
    if config.top_k.is_some() {
        shared
            .stats
            .on_topk(live.len() as u64, topk.blocks_scanned, topk.blocks_skipped);
    }
    shared.stats.on_kernel(
        config.params.kernel.use_striped(),
        live.len() as u64,
        align::gapped_rescues(),
    );
    // One cache-pressure event per dispatch that evicted, attributed to
    // the batch head's trace (members share the dispatch, and therefore
    // the pressure).
    if let (Some(log), Some((cache, before))) = (&shared.opts.event_log, &cache_before) {
        let cs = cache.counters().snapshot();
        let evicted = cs.evictions.saturating_sub(before.evictions);
        if evicted > 0 {
            log.cache_pressure(
                live[0].trace_id,
                evicted,
                cs.resident_bytes,
                cs.hits.saturating_sub(before.hits),
                cs.misses.saturating_sub(before.misses),
            );
        }
    }
    // Total shard loss means there is nothing to demultiplex: answer every
    // member with a typed error (deadline expiry when that is what killed
    // every shard, internal failure otherwise). Partial loss degrades the
    // batch instead — survivors' rows ship, tagged with what is missing.
    let degraded = match &shard_loss {
        Some((failed, _, _, shard_count)) if failed.len() == *shard_count => {
            let all_deadline = failed
                .iter()
                .all(|f| f.cause == ShardFailCause::DeadlineExceeded);
            let (code, message) = if all_deadline {
                (ErrorCode::DeadlineExceeded, "deadline passed before any shard finished")
            } else {
                (ErrorCode::Internal, "every database shard failed")
            };
            for job in &live {
                if all_deadline {
                    shared.stats.on_expire();
                }
                let _ = job.reply.send(Err(WireError {
                    code,
                    message: message.to_string(),
                    retry_after_ms: 0,
                }));
            }
            return;
        }
        Some((failed, covered, total, _)) => Some(Degraded {
            failed_shards: failed.iter().map(|f| f.shard as u32).collect(),
            coverage_residues: *covered as u64,
            total_residues: *total as u64,
        }),
        None => None,
    };
    // Every member's answer is degraded, so every member gets its own
    // event line (joinable against its exported spans by trace ID).
    if let (Some(log), Some((failed, covered, total, _))) = (&shared.opts.event_log, &shard_loss) {
        for job in &live {
            log.shard_degradation(job.trace_id, failed, *covered as u64, *total as u64);
        }
    }
    // Engine spans were recorded against batch-local query slots under
    // trace id 0; rebase them onto the per-request ids.
    let ids: Vec<u64> = live.iter().map(|j| j.trace_id).collect();
    trace.assign_trace_ids(&sizes, &ids);
    // Request-level spans: queue wait, the (shared) engine run, and the
    // whole admission-to-reply window, one set per member.
    let replied_at = Instant::now();
    let mut rec = session.recorder();
    for job in &live {
        rec.set_ctx(job.trace_id, NO_QUERY, NO_BLOCK);
        rec.record_between(Stage::QueueWait, job.admitted, now);
        rec.record_between(Stage::Search, searched_at, search_done);
        rec.record_between(Stage::Request, job.admitted, replied_at);
    }
    trace.absorb(rec);
    trace.normalize();
    shared.stats.on_trace(&trace);
    let parts = trace.partition_by_trace(&ids);
    // Demultiplex: split the combined results at the submission
    // boundaries and route each slice back to its submitter.
    for (i, ((job, part), spans)) in live
        .iter()
        .zip(split_batch(results, &sizes))
        .zip(parts)
        .enumerate()
    {
        let total = job.admitted.elapsed();
        if shared.opts.slow_query_us > 0 && total.as_micros() >= shared.opts.slow_query_us.into() {
            shared.stats.on_slow_query();
            let total_us = u64::try_from(total.as_micros()).unwrap_or(u64::MAX);
            if let Some(log) = &shared.opts.event_log {
                log.slow_query(job.trace_id, total_us, shared.opts.slow_query_us);
            }
            eprintln!(
                "[slow-query] trace={} queries={} wait_us={} search_us={} total_us={}",
                job.trace_id,
                sizes[i],
                waits[i].as_micros(),
                (search_done - searched_at).as_micros(),
                total.as_micros(),
            );
        }
        shared.stats.on_complete(total);
        if degraded.is_some() {
            shared.stats.on_degraded();
        }
        let _ = job.reply.send(Ok(BatchOutput {
            results: part,
            trace_id: job.trace_id,
            trace: if job.want_trace { spans } else { Trace::new() },
            degraded: degraded.clone(),
            blocks_scanned: topk.blocks_scanned,
            blocks_skipped: topk.blocks_skipped,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbindex::IndexConfig;
    use scoring::BLOSUM62;

    fn fixture_db() -> SequenceDb {
        [
            "MARNDWWWCQEG",
            "WWWHILKMFPST",
            "ARNDARNDARND",
            "MKVLAARNDGG",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
        .collect()
    }

    fn context_with(index: ResidentIndex, db: SequenceDb) -> Arc<SearchContext> {
        let neighbors = NeighborTable::build(&BLOSUM62, 11);
        let mut base = SearchConfig::new(EngineKind::MuBlastp);
        base.params.evalue_cutoff = 1e9;
        Arc::new(SearchContext {
            db,
            index,
            neighbors,
            base,
        })
    }

    fn context() -> Arc<SearchContext> {
        let db = fixture_db();
        let index = ResidentIndex::Single(DbIndex::build(&db, &IndexConfig::default()));
        context_with(index, db)
    }

    fn sharded_context(shards: usize) -> Arc<SearchContext> {
        let db = fixture_db();
        let index = ResidentIndex::Sharded(dbindex::ShardedIndex::build(
            &db,
            &IndexConfig::default(),
            shards,
        ));
        context_with(index, db)
    }

    fn query(ctx: &SearchContext, i: u32) -> Vec<Sequence> {
        vec![Sequence::from_encoded(
            format!("q{i}"),
            ctx.db.get(i).residues().to_vec(),
        )]
    }

    #[test]
    fn submit_and_receive() {
        let ctx = context();
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let rx = batcher.submit(
            query(&ctx, 0),
            EngineKind::MuBlastp,
            &Default::default(),
            None,
        );
        let out = rx.unwrap().recv().unwrap().unwrap();
        assert_eq!(out.results.len(), 1);
        assert!(out.results[0].alignments.iter().any(|a| a.subject == 0));
        assert!(out.trace_id > 0, "every admission gets a trace id");
        assert!(out.trace.is_empty(), "tracing is off by default");
    }

    /// A sharded context answers with exactly the bytes the monolithic
    /// context produces, and every dispatch feeds the per-shard stats
    /// rows (one row per shard, counted once per dispatched batch).
    #[test]
    fn sharded_context_matches_single_and_feeds_shard_rows() {
        let opts = BatchOptions {
            queue_cap: 8,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..BatchOptions::default()
        };
        let single_ctx = context();
        let single = Batcher::new(Arc::clone(&single_ctx), opts.clone(), Arc::new(ServeStats::new()));
        let stats = Arc::new(ServeStats::new());
        let sharded_ctx = sharded_context(3);
        let sharded = Batcher::new(Arc::clone(&sharded_ctx), opts, Arc::clone(&stats));
        for i in 0..4u32 {
            let rx_a = single
                .submit(
                    query(&single_ctx, i),
                    EngineKind::MuBlastp,
                    &Default::default(),
                    None,
                )
                .unwrap();
            let rx_b = sharded
                .submit(
                    query(&sharded_ctx, i),
                    EngineKind::MuBlastp,
                    &Default::default(),
                    None,
                )
                .unwrap();
            let a = rx_a.recv().unwrap().unwrap();
            let b = rx_b.recv().unwrap().unwrap();
            assert_eq!(a.results, b.results, "query {i}");
        }
        let report = stats.snapshot(0, 8);
        assert_eq!(report.shards.len(), 3, "one stats row per shard");
        let total_seqs: u64 = report.shards.iter().map(|s| s.seqs).sum();
        assert_eq!(total_seqs, sharded_ctx.db.len() as u64);
        for row in &report.shards {
            assert_eq!(
                row.search.count, report.batches,
                "every dispatch touches every shard"
            );
            assert_eq!(row.queued.count, row.search.count);
        }
    }

    /// A streaming (out-of-core) context answers with exactly the bytes
    /// the monolithic context produces, and the stats frame reports the
    /// block cache instead of pinned index bytes.
    #[test]
    fn streaming_context_matches_single_and_reports_cache_stats() {
        let opts = BatchOptions {
            queue_cap: 8,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..BatchOptions::default()
        };
        let single_ctx = context();
        let single =
            Batcher::new(Arc::clone(&single_ctx), opts.clone(), Arc::new(ServeStats::new()));

        let db = fixture_db();
        let dir = std::env::temp_dir()
            .join(format!("mublastp_batcher_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = Arc::new(blockstore::BlockCache::new(1 << 20));
        let streaming = blockstore::StreamingShards::build_in_dir(
            &db,
            &IndexConfig::default(),
            2,
            &dir,
            Arc::clone(&cache),
            &faultfn::Faults::none(),
        )
        .unwrap();
        let streaming_ctx = context_with(ResidentIndex::Streaming(streaming), db);
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(Arc::clone(&streaming_ctx), opts, Arc::clone(&stats));

        for i in 0..4u32 {
            let a = single
                .submit(query(&single_ctx, i), EngineKind::MuBlastp, &Default::default(), None)
                .unwrap()
                .recv()
                .unwrap()
                .unwrap();
            let b = batcher
                .submit(query(&streaming_ctx, i), EngineKind::MuBlastp, &Default::default(), None)
                .unwrap()
                .recv()
                .unwrap()
                .unwrap();
            assert_eq!(a.results, b.results, "query {i}");
            assert!(b.degraded.is_none(), "no faults → no degradation");
        }
        let report = stats.snapshot(0, 8);
        assert_eq!(report.shards.len(), 2, "one stats row per disk shard");
        assert_eq!(report.cache_budget_bytes, 1 << 20);
        assert!(report.cache_misses > 0, "blocks were fetched from disk");
        assert!(report.cache_used_bytes > 0, "fetched blocks stay cached");
        assert_eq!(
            report.index_resident_bytes, report.cache_used_bytes,
            "out-of-core: only the cache holds decoded index bytes"
        );
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_submission_gets_its_own_spans_back() {
        let ctx = context();
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                obsv: ObsvConfig::on(),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let (rx, assigned) = batcher
            .submit_traced(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
                0,
                true,
            )
            .unwrap();
        assert!(assigned > 0);
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(out.trace_id, assigned);
        assert!(!out.trace.is_empty());
        assert!(out.trace.spans.iter().all(|s| s.trace_id == assigned));
        for stage in [Stage::QueueWait, Stage::Search, Stage::Request, Stage::Seed] {
            assert!(
                out.trace.spans.iter().any(|s| s.stage == stage),
                "missing {stage:?} span"
            );
        }
        // The request span covers its queue wait and the engine run.
        let req = out
            .trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Request)
            .unwrap();
        for s in &out.trace.spans {
            assert!(s.start_ns >= req.start_ns, "{:?} starts before Request", s.stage);
            assert!(
                s.start_ns + s.dur_ns <= req.start_ns + req.dur_ns,
                "{:?} ends after Request",
                s.stage
            );
        }
    }

    #[test]
    fn untraced_neighbors_in_a_traced_batch_get_no_spans() {
        let ctx = context();
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            // A generous forming window so both submissions share a batch.
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(300),
                obsv: ObsvConfig::on(),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let (rx_plain, id_plain) = batcher
            .submit_traced(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
                0,
                false,
            )
            .unwrap();
        let (rx_traced, id_traced) = batcher
            .submit_traced(
                query(&ctx, 1),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
                0,
                true,
            )
            .unwrap();
        assert_ne!(id_plain, id_traced);
        let plain = rx_plain.recv().unwrap().unwrap();
        let traced = rx_traced.recv().unwrap().unwrap();
        assert!(plain.trace.is_empty(), "did not ask for spans");
        assert!(!traced.trace.is_empty());
        assert!(traced.trace.spans.iter().all(|s| s.trace_id == id_traced));
    }

    #[test]
    fn overflow_is_refused_with_hint() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            // A long forming window keeps jobs queued while we overflow.
            BatchOptions {
                queue_cap: 2,
                max_batch: 8,
                max_delay: Duration::from_secs(5),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        let _rx1 = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        let _rx2 = batcher
            .submit(
                query(&ctx, 1),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        match batcher.submit(
            query(&ctx, 2),
            EngineKind::MuBlastp,
            &Default::default(),
            None,
        ) {
            Err(SubmitError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert!(batcher.queue_depth() <= batcher.queue_cap());
        batcher.shutdown(); // drains the two queued jobs
        assert_eq!(stats.snapshot(0, 2).rejected, 1);
    }

    #[test]
    fn drain_answers_queued_jobs() {
        let ctx = context();
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 8,
                max_delay: Duration::from_secs(5),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let rx1 = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        let rx2 = batcher
            .submit(
                query(&ctx, 1),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        batcher.shutdown();
        assert!(rx1.recv().unwrap().is_ok());
        assert!(rx2.recv().unwrap().is_ok());
        match batcher.submit(
            query(&ctx, 2),
            EngineKind::MuBlastp,
            &Default::default(),
            None,
        ) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| ())),
        }
    }

    /// A 300 ms forming window: far longer than any step of the tests
    /// below takes, so which side of it a request lands on is decided by
    /// the sleeps they make, not by scheduling.
    const WINDOW: Duration = Duration::from_millis(300);

    fn windowed_batcher(ctx: &Arc<SearchContext>, stats: &Arc<ServeStats>) -> Batcher {
        Batcher::new(
            Arc::clone(ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 8,
                max_delay: WINDOW,
                obsv: ObsvConfig::on(),
                ..BatchOptions::default()
            },
            Arc::clone(stats),
        )
    }

    /// `[idle, aged, full, drain]` dispatch counts.
    fn triggers(stats: &ServeStats) -> [u64; 4] {
        obsv::metrics::TRIGGERS.map(|t| {
            stats
                .registry()
                .value_for(obsv::metrics::names::DISPATCHES_BY_TRIGGER, t)
        })
    }

    fn submit_traced(batcher: &Batcher, ctx: &SearchContext, i: u32) -> mpsc::Receiver<BatchReply> {
        batcher
            .submit_traced(
                query(ctx, i),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
                0,
                true,
            )
            .unwrap()
            .0
    }

    fn queue_wait(out: &BatchOutput) -> Duration {
        let span = out
            .trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::QueueWait)
            .unwrap();
        Duration::from_nanos(span.dur_ns)
    }

    /// The window is anchored where the dispatcher last went idle. A lone
    /// request that finds it idle for a whole window — since creation, or
    /// since the previous dispatch — is dispatched at once; requests sent
    /// right after a dispatch (what closed-loop clients do) land inside the
    /// window that dispatch opened and share one batch.
    #[test]
    fn idle_dispatcher_serves_at_once_and_recent_traffic_reopens_the_window() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = windowed_batcher(&ctx, &stats);
        std::thread::sleep(WINDOW);
        let lone = submit_traced(&batcher, &ctx, 0).recv().unwrap().unwrap();
        assert_eq!(triggers(&stats), [1, 0, 0, 0]);
        assert!(
            queue_wait(&lone) < WINDOW / 3,
            "held {:?}",
            queue_wait(&lone)
        );

        let (rx_a, rx_b) = (
            submit_traced(&batcher, &ctx, 1),
            submit_traced(&batcher, &ctx, 2),
        );
        assert!(rx_a.recv().unwrap().is_ok() && rx_b.recv().unwrap().is_ok());
        assert_eq!(triggers(&stats), [1, 1, 0, 0]);
        assert_eq!(
            stats.snapshot(0, 8).batch_hist,
            vec![1, 1],
            "one batch of 1, one of 2"
        );

        // A generous margin past the window: `idle_since` is read after the
        // replies above were sent.
        std::thread::sleep(WINDOW + WINDOW / 2);
        let again = submit_traced(&batcher, &ctx, 3).recv().unwrap().unwrap();
        assert_eq!(triggers(&stats), [2, 1, 0, 0]);
        assert!(queue_wait(&again) < WINDOW / 3);
    }

    /// The window rule, exactly: a head admitted after the dispatcher went
    /// idle waits until `idle_since + max_delay` — not at all if that has
    /// passed; one admitted before keeps `admitted + max_delay` — unless it
    /// arrived during an at-once dispatch, which re-opens a full window.
    #[test]
    fn window_is_anchored_where_the_dispatcher_went_idle() {
        let (t, w) = (Instant::now(), WINDOW);
        for bet in [false, true] {
            for head in [t + w / 10, t + w, t + 3 * w] {
                assert_eq!(window(t, bet, head, w), t + w);
            }
        }
        assert_eq!(window(t + 5 * w, false, t + w, w), t + 2 * w);
        assert_eq!(window(t + 5 * w, true, t + w, w), t + 6 * w);
    }

    /// A request admitted before the dispatcher went idle — here, queued
    /// behind a head whose configuration it cannot share, so it sits out
    /// that head's whole window and dispatch — is held until its *own*
    /// admission plus `max_delay`, not for a second window counted from the
    /// end of that dispatch.
    #[test]
    fn request_admitted_before_the_dispatcher_went_idle_keeps_its_own_window() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = windowed_batcher(&ctx, &stats);
        let strict = ParamOverrides {
            evalue_cutoff: Some(1e-30),
            ..Default::default()
        };
        let head = submit_traced(&batcher, &ctx, 0);
        let behind = batcher
            .submit_traced(query(&ctx, 1), EngineKind::MuBlastp, &strict, None, 0, true)
            .unwrap()
            .0;
        head.recv().unwrap().unwrap();
        let behind = behind.recv().unwrap().unwrap();
        assert_eq!(triggers(&stats), [0, 2, 0, 0]);
        let held = queue_wait(&behind);
        assert!(
            held < WINDOW + WINDOW / 2,
            "held {held:?}: a second window was opened"
        );
    }

    #[test]
    fn full_and_drain_triggers_are_counted() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 2,
                max_delay: Duration::from_secs(30),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        let rx: Vec<_> = (0..3)
            .map(|i| {
                batcher
                    .submit(
                        query(&ctx, i),
                        EngineKind::MuBlastp,
                        &Default::default(),
                        None,
                    )
                    .unwrap()
            })
            .collect();
        assert!(rx[0].recv().unwrap().is_ok() && rx[1].recv().unwrap().is_ok());
        batcher.shutdown();
        assert!(rx[2].recv().unwrap().is_ok());
        assert_eq!(triggers(&stats), [0, 0, 1, 1]);
    }

    #[test]
    fn expired_deadline_gets_typed_error() {
        let ctx = context();
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 8,
                max_delay: Duration::from_millis(200),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let rx = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        let reply = rx.recv().unwrap();
        match reply {
            Err(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            Ok(_) => panic!("deadline should have expired during the forming window"),
        }
    }

    fn job_with(ctx: &SearchContext, i: u32, overrides: &ParamOverrides, deadline: Option<Instant>) -> Job {
        let (tx, _rx) = mpsc::channel();
        // The test keeps no receiver: send() failing is fine for the
        // extraction-semantics tests below.
        Job {
            queries: query(ctx, i),
            sig: ctx.sig(EngineKind::MuBlastp, overrides),
            reply: tx,
            admitted: Instant::now(),
            deadline,
            trace_id: u64::from(i) + 1,
            want_trace: false,
        }
    }

    /// Regression for the latent expiry bug: an expired job used to be
    /// rejected only *after* extraction, so it consumed a batch slot —
    /// here, max_batch=2 would have dispatched [expired, live] and left
    /// the second live job for a second batch.
    #[test]
    fn expired_job_does_not_consume_a_batch_slot() {
        let ctx = context();
        let past = Instant::now() - Duration::from_millis(5);
        let mut jobs: VecDeque<Job> = VecDeque::new();
        jobs.push_back(job_with(&ctx, 0, &Default::default(), Some(past)));
        jobs.push_back(job_with(&ctx, 1, &Default::default(), None));
        jobs.push_back(job_with(&ctx, 2, &Default::default(), None));
        let expired = split_expired(&mut jobs, Instant::now(), &faultfn::Faults::none());
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].trace_id, 1, "the dead head was removed");
        let batch = take_batch(&mut jobs, 2);
        assert_eq!(batch.len(), 2, "both live jobs share the one batch");
        assert_eq!(batch[0].trace_id, 2);
        assert_eq!(batch[1].trace_id, 3);
        assert!(jobs.is_empty());
    }

    /// Second face of the same bug: a dead head with a *different*
    /// configuration used to split its live companions into separate
    /// batches (prefix extraction stopped at the sig boundary).
    #[test]
    fn expired_head_with_foreign_sig_does_not_split_live_companions() {
        let ctx = context();
        let strict = ParamOverrides {
            evalue_cutoff: Some(1e-30),
            ..Default::default()
        };
        let past = Instant::now() - Duration::from_millis(5);
        let mut jobs: VecDeque<Job> = VecDeque::new();
        jobs.push_back(job_with(&ctx, 0, &strict, Some(past)));
        jobs.push_back(job_with(&ctx, 1, &Default::default(), None));
        jobs.push_back(job_with(&ctx, 2, &Default::default(), None));
        let expired = split_expired(&mut jobs, Instant::now(), &faultfn::Faults::none());
        assert_eq!(expired.len(), 1);
        let batch = take_batch(&mut jobs, 8);
        assert_eq!(batch.len(), 2, "live companions stay coalesced");
    }

    /// Fault injection can condemn a queued job as if its deadline had
    /// passed, deterministically by extraction occurrence.
    #[test]
    fn injected_expiry_condemns_by_occurrence() {
        let ctx = context();
        let faults = faultfn::FaultPlan::new(9)
            .with(FAULT_EXPIRE, faultfn::Schedule::Nth(1))
            .build();
        let mut jobs: VecDeque<Job> = VecDeque::new();
        for i in 0..3 {
            jobs.push_back(job_with(&ctx, i, &Default::default(), None));
        }
        let expired = split_expired(&mut jobs, Instant::now(), &faults);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].trace_id, 2, "second occurrence condemned");
        assert_eq!(jobs.len(), 2);
    }

    /// Drain answers expired jobs with the typed error and never counts
    /// them as served.
    #[test]
    fn drain_rejects_expired_without_serving_them() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 8,
                max_delay: Duration::from_secs(5),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        let rx_dead = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                Some(Duration::ZERO),
            )
            .unwrap();
        let rx_live = batcher
            .submit(
                query(&ctx, 1),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        batcher.shutdown();
        match rx_dead.recv().unwrap() {
            Err(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            Ok(_) => panic!("expired job must not be served"),
        }
        assert!(rx_live.recv().unwrap().is_ok());
        let report = stats.snapshot(0, 8);
        assert_eq!(report.expired, 1);
        assert_eq!(report.completed, 1, "only the live job counts as served");
    }

    #[test]
    fn injected_queue_full_refuses_at_the_door() {
        let ctx = context();
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                faults: faultfn::FaultPlan::new(1)
                    .with(FAULT_QUEUE_FULL, faultfn::Schedule::Nth(0))
                    .build(),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        match batcher.submit(
            query(&ctx, 0),
            EngineKind::MuBlastp,
            &Default::default(),
            None,
        ) {
            Err(SubmitError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected injected Overloaded, got {:?}", other.map(|_| ())),
        }
        let rx = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .expect("only the first submission is condemned");
        assert!(rx.recv().unwrap().is_ok());
        assert_eq!(stats.snapshot(0, 8).rejected, 1);
    }

    /// One injected shard failure degrades the answer instead of killing
    /// it: survivors' results ship, tagged with the missing coverage.
    #[test]
    fn injected_shard_failure_degrades_the_batch() {
        let ctx = sharded_context(3);
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                faults: faultfn::FaultPlan::new(7)
                    .with(engine::FAULT_SHARD, faultfn::Schedule::Nth(1))
                    .build(),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        let rx = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        let out = rx.recv().unwrap().expect("partial loss still answers");
        let degraded = out.degraded.expect("response is tagged degraded");
        assert_eq!(degraded.failed_shards, vec![1], "shard 1 was condemned");
        assert!(degraded.coverage_residues < degraded.total_residues);
        let report = stats.snapshot(0, 8);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.shards[1].failures, 1);
        assert_eq!(report.shards[0].failures, 0);
    }

    /// With an event log attached, a degraded dispatch of a slow (by a
    /// 1 µs threshold) request appends both event kinds, each carrying
    /// the request's trace ID, and the registry counts them as logged.
    #[test]
    fn event_log_records_slow_queries_and_degradation() {
        let ctx = sharded_context(3);
        let stats = Arc::new(ServeStats::new());
        let dir = std::env::temp_dir()
            .join(format!("mublastp_batcher_events_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let log =
            Arc::new(crate::events::EventLog::create(&path, stats.registry()).unwrap());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                slow_query_us: 1, // every request trips the threshold
                faults: faultfn::FaultPlan::new(7)
                    .with(engine::FAULT_SHARD, faultfn::Schedule::Nth(1))
                    .build(),
                event_log: Some(Arc::clone(&log)),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        let rx = batcher
            .submit(query(&ctx, 0), EngineKind::MuBlastp, &Default::default(), None)
            .unwrap();
        let out = rx.recv().unwrap().expect("partial loss still answers");
        assert!(out.degraded.is_some());
        let text = std::fs::read_to_string(&path).unwrap();
        let degr: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"shard_degradation\""))
            .collect();
        let slow: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"slow_query\""))
            .collect();
        assert_eq!(degr.len(), 1);
        assert_eq!(slow.len(), 1);
        let tag = format!("\"trace\":{}", out.trace_id);
        assert!(degr[0].contains(&tag) && slow[0].contains(&tag));
        assert!(degr[0].contains("\"cause\":\"injected\""));
        let report = stats.snapshot(0, 8);
        assert_eq!(report.slow_queries, 1);
        assert_eq!(report.events_logged, 2);
        assert_eq!(report.events_dropped, 0);
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn losing_every_shard_is_a_typed_internal_error() {
        let ctx = sharded_context(2);
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                faults: faultfn::FaultPlan::new(7)
                    .with(engine::FAULT_SHARD, faultfn::Schedule::Always)
                    .build(),
                ..BatchOptions::default()
            },
            Arc::new(ServeStats::new()),
        );
        let rx = batcher
            .submit(
                query(&ctx, 0),
                EngineKind::MuBlastp,
                &Default::default(),
                None,
            )
            .unwrap();
        match rx.recv().unwrap() {
            Err(e) => assert_eq!(e.code, ErrorCode::Internal),
            Ok(_) => panic!("total shard loss must not look like success"),
        }
    }

    #[test]
    fn different_configs_do_not_share_a_batch() {
        let ctx = context();
        let strict = ParamOverrides {
            evalue_cutoff: Some(1e-30),
            ..Default::default()
        };
        let a = ctx.sig(EngineKind::MuBlastp, &Default::default());
        let b = ctx.sig(EngineKind::MuBlastp, &strict);
        assert_ne!(a, b);
        let c = ctx.sig(EngineKind::QueryIndexed, &Default::default());
        assert_ne!(a, c);
        // And the materialized config reflects the override.
        let cfg = ctx.config_for(b);
        assert_eq!(cfg.params.evalue_cutoff, 1e-30);
    }

    /// A top-k request must not coalesce with an exhaustive one, nor with
    /// a different k — the pruning threshold is part of the effective
    /// configuration — and the materialized config carries the k through.
    #[test]
    fn topk_requests_do_not_share_a_batch_with_exhaustive() {
        let ctx = context();
        let a = ctx.sig(EngineKind::MuBlastp, &Default::default());
        let topk3 = ParamOverrides {
            top_k: Some(3),
            ..Default::default()
        };
        let b = ctx.sig(EngineKind::MuBlastp, &topk3);
        assert_ne!(a, b);
        let topk5 = ParamOverrides {
            top_k: Some(5),
            ..Default::default()
        };
        assert_ne!(b, ctx.sig(EngineKind::MuBlastp, &topk5));
        let cfg = ctx.config_for(b);
        assert_eq!(cfg.top_k, Some(3));
    }

    /// A top-k dispatch reports the same alignments as an exhaustive
    /// dispatch truncated to k, the pruning counters cover every index
    /// block exactly once, and the request is traced like any other.
    #[test]
    fn topk_dispatch_matches_truncated_exhaustive_and_reports_counters() {
        let ctx = context();
        let n_blocks = ctx.index.as_single().unwrap().blocks().len() as u64;
        let stats = Arc::new(ServeStats::new());
        let batcher = Batcher::new(
            Arc::clone(&ctx),
            BatchOptions {
                queue_cap: 8,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                obsv: obsv::ObsvConfig::on(),
                ..BatchOptions::default()
            },
            Arc::clone(&stats),
        );
        // Oracle: exhaustive with max_reported capped at the same k.
        let capped = ParamOverrides {
            max_reported: Some(1),
            ..Default::default()
        };
        let oracle = batcher
            .submit(query(&ctx, 0), EngineKind::MuBlastp, &capped, None)
            .unwrap()
            .recv()
            .unwrap()
            .unwrap();
        let topk = ParamOverrides {
            top_k: Some(1),
            ..Default::default()
        };
        let out = batcher
            .submit_traced(query(&ctx, 0), EngineKind::MuBlastp, &topk, None, 0, true)
            .unwrap()
            .0
            .recv()
            .unwrap()
            .unwrap();
        assert_eq!(
            out.results[0].alignments, oracle.results[0].alignments,
            "pruned top-k must report the oracle's rows"
        );
        for stage in [Stage::Seed, Stage::Finish] {
            assert!(
                out.trace
                    .spans
                    .iter()
                    .any(|s| s.stage == stage && s.trace_id == out.trace_id),
                "top-k request carries no {stage:?} span"
            );
        }
        assert_eq!(
            out.blocks_scanned + out.blocks_skipped,
            n_blocks,
            "every block is either scanned or skipped"
        );
        let report = stats.snapshot(0, 8);
        assert_eq!(report.topk_requests, 1);
        assert_eq!(report.topk_blocks_scanned, out.blocks_scanned);
        assert_eq!(report.topk_blocks_skipped, out.blocks_skipped);
    }
}
