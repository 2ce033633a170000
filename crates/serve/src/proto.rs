//! The framed wire protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! magic "MUBQ" | version u32 | frame type u8 | payload len u32 | payload
//! ```
//!
//! All integers are little-endian; floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so a result decoded on the client is *byte-identical*
//! to the server's — the property the loopback tests pin down with
//! `engine::verify::results_identical`. Strings are `u32` length + UTF-8.
//!
//! The decoder never trusts a length field: payloads are capped, every
//! read is bounds-checked, and any malformed input yields a typed
//! [`ProtoError`] instead of a panic — frames cross a process boundary,
//! so "garbage in" must always be "error out".
//!
//! ## Versioning
//!
//! There is one wire layout, stamped [`PROTO_VERSION`] in every frame
//! header. A frame stamped with any other version is refused with
//! [`ProtoError::BadVersion`] before its payload is read — the server
//! answers that with one `BadRequest` error frame and closes. DESIGN.md
//! §"Re-base" records what the earlier layouts were and how the next
//! version is added.

use engine::{Alignment, QueryResult, StageCounts};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic ("muBLASTP query protocol").
pub const MAGIC: &[u8; 4] = b"MUBQ";
/// The protocol version this build speaks: the only one it encodes and
/// the only one it accepts.
pub const PROTO_VERSION: u32 = 7;
/// Upper bound on a single frame's payload (defensive: a corrupt or
/// hostile length field must not trigger a giant allocation).
pub(crate) const MAX_PAYLOAD: u32 = 256 << 20;

const HEADER_LEN: usize = 4 + 4 + 1 + 4;

/// Errors from frame encoding/decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Underlying transport error (kind only, for comparability).
    Io(io::ErrorKind),
    /// The frame header does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u32),
    /// Unknown frame-type byte.
    UnknownFrame(u8),
    /// Payload length exceeds `MAX_PAYLOAD`.
    TooLarge(u32),
    /// Payload failed to parse (wrong length fields, bad UTF-8, …).
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(kind) => write!(f, "transport error: {kind}"),
            ProtoError::BadMagic => write!(f, "not a muBLASTP protocol frame (bad magic)"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownFrame(t) => write!(f, "unknown frame type {t}"),
            ProtoError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e.kind())
    }
}

/// Typed error codes a server can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be parsed or named an invalid option.
    BadRequest,
    /// The admission queue is full; retry after the hinted delay.
    Overloaded,
    /// The request's deadline passed before its batch was dispatched.
    DeadlineExceeded,
    /// The server is draining its queue and accepts no new work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_wire(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::DeadlineExceeded => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_wire(v: u16) -> Result<ErrorCode, ProtoError> {
        Ok(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Internal,
            _ => return Err(ProtoError::Malformed("unknown error code")),
        })
    }
}

/// A typed error response.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    pub code: ErrorCode,
    /// One-line human-readable diagnostic.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: suggested client back-off. 0 otherwise.
    pub retry_after_ms: u32,
}

/// Optional per-request overrides of the server's base `SearchParams`.
/// `None` fields keep the daemon's defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParamOverrides {
    pub evalue_cutoff: Option<f64>,
    pub max_reported: Option<u32>,
    pub seg_filter: Option<bool>,
    /// Top-k reporting mode: report the best `k` alignments per query,
    /// letting the engine prune blocks that provably cannot contribute.
    pub top_k: Option<u32>,
}

/// A search request: FASTA text plus engine/parameter selection.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchRequest {
    /// One or more FASTA records; parsed server-side with `bioseq`.
    pub fasta: String,
    /// Engine selection as a wire code (see `engine_to_wire`).
    pub engine: engine::EngineKind,
    pub overrides: ParamOverrides,
    /// Per-request deadline in milliseconds; 0 means none.
    pub deadline_ms: u32,
    /// Client-proposed trace id; 0 asks the server to assign one.
    pub trace_id: u64,
    /// Ask the server to return per-stage spans with the results.
    /// Honored only when the daemon runs with tracing enabled.
    pub want_trace: bool,
}

/// One query's results: the exact `QueryResult` the engine produced plus
/// the subject id strings (resolved server-side, one per alignment) so
/// clients can render tabular rows without holding the database.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    pub result: QueryResult,
    pub subject_ids: Vec<String>,
}

/// Degradation metadata on a [`SearchResponse`]: the request
/// succeeded, but some database shards contributed nothing, so the
/// answer covers only part of the search space. Surviving-shard
/// alignments are bit-equal to a fault-free run — E-values were computed
/// against the *global* database inside each shard — the merge only
/// loses rows, never re-scores them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degraded {
    /// Ids of the shards that dropped out, ascending.
    pub failed_shards: Vec<u32>,
    /// Residues actually searched (surviving shards).
    pub coverage_residues: u64,
    /// Residues in the whole database.
    pub total_residues: u64,
}

/// The response to a [`SearchRequest`]: one reply per submitted query, in
/// submission order.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResponse {
    pub replies: Vec<QueryReply>,
    /// The trace id this request ran under (server-assigned when the
    /// request carried 0).
    pub trace_id: u64,
    /// Per-stage spans for this request, present when the request set
    /// `want_trace` and the daemon traces.
    pub trace: Option<obsv::Trace>,
    /// Present when shards dropped out of this search.
    pub degraded: Option<Degraded>,
    /// Index blocks actually fetched and searched for this request. 0 for
    /// exhaustive (non-top-k) searches, which do not count blocks.
    pub blocks_scanned: u64,
    /// Index blocks proven irrelevant by their stored score bound and
    /// skipped without a fetch.
    pub blocks_skipped: u64,
}

impl SearchResponse {
    /// A response carrying only replies (no trace or degradation
    /// metadata attached).
    pub fn untraced(replies: Vec<QueryReply>) -> SearchResponse {
        SearchResponse {
            replies,
            trace_id: 0,
            trace: None,
            degraded: None,
            blocks_scanned: 0,
            blocks_skipped: 0,
        }
    }
}

/// Latency digest for one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// A point-in-time view of the daemon's health counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u32,
    /// Configured admission-queue capacity.
    pub queue_cap: u32,
    /// High-water mark of `queue_depth` since startup.
    pub max_depth_seen: u32,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused with `Overloaded`.
    pub rejected: u64,
    /// Requests whose deadline passed while queued.
    pub expired: u64,
    /// Requests answered with results.
    pub completed: u64,
    /// Coalesced batches dispatched to the engine.
    pub batches: u64,
    /// `batch_hist[k]` counts dispatched batches of `k + 1` requests.
    pub batch_hist: Vec<u64>,
    /// Time from admission to batch dispatch.
    pub queue_wait: LatencySummary,
    /// Time inside `engine::search_batch`.
    pub search: LatencySummary,
    /// Admission to reply.
    pub total: LatencySummary,
    /// Per-pipeline-stage span latency digests, populated when the daemon
    /// runs with tracing enabled.
    pub stages: Vec<StageLatency>,
    /// Per-shard rows, one per database shard in shard order; empty
    /// unless the daemon serves a sharded index.
    pub shards: Vec<ShardStat>,
    /// Requests answered with partial (degraded) results — some shards
    /// failed but the survivors still produced an answer.
    pub degraded: u64,
    /// Bytes of decoded index resident in memory and attributable to the
    /// database: the whole index for a resident daemon, the block cache's
    /// current residency for an out-of-core one.
    pub index_resident_bytes: u64,
    /// Out-of-core block cache byte budget; 0 on a resident daemon.
    pub cache_budget_bytes: u64,
    /// Decoded bytes currently held by the block cache; 0 when resident.
    pub cache_used_bytes: u64,
    /// Block-cache lookups served from memory.
    pub cache_hits: u64,
    /// Block-cache lookups that fetched from storage.
    pub cache_misses: u64,
    /// Blocks evicted to stay under the cache budget.
    pub cache_evictions: u64,
    /// Shard failures whose cause was injected.
    pub shard_fail_injected: u64,
    /// Shard failures cancelled by an expired deadline.
    pub shard_fail_deadline: u64,
    /// Shard failures from the storage backend.
    pub shard_fail_storage: u64,
    /// Requests slower than the daemon's slow-query threshold.
    pub slow_queries: u64,
    /// Client-visible retry attempts observed in-process.
    pub retry_attempts: u64,
    /// Retry loops that exhausted their budget.
    pub retry_exhausted: u64,
    /// Structured events written to the event log.
    pub events_logged: u64,
    /// Structured events lost to event-log I/O errors.
    pub events_dropped: u64,
    /// Block records fetched from storage.
    pub cache_fetched_blocks: u64,
    /// Serialized bytes fetched from storage.
    pub cache_fetched_bytes: u64,
    /// Nanoseconds spent decoding fetched blocks.
    pub cache_decode_ns: u64,
    /// Postings decoded from fetched blocks.
    pub cache_decoded_postings: u64,
    /// The daemon's full Prometheus text exposition, rendered from the
    /// same registry the scalar fields above are read from.
    pub metrics_text: String,
    /// Requests that ran in top-k mode.
    pub topk_requests: u64,
    /// Index blocks fetched and searched by top-k requests.
    pub topk_blocks_scanned: u64,
    /// Index blocks pruned by their stored score bound.
    pub topk_blocks_skipped: u64,
}

/// Latency digest for one traced pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageLatency {
    pub stage: obsv::Stage,
    pub latency: LatencySummary,
}

/// One database shard's health row in a sharded daemon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard id (position in the shard plan).
    pub shard: u32,
    /// Sequences resident in this shard.
    pub seqs: u64,
    /// Residues resident in this shard.
    pub residues: u64,
    /// Per-dispatch scheduler wait — how long the shard's task sat queued
    /// behind other shards (queue depth made visible as latency).
    pub queued: LatencySummary,
    /// Per-dispatch search time on this shard.
    pub search: LatencySummary,
    /// Dispatches in which this shard's task failed or was cancelled.
    pub failures: u64,
}

/// Every message that can cross the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    Search(SearchRequest),
    Results(SearchResponse),
    Error(WireError),
    StatsRequest,
    Stats(Box<StatsReport>),
    /// Ask the daemon to drain its queue and exit.
    Shutdown,
    /// Acknowledges a [`Frame::Shutdown`]; the drain has begun.
    ShutdownAck,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Engine selection as a stable wire code.
pub(crate) fn engine_to_wire(kind: engine::EngineKind) -> u8 {
    match kind {
        engine::EngineKind::QueryIndexed => 0,
        engine::EngineKind::DbInterleaved => 1,
        engine::EngineKind::MuBlastp => 2,
    }
}

/// Decode an engine wire code.
pub(crate) fn engine_from_wire(v: u8) -> Result<engine::EngineKind, ProtoError> {
    Ok(match v {
        0 => engine::EngineKind::QueryIndexed,
        1 => engine::EngineKind::DbInterleaved,
        2 => engine::EngineKind::MuBlastp,
        _ => return Err(ProtoError::Malformed("unknown engine kind")),
    })
}

fn put_counts(out: &mut Vec<u8>, c: &StageCounts) {
    put_u64(out, c.hits);
    put_u64(out, c.pairs);
    put_u64(out, c.extensions);
    put_u64(out, c.seeds);
    put_u64(out, c.gapped);
    put_u64(out, c.reported);
}

fn put_alignment(out: &mut Vec<u8>, a: &Alignment, subject_id: &str) {
    put_u32(out, a.subject);
    put_str(out, subject_id);
    put_u32(out, a.aln.q_start);
    put_u32(out, a.aln.q_end);
    put_u32(out, a.aln.s_start);
    put_u32(out, a.aln.s_end);
    put_i32(out, a.aln.score);
    put_f64(out, a.bit_score);
    put_f64(out, a.evalue);
    put_u32(out, a.aln.ops.len() as u32);
    for op in &a.aln.ops {
        put_u8(
            out,
            match op {
                align::AlignOp::Sub => 0,
                align::AlignOp::Ins => 1,
                align::AlignOp::Del => 2,
            },
        );
    }
}

fn put_reply(out: &mut Vec<u8>, r: &QueryReply) {
    put_u32(out, r.result.query_index as u32);
    put_counts(out, &r.result.counts);
    put_u32(out, r.result.alignments.len() as u32);
    for (a, id) in r.result.alignments.iter().zip(&r.subject_ids) {
        put_alignment(out, a, id);
    }
}

fn put_latency(out: &mut Vec<u8>, l: &LatencySummary) {
    put_u64(out, l.count);
    put_u64(out, l.p50_us);
    put_u64(out, l.p99_us);
    put_u64(out, l.max_us);
}

/// Span trace inside a Results payload. The per-span `trace_id`
/// is *not* serialized — a response carries exactly one trace, so the
/// decoder restamps every span with the response-level id.
fn put_trace(out: &mut Vec<u8>, t: &obsv::Trace) {
    put_u64(out, t.dropped);
    put_u32(out, t.spans.len() as u32);
    for s in &t.spans {
        put_u8(out, s.stage.code());
        put_u32(out, s.query);
        put_u32(out, s.block);
        put_u32(out, s.worker);
        put_u64(out, s.seq);
        put_u64(out, s.start_ns);
        put_u64(out, s.dur_ns);
    }
}

fn frame_type(frame: &Frame) -> u8 {
    match frame {
        Frame::Search(_) => 1,
        Frame::Results(_) => 2,
        Frame::Error(_) => 3,
        Frame::StatsRequest => 4,
        Frame::Stats(_) => 5,
        Frame::Shutdown => 6,
        Frame::ShutdownAck => 7,
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut p = Vec::new();
    match frame {
        Frame::Search(req) => {
            put_str(&mut p, &req.fasta);
            put_u8(&mut p, engine_to_wire(req.engine));
            match req.overrides.evalue_cutoff {
                Some(v) => {
                    put_u8(&mut p, 1);
                    put_f64(&mut p, v);
                }
                None => put_u8(&mut p, 0),
            }
            match req.overrides.max_reported {
                Some(v) => {
                    put_u8(&mut p, 1);
                    put_u32(&mut p, v);
                }
                None => put_u8(&mut p, 0),
            }
            match req.overrides.seg_filter {
                Some(v) => {
                    put_u8(&mut p, 1);
                    put_u8(&mut p, u8::from(v));
                }
                None => put_u8(&mut p, 0),
            }
            put_u32(&mut p, req.deadline_ms);
            put_u64(&mut p, req.trace_id);
            put_u8(&mut p, u8::from(req.want_trace));
            match req.overrides.top_k {
                Some(k) => {
                    put_u8(&mut p, 1);
                    put_u32(&mut p, k);
                }
                None => put_u8(&mut p, 0),
            }
        }
        Frame::Results(resp) => {
            put_u32(&mut p, resp.replies.len() as u32);
            for r in &resp.replies {
                put_reply(&mut p, r);
            }
            put_u64(&mut p, resp.trace_id);
            match &resp.trace {
                Some(t) => {
                    put_u8(&mut p, 1);
                    put_trace(&mut p, t);
                }
                None => put_u8(&mut p, 0),
            }
            match &resp.degraded {
                Some(d) => {
                    put_u8(&mut p, 1);
                    put_u32(&mut p, d.failed_shards.len() as u32);
                    for &s in &d.failed_shards {
                        put_u32(&mut p, s);
                    }
                    put_u64(&mut p, d.coverage_residues);
                    put_u64(&mut p, d.total_residues);
                }
                None => put_u8(&mut p, 0),
            }
            put_u64(&mut p, resp.blocks_scanned);
            put_u64(&mut p, resp.blocks_skipped);
        }
        Frame::Error(e) => {
            put_u16(&mut p, e.code.to_wire());
            put_u32(&mut p, e.retry_after_ms);
            put_str(&mut p, &e.message);
        }
        Frame::StatsRequest | Frame::Shutdown | Frame::ShutdownAck => {}
        Frame::Stats(s) => {
            put_u32(&mut p, s.queue_depth);
            put_u32(&mut p, s.queue_cap);
            put_u32(&mut p, s.max_depth_seen);
            put_u64(&mut p, s.accepted);
            put_u64(&mut p, s.rejected);
            put_u64(&mut p, s.expired);
            put_u64(&mut p, s.completed);
            put_u64(&mut p, s.batches);
            put_u32(&mut p, s.batch_hist.len() as u32);
            for &n in &s.batch_hist {
                put_u64(&mut p, n);
            }
            put_latency(&mut p, &s.queue_wait);
            put_latency(&mut p, &s.search);
            put_latency(&mut p, &s.total);
            put_u32(&mut p, s.stages.len() as u32);
            for sl in &s.stages {
                put_u8(&mut p, sl.stage.code());
                put_latency(&mut p, &sl.latency);
            }
            put_u32(&mut p, s.shards.len() as u32);
            for sh in &s.shards {
                put_u32(&mut p, sh.shard);
                put_u64(&mut p, sh.seqs);
                put_u64(&mut p, sh.residues);
                put_latency(&mut p, &sh.queued);
                put_latency(&mut p, &sh.search);
                put_u64(&mut p, sh.failures);
            }
            put_u64(&mut p, s.degraded);
            put_u64(&mut p, s.index_resident_bytes);
            put_u64(&mut p, s.cache_budget_bytes);
            put_u64(&mut p, s.cache_used_bytes);
            put_u64(&mut p, s.cache_hits);
            put_u64(&mut p, s.cache_misses);
            put_u64(&mut p, s.cache_evictions);
            put_u64(&mut p, s.shard_fail_injected);
            put_u64(&mut p, s.shard_fail_deadline);
            put_u64(&mut p, s.shard_fail_storage);
            put_u64(&mut p, s.slow_queries);
            put_u64(&mut p, s.retry_attempts);
            put_u64(&mut p, s.retry_exhausted);
            put_u64(&mut p, s.events_logged);
            put_u64(&mut p, s.events_dropped);
            put_u64(&mut p, s.cache_fetched_blocks);
            put_u64(&mut p, s.cache_fetched_bytes);
            put_u64(&mut p, s.cache_decode_ns);
            put_u64(&mut p, s.cache_decoded_postings);
            put_str(&mut p, &s.metrics_text);
            put_u64(&mut p, s.topk_requests);
            put_u64(&mut p, s.topk_blocks_scanned);
            put_u64(&mut p, s.topk_blocks_skipped);
        }
    }
    p
}

/// Encode a frame to bytes (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, PROTO_VERSION);
    put_u8(&mut out, frame_type(frame));
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Write one frame to a stream and flush it.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], ProtoError> {
    if data.len() < n {
        return Err(ProtoError::Malformed("payload shorter than its fields"));
    }
    let (head, tail) = data.split_at(n);
    *data = tail;
    Ok(head)
}

fn get_u8(data: &mut &[u8]) -> Result<u8, ProtoError> {
    Ok(take(data, 1)?[0])
}

fn get_u16(data: &mut &[u8]) -> Result<u16, ProtoError> {
    let b = take(data, 2)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn get_u32(data: &mut &[u8]) -> Result<u32, ProtoError> {
    let b = take(data, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(data: &mut &[u8]) -> Result<u64, ProtoError> {
    let b = take(data, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

fn get_i32(data: &mut &[u8]) -> Result<i32, ProtoError> {
    let b = take(data, 4)?;
    Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_f64(data: &mut &[u8]) -> Result<f64, ProtoError> {
    Ok(f64::from_bits(get_u64(data)?))
}

fn get_str(data: &mut &[u8]) -> Result<String, ProtoError> {
    let len = get_u32(data)? as usize;
    let raw = take(data, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::Malformed("string is not UTF-8"))
}

fn get_counts(data: &mut &[u8]) -> Result<StageCounts, ProtoError> {
    Ok(StageCounts {
        hits: get_u64(data)?,
        pairs: get_u64(data)?,
        extensions: get_u64(data)?,
        seeds: get_u64(data)?,
        gapped: get_u64(data)?,
        reported: get_u64(data)?,
    })
}

fn get_alignment(data: &mut &[u8]) -> Result<(Alignment, String), ProtoError> {
    let subject = get_u32(data)?;
    let subject_id = get_str(data)?;
    let q_start = get_u32(data)?;
    let q_end = get_u32(data)?;
    let s_start = get_u32(data)?;
    let s_end = get_u32(data)?;
    let score = get_i32(data)?;
    let bit_score = get_f64(data)?;
    let evalue = get_f64(data)?;
    let n_ops = get_u32(data)? as usize;
    let raw = take(data, n_ops)?;
    let mut ops = Vec::with_capacity(n_ops);
    for &b in raw {
        ops.push(match b {
            0 => align::AlignOp::Sub,
            1 => align::AlignOp::Ins,
            2 => align::AlignOp::Del,
            _ => return Err(ProtoError::Malformed("unknown alignment op")),
        });
    }
    let aln = align::GappedAlignment {
        q_start,
        q_end,
        s_start,
        s_end,
        score,
        ops,
    };
    Ok((
        Alignment {
            subject,
            aln,
            bit_score,
            evalue,
        },
        subject_id,
    ))
}

/// Decode a `u32`-counted list. Pre-allocation is capped by what the
/// remaining payload could possibly hold (`wire_size` = the smallest
/// encoding of one item), never by the decoded count alone.
fn read_list<T>(
    data: &mut &[u8],
    wire_size: usize,
    mut item: impl FnMut(&mut &[u8]) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let n = get_u32(data)? as usize;
    let mut out = Vec::with_capacity(n.min(data.len() / wire_size + 1));
    for _ in 0..n {
        out.push(item(data)?);
    }
    Ok(out)
}

fn get_reply(data: &mut &[u8]) -> Result<QueryReply, ProtoError> {
    let query_index = get_u32(data)? as usize;
    let counts = get_counts(data)?;
    let n = get_u32(data)? as usize;
    // Same cap as `read_list`; two parallel vectors, so not a `read_list`.
    let mut alignments = Vec::with_capacity(n.min(data.len() / 41 + 1));
    let mut subject_ids = Vec::with_capacity(alignments.capacity());
    for _ in 0..n {
        let (a, id) = get_alignment(data)?;
        alignments.push(a);
        subject_ids.push(id);
    }
    Ok(QueryReply {
        result: QueryResult {
            query_index,
            alignments,
            counts,
        },
        subject_ids,
    })
}

fn get_latency(data: &mut &[u8]) -> Result<LatencySummary, ProtoError> {
    Ok(LatencySummary {
        count: get_u64(data)?,
        p50_us: get_u64(data)?,
        p99_us: get_u64(data)?,
        max_us: get_u64(data)?,
    })
}

/// Span trace inside a Results payload; spans are restamped with
/// `trace_id` (the response-level id) since it is not on the wire.
fn get_trace(data: &mut &[u8], trace_id: u64) -> Result<obsv::Trace, ProtoError> {
    let dropped = get_u64(data)?;
    let spans = read_list(data, 37, |data| {
        Ok(obsv::SpanRecord {
            trace_id,
            stage: obsv::Stage::from_code(get_u8(data)?)
                .ok_or(ProtoError::Malformed("unknown stage code"))?,
            query: get_u32(data)?,
            block: get_u32(data)?,
            worker: get_u32(data)?,
            seq: get_u64(data)?,
            start_ns: get_u64(data)?,
            dur_ns: get_u64(data)?,
        })
    })?;
    Ok(obsv::Trace { spans, dropped })
}

// Struct-literal fields are evaluated in source order, so each literal
// below reads its fields in exactly the order `encode_payload` wrote them.
fn decode_payload(frame_type: u8, mut p: &[u8]) -> Result<Frame, ProtoError> {
    let data = &mut p;
    let frame = match frame_type {
        1 => {
            let fasta = get_str(data)?;
            let engine = engine_from_wire(get_u8(data)?)?;
            let evalue_cutoff = if get_u8(data)? != 0 {
                Some(get_f64(data)?)
            } else {
                None
            };
            let max_reported = if get_u8(data)? != 0 {
                Some(get_u32(data)?)
            } else {
                None
            };
            let seg_filter = if get_u8(data)? != 0 {
                Some(get_u8(data)? != 0)
            } else {
                None
            };
            let deadline_ms = get_u32(data)?;
            let trace_id = get_u64(data)?;
            let want_trace = get_u8(data)? != 0;
            let top_k = if get_u8(data)? != 0 {
                Some(get_u32(data)?)
            } else {
                None
            };
            Frame::Search(SearchRequest {
                fasta,
                engine,
                overrides: ParamOverrides {
                    evalue_cutoff,
                    max_reported,
                    seg_filter,
                    top_k,
                },
                deadline_ms,
                trace_id,
                want_trace,
            })
        }
        2 => {
            let replies = read_list(data, 53, get_reply)?;
            let trace_id = get_u64(data)?;
            let trace = if get_u8(data)? != 0 {
                Some(get_trace(data, trace_id)?)
            } else {
                None
            };
            let degraded = if get_u8(data)? != 0 {
                Some(Degraded {
                    failed_shards: read_list(data, 4, get_u32)?,
                    coverage_residues: get_u64(data)?,
                    total_residues: get_u64(data)?,
                })
            } else {
                None
            };
            Frame::Results(SearchResponse {
                replies,
                trace_id,
                trace,
                degraded,
                blocks_scanned: get_u64(data)?,
                blocks_skipped: get_u64(data)?,
            })
        }
        3 => {
            let code = ErrorCode::from_wire(get_u16(data)?)?;
            let retry_after_ms = get_u32(data)?;
            let message = get_str(data)?;
            Frame::Error(WireError {
                code,
                message,
                retry_after_ms,
            })
        }
        4 => Frame::StatsRequest,
        5 => Frame::Stats(Box::new(StatsReport {
            queue_depth: get_u32(data)?,
            queue_cap: get_u32(data)?,
            max_depth_seen: get_u32(data)?,
            accepted: get_u64(data)?,
            rejected: get_u64(data)?,
            expired: get_u64(data)?,
            completed: get_u64(data)?,
            batches: get_u64(data)?,
            batch_hist: read_list(data, 8, get_u64)?,
            queue_wait: get_latency(data)?,
            search: get_latency(data)?,
            total: get_latency(data)?,
            stages: read_list(data, 33, |data| {
                Ok(StageLatency {
                    stage: obsv::Stage::from_code(get_u8(data)?)
                        .ok_or(ProtoError::Malformed("unknown stage code"))?,
                    latency: get_latency(data)?,
                })
            })?,
            shards: read_list(data, 92, |data| {
                Ok(ShardStat {
                    shard: get_u32(data)?,
                    seqs: get_u64(data)?,
                    residues: get_u64(data)?,
                    queued: get_latency(data)?,
                    search: get_latency(data)?,
                    failures: get_u64(data)?,
                })
            })?,
            degraded: get_u64(data)?,
            index_resident_bytes: get_u64(data)?,
            cache_budget_bytes: get_u64(data)?,
            cache_used_bytes: get_u64(data)?,
            cache_hits: get_u64(data)?,
            cache_misses: get_u64(data)?,
            cache_evictions: get_u64(data)?,
            shard_fail_injected: get_u64(data)?,
            shard_fail_deadline: get_u64(data)?,
            shard_fail_storage: get_u64(data)?,
            slow_queries: get_u64(data)?,
            retry_attempts: get_u64(data)?,
            retry_exhausted: get_u64(data)?,
            events_logged: get_u64(data)?,
            events_dropped: get_u64(data)?,
            cache_fetched_blocks: get_u64(data)?,
            cache_fetched_bytes: get_u64(data)?,
            cache_decode_ns: get_u64(data)?,
            cache_decoded_postings: get_u64(data)?,
            metrics_text: get_str(data)?,
            topk_requests: get_u64(data)?,
            topk_blocks_scanned: get_u64(data)?,
            topk_blocks_skipped: get_u64(data)?,
        })),
        6 => Frame::Shutdown,
        7 => Frame::ShutdownAck,
        other => return Err(ProtoError::UnknownFrame(other)),
    };
    if !data.is_empty() {
        return Err(ProtoError::Malformed("trailing bytes after payload"));
    }
    Ok(frame)
}

/// Read one frame from a stream. A header stamped with any version other
/// than [`PROTO_VERSION`] is refused before its payload is read.
///
/// A clean close at a frame boundary surfaces as
/// `ProtoError::Io(ErrorKind::UnexpectedEof)`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if &header[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let frame_type = header[8];
    let payload_len = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
    if payload_len > MAX_PAYLOAD {
        return Err(ProtoError::TooLarge(payload_len));
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(frame_type, &payload)
}

/// Decode one frame from a byte slice (must contain exactly one frame).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, ProtoError> {
    let mut cursor = bytes;
    let frame = read_frame(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(ProtoError::Malformed("trailing bytes after frame"));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_frames_roundtrip() {
        for f in [Frame::StatsRequest, Frame::Shutdown, Frame::ShutdownAck] {
            assert_eq!(decode_frame(&encode_frame(&f)), Ok(f));
        }
    }

    #[test]
    fn search_roundtrip() {
        let f = Frame::Search(SearchRequest {
            fasta: ">q1\nMKVLAW\n".to_string(),
            engine: engine::EngineKind::MuBlastp,
            overrides: ParamOverrides {
                evalue_cutoff: Some(1e-3),
                max_reported: None,
                seg_filter: Some(true),
                top_k: Some(10),
            },
            deadline_ms: 250,
            trace_id: 0xDEAD_BEEF,
            want_trace: true,
        });
        assert_eq!(decode_frame(&encode_frame(&f)), Ok(f));
    }

    fn sample_trace(trace_id: u64) -> obsv::Trace {
        obsv::Trace {
            spans: vec![
                obsv::SpanRecord {
                    trace_id,
                    seq: 0,
                    stage: obsv::Stage::Seed,
                    query: 0,
                    block: 1,
                    worker: 2,
                    start_ns: 10,
                    dur_ns: 90,
                },
                obsv::SpanRecord {
                    trace_id,
                    seq: 1,
                    stage: obsv::Stage::Finish,
                    query: 0,
                    block: obsv::NO_BLOCK,
                    worker: 2,
                    start_ns: 100,
                    dur_ns: 40,
                },
            ],
            dropped: 3,
        }
    }

    #[test]
    fn results_roundtrip_trace_degradation_and_pruning_counters() {
        let f = Frame::Results(SearchResponse {
            trace_id: 77,
            trace: Some(sample_trace(77)),
            degraded: Some(Degraded {
                failed_shards: vec![1, 3],
                coverage_residues: 700,
                total_residues: 1000,
            }),
            blocks_scanned: 12,
            blocks_skipped: 30,
            ..SearchResponse::untraced(Vec::new())
        });
        assert_eq!(decode_frame(&encode_frame(&f)), Ok(f));
    }

    #[test]
    fn stats_roundtrip_with_every_section_populated() {
        let lat = |count| LatencySummary {
            count,
            p50_us: 7,
            p99_us: 20,
            max_us: 21,
        };
        let report = StatsReport {
            batch_hist: vec![3, 0, 1],
            stages: vec![
                StageLatency {
                    stage: obsv::Stage::Seed,
                    latency: lat(4),
                },
                StageLatency {
                    stage: obsv::Stage::Gapped,
                    latency: LatencySummary::default(),
                },
            ],
            shards: vec![
                ShardStat {
                    shard: 0,
                    seqs: 10,
                    residues: 1234,
                    queued: lat(3),
                    search: lat(3),
                    failures: 2,
                },
                ShardStat {
                    shard: 1,
                    seqs: 9,
                    residues: 1190,
                    ..ShardStat::default()
                },
            ],
            degraded: 5,
            index_resident_bytes: 4096,
            cache_budget_bytes: 1 << 20,
            cache_used_bytes: 900,
            cache_hits: 17,
            cache_misses: 5,
            cache_evictions: 3,
            shard_fail_injected: 2,
            shard_fail_deadline: 1,
            shard_fail_storage: 4,
            slow_queries: 3,
            retry_attempts: 9,
            retry_exhausted: 1,
            events_logged: 12,
            events_dropped: 1,
            cache_fetched_blocks: 8,
            cache_fetched_bytes: 2048,
            cache_decode_ns: 77_000,
            cache_decoded_postings: 640,
            metrics_text: "# TYPE serve_batcher_accepted counter\nserve_batcher_accepted 2\n"
                .to_string(),
            topk_requests: 4,
            topk_blocks_scanned: 40,
            topk_blocks_skipped: 160,
            ..StatsReport::default()
        };
        let f = Frame::Stats(Box::new(report));
        assert_eq!(decode_frame(&encode_frame(&f)), Ok(f));
    }

    #[test]
    fn unknown_stage_code_is_malformed_not_a_panic() {
        let f = Frame::Results(SearchResponse {
            trace_id: 1,
            trace: Some(sample_trace(1)),
            ..SearchResponse::untraced(Vec::new())
        });
        let mut bytes = encode_frame(&f);
        // Payload: count u32 (=0 replies), trace_id u64, has_trace u8,
        // dropped u64, n_spans u32 — the first span's stage byte follows.
        let stage_at = HEADER_LEN + 4 + 8 + 1 + 8 + 4;
        bytes[stage_at] = 0xFF;
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed("unknown stage code"))
        );
    }

    #[test]
    fn error_roundtrip() {
        let f = Frame::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retry_after_ms: 40,
        });
        assert_eq!(decode_frame(&encode_frame(&f)), Ok(f));
    }

    #[test]
    fn bad_magic_and_every_other_version_are_refused() {
        let mut bytes = encode_frame(&Frame::StatsRequest);
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes), Err(ProtoError::BadMagic));
        // The retired layouts (1–6), the next one, and nonsense alike.
        for v in [0, 1, 2, 3, 4, 5, 6, 8, 9, u32::MAX] {
            let mut bytes = encode_frame(&Frame::StatsRequest);
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(decode_frame(&bytes), Err(ProtoError::BadVersion(v)));
        }
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut bytes = encode_frame(&Frame::StatsRequest);
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(ProtoError::TooLarge(u32::MAX)));
    }

    #[test]
    fn truncation_is_an_io_error() {
        let bytes = encode_frame(&Frame::Error(WireError {
            code: ErrorCode::Internal,
            message: "x".repeat(64),
            retry_after_ms: 0,
        }));
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(_) => {}
                Ok(f) => panic!("prefix of {cut} bytes decoded as {f:?}"),
            }
        }
    }
}
