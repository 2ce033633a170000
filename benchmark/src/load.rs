//! The load generator: `serve::Client` over real TCP, one connection per
//! sender thread, closed loop or open loop.
//!
//! Open-loop requests are timed from the moment they were *due*, not from
//! the moment they were sent, so a stall is charged to every request that
//! had to wait behind it; how late the generator itself ran is reported
//! separately.

use crate::trace::Spans;
use crate::workload::Request;
use engine::EngineKind;
use serve::{Client, ClientError, ParamOverrides, SearchResponse};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the last write began and the last read ended on a connection, in
/// nanoseconds since the tap was made. Lets the client-side spans split a
/// request into encode / wait / decode without knowing the frame layout.
#[derive(Default)]
struct Marks {
    write_began: AtomicU64,
    read_ended: AtomicU64,
}

struct Tap {
    stream: TcpStream,
    epoch: Instant,
    marks: Arc<Marks>,
    wrote: bool,
}

impl Tap {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        // Relaxed: a statistic read by the same thread that wrote it.
        self.marks
            .read_ended
            .store(self.now_ns(), Ordering::Relaxed);
        self.wrote = false;
        Ok(n)
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.wrote {
            self.marks
                .write_began
                .store(self.now_ns(), Ordering::Relaxed);
            self.wrote = true;
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// One client connection.
pub struct Conn {
    client: Client<Tap>,
    epoch: Instant,
    marks: Arc<Marks>,
}

impl Conn {
    pub fn stats(&mut self) -> Result<serve::StatsReport, ClientError> {
        self.client.stats()
    }
}

/// Open `n` connections to the server.
pub fn connect(addr: &str, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let _ = stream.set_nodelay(true);
            let epoch = Instant::now();
            let marks = Arc::new(Marks::default());
            let tap = Tap {
                stream,
                epoch,
                marks: Arc::clone(&marks),
                wrote: false,
            };
            Ok(Conn {
                client: Client::new(tap),
                epoch,
                marks,
            })
        })
        .collect()
}

/// How a phase generates load.
pub enum Plan {
    /// Every connection sends back to back until the time is up.
    ClosedFor { seconds: f64 },
    /// Every connection sends back to back until this many are sent.
    Closed { requests: usize },
    /// Request `i` is due `due[i]` seconds after the phase starts.
    Open { due: Vec<f64> },
}

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Number of the request in its phase, in sending order.
    pub seq: usize,
    /// Which pool entry was sent.
    pub pool: usize,
    /// Due (open loop) or send (closed loop) to reply fully decoded.
    pub latency_s: f64,
    /// How long after it should have been the request was sent: after its
    /// due time (open loop), or after the connection's previous reply
    /// (closed loop).
    pub late_s: f64,
    /// From the server's own spans of a traced request: time queued in the
    /// batcher and time in the engine call. Both 0 in an untraced phase.
    pub queue_wait_s: f64,
    pub search_s: f64,
    /// No error frame, no I/O error, and the same alignments as every
    /// other reply to this pool entry.
    pub ok: bool,
}

pub struct Phase {
    /// In sending order.
    pub samples: Vec<Sample>,
    /// Phase start to last reply.
    pub wall_s: f64,
    /// The first reply seen for each pool entry; every later reply was
    /// compared against it on arrival, so checking these checks them all.
    pub first: Vec<Option<SearchResponse>>,
    /// Pool entries for which two kept replies differed.
    disagree: Vec<bool>,
    pub blocks_scanned: u64,
    pub blocks_skipped: u64,
    /// Client-side spans; empty unless the phase was traced.
    pub spans: Spans,
}

fn same_alignments(a: &SearchResponse, b: &SearchResponse) -> bool {
    a.replies.len() == b.replies.len()
        && a.replies.iter().zip(&b.replies).all(|(x, y)| {
            x.result.alignments == y.result.alignments && x.subject_ids == y.subject_ids
        })
}

/// Fill a sample's server-side times from the spans the server returned.
fn server_side(trace: &obsv::Trace, sample: &mut Sample) {
    let secs = |stage: obsv::Stage| {
        trace
            .spans
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0.0, |s| s.dur_ns as f64 / 1e9)
    };
    sample.queue_wait_s = secs(obsv::Stage::QueueWait);
    sample.search_s = secs(obsv::Stage::Search);
}

/// One sender: its connection, its lane in the span file, and what every
/// sender of the phase shares.
struct Sender<'a> {
    conn: &'a mut Conn,
    lane: u32,
    requests: &'a [Request],
    plan: &'a Plan,
    /// Pool entry of the phase's first request.
    offset: usize,
    top_k: Option<u32>,
    traced: bool,
    /// Index of the next request of the phase, shared by all senders.
    next: &'a AtomicUsize,
    start: Instant,
}

impl Sender<'_> {
    fn run(self, span_epoch: Instant) -> Phase {
        let Sender {
            conn,
            lane,
            requests,
            plan,
            offset,
            top_k,
            traced,
            next,
            start,
        } = self;
        let mut phase = Phase::empty(requests.len(), span_epoch);
        let mut free_since = Instant::now();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let due = match plan {
                Plan::ClosedFor { seconds } => {
                    if start.elapsed().as_secs_f64() >= *seconds {
                        break;
                    }
                    None
                }
                Plan::Closed { requests } => {
                    if i >= *requests {
                        break;
                    }
                    None
                }
                Plan::Open { due } => match due.get(i) {
                    Some(&d) => Some(start + Duration::from_secs_f64(d)),
                    None => break,
                },
            };
            if let Some(due) = due {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            let pool = (offset + i) % requests.len();
            let overrides = ParamOverrides {
                top_k,
                ..ParamOverrides::default()
            };
            let sent = Instant::now();
            let reply = conn.client.search_traced(
                &requests[pool].fasta,
                EngineKind::MuBlastp,
                overrides,
                0,
                traced,
            );
            let done = Instant::now();
            phase.wall_s = (done - start).as_secs_f64();
            let mut sample = Sample {
                seq: i,
                pool,
                latency_s: (done - due.unwrap_or(sent)).as_secs_f64(),
                late_s: (sent - due.unwrap_or(free_since)).as_secs_f64(),
                queue_wait_s: 0.0,
                search_s: 0.0,
                ok: false,
            };
            free_since = done;
            if traced {
                let at = |ns: u64| conn.epoch + Duration::from_nanos(ns);
                let wrote = at(conn.marks.write_began.load(Ordering::Relaxed));
                let read = at(conn.marks.read_ended.load(Ordering::Relaxed));
                let id = i as u64;
                let root = phase.spans.push("request", sent, done, None, id, lane);
                phase
                    .spans
                    .push("serve.encode_request", sent, wrote, Some(root), id, lane);
                phase
                    .spans
                    .push("wire_wait", wrote, read, Some(root), id, lane);
                phase
                    .spans
                    .push("serve.decode_results", read, done, Some(root), id, lane);
            }
            // After an I/O or framing error the connection is unusable:
            // the sender stops, and the failed sample fails the run.
            let connection_lost = matches!(&reply, Err(e) if !matches!(e, ClientError::Server(_)));
            if let Ok(resp) = reply {
                phase.blocks_scanned += resp.blocks_scanned;
                phase.blocks_skipped += resp.blocks_skipped;
                if let Some(trace) = &resp.trace {
                    server_side(trace, &mut sample);
                }
                match &phase.first[pool] {
                    Some(seen) => sample.ok = same_alignments(seen, &resp),
                    None => {
                        sample.ok = true;
                        phase.first[pool] = Some(resp);
                    }
                }
            }
            phase.samples.push(sample);
            if connection_lost {
                break;
            }
        }
        phase
    }
}

impl Phase {
    /// Add what another sender, or a later stretch of the same load, saw
    /// (`wall_s` is the caller's to combine). A reply that differs from
    /// the one kept for its pool entry fails every request of that entry:
    /// two replies that disagree cannot both be right.
    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.blocks_scanned += other.blocks_scanned;
        self.blocks_skipped += other.blocks_skipped;
        self.spans.absorb(other.spans);
        for (pool, resp) in other.first.into_iter().enumerate() {
            let Some(resp) = resp else { continue };
            match &self.first[pool] {
                Some(seen) => self.disagree[pool] |= !same_alignments(seen, &resp),
                None => self.first[pool] = Some(resp),
            }
        }
        for s in &mut self.samples {
            s.ok &= !self.disagree[s.pool];
        }
    }

    pub fn empty(pool: usize, span_epoch: Instant) -> Phase {
        Phase {
            samples: Vec::new(),
            wall_s: 0.0,
            first: vec![None; pool],
            disagree: vec![false; pool],
            blocks_scanned: 0,
            blocks_skipped: 0,
            spans: Spans::new(span_epoch),
        }
    }
}

/// Run one phase over `conns` (one sender thread each), cycling through
/// `requests` from entry `offset` on. With `traced`, requests ask the
/// server for their spans and the client records
/// `request ⊃ {serve.encode_request, wire_wait, serve.decode_results}`.
pub fn run_phase(
    conns: &mut [Conn],
    requests: &[Request],
    plan: &Plan,
    offset: usize,
    top_k: Option<u32>,
    traced: bool,
    span_epoch: Instant,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_sender: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let sender = Sender {
                    conn,
                    lane: lane as u32,
                    requests,
                    plan,
                    offset,
                    top_k,
                    traced,
                    next: &next,
                    start,
                };
                scope.spawn(move || sender.run(span_epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });

    let mut phase = Phase::empty(requests.len(), span_epoch);
    for sender in per_sender {
        phase.wall_s = phase.wall_s.max(sender.wall_s);
        phase.absorb(sender);
    }
    phase.samples.sort_by_key(|s| s.seq);
    phase
}
