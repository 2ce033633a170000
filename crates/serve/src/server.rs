//! The accept loop and per-connection protocol handler.
//!
//! [`serve`] spawns one accept thread over any [`Transport`] plus one
//! connection thread per client; all of them funnel search work into the
//! shared `Batcher`, which is where the paper's batch-parallel schedule
//! actually runs. Connection threads therefore do no heavy work — they
//! parse FASTA, submit, block on the reply channel, and frame the answer.

use crate::batcher::{BatchOptions, Batcher, SearchContext, SubmitError};
use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, ProtoError, QueryReply, SearchRequest,
    SearchResponse, StatsReport, WireError,
};
use crate::stats::ServeStats;
use crate::transport::Transport;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop wakes to re-check the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// A running server: the resident context, its batcher, and the accept
/// thread. Dropping the handle shuts the server down.
pub struct ServerHandle {
    batcher: Arc<Batcher>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// True once a shutdown (local or via a wire `Shutdown` frame) has
    /// been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Block until a shutdown is requested, then finish it (drain the
    /// queue, join the accept thread). This is the daemon main loop.
    pub fn wait(&mut self) {
        while !self.is_stopped() {
            std::thread::sleep(ACCEPT_TICK);
        }
        self.shutdown();
    }

    /// Stop accepting, drain the admission queue (every queued request
    /// still gets its reply), and join the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.batcher.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// A point-in-time stats snapshot, same data as the wire `Stats` frame.
    pub fn stats(&self) -> StatsReport {
        self.stats
            .snapshot(self.batcher.queue_depth(), self.batcher.queue_cap())
    }

    /// The live counters behind this server — the registry the stats
    /// frame, the Prometheus endpoint, and the event log all read.
    pub fn shared_stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Render the current Prometheus text exposition from the live
    /// registry (what `--metrics-addr` serves).
    pub fn render_metrics(&self) -> String {
        self.stats
            .render_metrics(self.batcher.queue_depth(), self.batcher.queue_cap())
    }

    /// A self-contained exposition source for
    /// [`crate::metrics_http::serve_metrics`]: it holds its own handles
    /// on the stats and the batcher, so the endpoint keeps serving while
    /// the daemon blocks in [`ServerHandle::wait`].
    pub fn metrics_source(&self) -> crate::metrics_http::MetricsSource {
        let stats = Arc::clone(&self.stats);
        let batcher = Arc::clone(&self.batcher);
        Arc::new(move || stats.render_metrics(batcher.queue_depth(), batcher.queue_cap()))
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start serving `ctx` over `transport` with the given batching knobs.
/// Returns immediately; the returned handle owns the server's threads.
pub fn serve<T: Transport>(
    transport: T,
    ctx: Arc<SearchContext>,
    opts: BatchOptions,
) -> ServerHandle {
    serve_with_stats(transport, ctx, opts, Arc::new(ServeStats::new()))
}

/// [`serve`] over caller-provided stats. The daemon uses this to create
/// the registry first, so the event log (and anything else that binds
/// counters) shares it with the server from the first request on.
pub fn serve_with_stats<T: Transport>(
    mut transport: T,
    ctx: Arc<SearchContext>,
    opts: BatchOptions,
    stats: Arc<ServeStats>,
) -> ServerHandle {
    let batcher = Arc::new(Batcher::new(Arc::clone(&ctx), opts, Arc::clone(&stats)));
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = Arc::clone(&stop);
    let accept_batcher = Arc::clone(&batcher);
    let accept_stats = Arc::clone(&stats);
    let accept_thread = std::thread::spawn(move || {
        while !accept_stop.load(Ordering::SeqCst) {
            match transport.accept(ACCEPT_TICK) {
                Ok(Some(conn)) => {
                    let ctx = Arc::clone(&ctx);
                    let batcher = Arc::clone(&accept_batcher);
                    let stats = Arc::clone(&accept_stats);
                    let stop = Arc::clone(&accept_stop);
                    // Connection threads are detached: they exit when the
                    // peer closes, and never block shutdown of the handle.
                    std::thread::spawn(move || {
                        handle_connection(conn, &ctx, &batcher, &stats, &stop);
                    });
                }
                Ok(None) => {}
                Err(_) => break, // listener died; stop accepting
            }
        }
    });

    ServerHandle {
        batcher,
        stats,
        stop,
        accept_thread: Some(accept_thread),
    }
}

fn bad_request(message: String) -> Frame {
    Frame::Error(WireError {
        code: ErrorCode::BadRequest,
        message,
        retry_after_ms: 0,
    })
}

/// Serve one client: a loop of request frames, each answered with
/// exactly one response frame. Transport errors end the connection;
/// protocol errors are answered with a `BadRequest` and end it too (a
/// desynchronized framing state is not recoverable mid-stream).
fn handle_connection<C: Read + Write>(
    mut conn: C,
    ctx: &SearchContext,
    batcher: &Batcher,
    stats: &ServeStats,
    stop: &AtomicBool,
) {
    loop {
        let frame = match read_frame(&mut conn) {
            Ok(frame) => frame,
            Err(ProtoError::Io(_)) => return, // peer closed or transport died
            Err(e) => {
                // Includes a frame stamped with any version but ours.
                let _ = write_frame(&mut conn, &bad_request(e.to_string()));
                return;
            }
        };
        let reply = match frame {
            Frame::Search(req) => handle_search(req, ctx, batcher),
            Frame::StatsRequest => Frame::Stats(Box::new(
                stats.snapshot(batcher.queue_depth(), batcher.queue_cap()),
            )),
            Frame::Shutdown => {
                // Stop admissions first, then drain; the ack tells the
                // client the queue has been fully answered.
                stop.store(true, Ordering::SeqCst);
                batcher.shutdown();
                let _ = write_frame(&mut conn, &Frame::ShutdownAck);
                return;
            }
            _ => {
                let reply = bad_request("unexpected frame type from client".to_string());
                let _ = write_frame(&mut conn, &reply);
                return;
            }
        };
        if write_frame(&mut conn, &reply).is_err() {
            return;
        }
    }
}

fn handle_search(req: SearchRequest, ctx: &SearchContext, batcher: &Batcher) -> Frame {
    let queries = match bioseq::read_fasta(req.fasta.as_bytes()) {
        Ok(queries) => queries,
        Err(e) => return bad_request(format!("FASTA parse error: {e}")),
    };
    if queries.is_empty() {
        return bad_request("request contains no FASTA records".to_string());
    }
    let deadline = (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
    let (rx, _trace_id) = match batcher.submit_traced(
        queries,
        req.engine,
        &req.overrides,
        deadline,
        req.trace_id,
        req.want_trace,
    ) {
        Ok(pair) => pair,
        Err(SubmitError::Overloaded { retry_after_ms }) => {
            return Frame::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "admission queue is full".to_string(),
                retry_after_ms,
            })
        }
        Err(SubmitError::ShuttingDown) => {
            return Frame::Error(WireError {
                code: ErrorCode::ShuttingDown,
                message: "server is draining and accepts no new work".to_string(),
                retry_after_ms: 0,
            })
        }
    };
    match rx.recv() {
        Ok(Ok(out)) => {
            let replies = out
                .results
                .into_iter()
                .map(|result| QueryReply {
                    subject_ids: result
                        .alignments
                        .iter()
                        .map(|a| ctx.db.get(a.subject).id.clone())
                        .collect(),
                    result,
                })
                .collect();
            Frame::Results(SearchResponse {
                replies,
                trace_id: out.trace_id,
                trace: req.want_trace.then_some(out.trace),
                degraded: out.degraded,
                blocks_scanned: out.blocks_scanned,
                blocks_skipped: out.blocks_skipped,
            })
        }
        Ok(Err(wire_error)) => Frame::Error(wire_error),
        Err(_) => Frame::Error(WireError {
            code: ErrorCode::Internal,
            message: "batch worker dropped the request".to_string(),
            retry_after_ms: 0,
        }),
    }
}
