//! A resident-index search service for muBLASTP.
//!
//! The paper's central economic argument for database indexing (Sec. III)
//! is *amortization*: the index is built once and reused across every
//! query batch. A command-line run rebuilds or reloads it per invocation;
//! this crate keeps it resident. `mublastpd` loads the database, its
//! block-partitioned index, and the neighbor table exactly once, then
//! serves searches over a small framed wire protocol.
//!
//! The second half of the amortization story is **batching**: Alg. 3's
//! schedule (serial over index blocks, dynamic parallel-for over queries
//! within each block) pays off when many queries share each block's trip
//! through the cache hierarchy. Network clients arrive one at a time, so
//! the daemon's `batcher` coalesces concurrent requests into engine
//! batches behind a bounded admission queue — overload is answered with a
//! typed `Overloaded` error instead of unbounded queueing, and coalescing
//! is provably invisible in the results because every engine stage is
//! per-query independent (`engine::split_batch` demultiplexes).
//!
//! Module map:
//!
//! * [`proto`] — the framed, version-stamped wire protocol (pure functions over
//!   `Read`/`Write`; no I/O policy).
//! * `batcher` — admission control, batch forming, dispatch, demux.
//! * `stats` — queue/batch/latency counters behind one lock.
//! * `transport` / `loopback` — pluggable acceptors: real TCP and a
//!   deterministic in-process pair for tests and examples.
//! * `server` — the accept loop and per-connection frame handler.
//! * `client` — a small synchronous client used by `mublastp-query`.
//! * [`faulty`] — deterministic fault-injecting transport wrappers for
//!   the chaos suite.
//! * [`retry`] — a deterministic retry/backoff policy for clients, with
//!   admission-aware classification of which failures are safe to retry.
//! * `events` — the append-only JSON-lines event log (slow queries,
//!   degradation, retry exhaustion, cache pressure), joined to span
//!   traces by wire trace ID.
//! * `metrics_http` — a dependency-free HTTP/1.0 endpoint serving the
//!   Prometheus text exposition of the daemon's metrics registry
//!   (`mublastpd --metrics-addr`).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

mod batcher;
mod client;
mod events;
pub mod faulty;
mod loopback;
mod metrics_http;
pub mod proto;
pub mod retry;
mod server;
mod stats;
mod transport;

pub use batcher::{BatchOptions, ResidentIndex, SearchContext};
pub use client::{Client, ClientError};
pub use events::EventLog;
pub use faulty::FaultyConn;
pub use loopback::{loopback, LoopbackConnector};
pub use metrics_http::serve_metrics;
pub use proto::{Frame, ParamOverrides, SearchRequest, SearchResponse, StatsReport};
pub use retry::RetryPolicy;
pub use server::{serve, serve_with_stats, ServerHandle};
pub use stats::ServeStats;
pub use transport::TcpTransport;
