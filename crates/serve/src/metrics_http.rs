//! A minimal HTTP/1.0 endpoint serving the Prometheus text exposition.
//!
//! `mublastpd --metrics-addr HOST:PORT` binds this next to the wire
//! protocol listener. It speaks just enough HTTP for a Prometheus
//! scraper or `curl`: one request per connection, `GET /metrics` answers
//! `200` with `text/plain; version=0.0.4`, anything else `404`. The
//! workspace is dependency-free, so the server is a plain
//! `TcpListener` with the same stop-flag-plus-accept-tick shape as the
//! main accept loop — no async runtime, no HTTP library.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop wakes to re-check the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(50);
/// Per-connection socket timeout: a stalled scraper cannot wedge the
/// endpoint (one connection is served at a time; scrapes are rare).
const CONN_TIMEOUT: Duration = Duration::from_secs(2);

/// Renders the current exposition text on demand (the closure typically
/// wraps [`crate::ServerHandle::render_metrics`]).
pub(crate) type MetricsSource = Arc<dyn Fn() -> String + Send + Sync>;

/// A running metrics endpoint. Dropping the handle stops it.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with a `:0` port in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and serve `GET /metrics` from `source` until the handle
/// is shut down or dropped.
pub fn serve_metrics(addr: &str, source: MetricsSource) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !accept_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((conn, _)) => handle_scrape(conn, &source),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(_) => break, // listener died; stop accepting
            }
        }
    });
    Ok(MetricsServer { addr, stop, thread: Some(thread) })
}

/// Serve one scrape. All errors just drop the connection: a half-open
/// or hostile scraper must never disturb the daemon.
fn handle_scrape(mut conn: TcpStream, source: &MetricsSource) {
    let _ = conn.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = conn.set_write_timeout(Some(CONN_TIMEOUT));
    let Some(target) = read_request_target(&mut conn) else {
        return;
    };
    let response = if target == "/metrics" {
        let body = source();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let body = "not found; scrape /metrics\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}

/// Read the whole request head (through the blank line ending the
/// headers, within a small byte budget) and return the request target
/// of a GET; `None` for anything else. The head must be fully consumed
/// before we reply: closing a socket with unread bytes buffered resets
/// the connection, which can destroy the response in flight.
fn read_request_target(conn: &mut TcpStream) -> Option<String> {
    let mut first_line: Option<String> = None;
    let mut line = Vec::with_capacity(256);
    let mut total = 0usize;
    let mut byte = [0u8; 1];
    // Byte-at-a-time: request heads are tiny and scrapes are rare, so
    // simplicity beats buffering here.
    while total < 4096 {
        match conn.read(&mut byte) {
            Ok(1) => {
                total += 1;
                if byte[0] == b'\n' {
                    if line.is_empty() {
                        break; // blank line: end of headers
                    }
                    if first_line.is_none() {
                        first_line = Some(String::from_utf8(std::mem::take(&mut line)).ok()?);
                    } else {
                        line.clear();
                    }
                } else if byte[0] != b'\r' {
                    line.push(byte[0]);
                }
            }
            // EOF or timeout: answer whatever request line we did read.
            _ => break,
        }
    }
    let line = first_line?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    (method == "GET").then(|| target.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn get_metrics_returns_the_rendered_exposition() {
        let source: MetricsSource =
            Arc::new(|| "# TYPE up gauge\nup 1\n".to_string());
        let mut server = serve_metrics("127.0.0.1:0", source).expect("bind");
        let response = scrape(
            server.addr(),
            "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("Content-Length: 21"));
        assert!(response.ends_with("# TYPE up gauge\nup 1\n"));
        server.shutdown();
    }

    #[test]
    fn other_paths_and_methods_are_rejected() {
        let source: MetricsSource = Arc::new(String::new);
        let server = serve_metrics("127.0.0.1:0", source).expect("bind");
        let response = scrape(server.addr(), "GET /other HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");
        // A POST gets no response at all: the connection just closes.
        let response = scrape(server.addr(), "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(response.is_empty(), "{response}");
    }
}
