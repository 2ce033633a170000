//! Pluggable connection acceptors.
//!
//! The server core is written against [`Transport`], so the same accept
//! loop, framing, and batching code runs over real TCP sockets in
//! production and over the deterministic in-process [`mod@crate::loopback`]
//! pair in tests — no ports, no firewalls, no flakiness.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A source of framed byte-stream connections.
pub trait Transport: Send + 'static {
    type Conn: Read + Write + Send + 'static;

    /// Wait up to `timeout` for the next connection. `Ok(None)` means
    /// the tick elapsed without one — the caller re-checks its stop flag
    /// and calls again.
    fn accept(&mut self, timeout: Duration) -> io::Result<Option<Self::Conn>>;
}

/// The production transport: a non-blocking TCP listener polled in
/// short sleeps so the accept loop can observe shutdown between ticks.
pub struct TcpTransport {
    listener: TcpListener,
}

impl TcpTransport {
    /// Bind and start listening on `addr` (e.g. `127.0.0.1:7878`).
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl Transport for TcpTransport {
    type Conn = TcpStream;

    fn accept(&mut self, timeout: Duration) -> io::Result<Option<TcpStream>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Frames are small and latency-sensitive; don't let
                    // Nagle hold the reply header back.
                    let _ = stream.set_nodelay(true);
                    stream.set_nonblocking(false)?;
                    return Ok(Some(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
