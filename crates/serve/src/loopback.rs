//! Deterministic in-process transport for tests and examples.
//!
//! [`loopback`] returns a ([`LoopbackTransport`], [`LoopbackConnector`])
//! pair. The transport side plugs into [`crate::serve`] like a TCP
//! listener; each `connect()` on the (cloneable) connector yields the
//! client end of a fresh duplex byte pipe whose server end pops out of
//! the transport's `accept`. Everything is `std` primitives — two
//! `Lock<VecDeque<u8>>` half-pipes with condvars — so multi-client
//! integration tests run with zero sockets and zero timing flakiness
//! beyond the scheduler itself.

use crate::transport::Transport;
use obsv::Lock;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// One direction of a duplex pipe.
struct Pipe {
    state: Lock<PipeState>,
    cv: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    /// Set when either end drops: readers see EOF after draining,
    /// writers get `BrokenPipe` immediately.
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Lock::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// One end of an in-process duplex byte stream.
pub struct LoopbackConn {
    read_from: Arc<Pipe>,
    write_to: Arc<Pipe>,
}

/// A connected pair of ends: bytes written to one are read from the other.
fn duplex() -> (LoopbackConn, LoopbackConn) {
    let a = Pipe::new();
    let b = Pipe::new();
    (
        LoopbackConn {
            read_from: Arc::clone(&a),
            write_to: Arc::clone(&b),
        },
        LoopbackConn {
            read_from: b,
            write_to: a,
        },
    )
}

impl Read for LoopbackConn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.read_from.state.lock();
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().unwrap_or(0);
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0); // EOF
            }
            state = state.wait(&self.read_from.cv);
        }
    }
}

impl Write for LoopbackConn {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut state = self.write_to.state.lock();
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        state.buf.extend(data.iter().copied());
        self.write_to.cv.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackConn {
    fn drop(&mut self) {
        // Wake the peer on both halves: its pending reads turn into EOF,
        // its future writes into BrokenPipe.
        self.read_from.close();
        self.write_to.close();
    }
}

/// Client-side dialer; clone one per client thread.
#[derive(Clone)]
pub struct LoopbackConnector {
    tx: mpsc::Sender<LoopbackConn>,
}

impl LoopbackConnector {
    /// Open a new connection to the paired transport.
    pub fn connect(&self) -> io::Result<LoopbackConn> {
        let (client_end, server_end) = duplex();
        obsv::send(&self.tx, server_end)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server gone"))?;
        Ok(client_end)
    }
}

/// Server-side acceptor; hand it to [`crate::serve`].
pub struct LoopbackTransport {
    rx: mpsc::Receiver<LoopbackConn>,
}

impl Transport for LoopbackTransport {
    type Conn = LoopbackConn;

    fn accept(&mut self, timeout: Duration) -> io::Result<Option<LoopbackConn>> {
        match self.rx.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(conn)),
            // Disconnected == every connector dropped; report an idle
            // tick and let the server's stop flag end the loop.
            Err(_) => Ok(None),
        }
    }
}

/// Create a connected transport/connector pair.
pub fn loopback() -> (LoopbackTransport, LoopbackConnector) {
    let (tx, rx) = mpsc::channel();
    (LoopbackTransport { rx }, LoopbackConnector { tx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bytes_cross_the_pipe_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn drop_gives_peer_eof_after_drain() {
        let (mut a, mut b) = duplex();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn connector_delivers_connections_to_transport() {
        let (mut transport, connector) = loopback();
        let mut client = connector.connect().unwrap();
        client.write_all(b"hi").unwrap();
        let mut server = transport
            .accept(Duration::from_secs(1))
            .unwrap()
            .expect("connection should be waiting");
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn accept_times_out_quietly() {
        let (mut transport, _connector) = loopback();
        assert!(transport
            .accept(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }
}
