//! Fault-injecting wrappers for the transport seam.
//!
//! [`FaultyConn`] decorates any `Read + Write` connection with the
//! failures a real network produces — resets mid-read, torn writes,
//! byte-at-a-time short reads, added latency — driven by a deterministic
//! [`faultfn::Faults`] plan, so the chaos suite can replay the exact
//! same torn frame on every run. Wrapping the *client* side of a
//! [`mod@crate::loopback`] pair exercises the server's handling of a
//! misbehaving peer.
//!
//! With an unarmed plan every operation forwards untouched (one branch
//! of overhead), which is how the chaos tests pin "faults disabled ⇒
//! byte-identical to the baseline".

use std::io::{self, Read, Write};
use std::time::Duration;

/// Site: a read call fails with `ConnectionReset` before touching the
/// underlying stream.
pub const FAULT_READ_RESET: &str = "conn.read.reset";
/// Site: a read call is truncated to at most one byte (a short read —
/// legal per the `Read` contract, and exactly what exposes callers that
/// assume one `read` returns one frame).
pub const FAULT_READ_SHORT: &str = "conn.read.short";
/// Site: a write call writes roughly half the buffer, then the
/// connection resets — a torn frame on the wire.
pub const FAULT_WRITE_TORN: &str = "conn.write.torn";
/// Site: a read call sleeps a deterministic sub-millisecond delay first
/// (injected network latency; bounded so chaos runs stay fast).
pub(crate) const FAULT_LATENCY: &str = "conn.latency";

/// A `Read + Write` stream with seeded fault injection on every call.
#[derive(Debug)]
pub struct FaultyConn<C> {
    inner: C,
    faults: faultfn::Faults,
}

impl<C> FaultyConn<C> {
    /// Wrap `inner`; `faults` decides which calls fail.
    pub fn new(inner: C, faults: faultfn::Faults) -> FaultyConn<C> {
        FaultyConn { inner, faults }
    }

    /// The wrapped stream, dropping the fault layer.
    #[cfg(test)]
    pub(crate) fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Read> Read for FaultyConn<C> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.faults.fire(FAULT_LATENCY) {
            // Deterministic 0..512 µs: visible in latency digests without
            // slowing a thousand-frame chaos sweep to a crawl.
            let us = self.faults.rand(FAULT_LATENCY, self.faults.calls(FAULT_LATENCY)) % 512;
            std::thread::sleep(Duration::from_micros(us));
        }
        if self.faults.fire(FAULT_READ_RESET) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected connection reset",
            ));
        }
        if self.faults.fire(FAULT_READ_SHORT) && buf.len() > 1 {
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

impl<C: Write> Write for FaultyConn<C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.faults.fire(FAULT_WRITE_TORN) {
            // Push out a prefix so the peer sees a torn frame, then fail
            // the call: the bytes are on the wire, the frame is not.
            let cut = (buf.len() / 2).max(1).min(buf.len());
            if !buf.is_empty() {
                let _ = self.inner.write(&buf[..cut]);
                let _ = self.inner.flush();
            }
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected torn write",
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultfn::{FaultPlan, Schedule};

    #[test]
    fn unarmed_conn_is_transparent() {
        let data = b"hello frames".to_vec();
        let mut conn = FaultyConn::new(&data[..], faultfn::Faults::none());
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("clean read");
        assert_eq!(out, data);
        let mut sink = FaultyConn::new(Vec::new(), faultfn::Faults::none());
        sink.write_all(b"abc").expect("clean write");
        assert_eq!(sink.into_inner(), b"abc");
    }

    #[test]
    fn injected_reset_fails_the_scheduled_read_only() {
        let faults = FaultPlan::new(3).with(FAULT_READ_RESET, Schedule::Nth(1)).build();
        let data = [7u8; 8];
        let mut conn = FaultyConn::new(&data[..], faults);
        let mut buf = [0u8; 4];
        assert_eq!(conn.read(&mut buf).expect("first read clean"), 4);
        let err = conn.read(&mut buf).expect_err("second read resets");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(conn.read(&mut buf).expect("third read clean"), 4);
    }

    #[test]
    fn short_reads_deliver_one_byte_at_a_time_yet_read_exact_succeeds() {
        // read_exact must survive pathological-but-legal short reads —
        // the framing layer depends on it.
        let faults = FaultPlan::new(3).with(FAULT_READ_SHORT, Schedule::Always).build();
        let data = b"0123456789".to_vec();
        let mut conn = FaultyConn::new(&data[..], faults);
        let mut buf = [0u8; 10];
        conn.read_exact(&mut buf).expect("read_exact loops over short reads");
        assert_eq!(&buf, data.as_slice());
    }

    #[test]
    fn torn_write_pushes_a_prefix_then_resets() {
        let faults = FaultPlan::new(5).with(FAULT_WRITE_TORN, Schedule::Nth(0)).build();
        let mut conn = FaultyConn::new(Vec::new(), faults);
        let err = conn.write_all(b"0123456789").expect_err("torn");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let wire = conn.into_inner();
        assert!(!wire.is_empty() && wire.len() < 10, "a strict prefix reached the wire");
        assert_eq!(wire.as_slice(), &b"0123456789"[..wire.len()]);
    }

    #[test]
    fn same_seed_tears_the_same_bytes() {
        let run = || {
            let faults =
                FaultPlan::new(11).with(FAULT_WRITE_TORN, Schedule::EveryNth(2)).build();
            let mut conn = FaultyConn::new(Vec::new(), faults);
            for chunk in [&b"aaaa"[..], b"bbbbbb", b"cc"] {
                let _ = conn.write_all(chunk);
            }
            conn.into_inner()
        };
        assert_eq!(run(), run());
    }
}
