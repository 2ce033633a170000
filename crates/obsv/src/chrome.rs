//! Chrome Trace Event / Perfetto export.
//!
//! Emits the JSON object form of the [Trace Event Format] with complete
//! (`"ph":"X"`) events: one event per span, `pid` = trace id, `tid` =
//! worker, timestamps in microseconds with nanosecond precision carried in
//! the fractional part. Load the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.
//!
//! All output is deterministic for a given span list: numbers are
//! formatted with integer arithmetic and stage names are fixed strings,
//! so normalized traces of the same logical run differ only in the
//! timestamp fields.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::span::{NO_BLOCK, NO_QUERY};
use crate::trace::Trace;
use std::io::{self, Write};

/// Write `trace` as Chrome/Perfetto `trace.json`.
pub fn write_chrome_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for s in &trace.spans {
        if first {
            first = false;
            writeln!(w)?;
        } else {
            writeln!(w, ",")?;
        }
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{",
            s.stage.name(),
            micros(s.start_ns),
            micros(s.dur_ns),
            s.trace_id,
            s.worker,
        )?;
        let mut first_arg = true;
        let mut arg = |w: &mut W, key: &str, val: u64| -> io::Result<()> {
            if first_arg {
                first_arg = false;
            } else {
                write!(w, ",")?;
            }
            write!(w, "\"{key}\":{val}")
        };
        if s.query != NO_QUERY {
            arg(w, "query", s.query as u64)?;
        }
        if s.block != NO_BLOCK {
            arg(w, "block", s.block as u64)?;
        }
        arg(w, "seq", s.seq)?;
        write!(w, "}}}}")?;
    }
    if trace.dropped > 0 {
        // A metadata-style instant noting ring overflow.
        if !first {
            writeln!(w, ",")?;
        }
        write!(
            w,
            "{{\"name\":\"spans_dropped\",\"cat\":\"stage\",\"ph\":\"I\",\"ts\":0,\
             \"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"count\":{}}}}}",
            trace.dropped
        )?;
    }
    writeln!(w, "\n]}}")
}

/// Nanoseconds rendered as a microsecond decimal (`1234567` → `1234.567`)
/// using only integer arithmetic, so formatting is exact and
/// deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanRecord, Stage};

    /// What `mublastp-query --trace` writes for `trace`.
    fn chrome_json(trace: &Trace) -> String {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, trace).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn sample() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    trace_id: 1,
                    seq: 0,
                    stage: Stage::Seed,
                    query: 0,
                    block: 2,
                    worker: 1,
                    start_ns: 1_234_567,
                    dur_ns: 890,
                },
                SpanRecord {
                    trace_id: 1,
                    seq: 1,
                    stage: Stage::Search,
                    query: NO_QUERY,
                    block: NO_BLOCK,
                    worker: 0,
                    start_ns: 0,
                    dur_ns: 5_000_000,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn emits_complete_events_with_exact_timestamps() {
        let json = chrome_json(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"seed\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":0.890"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"args\":{\"query\":0,\"block\":2,\"seq\":0}"));
        // The sentinel query/block are omitted from args.
        assert!(json.contains("\"name\":\"search\""));
        assert!(json.contains("\"args\":{\"seq\":1}"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_json(&Trace::new());
        assert_eq!(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn dropped_spans_are_noted() {
        let mut t = sample();
        t.dropped = 42;
        let json = chrome_json(&t);
        assert!(json.contains("\"name\":\"spans_dropped\""));
        assert!(json.contains("\"count\":42"));
    }

    #[test]
    fn output_is_balanced_json() {
        // A structural sanity check without a JSON parser: every brace
        // and bracket balances, and no depth goes negative.
        let json = chrome_json(&sample());
        let mut depth = 0i64;
        for c in json.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }
}
