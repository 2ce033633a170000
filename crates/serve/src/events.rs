//! Structured JSON event log.
//!
//! Counters say *how much*; the event log says *which request*. Each
//! noteworthy occurrence — a slow query, a degraded sharded answer, an
//! exhausted retry budget, cache pressure — is appended to a file as one
//! self-contained JSON object per line, carrying the request's existing
//! wire trace ID so an operator can join events against exported span
//! traces. The format is hand-rolled (this workspace is dependency-free)
//! and append-only: fields may be added, never renamed.
//!
//! Logging never fails the serving path: a write error increments the
//! `serve.events.dropped` counter and the request proceeds. Every
//! successful append increments `serve.events.logged`, so the registry —
//! and therefore the stats frame and the Prometheus endpoint — always
//! knows whether the log on disk is complete.

use engine::ShardFailure;
use obsv::metrics::names;
use obsv::{Counter, Registry};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// An append-only JSON-lines event sink shared by the batcher and the
/// retry layer.
#[derive(Debug)]
pub struct EventLog {
    writer: Mutex<File>,
    logged: Counter,
    dropped: Counter,
}

impl EventLog {
    /// Open (appending) or create the log at `path`. The registry
    /// provides the logged/dropped counters; pass the serving registry
    /// so event accounting shows up on every surface.
    pub fn create(path: &Path, registry: &Registry) -> io::Result<EventLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog {
            writer: Mutex::new(file),
            logged: registry.counter(names::EVENTS_LOGGED),
            dropped: registry.counter(names::EVENTS_DROPPED),
        })
    }

    /// A request finished slower than the configured threshold.
    pub(crate) fn slow_query(&self, trace_id: u64, total_us: u64, threshold_us: u64) {
        let mut line = self.line_head("slow_query", trace_id);
        let _ = write!(line, ",\"total_us\":{total_us},\"threshold_us\":{threshold_us}}}");
        self.emit(line);
    }

    /// A sharded answer shipped with partial coverage.
    pub(crate) fn shard_degradation(
        &self,
        trace_id: u64,
        failed: &[ShardFailure],
        covered_residues: u64,
        total_residues: u64,
    ) {
        let mut line = self.line_head("shard_degradation", trace_id);
        line.push_str(",\"failed\":[");
        for (i, f) in failed.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(
                line,
                "{{\"shard\":{},\"cause\":\"{}\"}}",
                f.shard,
                f.cause.name()
            );
        }
        let _ = write!(
            line,
            "],\"covered_residues\":{covered_residues},\"total_residues\":{total_residues}}}"
        );
        self.emit(line);
    }

    /// A retry loop gave up with its budget spent. Runs before
    /// admission, so there is no trace ID yet; `trace_id` is 0.
    pub(crate) fn retry_exhaustion(&self, trace_id: u64, attempts: u32, error: &str) {
        let mut line = self.line_head("retry_exhaustion", trace_id);
        line.push_str(",\"attempts\":");
        let _ = write!(line, "{attempts}");
        line.push_str(",\"error\":");
        json_string(&mut line, error);
        line.push('}');
        self.emit(line);
    }

    /// The block cache evicted during one dispatched batch — the working
    /// set no longer fits the budget. `hits` and `misses` are the same
    /// dispatch's cache lookups, so the line itself tells thrashing (many
    /// misses, few hits) from one cold block (one miss among hits).
    pub(crate) fn cache_pressure(
        &self,
        trace_id: u64,
        evictions: u64,
        resident_bytes: u64,
        hits: u64,
        misses: u64,
    ) {
        let mut line = self.line_head("cache_pressure", trace_id);
        let _ = write!(
            line,
            ",\"evictions\":{evictions},\"resident_bytes\":{resident_bytes}\
             ,\"hits\":{hits},\"misses\":{misses}}}"
        );
        self.emit(line);
    }

    fn line_head(&self, event: &str, trace_id: u64) -> String {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"event\":\"{event}\",\"trace\":{trace_id}");
        line
    }

    fn emit(&self, mut line: String) {
        line.push('\n');
        let ok = match self.writer.lock() {
            Ok(mut w) => w.write_all(line.as_bytes()).and_then(|()| w.flush()).is_ok(),
            Err(_) => false,
        };
        if ok {
            self.logged.inc();
        } else {
            self.dropped.inc();
        }
    }
}

/// JSON string escaping per RFC 8259 (quote, backslash, control chars).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ShardFailCause;

    fn log_in(dir: &Path, reg: &Registry) -> (EventLog, std::path::PathBuf) {
        let path = dir.join("events.jsonl");
        let log = EventLog::create(&path, reg).expect("create event log");
        (log, path)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mublastp-events-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn events_are_one_json_object_per_line_with_trace_ids() {
        let reg = Registry::new(true);
        let dir = temp_dir("lines");
        let (log, path) = log_in(&dir, &reg);
        log.slow_query(42, 9_000, 1_000);
        log.shard_degradation(
            43,
            &[ShardFailure { shard: 1, cause: ShardFailCause::Storage }],
            700,
            1_000,
        );
        log.retry_exhaustion(0, 3, "overloaded: \"queue full\"");
        log.cache_pressure(44, 5, 4_096, 3, 13);
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"event\":\"slow_query\""));
        assert!(lines[0].contains("\"trace\":42"));
        assert!(lines[0].contains("\"total_us\":9000"));
        assert!(lines[1].contains("\"cause\":\"storage\""));
        assert!(lines[1].contains("\"covered_residues\":700"));
        assert!(lines[2].contains("\"attempts\":3"));
        assert!(lines[2].contains("\\\"queue full\\\""), "quotes escaped");
        assert!(lines[3].contains("\"evictions\":5,\"resident_bytes\":4096"));
        assert!(lines[3].ends_with(",\"hits\":3,\"misses\":13}"), "{}", lines[3]);
        for line in &lines {
            assert!(line.starts_with("{\"ts_ms\":"));
            assert!(line.ends_with('}'));
            // Balanced quoting: an even number of unescaped quotes.
            let quotes = line.replace("\\\"", "").matches('"').count();
            assert_eq!(quotes % 2, 0, "unbalanced quotes in {line}");
        }
        assert_eq!(reg.value(names::EVENTS_LOGGED), 4);
        assert_eq!(reg.value(names::EVENTS_DROPPED), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failures_count_as_dropped_not_panics() {
        let reg = Registry::new(true);
        let dir = temp_dir("dropped");
        let (log, path) = log_in(&dir, &reg);
        // Invalidate the underlying file the crude way: remove the
        // directory. Appends still succeed on most unix filesystems
        // (the fd stays valid), so instead drop write permission by
        // closing stdout-style isn't portable either — re-create the
        // log against a path inside a removed directory to fail open.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            EventLog::create(&dir.join("nested").join("x.jsonl"), &reg).is_err(),
            "open inside a missing directory must fail, not panic"
        );
        // The still-open log writes into an unlinked file: counted as
        // logged (the write itself succeeds), never a panic.
        log.slow_query(1, 2, 1);
        assert_eq!(reg.value(names::EVENTS_LOGGED) + reg.value(names::EVENTS_DROPPED), 1);
    }
}
