//! The benchmark's own spans: recorded around every call it makes into a
//! layer, kept in memory, written as a Chrome trace when the run ends.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. A layer's *self time* is its span minus the part
//! of that interval its children cover — children may overlap (the
//! engine's workers run in parallel), so coverage is the union of their
//! intervals, not the sum.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`Spans`].
    pub parent: Option<usize>,
    /// Sequence number of the request in its phase.
    pub request: u64,
    /// Thread lane for the trace viewer.
    pub lane: u32,
}

/// Per-name aggregate of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        lane: u32,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
            lane,
        });
        self.spans.len() - 1
    }

    /// Adopt the program's own stage spans (recorded against
    /// `session_epoch`) as children of `parent`.
    pub fn adopt(
        &mut self,
        trace: &obsv::Trace,
        session_epoch: Instant,
        parent: usize,
        request: u64,
    ) {
        let shift = self.ns(session_epoch);
        // `Gapped` nests inside the `Finish` span of the same query.
        let mut finish_of: BTreeMap<u32, usize> = BTreeMap::new();
        let mut stages: Vec<&obsv::SpanRecord> = trace.spans.iter().collect();
        stages.sort_by_key(|s| s.stage != obsv::Stage::Finish);
        for s in stages {
            let under = match s.stage {
                obsv::Stage::Gapped => finish_of.get(&s.query).copied().unwrap_or(parent),
                _ => parent,
            };
            self.spans.push(Span {
                name: format!("engine.{}", s.stage.name()),
                start_ns: shift + s.start_ns,
                end_ns: shift + s.start_ns + s.dur_ns,
                parent: Some(under),
                request,
                lane: 100 + s.worker,
            });
            if s.stage == obsv::Stage::Finish {
                finish_of.insert(s.query, self.spans.len() - 1);
            }
        }
    }

    /// Append another recorder's spans (same epoch), fixing parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (ps, pe) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
                children[p].push((a, b));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<String, NameTotal> {
        let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Mean duration of the spans called `name`, in microseconds; 0 when
    /// there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (mut n, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Mean over requests of (longest ÷ mean) duration of the request's
    /// spans called `name`; 0 when there are none.
    pub fn imbalance(&self, name: &str) -> f64 {
        let mut per_request: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            per_request
                .entry(s.request)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64);
        }
        let ratios: Vec<f64> = per_request
            .values()
            .map(|d| {
                d.iter().cloned().fold(0.0, f64::max) * d.len() as f64
                    / d.iter().sum::<f64>().max(1.0)
            })
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Write the spans in Chrome's trace-event format (`chrome://tracing`,
    /// Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                if i == 0 { "" } else { "," },
                quote(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.lane,
                s.request,
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut spans = Spans::new(epoch);
        let root = spans.push("root", at(0), at(100), None, 1, 0);
        // Two overlapping children cover 10..60, a third covers 70..80.
        let a = spans.push("a", at(10), at(50), Some(root), 1, 0);
        spans.push("b", at(30), at(60), Some(root), 1, 1);
        spans.push("a", at(70), at(80), Some(root), 1, 0);
        spans.push("leaf", at(20), at(30), Some(a), 1, 0);
        let own = spans.self_ns();
        assert_eq!(own[root], 40_000);
        assert_eq!(own[a], 30_000);
        let names = spans.by_name();
        assert_eq!(
            names["a"],
            NameTotal {
                count: 2,
                total_ns: 50_000,
                self_ns: 40_000
            }
        );
        assert_eq!(spans.mean_us("a"), 25.0);
        assert_eq!(spans.mean_us("none"), 0.0);
        // Request 1 has "a" spans of 40 and 10 us: longest over mean is 1.6.
        assert!((spans.imbalance("a") - 1.6).abs() < 1e-9);
        assert_eq!(spans.imbalance("none"), 0.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        a.push("x", epoch, epoch, None, 0, 0);
        let mut b = Spans::new(epoch);
        let p = b.push("p", epoch, epoch, None, 1, 0);
        b.push("c", epoch, epoch, Some(p), 1, 0);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
