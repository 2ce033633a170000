//! Dependency-free tracing and metrics for the muBLASTP-rs pipeline.
//!
//! The paper's whole argument rests on knowing *where time goes* — its
//! Fig. 2/8 analysis attributes runtime to hit detection, ungapped
//! extension, and memory stalls. This crate makes the same attribution
//! observable on a live run: wall-clock spans for every pipeline stage,
//! one timeline per `(query, block)`, with two export formats.
//!
//! Design constraints, in order:
//!
//! 1. **No locks in hot loops.** Clippy's `disallowed_types` bans
//!    `Mutex`/`RwLock` inside `engine/src/kernels/`, so recording state is
//!    per-worker — a [`Recorder`] handed out like the engine's `Scratch`
//!    and merged into a [`Trace`] after the parallel-for joins. Rings are
//!    bounded (overwrite-oldest, sequence-numbered) so a runaway stage
//!    cannot exhaust memory.
//! 2. **The disabled path costs a few branches.** [`ObsvConfig`] is off
//!    by default; a disabled [`Recorder`] never reads the clock or
//!    allocates, and the [`NoObs`] observer compiles away entirely (the
//!    same zero-cost-generic discipline the kernels use for
//!    `memsim::Tracer`). `crates/bench`'s `obsv_overhead` bench asserts
//!    <2% overhead for the disabled-recorder path.
//! 3. **No dependencies.** Exporters hand-roll their output formats:
//!    Chrome/Perfetto `trace.json` ([`write_chrome_trace`]) and
//!    flamegraph folded stacks ([`write_folded`]).
//!
//! Besides per-span tracing, the crate hosts the service's unified
//! [`metrics`] registry: every counter, gauge, and latency histogram the
//! serving stack exports, declared under stable dotted names, rendered
//! as a Prometheus text exposition, and pinned by the golden exposition
//! `tests/fixtures/metrics.v{METRICS_VERSION}.prom`.
//!
//! It also hosts the workspace's one mutex, [`Lock`], which checks the
//! lock rules (one lock per thread; none held across a channel [`send`]
//! or an injected fault delay) at run time in debug builds.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

mod chrome;
mod folded;
mod lock;
pub mod metrics;
mod recorder;
mod span;
mod trace;

pub use chrome::write_chrome_trace;
pub use folded::write_folded;
pub use lock::{assert_unlocked, send, Lock, LockGuard};
pub use metrics::{
    Counter, Gauge, HistSummary, Histogram, Registry, SizeHistogram, METRICS_VERSION,
};
pub use recorder::{NoObs, ObsvConfig, Recorder, StageObs, TraceSession};
pub use span::{SpanRecord, Stage, NO_BLOCK, NO_QUERY};
pub use trace::Trace;

#[cfg(test)]
mod tests {
    use super::*;

    /// The Chrome trace and folded stacks `mublastp-query --trace` and
    /// `--trace-folded` write for `trace`.
    fn exports(trace: &Trace) -> (String, String) {
        let (mut json, mut folded) = (Vec::new(), Vec::new());
        write_chrome_trace(&mut json, trace).unwrap();
        write_folded(&mut folded, trace).unwrap();
        (
            String::from_utf8(json).unwrap(),
            String::from_utf8(folded).unwrap(),
        )
    }

    /// Span-merge determinism: recorders merged in any order produce the
    /// same normalized trace, hence byte-identical exports modulo
    /// timestamps (here timestamps are fixed, so fully byte-identical).
    #[test]
    fn merge_order_does_not_change_normalized_exports() {
        let session = TraceSession::new(ObsvConfig::on());
        let make = |worker: u32, queries: &[u32]| {
            let mut r = session.recorder();
            r.set_worker(worker);
            for &q in queries {
                r.set_ctx(1, q, 0);
                let t = r.start();
                r.record(Stage::Seed, t);
            }
            r
        };
        let (a1, a2) = (make(0, &[0, 2]), make(1, &[1, 3]));
        let (b1, b2) = (make(0, &[0, 2]), make(1, &[1, 3]));

        let mut ta = Trace::new();
        ta.absorb(a1);
        ta.absorb(a2);
        let mut tb = Trace::new();
        tb.absorb(b2); // reversed merge order
        tb.absorb(b1);
        ta.normalize();
        tb.normalize();

        // Erase wall-clock fields; everything else must match exactly.
        let strip = |t: &Trace| {
            let mut t = t.clone();
            for s in &mut t.spans {
                s.start_ns = 0;
                s.dur_ns = 0;
            }
            t
        };
        let (sa, sb) = (strip(&ta), strip(&tb));
        assert_eq!(sa, sb);
        assert_eq!(exports(&sa), exports(&sb));
    }

    /// End-to-end: record through the trait, merge, export both formats.
    #[test]
    fn record_merge_export_round_trip() {
        let session = TraceSession::new(ObsvConfig::on());
        let mut rec = session.recorder();
        rec.set_ctx(9, 0, 1);
        let t = rec.start();
        rec.record(Stage::Seed, t);
        let t = rec.start();
        rec.record(Stage::Reorder, t);
        let mut trace = Trace::new();
        trace.absorb(rec);
        trace.normalize();
        assert_eq!(trace.len(), 2);
        let (json, _) = exports(&trace);
        assert!(json.contains("\"name\":\"seed\""));
        assert!(json.contains("\"name\":\"reorder\""));
        assert!(json.contains("\"pid\":9"));
    }
}
