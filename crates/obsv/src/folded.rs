//! Flamegraph folded-stack export.
//!
//! One line per stage with nonzero *self* time, in the standard
//! `frame;frame;frame value` form consumed by `flamegraph.pl` and
//! `inferno`. The stack is the stage's logical ancestry
//! ([`crate::Stage::parent`]): engine stages sit under `search`, which
//! sits with `queue_wait` under `request`, and `gapped` under `finish`.
//!
//! Because recorded spans are *inclusive* (a `finish` span contains its
//! `gapped` sub-spans), each stage's value is its inclusive total minus
//! its children's inclusive totals, saturating at zero — so frame widths
//! add up correctly in the rendered flamegraph. Values are nanoseconds.

use crate::span::Stage;
use crate::trace::Trace;
use std::io::{self, Write};

/// Write `trace` as folded stacks (deterministic: fixed stage order).
pub fn write_folded<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    let mut inclusive = [0u64; Stage::ALL.len()];
    for s in &trace.spans {
        let i = stage_index(s.stage);
        inclusive[i] = inclusive[i].saturating_add(s.dur_ns);
    }
    for stage in Stage::ALL {
        let own = inclusive[stage_index(stage)];
        if own == 0 {
            continue;
        }
        let child_sum: u64 = Stage::ALL
            .into_iter()
            .filter(|c| c.parent() == Some(stage))
            .map(|c| inclusive[stage_index(c)])
            .sum();
        let self_ns = own.saturating_sub(child_sum);
        if self_ns == 0 {
            continue;
        }
        writeln!(w, "{} {}", stack_path(stage), self_ns)?;
    }
    Ok(())
}

fn stage_index(stage: Stage) -> usize {
    (stage.code() - 1) as usize
}

/// `request;search;finish;gapped`-style ancestry path for a stage.
fn stack_path(stage: Stage) -> String {
    let mut names = vec![stage.name()];
    let mut cur = stage;
    while let Some(p) = cur.parent() {
        names.push(p.name());
        cur = p;
    }
    names.reverse();
    names.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanRecord, NO_BLOCK, NO_QUERY};

    /// What `mublastp-query --trace-folded` writes for `trace`.
    fn folded_text(trace: &Trace) -> String {
        let mut buf = Vec::new();
        write_folded(&mut buf, trace).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn span(stage: Stage, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            seq: 0,
            stage,
            query: NO_QUERY,
            block: NO_BLOCK,
            worker: 0,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn paths_follow_the_stage_hierarchy() {
        assert_eq!(stack_path(Stage::Request), "request");
        assert_eq!(stack_path(Stage::Seed), "request;search;seed");
        assert_eq!(stack_path(Stage::Gapped), "request;search;finish;gapped");
        assert_eq!(stack_path(Stage::QueueWait), "request;queue_wait");
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace {
            spans: vec![
                span(Stage::Finish, 100),
                span(Stage::Gapped, 30),
                span(Stage::Seed, 50),
            ],
            dropped: 0,
        };
        let out = folded_text(&t);
        assert!(out.contains("request;search;seed 50\n"));
        assert!(out.contains("request;search;finish;gapped 30\n"));
        // finish self time = 100 - 30.
        assert!(out.contains("request;search;finish 70\n"));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn fully_nested_parent_emits_no_line() {
        // A search span exactly covered by its children has zero self time.
        let t = Trace {
            spans: vec![span(Stage::Search, 80), span(Stage::Seed, 80)],
            dropped: 0,
        };
        let out = folded_text(&t);
        assert_eq!(out, "request;search;seed 80\n");
    }

    #[test]
    fn empty_trace_empty_output() {
        assert_eq!(folded_text(&Trace::new()), "");
    }
}
