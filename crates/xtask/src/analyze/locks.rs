//! Lock-order / deadlock analysis.
//!
//! The pass extracts every `Mutex`/`RwLock` acquisition site — direct
//! `.lock()` / zero-arg `.read()` / `.write()` calls, plus calls to
//! guard-returning helper functions (`fn lock(queue: &Mutex<..>) ->
//! MutexGuard<..>` and friends) — and simulates guard lifetimes through
//! `let` bindings, explicit `drop(..)`, statement ends, and scope exits.
//! From the simulation it derives:
//!
//! * a **lock-acquisition graph**: an edge `A → B` whenever `B` is
//!   acquired (directly or through a callee) while `A` is held. Cycles
//!   are reported as `lock-order` findings — two threads taking the
//!   locks in opposite orders can deadlock.
//! * **held-across-send** (`lock-across-send`): a channel `.send(..)`
//!   while holding any lock. Even unbounded-channel sends are banned
//!   under a lock by policy: the send wakes a receiver that may contend
//!   for the same lock, and a bounded channel would deadlock outright.
//! * **held-across-fire** (`lock-across-fire`): a `Faults::fire` point
//!   under a lock. Fault sites are meant to be injectable anywhere;
//!   firing one under a lock couples the fault plan to lock hold times.
//!   `Faults::fire` is atomics-only today, so genuinely-safe sites carry
//!   an inline `lint: allow(lock-across-fire)` stating that invariant.
//!
//! Lock identity is approximate: `(crate, last receiver field segment)`.
//! Two different fields named `state` in the same crate would alias;
//! the workspace's lock fields are named distinctly per crate.

use super::{describe, resolve, CallIndex, FileUnit, FnRef};
use crate::parser::{calls_in, match_delim, receiver_chain, Call, CallKind};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

pub(crate) const RULE_ORDER: &str = "lock-order";
pub(crate) const RULE_SEND: &str = "lock-across-send";
pub(crate) const RULE_FIRE: &str = "lock-across-fire";

/// Direct (non-transitive) lock behaviour of one fn.
#[derive(Clone, Debug, Default)]
struct Summary {
    /// Concrete lock ids acquired in the body.
    acquires: BTreeSet<String>,
    /// Parameters whose lock the body acquires (guard helpers).
    param_acquires: BTreeSet<String>,
    /// Whether the fn returns a guard (candidate acquisition helper).
    returns_guard: bool,
    sends: Option<(String, usize)>,
    fires: Option<(String, usize)>,
}

/// One live guard during simulation.
struct Guard {
    name: Option<String>,
    id: String,
    depth: usize,
    temp: bool,
}

/// A call made while holding locks, checked after transitive closure.
struct Deferred {
    held: Vec<String>,
    refs: Vec<FnRef>,
    file: usize,
    line: usize,
}

/// An edge in the lock-acquisition graph, with one example site.
struct Edge {
    path: String,
    line: usize,
    via: String,
}

/// Run the pass over every in-scope unit.
pub(crate) fn check(units: &[FileUnit], index: &CallIndex) -> Vec<Finding> {
    // Phase 0: shallow summaries — direct acquisitions only, so callers
    // can resolve guard-helper calls. Helpers that acquire through
    // *another* helper are not modelled (documented caveat).
    let mut shallow: HashMap<FnRef, Summary> = HashMap::new();
    for (file, u) in units.iter().enumerate() {
        if !super::in_analysis_scope(&u.rel) {
            continue;
        }
        for (f, info) in u.fns.iter().enumerate() {
            if info.is_test || info.body.is_empty() {
                continue;
            }
            shallow.insert(FnRef { file, f }, shallow_summary(u, f));
        }
    }

    // Phase 1: full simulation per fn — immediate findings, graph edges,
    // deferred interprocedural checks, and call-graph adjacency.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut deferred: Vec<Deferred> = Vec::new();
    let mut callees: HashMap<FnRef, Vec<FnRef>> = HashMap::new();
    let mut summaries: HashMap<FnRef, Summary> = HashMap::new();
    for (file, u) in units.iter().enumerate() {
        if !super::in_analysis_scope(&u.rel) {
            continue;
        }
        for (f, info) in u.fns.iter().enumerate() {
            if info.is_test || info.body.is_empty() {
                continue;
            }
            let r = FnRef { file, f };
            let (summary, adj) = simulate(
                units,
                index,
                &shallow,
                file,
                f,
                &mut findings,
                &mut edges,
                &mut deferred,
            );
            callees.insert(r, adj);
            summaries.insert(r, summary);
        }
    }

    // Phase 2: transitive closure of {acquires, sends, fires} over the
    // call graph (fixpoint; the graph is small).
    loop {
        let mut changed = false;
        let keys: Vec<FnRef> = summaries.keys().copied().collect();
        for r in keys {
            let adj = callees.get(&r).cloned().unwrap_or_default();
            let mut add_acquires: Vec<String> = Vec::new();
            let mut add_sends = None;
            let mut add_fires = None;
            for c in adj {
                if let Some(cs) = summaries.get(&c) {
                    for a in &cs.acquires {
                        add_acquires.push(a.clone());
                    }
                    if add_sends.is_none() {
                        add_sends = cs.sends.clone();
                    }
                    if add_fires.is_none() {
                        add_fires = cs.fires.clone();
                    }
                }
            }
            let Some(s) = summaries.get_mut(&r) else { continue };
            for a in add_acquires {
                changed |= s.acquires.insert(a);
            }
            if s.sends.is_none() && add_sends.is_some() {
                s.sends = add_sends;
                changed = true;
            }
            if s.fires.is_none() && add_fires.is_some() {
                s.fires = add_fires;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 3: interprocedural checks at the deferred call sites.
    for d in &deferred {
        let u = &units[d.file];
        for r in &d.refs {
            let Some(s) = summaries.get(r) else { continue };
            for m in &s.acquires {
                for l in &d.held {
                    if l != m {
                        edges.entry((l.clone(), m.clone())).or_insert_with(|| Edge {
                            path: u.rel.clone(),
                            line: d.line,
                            via: format!("via {}", describe(units, *r)),
                        });
                    }
                }
            }
            if let Some((spath, sline)) = &s.sends {
                if !u.is_allowed(RULE_SEND, d.line) {
                    let mut fdg = Finding::new(
                        RULE_SEND,
                        &u.rel,
                        d.line,
                        format!(
                            "holding {} across a call to `{}`, which sends on a channel \
                             ({spath}:{sline}) — drop the guard first",
                            fmt_locks(&d.held),
                            units[r.file].fns[r.f].name,
                        ),
                    );
                    fdg.chain =
                        vec![describe(units, *r), format!("{spath}:{sline} send")];
                    findings.push(fdg);
                }
            }
            if let Some((fpath, fline)) = &s.fires {
                if !u.is_allowed(RULE_FIRE, d.line) {
                    let mut fdg = Finding::new(
                        RULE_FIRE,
                        &u.rel,
                        d.line,
                        format!(
                            "holding {} across a call to `{}`, which hits a Faults::fire \
                             point ({fpath}:{fline}) — drop the guard first or annotate \
                             the atomics-only invariant",
                            fmt_locks(&d.held),
                            units[r.file].fns[r.f].name,
                        ),
                    );
                    fdg.chain =
                        vec![describe(units, *r), format!("{fpath}:{fline} fire")];
                    findings.push(fdg);
                }
            }
        }
    }

    // Phase 4: cycles in the lock-acquisition graph.
    findings.extend(report_cycles(units, &edges));
    findings
}

fn fmt_locks(held: &[String]) -> String {
    let list: Vec<&str> = held.iter().map(String::as_str).collect();
    format!("lock `{}`", list.join("`, `"))
}

/// Direct acquisitions of one fn, without guard lifetimes: enough for
/// callers to know what a helper call takes.
fn shallow_summary(u: &FileUnit, f: usize) -> Summary {
    let info = &u.fns[f];
    let mut s = Summary {
        returns_guard: info.ret.contains("Guard"),
        ..Summary::default()
    };
    for call in calls_in(&u.lexed.tokens, info.body.clone()) {
        if call.kind == CallKind::Method && is_builtin_acquire(u, &call) {
            let segs = receiver_chain(&u.lexed.tokens, call.tok);
            match classify_receiver(u, info, &segs) {
                Receiver::Param(p) => {
                    s.param_acquires.insert(p);
                }
                Receiver::Concrete(id) => {
                    s.acquires.insert(id);
                }
                Receiver::Unknown => {}
            }
        }
    }
    s
}

/// `.lock()`, or zero-argument `.read()` / `.write()` (an argument means
/// io::Read/Write, not an RwLock).
fn is_builtin_acquire(u: &FileUnit, call: &Call) -> bool {
    if call.kind != CallKind::Method {
        return false;
    }
    match call.name.as_str() {
        "lock" | "read" | "write" => {
            u.lexed.tokens.get(call.args_open + 1).is_some_and(|t| t.text == ")")
                && (call.name == "lock" || zero_args_ok(u, call))
        }
        _ => false,
    }
}

fn zero_args_ok(u: &FileUnit, call: &Call) -> bool {
    u.lexed.tokens.get(call.args_open + 1).is_some_and(|t| t.text == ")")
}

enum Receiver {
    /// Receiver is a bare parameter of the enclosing fn — the lock
    /// identity belongs to the caller (guard-helper pattern).
    Param(String),
    /// `crate:field` lock identity.
    Concrete(String),
    Unknown,
}

fn classify_receiver(u: &FileUnit, info: &crate::parser::FnInfo, segs: &[String]) -> Receiver {
    match segs {
        [] => Receiver::Unknown,
        [one] => {
            if let Some(p) = info.params.iter().find(|p| p.name == *one) {
                // A guard helper's own parameter — but only when the
                // parameter really is a lock (an io handle's `.read()`
                // is not an acquisition).
                if p.ty.contains("Mutex") || p.ty.contains("RwLock") {
                    Receiver::Param(one.clone())
                } else {
                    Receiver::Unknown
                }
            } else {
                Receiver::Concrete(format!("{}:{}", u.krate, one))
            }
        }
        [.., last] if last == "self" => Receiver::Unknown,
        [.., last] => Receiver::Concrete(format!("{}:{}", u.krate, last)),
    }
}

/// Simulate one fn body. Pushes immediate findings and graph edges;
/// returns the fn's direct summary and resolved callees.
#[allow(clippy::too_many_arguments)]
fn simulate(
    units: &[FileUnit],
    index: &CallIndex,
    shallow: &HashMap<FnRef, Summary>,
    file: usize,
    f: usize,
    findings: &mut Vec<Finding>,
    edges: &mut BTreeMap<(String, String), Edge>,
    deferred: &mut Vec<Deferred>,
) -> (Summary, Vec<FnRef>) {
    let u = &units[file];
    let info = &u.fns[f];
    let tokens = &u.lexed.tokens;
    let depth = &u.depth;
    let body = info.body.clone();
    let calls: HashMap<usize, Call> = calls_in(tokens, body.clone())
        .into_iter()
        .map(|c| (c.tok, c))
        .collect();
    let mut summary = Summary {
        returns_guard: info.ret.contains("Guard"),
        ..Summary::default()
    };
    let mut adj: Vec<FnRef> = Vec::new();
    let mut held: Vec<Guard> = Vec::new();

    for i in body {
        match tokens[i].text.as_str() {
            "}" => {
                let d = depth[i];
                held.retain(|g| g.depth < d);
                continue;
            }
            ";" => {
                let d = depth[i];
                held.retain(|g| !(g.temp && d <= g.depth));
                continue;
            }
            _ => {}
        }
        let Some(call) = calls.get(&i) else { continue };
        if u.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let line = call.line;

        // Explicit release.
        if call.kind == CallKind::Plain && call.name == "drop" {
            if let Some(victim) =
                crate::parser::first_arg_last_ident(tokens, call.args_open)
            {
                held.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            }
            continue;
        }
        // Condvar waits atomically release + reacquire the same lock:
        // neutral for ordering.
        if call.kind == CallKind::Method && matches!(call.name.as_str(), "wait" | "wait_timeout")
        {
            continue;
        }

        // Acquisitions: builtin method, or a guard-returning helper.
        let mut acquired: Vec<String> = Vec::new();
        if is_builtin_acquire(u, call) {
            let segs = receiver_chain(tokens, call.tok);
            // `self.lock()` is a helper method on Self, not a raw Mutex:
            // resolve it in-file (e.g. `Scheduler::lock`).
            if segs == ["self"] {
                for r in resolve(units, index, file, call) {
                    if r.file == file {
                        if let Some(s) = shallow.get(&r) {
                            acquired.extend(s.acquires.iter().cloned());
                        }
                    }
                }
            } else {
                match classify_receiver(u, info, &segs) {
                    Receiver::Param(p) => {
                        summary.param_acquires.insert(p);
                        // The lock belongs to the caller; nothing to
                        // track locally (helpers return immediately).
                        continue;
                    }
                    Receiver::Concrete(id) => acquired.push(id),
                    Receiver::Unknown => {}
                }
            }
        } else if call.kind != CallKind::Macro {
            let refs = resolve(units, index, file, call);
            let helper_ids: Vec<String> = refs
                .iter()
                .filter_map(|r| shallow.get(r))
                .filter(|s| s.returns_guard)
                .flat_map(|s| {
                    let mut ids: Vec<String> = s.acquires.iter().cloned().collect();
                    for p in &s.param_acquires {
                        if let Some(id) = param_arg_id(units, file, call, &refs, p) {
                            ids.push(id);
                        }
                    }
                    ids
                })
                .collect();
            if !helper_ids.is_empty() {
                acquired.extend(helper_ids);
            } else {
                // A plain callee: track for interprocedural checks.
                if !refs.is_empty() {
                    if !held.is_empty() {
                        deferred.push(Deferred {
                            held: held_ids(&held),
                            refs: refs.clone(),
                            file,
                            line,
                        });
                    }
                    adj.extend(refs);
                }
                // Channel sends and fault fires, direct.
                check_events(u, call, &held, &mut summary, findings);
                continue;
            }
        } else {
            continue;
        }

        if acquired.is_empty() {
            continue;
        }
        let (name, bdepth, temp) = binding_for(tokens, depth, call.tok);
        // Rebinding an existing guard releases the old one first.
        if let Some(n) = &name {
            held.retain(|g| g.name.as_deref() != Some(n.as_str()));
        }
        for id in acquired {
            for g in &held {
                if g.id != id {
                    edges
                        .entry((g.id.clone(), id.clone()))
                        .or_insert_with(|| Edge {
                            path: u.rel.clone(),
                            line,
                            via: format!("in {}", info.name),
                        });
                }
            }
            summary.acquires.insert(id.clone());
            held.push(Guard { name: name.clone(), id, depth: bdepth, temp });
        }
    }
    // Direct sends/fires are also checked as we walk; method sends need
    // one more sweep because the loop `continue`s early on acquisitions.
    (summary, adj)
}

/// Record direct send/fire events at `call`, held or not.
fn check_events(
    u: &FileUnit,
    call: &Call,
    held: &[Guard],
    summary: &mut Summary,
    findings: &mut Vec<Finding>,
) {
    let line = call.line;
    let is_send = call.kind == CallKind::Method && call.name == "send";
    let is_fire = (call.kind == CallKind::Method && call.name == "fire")
        || (call.kind == CallKind::Plain
            && call.name == "fire"
            && call.qualifier.as_deref() == Some("Faults"));
    if is_send {
        if summary.sends.is_none() {
            summary.sends = Some((u.rel.clone(), line));
        }
        if !held.is_empty() && !u.is_allowed(RULE_SEND, line) {
            findings.push(Finding::new(
                RULE_SEND,
                &u.rel,
                line,
                format!(
                    "`.send(..)` while holding {} — drop the guard before replying",
                    fmt_locks(&held_ids(held))
                ),
            ));
        }
    }
    if is_fire {
        if summary.fires.is_none() {
            summary.fires = Some((u.rel.clone(), line));
        }
        if !held.is_empty() && !u.is_allowed(RULE_FIRE, line) {
            findings.push(Finding::new(
                RULE_FIRE,
                &u.rel,
                line,
                format!(
                    "`Faults::fire` while holding {} — fire before acquiring, or \
                     annotate the atomics-only invariant",
                    fmt_locks(&held_ids(held))
                ),
            ));
        }
    }
}

fn held_ids(held: &[Guard]) -> Vec<String> {
    let mut ids: Vec<String> = held.iter().map(|g| g.id.clone()).collect();
    ids.dedup();
    ids
}

/// Map a helper's param-acquired lock to the caller's argument:
/// `lock(&self.shared.queue)` with helper param `queue` → `crate:queue`.
fn param_arg_id(
    units: &[FileUnit],
    file: usize,
    call: &Call,
    refs: &[FnRef],
    param: &str,
) -> Option<String> {
    let u = &units[file];
    let tokens = &u.lexed.tokens;
    // Which position is `param` in the callee's signature?
    let pos = refs.iter().find_map(|r| {
        units[r.file].fns[r.f]
            .params
            .iter()
            .position(|p| p.name == param)
    })?;
    // Extract the pos-th argument's last ident.
    let close = match_delim(tokens, call.args_open, "(", ")");
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut last: Option<String> = None;
    for t in &tokens[call.args_open + 1..close] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 0 => {
                if arg == pos {
                    break;
                }
                arg += 1;
                last = None;
            }
            _ if t.kind == crate::lexer::TokKind::Ident && arg == pos => {
                last = Some(t.text.clone());
            }
            _ => {}
        }
    }
    last.map(|l| format!("{}:{}", u.krate, l))
}

/// Find the binding a freshly-acquired guard lands in: the enclosing
/// `let` (unwrapping `Ok(..)`/`Some(..)` patterns), a plain
/// reassignment, or — with neither — a temporary that dies at the end
/// of its statement.
fn binding_for(
    tokens: &[crate::lexer::Tok],
    depth: &[usize],
    call_tok: usize,
) -> (Option<String>, usize, bool) {
    let mut j = call_tok;
    let mut steps = 0;
    while j > 0 && steps < 60 {
        j -= 1;
        steps += 1;
        match tokens[j].text.as_str() {
            ";" | "{" | "}" => {
                // Statement boundary: check for `name = <acquisition>`.
                if let (Some(n), Some(eq)) = (tokens.get(j + 1), tokens.get(j + 2)) {
                    if n.kind == crate::lexer::TokKind::Ident
                        && eq.text == "="
                        && tokens.get(j + 3).is_some_and(|t| t.text != "=")
                    {
                        return (Some(n.text.clone()), depth[j + 1], false);
                    }
                }
                break;
            }
            "let" => {
                let mut k = j + 1;
                while tokens.get(k).is_some_and(|t| t.text == "mut") {
                    k += 1;
                }
                if tokens.get(k).is_some_and(|t| t.text == "Ok" || t.text == "Some")
                    && tokens.get(k + 1).is_some_and(|t| t.text == "(")
                {
                    k += 2;
                    while tokens.get(k).is_some_and(|t| t.text == "mut") {
                        k += 1;
                    }
                }
                let name = tokens
                    .get(k)
                    .filter(|t| t.kind == crate::lexer::TokKind::Ident)
                    .map(|t| t.text.clone());
                return (name, depth[j], false);
            }
            _ => {}
        }
    }
    (None, depth[call_tok], true)
}

/// Cycle detection over the lock-acquisition graph, one finding per
/// distinct cycle. A cycle is suppressed when any of its edge sites
/// carries an inline `lint: allow(lock-order)` (the annotation documents
/// why the order inversion cannot deadlock).
fn report_cycles(units: &[FileUnit], edges: &BTreeMap<(String, String), Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut findings = Vec::new();
    let mut seen_cycles: HashSet<Vec<String>> = HashSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        // Parallel stacks: the DFS path and the next-successor cursor of
        // each frame (always pushed and popped together).
        let mut stack: Vec<&str> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let (Some(&node), Some(&i)) = (stack.last(), iters.last()) {
            let succ = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if i >= succ.len() {
                stack.pop();
                iters.pop();
                continue;
            }
            if let Some(cursor) = iters.last_mut() {
                *cursor += 1;
            }
            let next = succ[i];
            if let Some(pos) = stack.iter().position(|&n| n == next) {
                // Found a cycle: stack[pos..] + back to next.
                let cycle: Vec<String> = stack[pos..].iter().map(|s| s.to_string()).collect();
                let canon = canonical(&cycle);
                if !seen_cycles.insert(canon.clone()) {
                    continue;
                }
                let mut sites = Vec::new();
                let mut allowed = false;
                for w in 0..canon.len() {
                    let a = &canon[w];
                    let b = &canon[(w + 1) % canon.len()];
                    if let Some(e) = edges.get(&(a.clone(), b.clone())) {
                        sites.push(format!("{} → {} at {}:{} ({})", a, b, e.path, e.line, e.via));
                        if let Some(u) = units.iter().find(|u| u.rel == e.path) {
                            allowed |= u.is_allowed(RULE_ORDER, e.line);
                        }
                    }
                }
                if allowed {
                    continue;
                }
                let Some(first) =
                    edges.get(&(canon[0].clone(), canon[1 % canon.len()].clone()))
                else {
                    continue; // rotation lost its anchor edge: nothing to report
                };
                let mut f = Finding::new(
                    RULE_ORDER,
                    &first.path,
                    first.line,
                    format!(
                        "lock-order cycle {} → {}: inconsistent acquisition order can \
                         deadlock ({})",
                        canon.join(" → "),
                        canon[0],
                        sites.join("; ")
                    ),
                );
                f.chain = sites;
                findings.push(f);
            } else if stack.len() < 16 {
                stack.push(next);
                iters.push(0);
            }
        }
    }
    findings
}

/// Rotate a cycle so its lexically-smallest node leads — the dedup key.
fn canonical(cycle: &[String]) -> Vec<String> {
    let min = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min..]);
    out.extend_from_slice(&cycle[..min]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{build_index, build_units};

    fn run(src: &str) -> Vec<Finding> {
        let units = build_units(&[("crates/a/src/lib.rs".to_string(), src.to_string())]);
        let index = build_index(&units);
        check(&units, &index)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn opposite_order_is_a_cycle() {
        let src = "
            pub fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
            pub fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
        ";
        let f = run(src);
        assert_eq!(rules_of(&f), vec![RULE_ORDER], "{f:?}");
        assert!(f[0].msg.contains("a:a"), "{}", f[0].msg);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            pub fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
            pub fn ab2(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn drop_releases_before_the_next_acquisition() {
        let src = "
            pub fn f(s: &S) { let g = s.a.lock(); drop(g); let _b = s.b.lock(); }
            pub fn g(s: &S) { let g = s.b.lock(); drop(g); let _a = s.a.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scope_exit_releases() {
        let src = "
            pub fn f(s: &S) { { let _g = s.a.lock(); } let _b = s.b.lock(); }
            pub fn g(s: &S) { { let _g = s.b.lock(); } let _a = s.a.lock(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn send_under_lock_is_flagged_and_allowable() {
        let src = "
            pub fn f(s: &S, tx: &Sender<u8>) { let _g = s.a.lock(); let _ = tx.send(1); }
        ";
        assert_eq!(rules_of(&run(src)), vec![RULE_SEND]);
        let allowed = "
            pub fn f(s: &S, tx: &Sender<u8>) {
                let _g = s.a.lock();
                let _ = tx.send(1); // lint: allow(lock-across-send): reply channel is unbounded
            }
        ";
        assert!(run(allowed).is_empty());
    }

    #[test]
    fn send_after_drop_is_clean() {
        let src = "
            pub fn f(s: &S, tx: &Sender<u8>) { let g = s.a.lock(); drop(g); let _ = tx.send(1); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn interprocedural_send_is_caught_at_the_call_site() {
        let src = "
            fn notify(tx: &Sender<u8>) { let _ = tx.send(2); }
            pub fn f(s: &S, tx: &Sender<u8>) { let _g = s.a.lock(); notify(tx); }
        ";
        let f = run(src);
        assert_eq!(rules_of(&f), vec![RULE_SEND], "{f:?}");
        assert!(f[0].msg.contains("notify"), "{}", f[0].msg);
        assert!(!f[0].chain.is_empty());
    }

    #[test]
    fn fire_under_lock_is_flagged() {
        let src = "
            pub fn f(s: &S) { let _g = s.a.lock(); s.faults.fire(SITE); }
        ";
        assert_eq!(rules_of(&run(src)), vec![RULE_FIRE]);
    }

    #[test]
    fn guard_helpers_carry_the_callers_lock_identity() {
        let src = "
            fn lock(queue: &Mutex<Q>) -> MutexGuard<'_, Q> { match queue.lock() { Ok(g) => g, Err(p) => p.into_inner() } }
            pub fn f(s: &S) { let _q = lock(&s.queue); let _b = s.b.lock(); }
            pub fn g(s: &S) { let _b = s.b.lock(); let _q = lock(&s.queue); }
        ";
        let f = run(src);
        assert_eq!(rules_of(&f), vec![RULE_ORDER], "{f:?}");
        assert!(f[0].msg.contains("a:queue"), "{}", f[0].msg);
    }

    #[test]
    fn transitive_acquisition_makes_an_edge() {
        let src = "
            fn tally(s: &S) { let _t = s.counters.lock(); }
            pub fn f(s: &S) { let _g = s.queue.lock(); tally(s); }
            pub fn g(s: &S) { let _t = s.counters.lock(); let _q = s.queue.lock(); }
        ";
        let f = run(src);
        assert_eq!(rules_of(&f), vec![RULE_ORDER], "{f:?}");
    }

    #[test]
    fn reacquire_after_drop_inside_loop_is_clean() {
        // The batcher worker pattern: drop, call out, reacquire.
        let src = "
            fn answer(tx: &Sender<u8>) { let _ = tx.send(9); }
            pub fn worker(s: &S, tx: &Sender<u8>) {
                let mut state = s.queue.lock();
                loop {
                    drop(state);
                    answer(tx);
                    state = s.queue.lock();
                }
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_is_neutral() {
        let src = "
            pub fn f(s: &S) { let mut g = s.queue.lock(); g = s.cv.wait(g); let _ = g; }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_ignored() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }
                fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }
            }
        ";
        assert!(run(src).is_empty());
    }
}
