//! Three-surface metrics differential battery (ISSUE 8 acceptance).
//!
//! The daemon exports its counters three ways: the wire stats frame
//! (`metrics_text` riding on `Frame::Stats`), the Prometheus HTTP
//! endpoint (`mublastpd --metrics-addr`), and the in-process render used
//! by `ServerHandle`. All three must be snapshots of *one* registry —
//! byte-identical when nothing moves between captures.

use std::io::{Read, Write};
use std::sync::Arc;

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig};
use engine::{EngineKind, SearchConfig};
use scoring::{NeighborTable, BLOSUM62};
use serve::{
    loopback, serve_metrics, serve_with_stats, BatchOptions, Client, ParamOverrides,
    ResidentIndex, SearchContext, ServeStats,
};

fn toy_db(n: usize) -> SequenceDb {
    let motifs = ["WCHWMYFWCHW", "MKVLAARNDCQ", "HILKMFPSTWY", "CQEGHILKMFA"];
    (0..n)
        .map(|i| {
            let m = motifs[i % motifs.len()];
            let pre = "AG".repeat(2 + i % 5);
            let mid = "VL".repeat(1 + i % 4);
            match Sequence::from_str_checked(format!("s{i}"), &format!("{pre}{m}{mid}{m}")) {
                Ok(s) => s,
                Err(b) => panic!("bad residue {b}"),
            }
        })
        .collect()
}

fn context(db: &SequenceDb) -> Arc<SearchContext> {
    let index = ResidentIndex::Single(DbIndex::build(db, &IndexConfig::default()));
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(2);
    base.params.evalue_cutoff = 1e9;
    Arc::new(SearchContext {
        db: db.clone(),
        index,
        neighbors: NeighborTable::build(&BLOSUM62, 11),
        base,
    })
}

fn fasta_for(db: &SequenceDb, i: bioseq::SequenceId) -> String {
    let bytes: Vec<u8> = db.get(i).residues().iter().map(|&r| bioseq::decode_residue(r)).collect();
    let text = String::from_utf8(bytes).unwrap_or_else(|e| panic!("{e}"));
    format!(">m{i}\n{text}\n")
}

/// Scrape `GET /metrics` off a live endpoint and return the body.
fn scrape(addr: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect: {e}"));
    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap_or_else(|e| panic!("write: {e}"));
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap_or_else(|e| panic!("read: {e}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or_else(|| panic!("no header split"));
    assert!(head.starts_with("HTTP/1.0 200"), "status line: {head}");
    assert!(head.contains("text/plain"), "content type: {head}");
    body.to_string()
}

/// The value of an unlabeled series in a Prometheus text body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.split_whitespace().next() == Some(series))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// The acceptance differential: after a burst of searches, the wire
/// frame's `metrics_text`, the handle's direct render, and the HTTP
/// scrape are byte-identical snapshots of the same registry, and the
/// values agree with the frame's scalar counters.
#[test]
fn three_surfaces_render_the_same_registry() {
    let db = toy_db(24);
    let ctx = context(&db);
    let (transport, connector) = loopback();
    let stats = Arc::new(ServeStats::new());
    let mut handle =
        serve_with_stats(transport, Arc::clone(&ctx), BatchOptions::default(), stats);
    let endpoint = serve_metrics("127.0.0.1:0", handle.metrics_source())
        .unwrap_or_else(|e| panic!("bind metrics endpoint: {e}"));

    for i in 0..3u32 {
        let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
        let resp = client
            .search(&fasta_for(&db, i), EngineKind::MuBlastp, ParamOverrides::default(), 0)
            .unwrap_or_else(|e| panic!("search {i}: {e}"));
        assert!(!resp.replies.is_empty());
    }

    // Captures in quick succession with the server idle: nothing moves
    // between them, so all three must render the same bytes.
    let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
    let frame = client.stats().unwrap_or_else(|e| panic!("stats: {e}"));
    let wire = frame.metrics_text.clone();
    let direct = handle.render_metrics();
    let scraped = scrape(&endpoint.addr().to_string());
    assert!(!wire.is_empty(), "stats frame carries no metrics text");
    assert_eq!(wire, direct, "wire frame vs in-process render diverged");
    assert_eq!(direct, scraped, "in-process render vs HTTP scrape diverged");

    // The exposition agrees with the frame's scalar counters: one registry,
    // not parallel bookkeeping.
    assert_eq!(sample(&wire, "serve_batcher_accepted"), Some(frame.accepted as f64));
    assert_eq!(sample(&wire, "serve_batcher_completed"), Some(frame.completed as f64));
    assert_eq!(frame.completed, 3);
    assert_eq!(sample(&wire, "serve_queue_cap"), Some(frame.queue_cap as f64));
    assert_eq!(
        sample(&wire, "serve_latency_total_count"),
        Some(frame.total.count as f64)
    );

    // Basic exposition well-formedness: every line is a comment or
    // `name[{labels}] value`, and every TYPE is declared before use.
    let mut typed = std::collections::HashSet::new();
    for line in wire.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or_default();
            typed.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next().unwrap_or_default(), parts.next());
        let bare = name.split(['{', '_']).next().unwrap_or_default();
        assert!(
            bare.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
            "bad series name: {line}"
        );
        assert!(
            value.is_some_and(|v| v.parse::<f64>().is_ok()),
            "unparseable sample: {line}"
        );
        let family = name.split('{').next().unwrap_or_default();
        let family = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .unwrap_or(family);
        assert!(typed.contains(family), "sample before its TYPE line: {line}");
    }

    drop(endpoint);
    handle.shutdown();
}
