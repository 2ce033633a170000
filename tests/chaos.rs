//! Chaos battery (ISSUE 5): seeded fault-plan sweeps over the sharded
//! engine, the resilient index loader, and the full service stack.
//!
//! Every test here derives its schedules from one seed (override with
//! `CHAOS_SEED=<u64>` — CI runs a fixed matrix), so a failure reproduces
//! exactly by exporting the printed seed. The invariants pinned:
//!
//! * **No panics, typed errors only.** Every injected fault surfaces as a
//!   typed value (`ShardFailure`, `LoadOutcome`, `ClientError`, a wire
//!   `Degraded` block) — never a crash, never a hang.
//! * **Faults disabled ⇒ bit-identical to the baseline.** An unarmed
//!   `Faults` (and an armed plan whose sites never fire) must leave the
//!   sharded engine byte-identical to the unsharded engine.
//! * **Degradation never rewrites survivors.** Dropping a shard removes
//!   rows; the remaining alignments are bit-equal (E-value and bit-score
//!   bits included) to a fault-free run's rows for the same shards.

use std::sync::Arc;
use std::time::Duration;

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig, LoadOutcome, ShardedIndex};
use engine::{
    merge_shard_alignments, search_batch, search_batch_sharded, search_batch_sharded_traced,
    EngineKind, QueryResult, SearchConfig, FAULT_SHARD,
};
use faultfn::{mix64, FaultPlan, Faults, Schedule};
use scoring::{KernelKind, NeighborTable, BLOSUM62};
use serve::{
    loopback, serve, BatchOptions, Client, ClientError, FaultyConn, ParamOverrides, ResidentIndex,
    SearchContext,
};

/// The sweep seed: `CHAOS_SEED` env var, else a fixed default. Printed on
/// entry to every test so failures carry their reproduction recipe.
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got '{v}'")),
        Err(_) => 0xC0FFEE,
    }
}

/// Deterministic motif-planted database: every query finds hits, shards
/// end up with different residue totals, no RNG crate involved.
fn toy_db(n: usize, seed: u64) -> SequenceDb {
    let motifs = ["WCHWMYFWCHW", "MKVLAARNDCQ", "HILKMFPSTWY", "CQEGHILKMFA"];
    (0..n)
        .map(|i| {
            let r = mix64(seed, i as u64);
            let m = motifs[(r % motifs.len() as u64) as usize];
            let pre = "AG".repeat(2 + (r >> 8) as usize % 7);
            let mid = "VL".repeat(1 + (r >> 16) as usize % 5);
            match Sequence::from_str_checked(format!("s{i}"), &format!("{pre}{m}{mid}{m}")) {
                Ok(s) => s,
                Err(b) => panic!("bad residue {b} in generated sequence"),
            }
        })
        .collect()
}

fn queries_from(db: &SequenceDb, n: usize, seed: u64) -> Vec<Sequence> {
    (0..n)
        .map(|i| {
            let pick = (mix64(seed ^ 0x51, i as u64) % db.len() as u64) as bioseq::SequenceId;
            Sequence::from_encoded(format!("q{i}"), db.get(pick).residues().to_vec())
        })
        .collect()
}

fn neighbors() -> NeighborTable {
    NeighborTable::build(&BLOSUM62, 11)
}

/// Extension kernel the whole suite runs under: `KERNEL=scalar|striped|
/// auto` (default `auto`). CI runs the chaos matrix once per kernel —
/// fault handling must be byte-identical whichever kernel extends.
fn kernel_under_test() -> KernelKind {
    match std::env::var("KERNEL") {
        Ok(v) => KernelKind::parse(&v)
            .unwrap_or_else(|| panic!("KERNEL must be auto|scalar|striped, got '{v}'")),
        Err(_) => KernelKind::Auto,
    }
}

fn config() -> SearchConfig {
    let mut c = SearchConfig::new(EngineKind::MuBlastp);
    c.params.evalue_cutoff = 1e9; // keep every hit: more rows under test
    c.params.kernel = kernel_under_test();
    c
}

/// Bit-level equality of two result sets (E-value and bit-score compared
/// through `to_bits`, stricter than `==`).
fn assert_bits_equal(label: &str, a: &[QueryResult], b: &[QueryResult]) {
    assert_eq!(a.len(), b.len(), "{label}: result count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.query_index, y.query_index, "{label}");
        assert_eq!(
            x.alignments.len(),
            y.alignments.len(),
            "{label}: query {}: alignment count",
            x.query_index
        );
        for (p, q) in x.alignments.iter().zip(&y.alignments) {
            assert_eq!(p, q, "{label}: query {}", x.query_index);
            assert_eq!(
                p.evalue.to_bits(),
                q.evalue.to_bits(),
                "{label}: query {} subject {}: E-value bits",
                x.query_index,
                p.subject
            );
            assert_eq!(
                p.bit_score.to_bits(),
                q.bit_score.to_bits(),
                "{label}: query {} subject {}: bit-score bits",
                x.query_index,
                p.subject
            );
        }
    }
}

/// Fault-free ground truth restricted to the surviving shards: search each
/// survivor alone under the *global* statistics, remap ids, and run the
/// shared merge — the bytes a degraded run must reproduce exactly.
fn survivor_reference(
    sharded: &ShardedIndex,
    nbrs: &NeighborTable,
    queries: &[Sequence],
    cfg: &SearchConfig,
    dead: &[usize],
) -> Vec<QueryResult> {
    let global = (sharded.global_residues(), sharded.global_seqs());
    let mut merged: Vec<QueryResult> = (0..queries.len())
        .map(|query_index| QueryResult {
            query_index,
            alignments: Vec::new(),
            counts: Default::default(),
        })
        .collect();
    for (s, shard) in sharded.shards().iter().enumerate() {
        if dead.contains(&s) {
            continue;
        }
        let mut inner = cfg.clone();
        inner.threads = 1;
        inner.effective_db = Some(global);
        inner.faults = Faults::none();
        let mut rs = search_batch(&shard.db, Some(&shard.index), nbrs, queries, &inner);
        for qr in &mut rs {
            for a in &mut qr.alignments {
                a.subject = shard.ids[a.subject as usize];
            }
            let slot = &mut merged[qr.query_index];
            slot.alignments.append(&mut qr.alignments);
        }
    }
    for qr in &mut merged {
        merge_shard_alignments(&mut qr.alignments, cfg.params.max_reported);
        qr.counts.reported = qr.alignments.len() as u64;
    }
    merged
}

/// Faults disabled — and faults *armed but never firing* — leave the
/// sharded engine bit-identical to the unsharded baseline.
#[test]
fn unarmed_and_never_firing_plans_are_bit_identical_to_baseline() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(41, seed);
    let queries = queries_from(&db, 6, seed);
    let nbrs = neighbors();
    let cfg = config();
    let index = DbIndex::build(&db, &IndexConfig::default());
    let baseline = search_batch(&db, Some(&index), &nbrs, &queries, &cfg);
    assert!(
        baseline.iter().any(|r| !r.alignments.is_empty()),
        "chaos world produced no alignments at all"
    );
    for k in [1usize, 2, 3, 5] {
        let sharded = ShardedIndex::build(&db, &IndexConfig::default(), k);
        // (a) Faults::none() — the compiled-off/default path.
        let got = search_batch_sharded(&sharded, &nbrs, &queries, &cfg);
        assert_bits_equal(&format!("K={k} unarmed"), &baseline, &got);
        // (b) A plan armed on every site with schedules that never fire.
        let mut armed = cfg.clone();
        armed.faults = FaultPlan::new(seed)
            .with(FAULT_SHARD, Schedule::Never)
            .with(dbindex::FAULT_LOAD, Schedule::Probability(0.0))
            .with("some.other.site", Schedule::Always)
            .build();
        let got = search_batch_sharded(&sharded, &nbrs, &queries, &armed);
        assert_bits_equal(&format!("K={k} never-firing"), &baseline, &got);
    }
}

/// The seeded sweep: across shard counts and seed-chosen victims, an
/// injected shard failure is reported exactly (ids, cause, coverage) and
/// the surviving rows are bit-equal to a fault-free survivor merge.
#[test]
fn seeded_shard_failure_sweep_degrades_without_rewriting_survivors() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(47, seed);
    let queries = queries_from(&db, 5, seed);
    let nbrs = neighbors();
    for (round, k) in [2usize, 3, 5, 7].into_iter().enumerate() {
        let sharded = ShardedIndex::build(&db, &IndexConfig::default(), k);
        let victim = (mix64(seed, round as u64) % k as u64) as usize;
        let mut cfg = config();
        cfg.threads = 1 + (round % 3);
        cfg.faults = FaultPlan::new(mix64(seed, 0x100 + round as u64))
            .with(FAULT_SHARD, Schedule::Nth(victim as u64))
            .build();
        let out = search_batch_sharded_traced(
            &sharded,
            &nbrs,
            &queries,
            &cfg,
            &obsv::TraceSession::disabled(),
        );
        let label = format!("K={k} victim={victim}");
        assert_eq!(out.failed.len(), 1, "{label}: one shard must fail");
        assert_eq!(out.failed[0].shard, victim, "{label}");
        assert_eq!(
            out.failed[0].cause,
            engine::ShardFailCause::Injected,
            "{label}"
        );
        assert_eq!(out.total_residues, sharded.global_residues(), "{label}");
        assert_eq!(
            out.covered_residues,
            out.total_residues - sharded.shards()[victim].db.total_residues(),
            "{label}: coverage arithmetic"
        );
        // No surviving row may point into the dead shard…
        let dead: std::collections::HashSet<_> =
            sharded.shards()[victim].ids.iter().copied().collect();
        for qr in &out.results {
            for a in &qr.alignments {
                assert!(!dead.contains(&a.subject), "{label}: row from dead shard");
            }
        }
        // …and the rows that remain are exactly the fault-free survivor
        // merge, bit for bit.
        let reference = survivor_reference(&sharded, &nbrs, &queries, &cfg, &[victim]);
        assert_bits_equal(&label, &reference, &out.results);
    }
}

/// Every shard dead (`Always`): still no panic — typed failures for all K
/// shards, zero coverage, empty results.
#[test]
fn total_shard_loss_is_reported_not_panicked() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(23, seed);
    let queries = queries_from(&db, 3, seed);
    let sharded = ShardedIndex::build(&db, &IndexConfig::default(), 3);
    let mut cfg = config();
    cfg.faults = FaultPlan::new(seed)
        .with(FAULT_SHARD, Schedule::Always)
        .build();
    let out = search_batch_sharded_traced(
        &sharded,
        &neighbors(),
        &queries,
        &cfg,
        &obsv::TraceSession::disabled(),
    );
    assert_eq!(out.failed.len(), 3);
    assert_eq!(out.covered_residues, 0);
    assert!(out.results.iter().all(|r| r.alignments.is_empty()));
}

/// The resilient loader under corruption chaos: transient read failures
/// recover, unrecoverable corruption rebuilds — and in every outcome the
/// index that comes back searches bit-identically to the one serialized.
#[test]
fn corrupted_index_loads_recover_or_rebuild_identically() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(31, seed);
    let queries = queries_from(&db, 4, seed);
    let nbrs = neighbors();
    let cfg = config();
    let icfg = IndexConfig::default();
    let built = DbIndex::build(&db, &icfg);
    let baseline = search_batch(&db, Some(&built), &nbrs, &queries, &cfg);
    let bytes = dbindex::write_store(&built);
    type Scenario = (&'static str, Schedule, u32, fn(&LoadOutcome) -> bool);
    let scenarios: [Scenario; 3] = [
        ("clean", Schedule::Never, 2, |o| matches!(o, LoadOutcome::Loaded)),
        ("transient", Schedule::FirstN(1), 3, |o| {
            matches!(o, LoadOutcome::Recovered { attempts: 2 })
        }),
        ("hopeless", Schedule::Always, 2, |o| matches!(o, LoadOutcome::Rebuilt)),
    ];
    for (label, schedule, retries, expect) in scenarios {
        let faults = FaultPlan::new(mix64(seed, 0x10ad))
            .with(dbindex::FAULT_LOAD, schedule)
            .build();
        let (index, outcome) =
            dbindex::load_index_resilient(|| Ok(bytes.clone()), &db, &icfg, retries, &faults);
        assert!(expect(&outcome), "{label}: unexpected outcome {outcome:?}");
        let got = search_batch(&db, Some(&index), &nbrs, &queries, &cfg);
        assert_bits_equal(label, &baseline, &got);
    }
}

// ---------------------------------------------------------------------------
// Service-level chaos: the full stack over the loopback transport.
// ---------------------------------------------------------------------------

const SHARDS: usize = 3;

fn sharded_context(db: &SequenceDb) -> Arc<SearchContext> {
    let index = ResidentIndex::Sharded(ShardedIndex::build(db, &IndexConfig::default(), SHARDS));
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(2);
    base.params.evalue_cutoff = 1e9;
    base.params.kernel = kernel_under_test();
    Arc::new(SearchContext {
        db: db.clone(),
        index,
        neighbors: neighbors(),
        base,
    })
}

fn fasta_for(db: &SequenceDb, i: bioseq::SequenceId) -> String {
    let bytes: Vec<u8> = db
        .get(i)
        .residues()
        .iter()
        .map(|&r| bioseq::decode_residue(r))
        .collect();
    let text = String::from_utf8(bytes).unwrap_or_else(|e| panic!("{e}"));
    format!(">chaos{i}\n{text}\n")
}

/// A shard dying mid-batch reaches the client as a *successful* response
/// carrying the degraded block — failed shard ids and residue coverage —
/// while the replies stay bit-identical to a fault-free server's answers
/// with the dead shard's rows removed.
#[test]
fn served_search_reports_degradation_on_the_wire() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(29, seed);
    let ctx = sharded_context(&db);
    let victim = (mix64(seed, 0xdead) % SHARDS as u64) as usize;
    // fire_at keys the decision on the shard id, so Nth(victim) kills the
    // same shard in every dispatched batch.
    let faults = FaultPlan::new(seed)
        .with(FAULT_SHARD, Schedule::Nth(victim as u64))
        .build();
    let (transport, connector) = loopback();
    let mut degraded_handle = serve(
        transport,
        Arc::clone(&ctx),
        BatchOptions {
            faults,
            ..BatchOptions::default()
        },
    );
    let (clean_transport, clean_connector) = loopback();
    let mut clean_handle = serve(clean_transport, Arc::clone(&ctx), BatchOptions::default());

    let sharded = ctx.index.as_sharded().unwrap_or_else(|| panic!("sharded ctx"));
    let dead: std::collections::HashSet<_> =
        sharded.shards()[victim].ids.iter().copied().collect();
    let lost = sharded.shards()[victim].db.total_residues() as u64;
    for i in 0..4u32 {
        let fasta = fasta_for(&db, i);
        let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
        let resp = client
            .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
            .unwrap_or_else(|e| panic!("degraded search must still succeed: {e}"));
        let d = resp
            .degraded
            .as_ref()
            .unwrap_or_else(|| panic!("request {i}: degraded block missing"));
        assert_eq!(d.failed_shards, vec![victim as u32], "request {i}");
        assert_eq!(d.total_residues, sharded.global_residues() as u64);
        assert_eq!(d.coverage_residues, d.total_residues - lost);

        let mut clean = Client::new(clean_connector.connect().unwrap_or_else(|e| panic!("{e}")));
        let full = clean
            .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
            .unwrap_or_else(|e| panic!("clean search: {e}"));
        assert!(full.degraded.is_none(), "fault-free server must not degrade");
        // The degraded reply == the clean reply minus the dead shard's
        // subjects (same order, same bits) — max_reported makes strict
        // subset-filtering insufficient in general, so compare against the
        // true survivor merge instead.
        let reference = survivor_reference(
            sharded,
            &ctx.neighbors,
            &[Sequence::from_encoded("q", db.get(i).residues().to_vec())],
            &ctx.base,
            &[victim],
        );
        let got: Vec<QueryResult> = resp.replies.iter().map(|r| r.result.clone()).collect();
        assert_bits_equal(&format!("request {i}"), &reference, &got);
        for qr in &got {
            for a in &qr.alignments {
                assert!(!dead.contains(&a.subject), "request {i}: dead-shard row");
            }
        }
        assert!(
            !full.replies[0].result.alignments.is_empty(),
            "request {i}: fixture must hit"
        );
    }
    // The registry and the wire Results/Stats frames are one set of
    // books: 4 degraded replies ⇒ 4 injected shard failures, all on the
    // victim shard, and the stats frame's by-cause counters agree with
    // the registry cells they are snapshots of.
    let report = degraded_handle.stats();
    assert_eq!(report.degraded, 4);
    assert_eq!(report.shard_fail_injected, 4);
    assert_eq!(report.shard_fail_deadline, 0);
    assert_eq!(report.shard_fail_storage, 0);
    let reg = degraded_handle.shared_stats();
    let reg = reg.registry();
    use obsv::metrics::names;
    assert_eq!(reg.value(names::BATCHER_DEGRADED), 4);
    assert_eq!(reg.value_for(names::SHARD_FAILURES_BY_CAUSE, "injected"), 4);
    assert_eq!(reg.value_for(names::SHARD_FAILURES_BY_CAUSE, "deadline"), 0);
    assert_eq!(reg.value_for(names::SHARD_FAILURES_BY_CAUSE, "storage"), 0);
    for s in 0..SHARDS {
        let expect = if s == victim { 4 } else { 0 };
        assert_eq!(
            reg.value_for(names::SHARD_FAILURES, &s.to_string()),
            expect,
            "shard {s} failure count"
        );
    }
    assert_eq!(clean_handle.stats().degraded, 0);
    assert_eq!(clean_handle.stats().shard_fail_injected, 0);
    degraded_handle.shutdown();
    clean_handle.shutdown();
}

/// Client-side connection chaos: torn writes and injected resets surface
/// as typed `ClientError`s, the server survives them, and the next clean
/// request over a fresh connection answers bit-identically to an
/// untouched server.
#[test]
fn torn_frames_yield_typed_errors_and_the_server_survives() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(29, seed);
    let ctx = sharded_context(&db);
    let (transport, connector) = loopback();
    let mut handle = serve(transport, Arc::clone(&ctx), BatchOptions::default());

    let fasta = fasta_for(&db, 2);
    let clean = |connector: &serve::LoopbackConnector| {
        let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
        client
            .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
            .unwrap_or_else(|e| panic!("clean search: {e}"))
    };
    let baseline = clean(&connector);
    assert!(!baseline.replies[0].result.alignments.is_empty());

    // Round-robin the failure modes across seeded connections.
    let sites = [serve::faulty::FAULT_WRITE_TORN, serve::faulty::FAULT_READ_RESET];
    for round in 0..4u64 {
        let site = sites[(mix64(seed, round) % 2) as usize];
        let faults = FaultPlan::new(mix64(seed, 0xf0 + round))
            .with(site, Schedule::Nth(0))
            .build();
        let conn = FaultyConn::new(
            connector.connect().unwrap_or_else(|e| panic!("{e}")),
            faults,
        );
        let mut client = Client::new(conn);
        match client.search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0) {
            Err(ClientError::Io(_)) | Err(ClientError::Proto(_)) => {}
            other => panic!("round {round} ({site}): expected a typed I/O error, got {other:?}"),
        }
        // The server is still alive and still correct.
        let after = clean(&connector);
        assert_eq!(
            baseline.replies, after.replies,
            "round {round}: server answers changed after connection chaos"
        );
    }

    // Short reads are not errors at all: read_exact loops, the frame
    // reassembles, the response is identical.
    let faults = FaultPlan::new(seed)
        .with(serve::faulty::FAULT_READ_SHORT, Schedule::Always)
        .build();
    let conn = FaultyConn::new(
        connector.connect().unwrap_or_else(|e| panic!("{e}")),
        faults,
    );
    let mut client = Client::new(conn);
    let trickled = client
        .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
        .unwrap_or_else(|e| panic!("short reads must reassemble: {e}"));
    assert_eq!(baseline.replies, trickled.replies);
    handle.shutdown();
}

/// Deadline chaos through the whole stack: a deadline the forming window
/// must outlive comes back as a typed `DeadlineExceeded`, never a hang,
/// and the server keeps serving.
#[test]
fn expired_deadlines_are_typed_rejections_not_hangs() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(23, seed);
    let ctx = sharded_context(&db);
    let (transport, connector) = loopback();
    let mut handle = serve(
        transport,
        Arc::clone(&ctx),
        BatchOptions {
            max_delay: Duration::from_millis(300),
            ..BatchOptions::default()
        },
    );
    // A connection that has not searched keeps the window open: the one
    // below is then not the only one that could still send.
    let mut idle = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
    idle.stats()
        .unwrap_or_else(|e| panic!("stats round trip: {e}"));
    let fasta = fasta_for(&db, 1);
    let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
    match client.search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 1) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, serve::proto::ErrorCode::DeadlineExceeded)
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
    let ok = client
        .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
        .unwrap_or_else(|e| panic!("follow-up search: {e}"));
    assert!(!ok.replies[0].result.alignments.is_empty());
    assert_eq!(handle.stats().expired, 1);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Out-of-core chaos: seeded fault schedules on the block fetch/decode path.
//
// The streaming backend's invariants mirror the sharded engine's, one
// layer lower: a latency fault must change *nothing* but time; a short
// read or a flipped byte must surface as `ShardFailCause::Storage` on
// exactly the shards whose stores hold the faulted block, with survivor
// rows bit-equal to a fault-free reference over the same partition.
// ---------------------------------------------------------------------------

use blockstore::{
    BlockCache, StreamingShards, FAULT_FETCH_FLIP, FAULT_FETCH_LATENCY, FAULT_FETCH_SHORT,
};
use obsv::TraceSession;

/// Small blocks so every toy shard spans several blocks and shard block
/// counts differ — `Schedule::Nth(block)` then kills a strict subset.
fn store_config() -> IndexConfig {
    IndexConfig { block_bytes: 96, offset_bits: 15, frag_overlap: 8 }
}

fn store_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mublastp-chaos-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

fn build_streaming(
    db: &SequenceDb,
    shards: usize,
    dir: &std::path::Path,
    faults: &Faults,
) -> StreamingShards<std::fs::File> {
    StreamingShards::build_in_dir(
        db,
        &store_config(),
        shards,
        dir,
        Arc::new(BlockCache::new(u64::MAX)),
        faults,
    )
    .unwrap_or_else(|e| panic!("build block stores: {e}"))
}

/// Fault-free ground truth for the streaming survivors: same contract as
/// [`survivor_reference`], but partitioned by the streaming shards' own
/// membership so it cannot drift from the on-disk layout under test.
fn streaming_survivor_reference(
    streaming: &StreamingShards<std::fs::File>,
    global: (usize, usize),
    nbrs: &NeighborTable,
    queries: &[Sequence],
    cfg: &SearchConfig,
    dead: &[usize],
) -> Vec<QueryResult> {
    let mut merged: Vec<QueryResult> = (0..queries.len())
        .map(|query_index| QueryResult {
            query_index,
            alignments: Vec::new(),
            counts: Default::default(),
        })
        .collect();
    for (s, shard) in streaming.shards().iter().enumerate() {
        if dead.contains(&s) {
            continue;
        }
        let mut inner = cfg.clone();
        inner.threads = 1;
        inner.effective_db = Some(global);
        inner.faults = Faults::none();
        let index = DbIndex::build(&shard.db, &store_config());
        let mut rs = search_batch(&shard.db, Some(&index), nbrs, queries, &inner);
        for qr in &mut rs {
            for a in &mut qr.alignments {
                a.subject = shard.ids[a.subject as usize];
            }
            merged[qr.query_index].alignments.append(&mut qr.alignments);
        }
    }
    for qr in &mut merged {
        merge_shard_alignments(&mut qr.alignments, cfg.params.max_reported);
        qr.counts.reported = qr.alignments.len() as u64;
    }
    merged
}

/// Latency faults on the block fetch path slow the search but must not
/// change a byte: no degradation, full residue coverage, results
/// bit-identical to the resident engine under every schedule.
#[test]
fn fetch_latency_faults_leave_streaming_results_bit_identical() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(41, seed);
    let queries = queries_from(&db, 6, seed);
    let nbrs = neighbors();
    let cfg = config();
    let baseline = {
        let index = DbIndex::build(&db, &store_config());
        search_batch(&db, Some(&index), &nbrs, &queries, &cfg)
    };
    let dir = store_dir("latency");
    for (label, schedule) in [
        ("always", Schedule::Always),
        ("every-3rd", Schedule::EveryNth(3)),
        ("coin-flip", Schedule::Probability(0.5)),
    ] {
        let faults = FaultPlan::new(mix64(seed, 0x1a7))
            .with(FAULT_FETCH_LATENCY, schedule)
            .build();
        let streaming = build_streaming(&db, 3, &dir, &faults);
        let out = engine::search_batch_backend_traced(
            &streaming,
            &nbrs,
            &queries,
            &cfg,
            &TraceSession::disabled(),
        );
        assert!(out.failed.is_empty(), "{label}: latency degraded a shard: {:?}", out.failed);
        assert_eq!(out.covered_residues, out.total_residues, "{label}");
        assert_eq!(out.total_residues, db.total_residues(), "{label}");
        assert_bits_equal(label, &baseline, &out.results);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupting one block id — a short read or a flipped byte, chosen by
/// the seed — degrades exactly the shards whose stores are deep enough to
/// hold that block. `fire_at` keys on the block id, so the dead set is
/// predictable from the fault-free block counts: cause is always
/// `Storage`, residue-coverage arithmetic is exact, and survivor rows are
/// bit-equal to a fault-free reference over the same partition.
#[test]
fn seeded_block_corruption_degrades_exactly_the_shards_holding_that_block() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let nbrs = neighbors();
    let cfg = config();
    let mut saw_partial = false;
    for (round, shards) in [2usize, 3, 4, 5].into_iter().enumerate() {
        let r = mix64(seed, 0xB10C ^ round as u64);
        let db = toy_db(29 + 4 * round, seed ^ r);
        let queries = queries_from(&db, 5, r);
        let dir = store_dir(&format!("corrupt-{round}"));
        // Fault-free probe: learns the per-shard block counts and anchors
        // the survivor reference to the exact on-disk partition.
        let probe = build_streaming(&db, shards, &dir, &Faults::none());
        let depths: Vec<usize> = probe.shards().iter().map(|s| s.store.num_blocks()).collect();
        let deepest = *depths.iter().max().unwrap();
        assert!(deepest >= 2, "round {round}: want multi-block shards, got {depths:?}");
        let victim_block = (deepest - 1) as u64;
        let expected_dead: Vec<usize> = depths
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d as u64 > victim_block)
            .map(|(s, _)| s)
            .collect();
        let site = if r & 1 == 0 { FAULT_FETCH_SHORT } else { FAULT_FETCH_FLIP };
        let faults = FaultPlan::new(r).with(site, Schedule::Nth(victim_block)).build();
        let streaming = build_streaming(&db, shards, &dir, &faults);
        let out = engine::search_batch_backend_traced(
            &streaming,
            &nbrs,
            &queries,
            &cfg,
            &TraceSession::disabled(),
        );
        let label = format!("round {round} ({site}, block {victim_block}, depths {depths:?})");
        let mut failed: Vec<usize> = out.failed.iter().map(|f| f.shard).collect();
        failed.sort_unstable();
        assert_eq!(failed, expected_dead, "{label}: degraded shard set");
        for f in &out.failed {
            assert_eq!(f.cause, engine::ShardFailCause::Storage, "{label}: shard {}", f.shard);
        }
        let lost: usize =
            expected_dead.iter().map(|&s| probe.shards()[s].db.total_residues()).sum();
        assert_eq!(out.total_residues, db.total_residues(), "{label}");
        assert_eq!(out.covered_residues, out.total_residues - lost, "{label}");
        let reference = streaming_survivor_reference(
            &probe,
            (db.total_residues(), db.len()),
            &nbrs,
            &queries,
            &cfg,
            &expected_dead,
        );
        assert_bits_equal(&label, &reference, &out.results);
        if expected_dead.len() < shards {
            saw_partial = true;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        saw_partial,
        "no round had survivors — CHAOS_SEED={seed} balanced every shard to the same depth; \
         pick another seed"
    );
}

/// Fault-free *top-k* ground truth restricted to the surviving shards:
/// exhaustive per-survivor search under global statistics, merged with
/// the same effective cap `min(max_reported, K)` the pruned path
/// normalises to — the bytes a degraded top-k run must reproduce.
fn streaming_survivor_topk_reference(
    streaming: &StreamingShards<std::fs::File>,
    global: (usize, usize),
    nbrs: &NeighborTable,
    queries: &[Sequence],
    cfg: &SearchConfig,
    k: u32,
    dead: &[usize],
) -> Vec<QueryResult> {
    let mut inner = cfg.clone();
    inner.top_k = None;
    inner.params.max_reported = inner.params.max_reported.min(k as usize);
    streaming_survivor_reference(streaming, global, nbrs, queries, &inner, dead)
}

/// Top-k under seeded `blockstore.fetch.*` faults. Under pruning the
/// dead set cannot be predicted from block depths — a skipped block is
/// never fetched, so its fault never fires — so the invariants are
/// pinned against the run's own typed failure report: every failure has
/// a `Storage` cause, residue-coverage arithmetic is exact over the
/// observed dead set, no surviving row points into a dead shard, and the
/// survivors are bit-equal to a fault-free top-k merge of exactly those
/// shards (the dead shard never influenced them through the watermark —
/// thresholds publish only on shard success).
#[test]
fn topk_under_block_fetch_faults_stays_exact_over_surviving_shards() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let nbrs = neighbors();
    let mut saw_dead = false;
    let mut saw_survivor_rows = false;
    let rounds: [(usize, u32, &str, Option<Schedule>); 3] = [
        // Every fetch poisoned: any shard that fetches at all dies.
        (3, 1, FAULT_FETCH_SHORT, Some(Schedule::Always)),
        // Odd block ids poisoned: shards die iff pruning lets them reach one.
        (3, 8, FAULT_FETCH_FLIP, Some(Schedule::EveryNth(2))),
        // `None`: probe the fault-free depths and poison the deepest
        // shard's last block. K past the report cap keeps the threshold
        // at the cutoff (no block prunable), so the dead set is exactly
        // the depth-based one and shallow shards survive with rows.
        (4, 64, FAULT_FETCH_SHORT, None),
    ];
    for (round, (shards, k, site, schedule)) in rounds.into_iter().enumerate() {
        let r = mix64(seed, 0x70F0 ^ round as u64);
        let cfg = {
            let mut c = config().with_top_k(k);
            c.threads = 1 + round % 3;
            c
        };
        let dir = store_dir(&format!("topk-{round}"));
        let (db, schedule) = match schedule {
            Some(s) => (toy_db(33 + 4 * round, seed ^ r), s),
            None => [33usize, 37, 41, 45, 29]
                .into_iter()
                .find_map(|n| {
                    let db = toy_db(n, seed ^ r);
                    let probe = build_streaming(&db, shards, &dir, &Faults::none());
                    let depths: Vec<usize> =
                        probe.shards().iter().map(|s| s.store.num_blocks()).collect();
                    let deepest = *depths.iter().max()?;
                    (deepest >= 2 && depths.iter().any(|&d| d < deepest))
                        .then(|| (db, Schedule::Nth((deepest - 1) as u64)))
                })
                .unwrap_or_else(|| {
                    panic!("CHAOS_SEED={seed}: no scanned db size gave uneven shard depths")
                }),
        };
        let queries = queries_from(&db, 4, r);
        let faults = FaultPlan::new(r).with(site, schedule).build();
        let streaming = build_streaming(&db, shards, &dir, &faults);
        let out = engine::search_batch_backend_traced(
            &streaming,
            &nbrs,
            &queries,
            &cfg,
            &TraceSession::disabled(),
        );
        let label = format!("round {round} ({site}, k={k}, shards={shards})");
        let mut dead: Vec<usize> = out.failed.iter().map(|f| f.shard).collect();
        dead.sort_unstable();
        for f in &out.failed {
            assert_eq!(f.cause, engine::ShardFailCause::Storage, "{label}: shard {}", f.shard);
        }
        let lost: usize = dead.iter().map(|&s| streaming.shards()[s].db.total_residues()).sum();
        assert_eq!(out.total_residues, db.total_residues(), "{label}");
        assert_eq!(out.covered_residues, out.total_residues - lost, "{label}: coverage");
        let dead_ids: std::collections::HashSet<_> = dead
            .iter()
            .flat_map(|&s| streaming.shards()[s].ids.iter().copied())
            .collect();
        for qr in &out.results {
            for a in &qr.alignments {
                assert!(!dead_ids.contains(&a.subject), "{label}: row from dead shard");
            }
        }
        let reference = streaming_survivor_topk_reference(
            &streaming,
            (db.total_residues(), db.len()),
            &nbrs,
            &queries,
            &cfg,
            k,
            &dead,
        );
        assert_bits_equal(&label, &reference, &out.results);
        saw_dead |= !dead.is_empty();
        saw_survivor_rows |= out.results.iter().any(|r| !r.alignments.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(saw_dead, "CHAOS_SEED={seed}: no round killed a shard — the sweep tested nothing");
    assert!(
        saw_survivor_rows,
        "CHAOS_SEED={seed}: no round kept survivor rows — pick schedules that spare a shard"
    );
}

/// Every fetch failing — the disk is gone — degrades every shard with a
/// typed `Storage` cause: zero coverage, zero rows, no panic.
#[test]
fn total_block_store_loss_degrades_every_shard_without_panic() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let db = toy_db(31, seed ^ 0xD15C);
    let queries = queries_from(&db, 4, seed);
    let nbrs = neighbors();
    let cfg = config();
    let dir = store_dir("total-loss");
    let faults = FaultPlan::new(seed).with(FAULT_FETCH_SHORT, Schedule::Always).build();
    let streaming = build_streaming(&db, 3, &dir, &faults);
    let out = engine::search_batch_backend_traced(
        &streaming,
        &nbrs,
        &queries,
        &cfg,
        &TraceSession::disabled(),
    );
    assert_eq!(out.failed.len(), 3, "all shards must degrade: {:?}", out.failed);
    for f in &out.failed {
        assert_eq!(f.cause, engine::ShardFailCause::Storage, "shard {}", f.shard);
    }
    assert_eq!(out.covered_residues, 0);
    assert_eq!(out.total_residues, db.total_residues());
    for (i, qr) in out.results.iter().enumerate() {
        assert_eq!(qr.query_index, i);
        assert!(qr.alignments.is_empty(), "query {i} has rows from dead shards");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full service stack over an out-of-core index under seeded block
/// corruption: every degraded reply's coverage arithmetic must agree
/// *exactly* with the registry's `engine.shard.failures{cause=storage}`
/// books — N requests × the block-depth-predicted dead set, no more, no
/// less — and the wire stats frame is a snapshot of the same cells.
#[test]
fn served_streaming_storage_faults_keep_registry_and_wire_books_equal() {
    let seed = chaos_seed();
    println!("CHAOS_SEED={seed}");
    let dir = store_dir("served-storage");
    // Fault-free probes pin the partition and per-shard block depths, so
    // the dead set under Nth(victim_block) is predictable arithmetic.
    // Scan db sizes until the depths differ — a uniform partition would
    // kill every shard and leave no survivor books to check.
    let (db, probe, depths, victim_block) = [33usize, 37, 41, 45, 29]
        .into_iter()
        .find_map(|n| {
            let db = toy_db(n, seed ^ 0x57AB);
            let probe = build_streaming(&db, 3, &dir, &Faults::none());
            let depths: Vec<usize> =
                probe.shards().iter().map(|s| s.store.num_blocks()).collect();
            let deepest = *depths.iter().max()?;
            let victim_block = (deepest - 1) as u64;
            (deepest >= 2 && depths.iter().any(|&d| (d as u64) <= victim_block))
                .then_some((db, probe, depths, victim_block))
        })
        .unwrap_or_else(|| {
            panic!("CHAOS_SEED={seed}: no scanned db size gave uneven shard depths")
        });
    let expected_dead: Vec<u32> = depths
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d as u64 > victim_block)
        .map(|(s, _)| s as u32)
        .collect();
    let lost: usize = expected_dead
        .iter()
        .map(|&s| probe.shards()[s as usize].db.total_residues())
        .sum();
    let faults = FaultPlan::new(seed).with(FAULT_FETCH_SHORT, Schedule::Nth(victim_block)).build();
    let streaming = build_streaming(&db, 3, &dir, &faults);
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(2);
    base.params.evalue_cutoff = 1e9;
    base.params.kernel = kernel_under_test();
    let ctx = Arc::new(SearchContext {
        db: db.clone(),
        index: ResidentIndex::Streaming(streaming),
        neighbors: neighbors(),
        base,
    });
    let (transport, connector) = loopback();
    let mut handle = serve(transport, ctx, BatchOptions::default());

    const REQUESTS: u64 = 3;
    for i in 0..REQUESTS {
        let fasta = fasta_for(&db, (i as usize % db.len()) as bioseq::SequenceId);
        let mut client = Client::new(connector.connect().unwrap_or_else(|e| panic!("{e}")));
        let resp = client
            .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        let d = resp
            .degraded
            .as_ref()
            .unwrap_or_else(|| panic!("request {i}: degraded block missing"));
        assert_eq!(d.failed_shards, expected_dead, "request {i}");
        assert_eq!(d.total_residues, db.total_residues() as u64, "request {i}");
        assert_eq!(d.coverage_residues, d.total_residues - lost as u64, "request {i}");
    }

    let per_cause = REQUESTS * expected_dead.len() as u64;
    let report = handle.stats();
    assert_eq!(report.degraded, REQUESTS);
    assert_eq!(report.shard_fail_storage, per_cause);
    assert_eq!(report.shard_fail_injected, 0);
    assert_eq!(report.shard_fail_deadline, 0);
    let reg = handle.shared_stats();
    let reg = reg.registry();
    use obsv::metrics::names as n2;
    assert_eq!(reg.value(n2::BATCHER_DEGRADED), REQUESTS);
    assert_eq!(reg.value_for(n2::SHARD_FAILURES_BY_CAUSE, "storage"), per_cause);
    assert_eq!(reg.value_for(n2::SHARD_FAILURES_BY_CAUSE, "injected"), 0);
    for (s, &d) in depths.iter().enumerate() {
        let expect = if d as u64 > victim_block { REQUESTS } else { 0 };
        assert_eq!(
            reg.value_for(n2::SHARD_FAILURES, &s.to_string()),
            expect,
            "shard {s} (depth {d}) storage failures"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
