//! End-to-end service tests over the deterministic loopback transport:
//! full frames, real threads, the real batcher — no sockets.
//!
//! The load-bearing test is `concurrent_clients_get_solo_identical_results`:
//! eight clients race their queries through the micro-batcher and every one
//! must receive results *byte-identical* (per `engine::verify::
//! results_identical`, which compares E-value bits and tracebacks) to a
//! direct solo `engine::search_batch` call — coalescing must be invisible.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig};
use engine::{results_identical, EngineKind, SearchConfig};
use scoring::{NeighborTable, BLOSUM62};
use serve::proto::ErrorCode;
use serve::{
    loopback, serve, BatchOptions, Client, ClientError, LoopbackConnector, ParamOverrides,
    ResidentIndex, SearchContext, SearchResponse, ServerHandle,
};

/// A small database with deliberate shared motifs so every query aligns.
const DB: &[&str] = &[
    "MARNDWWWCQEGHILKWWWMFPSTWYVARND",
    "WWWHILKMFPSTARNDWWWCQEGMARNDKLH",
    "ARNDARNDARNDWWWCQEGHILKMFPSTWYV",
    "MKVLAARNDGGWWWHILKMFPSTCQEGARND",
    "CQEGHILKWWWMFPSTWYVARNDMARNDWWW",
    "PSTWYVARNDWWWCQEGHILKARNDARNDMK",
    "HILKMFPSTWYVWWWARNDCQEGMKVLAGGG",
    "WYVARNDMARNDWWWCQEGHILKMFPSTPST",
    "GGWWWHILKMFPSTCQEGARNDMKVLAARND",
    "NDWWWCQEGHILKWWWMFPSTWYVARNDMAR",
];

fn fixture_db() -> SequenceDb {
    DB.iter()
        .enumerate()
        .map(
            |(i, s)| match Sequence::from_str_checked(format!("subj{i}"), s) {
                Ok(seq) => seq,
                Err(b) => panic!("bad residue {b} in fixture"),
            },
        )
        .collect()
}

fn context(threads: usize) -> Arc<SearchContext> {
    let db = fixture_db();
    let index = ResidentIndex::Single(DbIndex::build(&db, &IndexConfig::default()));
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(threads);
    base.params.evalue_cutoff = 1e6; // accept everything the heuristic finds
    Arc::new(SearchContext {
        db,
        index,
        neighbors,
        base,
    })
}

fn sharded_context(threads: usize, shards: usize) -> Arc<SearchContext> {
    let db = fixture_db();
    let index = ResidentIndex::Sharded(dbindex::ShardedIndex::build(
        &db,
        &IndexConfig::default(),
        shards,
    ));
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(threads);
    base.params.evalue_cutoff = 1e6;
    Arc::new(SearchContext {
        db,
        index,
        neighbors,
        base,
    })
}

fn start(ctx: &Arc<SearchContext>, opts: BatchOptions) -> (ServerHandle, LoopbackConnector) {
    let (transport, connector) = loopback();
    (serve(transport, Arc::clone(ctx), opts), connector)
}

fn fasta_for(i: usize) -> String {
    // Queries are database sequences (plus a prefix wobble), so hits are
    // guaranteed and differ per client.
    format!(">client{i}\n{}\n", DB[i % DB.len()])
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A connection that never searches. Its stats round trip returns only
/// once the server's connection thread is running, so from then on it
/// counts as a connection that could still send, and a forming window
/// waits for it until `max_delay`.
fn idle_connection(connector: &LoopbackConnector) -> Client<impl Read + Write + Send + 'static> {
    let mut idle = Client::new(connector.connect().expect("connect"));
    idle.stats().expect("stats round trip");
    idle
}

#[test]
fn concurrent_clients_get_solo_identical_results() {
    const CLIENTS: usize = 8;
    let ctx = context(2);
    // A generous forming window plus a roomy batch forces real coalescing.
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            queue_cap: 32,
            max_batch: CLIENTS,
            max_delay: Duration::from_millis(150),
            ..BatchOptions::default()
        },
    );

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let connector = connector.clone();
            std::thread::spawn(move || {
                let conn = connector.connect().expect("connect");
                let mut client = Client::new(conn);
                let response = client
                    .search(
                        &fasta_for(i),
                        EngineKind::MuBlastp,
                        ParamOverrides::default(),
                        0,
                    )
                    .expect("search should succeed");
                (i, response)
            })
        })
        .collect();

    for worker in workers {
        let (i, response) = worker.join().expect("client thread");
        assert_eq!(response.replies.len(), 1, "one query in, one reply out");
        let got: Vec<_> = response.replies.iter().map(|r| r.result.clone()).collect();

        // The ground truth: the same single query, run solo.
        let query = match Sequence::from_str_checked(format!("client{i}"), DB[i % DB.len()]) {
            Ok(seq) => seq,
            Err(b) => panic!("bad residue {b}"),
        };
        let solo = engine::search_batch(
            &ctx.db,
            ctx.index.as_single(),
            &ctx.neighbors,
            &[query],
            &ctx.base,
        );
        assert!(!solo[0].alignments.is_empty(), "fixture must produce hits");
        if let Err(diff) = results_identical(&solo, &got) {
            panic!("client {i}: batched results differ from solo run: {diff}");
        }
        // Subject ids resolved server-side line up with the alignments.
        for (a, sid) in response.replies[0]
            .result
            .alignments
            .iter()
            .zip(&response.replies[0].subject_ids)
        {
            assert_eq!(sid, &ctx.db.get(a.subject).id);
        }
    }

    let stats = handle.stats();
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.batches >= 1,
        "at least one batch must have been dispatched"
    );
    assert!(
        stats.batches < CLIENTS as u64,
        "the forming window should have coalesced at least two requests \
         into one batch (got {} batches for {CLIENTS} requests)",
        stats.batches
    );
    // The batch-size histogram accounts for every request exactly once.
    let hist_total: u64 = stats
        .batch_hist
        .iter()
        .enumerate()
        .map(|(k, &n)| (k as u64 + 1) * n)
        .sum();
    assert_eq!(hist_total, CLIENTS as u64);
    assert_eq!(stats.total.count, CLIENTS as u64);
    handle.shutdown();
}

#[test]
fn saturation_answers_overloaded_and_bounds_the_queue() {
    let ctx = context(1);
    // Tiny queue, huge forming window: submissions park in the queue, so
    // the third concurrent request must bounce. The idle connection keeps
    // the window open while both fillers are queued.
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            queue_cap: 2,
            max_batch: 16,
            max_delay: Duration::from_secs(30),
            ..BatchOptions::default()
        },
    );
    let _idle = idle_connection(&connector);

    let fillers: Vec<_> = (0..2)
        .map(|i| {
            let connector = connector.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(connector.connect().expect("connect"));
                client.search(
                    &fasta_for(i),
                    EngineKind::MuBlastp,
                    ParamOverrides::default(),
                    0,
                )
            })
        })
        .collect();

    // Stats frames bypass the admission queue, so we can watch it fill.
    wait_until("queue to fill", || handle.stats().queue_depth == 2);

    let mut client = Client::new(connector.connect().expect("connect"));
    match client.search(
        &fasta_for(2),
        EngineKind::MuBlastp,
        ParamOverrides::default(),
        0,
    ) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert!(e.retry_after_ms > 0, "overload must carry a retry hint");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Draining still answers the two parked requests.
    handle.shutdown();
    for filler in fillers {
        let response = filler
            .join()
            .expect("filler thread")
            .expect("parked search");
        assert_eq!(response.replies.len(), 1);
    }
    let stats = handle.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 2);
    assert!(
        stats.max_depth_seen <= 2,
        "queue depth {} exceeded its cap of 2",
        stats.max_depth_seen
    );
}

#[test]
fn queued_past_deadline_gets_deadline_exceeded() {
    let ctx = context(1);
    // The forming window alone (400 ms) outlives a 1 ms deadline; the idle
    // connection keeps it open.
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            queue_cap: 8,
            max_batch: 16,
            max_delay: Duration::from_millis(400),
            ..BatchOptions::default()
        },
    );
    let _idle = idle_connection(&connector);
    let mut client = Client::new(connector.connect().expect("connect"));
    match client.search(
        &fasta_for(0),
        EngineKind::MuBlastp,
        ParamOverrides::default(),
        1,
    ) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(handle.stats().expired, 1);
    handle.shutdown();
}

#[test]
fn wire_shutdown_drains_queued_work_before_acking() {
    let ctx = context(1);
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            queue_cap: 8,
            max_batch: 16,
            max_delay: Duration::from_secs(30),
            ..BatchOptions::default()
        },
    );
    // Connected first, the admin is the idle connection that keeps the
    // window open while the three requests park.
    let mut admin = idle_connection(&connector);

    let parked: Vec<_> = (0..3)
        .map(|i| {
            let connector = connector.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(connector.connect().expect("connect"));
                client.search(
                    &fasta_for(i),
                    EngineKind::MuBlastp,
                    ParamOverrides::default(),
                    0,
                )
            })
        })
        .collect();
    wait_until("three parked requests", || handle.stats().queue_depth == 3);

    admin.shutdown().expect("shutdown ack");
    // The ack arrives only after the drain: all parked work is answered.
    for p in parked {
        let response = p.join().expect("parked thread").expect("drained search");
        assert!(!response.replies.is_empty());
    }
    assert!(handle.is_stopped());
    assert_eq!(handle.stats().completed, 3);
    handle.shutdown();
}

#[test]
fn different_overrides_are_honored_per_request() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, BatchOptions::default());
    let mut client = Client::new(connector.connect().expect("connect"));

    let loose = client
        .search(
            &fasta_for(0),
            EngineKind::MuBlastp,
            ParamOverrides::default(),
            0,
        )
        .expect("loose search");
    let strict = client
        .search(
            &fasta_for(0),
            EngineKind::MuBlastp,
            ParamOverrides {
                max_reported: Some(1),
                ..Default::default()
            },
            0,
        )
        .expect("strict search");
    assert!(
        loose.replies[0].result.alignments.len() > 1,
        "fixture finds several hits"
    );
    assert_eq!(
        strict.replies[0].result.alignments.len(),
        1,
        "max_reported=1 caps output"
    );
    handle.shutdown();
}

/// Under the daemon's default options (2 ms window) a request that finds
/// the dispatcher idle is not held for companions: every lone request of a
/// slow client is dispatched with trigger `idle`, none with `aged`. The
/// 50 ms pauses are 25 windows long — only their lower bound matters.
#[test]
fn default_options_dispatch_a_lone_request_without_a_forming_delay() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, BatchOptions::default());
    let mut client = Client::new(connector.connect().expect("connect"));
    for sent in 1..=3 {
        std::thread::sleep(Duration::from_millis(50));
        client
            .search(
                &fasta_for(sent),
                EngineKind::MuBlastp,
                ParamOverrides::default(),
                0,
            )
            .expect("search");
        let metrics = handle.render_metrics();
        for (trigger, want) in [("idle", sent), ("aged", 0), ("full", 0), ("drain", 0)] {
            let row =
                format!("serve_batcher_dispatches_by_trigger{{trigger=\"{trigger}\"}} {want}\n");
            assert!(
                metrics.contains(&row),
                "want `{}` in:\n{metrics}",
                row.trim_end()
            );
        }
    }
    assert_eq!(handle.stats().batches, 3);
    handle.shutdown();
}

/// `[idle, aged, full, drain]` dispatch counts off the metrics exposition.
fn triggers(handle: &ServerHandle) -> [u64; 4] {
    let metrics = handle.render_metrics();
    ["idle", "aged", "full", "drain"].map(|trigger| {
        let row = format!("serve_batcher_dispatches_by_trigger{{trigger=\"{trigger}\"}} ");
        let line = metrics
            .lines()
            .find_map(|l| l.strip_prefix(row.as_str()))
            .unwrap_or_else(|| panic!("no `{row}` row in:\n{metrics}"));
        line.parse().expect("a count")
    })
}

/// Search from a thread of its own.
fn search_in_background(
    mut client: Client<impl Read + Write + Send + 'static>,
) -> JoinHandle<Result<SearchResponse, ClientError>> {
    std::thread::spawn(move || {
        client.search(
            &fasta_for(0),
            EngineKind::MuBlastp,
            ParamOverrides::default(),
            0,
        )
    })
}

/// A window that outlasts any of the tests below: a request answered in
/// [`PROMPT`] was not held until it closed.
const LONG_WINDOW: Duration = Duration::from_secs(30);
const PROMPT: Duration = Duration::from_secs(5);

fn long_window() -> BatchOptions {
    BatchOptions {
        max_delay: LONG_WINDOW,
        ..BatchOptions::default()
    }
}

/// Join a background search that must be answered within [`PROMPT`].
fn answered_promptly(search: JoinHandle<Result<SearchResponse, ClientError>>) -> SearchResponse {
    let deadline = Instant::now() + PROMPT;
    while !search.is_finished() {
        assert!(Instant::now() < deadline, "held for the forming window");
        std::thread::sleep(Duration::from_millis(2));
    }
    search.join().expect("search thread").expect("search")
}

/// Two connections, one request each: once both are queued neither
/// connection can send a companion, so the batch of two leaves at once,
/// labelled `full`, instead of waiting out the window.
#[test]
fn every_connection_queued_closes_the_window_at_once() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, long_window());
    let clients = [idle_connection(&connector), idle_connection(&connector)];
    for search in clients.map(search_in_background) {
        assert!(!answered_promptly(search).replies.is_empty());
    }
    assert_eq!(triggers(&handle), [0, 0, 1, 0]);
    assert_eq!(handle.stats().batch_hist, vec![0, 1], "one batch of two");
    handle.shutdown();
}

/// The same two requests beside a third connection that has not sent:
/// it could still send a companion, so the batch is held until the
/// window closes and leaves `aged`.
#[test]
fn an_idle_connection_holds_the_window_until_it_closes() {
    const WINDOW: Duration = Duration::from_millis(500);
    let ctx = context(1);
    let created = Instant::now();
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            max_delay: WINDOW,
            ..BatchOptions::default()
        },
    );
    let _idle = idle_connection(&connector);
    let clients = [idle_connection(&connector), idle_connection(&connector)];
    for search in clients.map(search_in_background) {
        let reply = search.join().expect("search thread").expect("search");
        assert!(!reply.replies.is_empty());
    }
    assert!(
        created.elapsed() >= WINDOW,
        "answered {:?} after start, before the window closed",
        created.elapsed()
    );
    assert_eq!(triggers(&handle), [0, 1, 0, 0]);
    assert_eq!(handle.stats().batch_hist, vec![0, 1], "one batch of two");
    handle.shutdown();
}

/// A request held only because another connection could still send is
/// released when that connection closes: the closing connection wakes
/// the dispatcher, which finds every remaining connection queued.
#[test]
fn a_closing_idle_connection_releases_a_held_request() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, long_window());
    let idle = idle_connection(&connector);
    let search = search_in_background(idle_connection(&connector));
    wait_until("the request to queue", || handle.stats().queue_depth == 1);
    drop(idle);
    assert!(!answered_promptly(search).replies.is_empty());
    assert_eq!(triggers(&handle), [0, 0, 1, 0]);
    handle.shutdown();
}

/// A lone connection sending back to back never has a companion to wait
/// for: no request of it waits out the window.
#[test]
fn a_lone_closed_loop_connection_is_never_held() {
    const SENT: u64 = 5;
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, long_window());
    let mut client = Client::new(connector.connect().expect("connect"));
    for i in 0..SENT {
        let sent = Instant::now();
        client
            .search(
                &fasta_for(i as usize),
                EngineKind::MuBlastp,
                ParamOverrides::default(),
                0,
            )
            .expect("search");
        assert!(
            sent.elapsed() < PROMPT,
            "request {i} held {:?}",
            sent.elapsed()
        );
    }
    let [idle, aged, full, drain] = triggers(&handle);
    assert_eq!((aged, drain), (0, 0));
    assert_eq!(idle + full, SENT);
    handle.shutdown();
}

/// The top-k path end-to-end: a `--top-k K` request answers with rows
/// bit-identical to an exhaustive search truncated to K (the pruning is
/// invisible in the output), the reply accounts for every index block as
/// either scanned or skipped, and the daemon's stats frame counts the
/// request. Runs against both the single-index and the sharded daemon.
#[test]
fn top_k_request_matches_truncated_exhaustive_and_accounts_for_blocks() {
    const K: u32 = 2;
    let plain_ctx = context(1);
    let sharded_ctx = sharded_context(2, 3);
    let (mut plain_handle, plain_conn) = start(&plain_ctx, BatchOptions::default());
    let (mut sharded_handle, sharded_conn) = start(&sharded_ctx, BatchOptions::default());

    // Oracle: the same query, exhaustive, truncated to K via max_reported.
    let mut oracle_client = Client::new(plain_conn.connect().expect("connect"));
    let oracle = oracle_client
        .search(
            &fasta_for(0),
            EngineKind::MuBlastp,
            ParamOverrides {
                max_reported: Some(K),
                ..Default::default()
            },
            0,
        )
        .expect("oracle search");
    assert_eq!(oracle.replies[0].result.alignments.len(), K as usize);
    assert_eq!(
        oracle.blocks_scanned + oracle.blocks_skipped,
        0,
        "exhaustive searches report no pruning counters"
    );
    let oracle_rows: Vec<_> = oracle.replies.iter().map(|r| r.result.clone()).collect();

    for (what, connector, handle) in [
        ("single", &plain_conn, &plain_handle),
        ("sharded", &sharded_conn, &sharded_handle),
    ] {
        let mut client = Client::new(connector.connect().expect("connect"));
        let resp = client
            .search(
                &fasta_for(0),
                EngineKind::MuBlastp,
                ParamOverrides {
                    top_k: Some(K),
                    ..Default::default()
                },
                0,
            )
            .expect("top-k search");
        let rows: Vec<_> = resp.replies.iter().map(|r| r.result.clone()).collect();
        if let Err(diff) = results_identical(&oracle_rows, &rows) {
            panic!("{what}: top-k results differ from truncated exhaustive: {diff}");
        }
        let total_blocks: u64 = match (what, &plain_ctx.index, &sharded_ctx.index) {
            ("single", ResidentIndex::Single(index), _) => index.blocks().len() as u64,
            (_, _, ResidentIndex::Sharded(sharded)) => sharded
                .shards()
                .iter()
                .map(|s| s.index.blocks().len() as u64)
                .sum(),
            _ => unreachable!("contexts built above"),
        };
        assert_eq!(
            resp.blocks_scanned + resp.blocks_skipped,
            total_blocks,
            "{what}: every block must be accounted for"
        );
        let stats = handle.stats();
        assert_eq!(stats.topk_requests, 1, "{what}");
        assert_eq!(stats.topk_blocks_scanned, resp.blocks_scanned, "{what}");
        assert_eq!(stats.topk_blocks_skipped, resp.blocks_skipped, "{what}");
    }
    plain_handle.shutdown();
    sharded_handle.shutdown();
}

#[test]
fn bad_fasta_is_a_typed_bad_request() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, BatchOptions::default());
    let mut client = Client::new(connector.connect().expect("connect"));
    match client.search("", EngineKind::MuBlastp, ParamOverrides::default(), 0) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    handle.shutdown();
}

/// The observability path end-to-end: a traced request gets back its
/// own spans, stamped with its trace id, properly nested (engine stages
/// inside the Search window, everything inside the Request window), with
/// one Seed span per (query, block), and the stats frame grows per-stage
/// digests.
#[test]
fn traced_request_returns_nested_spans_with_its_trace_id() {
    let ctx = context(2);
    let (mut handle, connector) = start(
        &ctx,
        BatchOptions {
            obsv: obsv::ObsvConfig::on(),
            ..BatchOptions::default()
        },
    );
    let mut client = Client::new(connector.connect().expect("connect"));
    let response = client
        .search_traced(
            &fasta_for(0),
            EngineKind::MuBlastp,
            ParamOverrides::default(),
            0,
            true,
        )
        .expect("traced search");
    assert!(response.trace_id > 0, "server must assign a trace id");
    let trace = response.trace.as_ref().expect("trace requested");
    assert_eq!(trace.dropped, 0);
    assert!(trace.spans.iter().all(|s| s.trace_id == response.trace_id));

    use obsv::Stage;
    let find = |stage: Stage| trace.spans.iter().find(|s| s.stage == stage);
    let request = find(Stage::Request).expect("Request span");
    let search = find(Stage::Search).expect("Search span");
    let queue_wait = find(Stage::QueueWait).expect("QueueWait span");

    // Nesting: QueueWait and Search inside Request; engine stages inside
    // Search (they run within the engine call the Search span times).
    let within = |inner: &obsv::SpanRecord, outer: &obsv::SpanRecord| {
        inner.start_ns >= outer.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    assert!(within(queue_wait, request), "QueueWait outside Request");
    assert!(within(search, request), "Search outside Request");
    for s in &trace.spans {
        if s.stage.parent() == Some(Stage::Search) {
            assert!(within(s, search), "{:?} outside Search", s.stage);
        }
    }

    // One Seed span per (query, block) — the acceptance shape.
    let seeds = trace
        .spans
        .iter()
        .filter(|s| s.stage == Stage::Seed)
        .count();
    let blocks = ctx
        .index
        .as_single()
        .expect("unsharded fixture")
        .blocks()
        .len();
    assert_eq!(seeds, blocks, "one query, one span/block");
    for stage in [Stage::Reorder, Stage::Ungapped, Stage::Finish, Stage::Gapped] {
        assert!(find(stage).is_some(), "missing {stage:?} span");
    }

    // The stats frame now carries per-stage digests.
    let stats = handle.stats();
    assert!(
        stats
            .stages
            .iter()
            .any(|sl| sl.stage == Stage::Seed && sl.latency.count >= 1),
        "stats must digest Seed spans, got {:?}",
        stats.stages
    );
    handle.shutdown();
}

/// Tracing must be invisible in the results: the same query against a
/// tracing daemon (spans requested and not) and a plain daemon produces
/// byte-identical results (E-value bits, tracebacks, everything).
#[test]
fn results_are_byte_identical_with_tracing_on_and_off() {
    let ctx = context(1);
    let (mut plain_handle, plain_conn) = start(&ctx, BatchOptions::default());
    let (mut traced_handle, traced_conn) = start(
        &ctx,
        BatchOptions {
            obsv: obsv::ObsvConfig::on(),
            ..BatchOptions::default()
        },
    );
    let fasta = fasta_for(3);
    let get = |connector: &LoopbackConnector, want_trace: bool| {
        let mut client = Client::new(connector.connect().expect("connect"));
        let resp = client
            .search_traced(
                &fasta,
                EngineKind::MuBlastp,
                ParamOverrides::default(),
                0,
                want_trace,
            )
            .expect("search");
        resp.replies
            .iter()
            .map(|r| r.result.clone())
            .collect::<Vec<_>>()
    };
    let baseline = get(&plain_conn, false);
    assert!(!baseline[0].alignments.is_empty(), "fixture must hit");
    for (what, got) in [
        ("traced daemon, no spans requested", get(&traced_conn, false)),
        ("traced daemon, spans requested", get(&traced_conn, true)),
    ] {
        if let Err(diff) = results_identical(&baseline, &got) {
            panic!("{what}: results differ from untraced run: {diff}");
        }
    }
    plain_handle.shutdown();
    traced_handle.shutdown();
}

/// One wire version: a well-formed frame stamped with the retired v6 or
/// a future v8 is refused with exactly one `BadRequest` error frame —
/// itself encoded at the current version, or `read_frame` would refuse it
/// here — and then the connection is closed.
#[test]
fn frames_stamped_with_another_version_are_refused_then_closed() {
    use serve::proto::{encode_frame, read_frame, Frame, ProtoError, SearchRequest};
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, BatchOptions::default());
    let search = Frame::Search(SearchRequest {
        fasta: fasta_for(1),
        engine: EngineKind::MuBlastp,
        overrides: ParamOverrides::default(),
        deadline_ms: 0,
        trace_id: 0,
        want_trace: false,
    });
    for (frame, version) in [(&search, 6u32), (&Frame::StatsRequest, 6), (&search, 8)] {
        let mut conn = connector.connect().expect("connect");
        let mut bytes = encode_frame(frame);
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        conn.write_all(&bytes).expect("write restamped frame");
        match read_frame(&mut conn) {
            Ok(Frame::Error(e)) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "v{version}");
                assert!(
                    e.message.contains(&version.to_string()),
                    "v{version}: {}",
                    e.message
                );
            }
            other => panic!("v{version}: expected a BadRequest error frame, got {other:?}"),
        }
        assert_eq!(
            read_frame(&mut conn),
            Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof)),
            "v{version}: one error frame, then EOF"
        );
    }
    // The refusals cost the daemon nothing: a current client still works.
    let mut client = Client::new(connector.connect().expect("connect"));
    let resp = client
        .search(
            &fasta_for(1),
            EngineKind::MuBlastp,
            ParamOverrides::default(),
            0,
        )
        .expect("search");
    assert!(!resp.replies[0].result.alignments.is_empty());
    handle.shutdown();
}

/// The sharded daemon end-to-end: a `--shards K`-style context answers
/// every client with bytes identical to the unsharded daemon (statistics
/// included — `results_identical` compares E-value bits), and the stats
/// frame carries one queue-wait/latency row per shard, fed per dispatch.
#[test]
fn sharded_server_matches_unsharded_and_reports_shard_rows() {
    const SHARDS: usize = 3;
    let plain_ctx = context(2);
    let sharded_ctx = sharded_context(2, SHARDS);
    let (mut plain_handle, plain_conn) = start(&plain_ctx, BatchOptions::default());
    let (mut sharded_handle, sharded_conn) = start(&sharded_ctx, BatchOptions::default());

    for i in 0..DB.len() {
        let fasta = fasta_for(i);
        let get = |connector: &LoopbackConnector| {
            let mut client = Client::new(connector.connect().expect("connect"));
            let resp = client
                .search(&fasta, EngineKind::MuBlastp, ParamOverrides::default(), 0)
                .expect("search");
            resp.replies
                .iter()
                .map(|r| r.result.clone())
                .collect::<Vec<_>>()
        };
        let baseline = get(&plain_conn);
        let sharded = get(&sharded_conn);
        assert!(!baseline[0].alignments.is_empty(), "fixture must hit");
        if let Err(diff) = results_identical(&baseline, &sharded) {
            panic!("client {i}: sharded results differ from unsharded: {diff}");
        }
    }

    // The unsharded daemon reports no shard rows; the sharded one reports
    // one row per shard covering the whole database, with every dispatch
    // recorded against every shard.
    assert!(plain_handle.stats().shards.is_empty());
    let stats = sharded_handle.stats();
    assert_eq!(stats.shards.len(), SHARDS);
    let total_seqs: u64 = stats.shards.iter().map(|s| s.seqs).sum();
    let total_residues: u64 = stats.shards.iter().map(|s| s.residues).sum();
    assert_eq!(total_seqs, sharded_ctx.db.len() as u64);
    assert_eq!(total_residues, sharded_ctx.db.total_residues() as u64);
    for row in &stats.shards {
        assert_eq!(row.search.count, stats.batches, "shard {}", row.shard);
        assert_eq!(row.queued.count, stats.batches, "shard {}", row.shard);
    }
    plain_handle.shutdown();
    sharded_handle.shutdown();
}

#[test]
fn garbage_bytes_get_an_error_frame_not_a_hang() {
    let ctx = context(1);
    let (mut handle, connector) = start(&ctx, BatchOptions::default());
    let mut conn = connector.connect().expect("connect");
    // 13+ bytes of non-protocol garbage: enough for a full (bad) header.
    conn.write_all(b"GARBAGE-GARBAGE-GARBAGE").expect("write");
    match serve::proto::read_frame(&mut conn) {
        Ok(serve::proto::Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected a BadRequest error frame, got {other:?}"),
    }
    // The server then hangs up on the desynchronized stream.
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest)
        .expect("peer should close cleanly");
    assert!(rest.is_empty());
    handle.shutdown();
}
