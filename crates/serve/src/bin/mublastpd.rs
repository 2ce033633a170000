//! The muBLASTP daemon: load the database and index once, serve forever.
//!
//! ```text
//! mublastpd --db db.fasta [--index db.mbi] [--shards K]
//!           [--block-cache-bytes N]
//!           [--listen 127.0.0.1:7878]
//!           [--metrics-addr 127.0.0.1:9100] [--event-log events.jsonl]
//!           [--threads N] [--queue-cap N] [--max-batch N] [--max-delay-us N]
//!           [--kernel auto|scalar|striped]
//!           [--evalue X] [--max-hits N] [--trace] [--slow-query-us N]
//! ```
//!
//! `--shards K` partitions the database into K balanced shards, each with
//! its own index, searched concurrently (one engine per shard, fanned
//! over `--threads` workers) and merged with whole-database statistics —
//! results are byte-identical to the unsharded daemon, and the stats
//! frame grows one queue-wait/search-latency row per shard.
//!
//! `--block-cache-bytes N` serves **out-of-core**: per-shard block
//! stores are written to a temporary directory at startup and searched by
//! streaming blocks through an N-byte LRU cache instead of holding the
//! decoded index resident. Results stay byte-identical; the stats frame
//! reports the cache's budget, residency, and hit/miss/eviction
//! counters. Incompatible with `--index` (the store is built in-process
//! from the database).
//!
//! `--max-delay-us N` (default 2000) bounds how long a request waits for
//! companions to share its batch: the forming window closes N µs after the
//! dispatcher last went idle — or after the request's admission, if a
//! dispatch was in flight then — so a request that finds the daemon idle
//! is searched at once and only recent traffic is waited for. The window
//! also closes as soon as every open connection has a request queued:
//! each waits for its reply before sending again, so none can join.
//!
//! `--metrics-addr HOST:PORT` binds a Prometheus text-exposition
//! endpoint (`GET /metrics`, HTTP/1.0) rendering the daemon's metrics
//! registry — the same counters the wire stats frame reports.
//! `--event-log PATH` appends structured JSON events (slow queries, shard
//! degradation, retry exhaustion, cache pressure), one object per line,
//! each carrying the request's wire trace ID.
//!
//! `--trace` enables per-stage span recording; clients that ask for a
//! trace (`mublastp-query --trace out.json`) then get their spans back,
//! and the stats frame reports per-stage p50/p99. `--slow-query-us N`
//! logs any request slower than N µs (admission to reply) to stderr and
//! the event log.
//!
//! Builds the index in-process when `--index` is not given. Runs until a
//! client sends a `Shutdown` frame (`mublastp-query --shutdown`), then
//! drains the admission queue — every already-accepted request still gets
//! its reply — and exits.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use bioseq::{read_fasta, Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig, LoadOutcome, ShardedIndex};
use engine::{EngineKind, SearchConfig};
use scoring::{KernelKind, NeighborTable, BLOSUM62};
use serve::{BatchOptions, ResidentIndex, SearchContext, TcpTransport};

const USAGE: &str = "\
mublastpd — resident-index muBLASTP search daemon

USAGE:
  mublastpd --db db.fasta [--index db.mbi] [--shards K]
            [--block-cache-bytes N]
            [--listen 127.0.0.1:7878]
            [--metrics-addr 127.0.0.1:9100] [--event-log events.jsonl]
            [--threads N] [--queue-cap N] [--max-batch N] [--max-delay-us N]
            [--kernel auto|scalar|striped]
            [--evalue X] [--max-hits N] [--trace] [--slow-query-us N]

  --max-delay-us N  longest wait for batch companions, counted from when the
                    dispatcher last went idle (default 2000; an idle daemon
                    searches a request at once, and a batch leaves early
                    once every open connection has a request queued)";

// Exit codes (documented, stable):
//   0 clean shutdown   2 usage error   3 cannot bind listener
//   4 cannot load database/index
const EXIT_USAGE: u8 = 2;
const EXIT_BIND: u8 = 3;
const EXIT_LOAD: u8 = 4;

/// Minimal `--flag value` parser (same idiom as the mublastp CLI).
struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn require(&self, name: &str) -> Result<&'a str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag {name}"))
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }
}

fn load_fasta(path: &str) -> Result<Vec<Sequence>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_fasta(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), (u8, String)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = Flags(&args);
    let usage = |e: String| (EXIT_USAGE, format!("{e}\n{USAGE}"));

    let db_path = flags.require("--db").map_err(usage)?;
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:7878");
    let threads: usize = flags
        .parse("--threads", parallel::default_threads())
        .map_err(usage)?;
    let queue_cap: usize = flags.parse("--queue-cap", 64usize).map_err(usage)?;
    let max_batch: usize = flags.parse("--max-batch", 16usize).map_err(usage)?;
    let max_delay_us: u64 = flags.parse("--max-delay-us", 2000u64).map_err(usage)?;
    let evalue: f64 = flags.parse("--evalue", 10.0f64).map_err(usage)?;
    let max_hits: usize = flags.parse("--max-hits", 25usize).map_err(usage)?;
    let kernel = match flags.get("--kernel") {
        None => KernelKind::Auto,
        Some(v) => KernelKind::parse(v)
            .ok_or_else(|| usage(format!("unknown kernel '{v}' (auto|scalar|striped)")))?,
    };
    let trace_on = args.iter().any(|a| a == "--trace");
    let slow_query_us: u64 = flags.parse("--slow-query-us", 0u64).map_err(usage)?;
    let shards: usize = flags.parse("--shards", 1usize).map_err(usage)?;
    let block_cache_bytes: u64 = flags.parse("--block-cache-bytes", 0u64).map_err(usage)?;
    if queue_cap == 0 || max_batch == 0 {
        return Err(usage(
            "--queue-cap and --max-batch must be positive".to_string(),
        ));
    }
    if shards == 0 {
        return Err(usage("--shards must be positive".to_string()));
    }
    if shards > 1 && flags.get("--index").is_some() {
        return Err(usage(
            "--index cannot be combined with --shards (per-shard indexes are built in-process)"
                .to_string(),
        ));
    }
    if block_cache_bytes > 0 && flags.get("--index").is_some() {
        return Err(usage(
            "--index cannot be combined with --block-cache-bytes (the block store is built \
             in-process)"
                .to_string(),
        ));
    }

    // Load everything resident, once.
    let db: SequenceDb = load_fasta(db_path)
        .map_err(|e| (EXIT_LOAD, e))?
        .into_iter()
        .collect();
    let mut store_dir = None;
    let index = if block_cache_bytes > 0 {
        // Out-of-core: write per-shard block stores into the temp dir and
        // stream blocks through a shared LRU cache.
        let dir =
            std::env::temp_dir().join(format!("mublastpd-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| (EXIT_LOAD, format!("cannot create {}: {e}", dir.display())))?;
        let cache = Arc::new(blockstore::BlockCache::new(block_cache_bytes));
        let streaming = blockstore::StreamingShards::build_in_dir(
            &db,
            &IndexConfig::default(),
            shards,
            &dir,
            cache,
            &faultfn::Faults::none(),
        )
        .map_err(|e| {
            (EXIT_LOAD, format!("cannot build block store in {}: {e}", dir.display()))
        })?;
        for (i, shard) in streaming.shards().iter().enumerate() {
            eprintln!(
                "mublastpd: shard {i}: {} sequences / {} residues / {} store blocks (on disk)",
                shard.db.len(),
                shard.db.total_residues(),
                shard.store.num_blocks()
            );
        }
        store_dir = Some(dir);
        ResidentIndex::Streaming(streaming)
    } else if shards > 1 {
        let sharded = ShardedIndex::build_parallel(&db, &IndexConfig::default(), shards, threads);
        for (i, shard) in sharded.shards().iter().enumerate() {
            eprintln!(
                "mublastpd: shard {i}: {} sequences / {} residues / {} index blocks",
                shard.db.len(),
                shard.db.total_residues(),
                shard.index.blocks().len()
            );
        }
        ResidentIndex::Sharded(sharded)
    } else {
        ResidentIndex::Single(match flags.get("--index") {
            Some(path) => {
                // A damaged or unreadable index file is not fatal: the
                // database is already resident, so retry the read and
                // fall back to rebuilding in-process rather than exiting.
                let (index, outcome) = dbindex::load_index_resilient(
                    || std::fs::read(path),
                    &db,
                    &IndexConfig::default(),
                    2,
                    &faultfn::Faults::none(),
                );
                match outcome {
                    LoadOutcome::Loaded => {}
                    LoadOutcome::Recovered { attempts } => eprintln!(
                        "mublastpd: warning: {path}: loaded on attempt {attempts}"
                    ),
                    LoadOutcome::Rebuilt => eprintln!(
                        "mublastpd: warning: {path}: unreadable, corrupt or in a \
                         retired format — rebuilt the index from the database"
                    ),
                }
                index
            }
            None => DbIndex::build_parallel(&db, &IndexConfig::default(), threads),
        })
    };
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(threads);
    base.params.evalue_cutoff = evalue;
    base.params.max_reported = max_hits;
    base.params.kernel = kernel;
    match &index {
        ResidentIndex::Single(index) => eprintln!(
            "mublastpd: loaded {} sequences / {} residues, {} index blocks, {} threads",
            db.len(),
            db.total_residues(),
            index.blocks().len(),
            threads
        ),
        ResidentIndex::Sharded(sharded) => eprintln!(
            "mublastpd: loaded {} sequences / {} residues, {} shards, {} threads",
            db.len(),
            db.total_residues(),
            sharded.num_shards(),
            threads
        ),
        ResidentIndex::Streaming(streaming) => eprintln!(
            "mublastpd: loaded {} sequences / {} residues, {} disk shards, \
             {} B block cache, {} threads",
            db.len(),
            db.total_residues(),
            streaming.shards().len(),
            block_cache_bytes,
            threads
        ),
    }

    let transport = TcpTransport::bind(listen)
        .map_err(|e| (EXIT_BIND, format!("cannot listen on {listen}: {e}")))?;
    match transport.local_addr() {
        Ok(addr) => eprintln!("mublastpd: listening on {addr}"),
        Err(_) => eprintln!("mublastpd: listening on {listen}"),
    }

    let ctx = Arc::new(SearchContext {
        db,
        index,
        neighbors,
        base,
    });
    if trace_on {
        eprintln!("mublastpd: stage tracing enabled");
    }
    // The stats (and their metrics registry) are created before the
    // server so the event log binds its counters to the same registry
    // the stats frame and the metrics endpoint read.
    let stats = Arc::new(serve::ServeStats::new());
    let event_log = match flags.get("--event-log") {
        Some(path) => {
            let log = serve::EventLog::create(std::path::Path::new(path), stats.registry())
                .map_err(|e| (EXIT_LOAD, format!("cannot open event log {path}: {e}")))?;
            eprintln!("mublastpd: logging events to {path}");
            Some(Arc::new(log))
        }
        None => None,
    };
    let opts = BatchOptions {
        queue_cap,
        max_batch,
        max_delay: Duration::from_micros(max_delay_us),
        obsv: if trace_on {
            obsv::ObsvConfig::on()
        } else {
            obsv::ObsvConfig::off()
        },
        slow_query_us,
        faults: faultfn::Faults::none(),
        event_log,
    };
    let mut handle = serve::serve_with_stats(transport, ctx, opts, stats);
    let _metrics_server = match flags.get("--metrics-addr") {
        Some(addr) => {
            let server = serve::serve_metrics(addr, handle.metrics_source())
                .map_err(|e| (EXIT_BIND, format!("cannot bind metrics endpoint {addr}: {e}")))?;
            eprintln!("mublastpd: serving /metrics on {}", server.addr());
            Some(server)
        }
        None => None,
    };
    handle.wait(); // returns after a wire Shutdown finished draining
    let report = handle.stats();
    eprintln!(
        "mublastpd: shut down — {} accepted, {} completed, {} rejected, {} expired, {} batches",
        report.accepted, report.completed, report.rejected, report.expired, report.batches
    );
    if let Some(dir) = store_dir {
        // Best-effort: the stores are rebuilt from the database anyway.
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("mublastpd: {msg}");
            ExitCode::from(code)
        }
    }
}
