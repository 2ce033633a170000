//! Client for a running `mublastpd`.
//!
//! ```text
//! mublastp-query --addr 127.0.0.1:7878 --query q.fasta
//!                [--engine mublastp|ncbi|ncbi-db] [--evalue X] [--max-hits N]
//!                [--top-k K] [--seg yes|no] [--deadline-ms N] [--retries N]
//!                [--trace out.json] [--trace-folded out.folded]
//! mublastp-query --addr 127.0.0.1:7878 --stats
//! mublastp-query --addr 127.0.0.1:7878 --metrics
//! mublastp-query --addr 127.0.0.1:7878 --shutdown
//! ```
//!
//! `--stats` prints a human-readable digest of the daemon's wire stats
//! frame; `--metrics` prints the daemon's full Prometheus text
//! exposition (the same bytes `--metrics-addr` serves over HTTP, shipped
//! in the wire stats frame) — both are snapshots of the one
//! metrics registry inside the daemon.
//!
//! `--top-k K` asks the daemon for only the K best
//! alignments per query; the daemon may then prune whole index blocks
//! whose score bound cannot reach the running k-th-best E-value, and the
//! reply carries how many blocks were scanned vs skipped (printed on
//! stderr). Rows are bit-identical to an exhaustive search truncated to
//! K — only the work saved differs.
//!
//! Prints BLAST-style tabular output (one row per alignment).
//! `--retries N` retries refused or unreachable searches up to N extra
//! times with exponential backoff — only failures that provably happened
//! before admission (connect errors, `Overloaded`, `ShuttingDown`) are
//! retried, so a search never runs twice. A degraded answer (a sharded
//! daemon lost some shards) still prints its rows, with a warning on
//! stderr naming the missing shards and residue coverage.
//! `--trace out.json` asks the daemon for this request's per-stage spans
//! and writes them as a Chrome/Perfetto trace (open in `ui.perfetto.dev`
//! or `chrome://tracing`); `--trace-folded` writes flamegraph folded
//! stacks instead. Both require the daemon to run with `--trace`.
//! Every failure mode exits with a distinct, stable code and a one-line
//! diagnostic on stderr — scripts can tell "retry later" from "give up".

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

use bioseq::read_fasta;
use engine::EngineKind;
use serve::proto::ErrorCode;
use serve::{Client, ClientError, ParamOverrides, RetryPolicy};

const USAGE: &str = "\
mublastp-query — query a running mublastpd

USAGE:
  mublastp-query --addr HOST:PORT --query q.fasta
                 [--engine mublastp|ncbi|ncbi-db] [--evalue X] [--max-hits N]
                 [--top-k K] [--seg yes|no] [--deadline-ms N] [--retries N]
                 [--trace out.json] [--trace-folded out.folded]
  mublastp-query --addr HOST:PORT --stats
  mublastp-query --addr HOST:PORT --metrics
  mublastp-query --addr HOST:PORT --shutdown";

// Exit codes (documented, stable):
//   0 success          2 usage error        3 cannot connect / connection lost
//   4 protocol error   5 deadline exceeded  6 server overloaded
//   7 other server error
const EXIT_USAGE: u8 = 2;
const EXIT_CONNECT: u8 = 3;
const EXIT_PROTO: u8 = 4;
const EXIT_DEADLINE: u8 = 5;
const EXIT_OVERLOADED: u8 = 6;
const EXIT_SERVER: u8 = 7;

/// Minimal `--flag value` parser (same idiom as the mublastp CLI).
struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

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

fn client_exit(e: &ClientError) -> u8 {
    match e {
        ClientError::Io(_) => EXIT_CONNECT,
        ClientError::Proto(_) | ClientError::UnexpectedFrame(_) => EXIT_PROTO,
        ClientError::Server(w) => match w.code {
            ErrorCode::DeadlineExceeded => EXIT_DEADLINE,
            ErrorCode::Overloaded => EXIT_OVERLOADED,
            _ => EXIT_SERVER,
        },
    }
}

fn run() -> Result<(), (u8, String)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = Flags(&args);
    let usage = |e: String| (EXIT_USAGE, format!("{e}\n{USAGE}"));

    let addr = flags.require("--addr").map_err(usage)?;

    if flags.has("--shutdown") {
        let mut client =
            Client::connect_tcp(addr).map_err(|e| (client_exit(&e), e.to_string()))?;
        client
            .shutdown()
            .map_err(|e| (client_exit(&e), e.to_string()))?;
        eprintln!("mublastp-query: server drained and shut down");
        return Ok(());
    }
    if flags.has("--metrics") {
        let mut client =
            Client::connect_tcp(addr).map_err(|e| (client_exit(&e), e.to_string()))?;
        let s = client
            .stats()
            .map_err(|e| (client_exit(&e), e.to_string()))?;
        if s.metrics_text.is_empty() {
            return Err((EXIT_PROTO, "server sent no metrics text".to_string()));
        }
        print!("{}", s.metrics_text);
        return Ok(());
    }
    if flags.has("--stats") {
        let mut client =
            Client::connect_tcp(addr).map_err(|e| (client_exit(&e), e.to_string()))?;
        let s = client
            .stats()
            .map_err(|e| (client_exit(&e), e.to_string()))?;
        println!("queue_depth     {} / {}", s.queue_depth, s.queue_cap);
        println!("max_depth_seen  {}", s.max_depth_seen);
        println!("accepted        {}", s.accepted);
        println!("rejected        {}", s.rejected);
        println!("expired         {}", s.expired);
        println!("completed       {}", s.completed);
        println!("degraded        {}", s.degraded);
        println!("batches         {}", s.batches);
        for (i, n) in s.batch_hist.iter().enumerate().filter(|(_, &n)| n > 0) {
            println!("batches[{}]      {}", i + 1, n);
        }
        for (name, l) in [
            ("queue_wait", s.queue_wait),
            ("search", s.search),
            ("total", s.total),
        ] {
            println!(
                "{name:<15} n={} p50={}us p99={}us max={}us",
                l.count, l.p50_us, l.p99_us, l.max_us
            );
        }
        for sl in &s.stages {
            println!(
                "stage:{:<9} n={} p50={}us p99={}us max={}us",
                sl.stage.name(),
                sl.latency.count,
                sl.latency.p50_us,
                sl.latency.p99_us,
                sl.latency.max_us
            );
        }
        if s.slow_queries > 0 {
            println!("slow_queries    {}", s.slow_queries);
        }
        if s.retry_attempts > 0 || s.retry_exhausted > 0 {
            println!(
                "retries         attempts={} exhausted={}",
                s.retry_attempts, s.retry_exhausted
            );
        }
        if s.events_logged > 0 || s.events_dropped > 0 {
            println!(
                "events          logged={} dropped={}",
                s.events_logged, s.events_dropped
            );
        }
        if s.topk_requests > 0 {
            println!(
                "topk            requests={} blocks_scanned={} blocks_skipped={}",
                s.topk_requests, s.topk_blocks_scanned, s.topk_blocks_skipped
            );
        }
        if s.shard_fail_injected + s.shard_fail_deadline + s.shard_fail_storage > 0 {
            println!(
                "shard_failures  injected={} deadline={} storage={}",
                s.shard_fail_injected, s.shard_fail_deadline, s.shard_fail_storage
            );
        }
        println!("index_resident  {} B", s.index_resident_bytes);
        // The block-cache rows print in every mode: a daemon without a
        // cache budget reports zeros with an explicit label, so scripts
        // never have to guess whether the row was merely omitted.
        if s.cache_budget_bytes == 0 {
            println!("block_cache     none (index fully resident; no byte budget)");
        } else {
            println!(
                "block_cache     {} / {} B | hits={} misses={} evictions={}",
                s.cache_used_bytes,
                s.cache_budget_bytes,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions
            );
            println!(
                "cache_fetch     blocks={} bytes={} decode_ns={} postings={}",
                s.cache_fetched_blocks,
                s.cache_fetched_bytes,
                s.cache_decode_ns,
                s.cache_decoded_postings
            );
        }
        for sh in &s.shards {
            println!(
                "shard[{}]        seqs={} residues={} searches={} failures={} \
                 queued p50={}us p99={}us | search p50={}us p99={}us max={}us",
                sh.shard,
                sh.seqs,
                sh.residues,
                sh.search.count,
                sh.failures,
                sh.queued.p50_us,
                sh.queued.p99_us,
                sh.search.p50_us,
                sh.search.p99_us,
                sh.search.max_us
            );
        }
        return Ok(());
    }

    let query_path = flags.require("--query").map_err(usage)?;
    let engine = match flags.get("--engine").unwrap_or("mublastp") {
        "mublastp" => EngineKind::MuBlastp,
        "ncbi" => EngineKind::QueryIndexed,
        "ncbi-db" => EngineKind::DbInterleaved,
        other => {
            return Err(usage(format!(
                "unknown engine '{other}' (mublastp|ncbi|ncbi-db)"
            )))
        }
    };
    let overrides = ParamOverrides {
        evalue_cutoff: match flags.get("--evalue") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| usage(format!("bad value for --evalue: '{v}'")))?,
            ),
            None => None,
        },
        max_reported: match flags.get("--max-hits") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| usage(format!("bad value for --max-hits: '{v}'")))?,
            ),
            None => None,
        },
        seg_filter: match flags.get("--seg") {
            Some("yes") => Some(true),
            Some("no") => Some(false),
            Some(other) => return Err(usage(format!("bad value for --seg: '{other}'"))),
            None => None,
        },
        top_k: match flags.get("--top-k") {
            Some(v) => {
                let k: u32 = v
                    .parse()
                    .map_err(|_| usage(format!("bad value for --top-k: '{v}'")))?;
                if k == 0 {
                    return Err(usage("--top-k must be at least 1".to_string()));
                }
                Some(k)
            }
            None => None,
        },
    };
    let deadline_ms: u32 = flags.parse("--deadline-ms", 0u32).map_err(usage)?;
    let retries: u32 = flags.parse("--retries", 0u32).map_err(usage)?;
    let trace_path = flags.get("--trace");
    let folded_path = flags.get("--trace-folded");
    let want_trace = trace_path.is_some() || folded_path.is_some();

    // The daemon parses the FASTA; we read it only to ship it.
    let mut fasta = String::new();
    let file = File::open(query_path)
        .map_err(|e| (EXIT_USAGE, format!("cannot open {query_path}: {e}")))?;
    BufReader::new(file)
        .read_to_string(&mut fasta)
        .map_err(|e| (EXIT_USAGE, format!("{query_path}: {e}")))?;
    // Parse locally too, purely to pair returned results with query ids.
    let queries =
        read_fasta(fasta.as_bytes()).map_err(|e| (EXIT_USAGE, format!("{query_path}: {e}")))?;

    // One retry loop covers connect and admission refusals; a request
    // that may already be running server-side is never re-sent.
    let policy = RetryPolicy {
        max_attempts: retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let outcome = serve::retry::search_with_retry(
        &policy,
        || Client::connect_tcp(addr),
        &fasta,
        engine,
        overrides,
        deadline_ms,
        want_trace,
    );
    if outcome.attempts > 1 {
        eprintln!(
            "mublastp-query: {} attempts ({} ms backing off)",
            outcome.attempts,
            outcome.slept.as_millis()
        );
    }
    let response = outcome
        .result
        .map_err(|e| (client_exit(&e), e.to_string()))?;

    if let Some(d) = &response.degraded {
        let pct = if d.total_residues > 0 {
            100.0 * d.coverage_residues as f64 / d.total_residues as f64
        } else {
            0.0
        };
        eprintln!(
            "mublastp-query: WARNING: degraded results — shard(s) {:?} failed; \
             {}/{} residues searched ({pct:.1}% coverage)",
            d.failed_shards, d.coverage_residues, d.total_residues
        );
    }

    if overrides.top_k.is_some() && response.blocks_scanned + response.blocks_skipped > 0 {
        let total = response.blocks_scanned + response.blocks_skipped;
        eprintln!(
            "mublastp-query: top-k pruning scanned {}/{} blocks ({} skipped)",
            response.blocks_scanned, total, response.blocks_skipped
        );
    }

    if want_trace {
        match &response.trace {
            Some(trace) => {
                if let Some(path) = trace_path {
                    let mut w = BufWriter::new(
                        File::create(path)
                            .map_err(|e| (EXIT_USAGE, format!("cannot create {path}: {e}")))?,
                    );
                    obsv::write_chrome_trace(&mut w, trace)
                        .and_then(|()| w.flush())
                        .map_err(|e| (EXIT_PROTO, format!("{path}: {e}")))?;
                    eprintln!(
                        "mublastp-query: wrote {} spans (trace {}) to {path}",
                        trace.len(),
                        response.trace_id
                    );
                }
                if let Some(path) = folded_path {
                    let mut w = BufWriter::new(
                        File::create(path)
                            .map_err(|e| (EXIT_USAGE, format!("cannot create {path}: {e}")))?,
                    );
                    obsv::write_folded(&mut w, trace)
                        .and_then(|()| w.flush())
                        .map_err(|e| (EXIT_PROTO, format!("{path}: {e}")))?;
                    eprintln!("mublastp-query: wrote folded stacks to {path}");
                }
            }
            None => eprintln!(
                "mublastp-query: no trace in response — is the daemon running with --trace?"
            ),
        }
    }

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for reply in &response.replies {
        let qid = queries
            .get(reply.result.query_index)
            .map(|q| q.id.as_str())
            .unwrap_or("query");
        for (a, sid) in reply.result.alignments.iter().zip(&reply.subject_ids) {
            // BLAST outfmt-6-like tabular shape; the identity/mismatch/gap
            // columns need residues the client does not hold, so print the
            // span length and the coordinates the server vouched for.
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
                qid,
                sid,
                a.aln.ops.len(),
                a.aln.q_start + 1,
                a.aln.q_end,
                a.aln.s_start + 1,
                a.aln.s_end,
                a.aln.score,
                a.evalue,
                a.bit_score
            )
            .map_err(|e| (EXIT_PROTO, e.to_string()))?;
        }
    }
    out.flush().map_err(|e| (EXIT_PROTO, e.to_string()))?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("mublastp-query: {msg}");
            ExitCode::from(code)
        }
    }
}
