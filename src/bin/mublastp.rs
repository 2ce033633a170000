//! The muBLASTP command-line tool.
//!
//! ```text
//! mublastp gen    --kind sprot|envnr --residues N --out db.fasta [--seed S]
//! mublastp index  --db db.fasta --out db.mbi [--block-kb N]
//! mublastp info   --index db.mbi
//! mublastp search --db db.fasta --query q.fasta [--index db.mbi]
//!                 [--engine mublastp|ncbi|ncbi-db] [--threads N]
//!                 [--kernel auto|scalar|striped]
//!                 [--evalue X] [--max-hits N] [--top-k K] [--format report|tsv]
//! mublastp distributed --db db.fasta --query q.fasta --ranks N
//!                 [--kernel auto|scalar|striped] [--evalue X] [--max-hits N]
//! ```
//!
//! `search` builds the index on the fly when `--index` is not given (and
//! the engine needs one). The index file is the block store of
//! `dbindex::store` (the same format `mublastpd` streams out-of-core) —
//! build once, reuse across query batches, exactly the workflow the
//! paper's database-index design targets.

use mublastp::prelude::*;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "index" => cmd_index(rest),
        "info" => cmd_info(rest),
        "search" => cmd_search(rest),
        "distributed" => cmd_distributed(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
muBLASTP — database-indexed protein sequence search

USAGE:
  mublastp gen    --kind sprot|envnr --residues N --out db.fasta [--seed S]
  mublastp index  --db db.fasta --out db.mbi [--block-kb N] [--threads N]
  mublastp info   --index db.mbi
  mublastp search --db db.fasta --query q.fasta [--index db.mbi]
                  [--engine mublastp|ncbi|ncbi-db] [--threads N]
                  [--kernel auto|scalar|striped]
                  [--evalue X] [--max-hits N] [--top-k K]
                  [--format report|tsv|tsv6|tsv7] [--seg yes]
  mublastp distributed --db db.fasta --query q.fasta --ranks N
                  [--kernel auto|scalar|striped] [--evalue X] [--max-hits N]";

/// Parse the shared `--kernel auto|scalar|striped` flag.
fn parse_kernel(flags: &Flags) -> Result<KernelKind, String> {
    match flags.get("--kernel") {
        None => Ok(KernelKind::Auto),
        Some(v) => KernelKind::parse(v)
            .ok_or_else(|| format!("unknown kernel '{v}' (auto|scalar|striped)")),
    }
}

/// Minimal `--flag value` parser.
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
        self.get(name).ok_or_else(|| format!("missing required flag {name}"))
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }
}

fn load_fasta(path: &str) -> Result<Vec<Sequence>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_fasta(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let kind = flags.require("--kind")?;
    let spec = match kind {
        "sprot" => datagen::DbSpec::uniprot_sprot(),
        "envnr" => datagen::DbSpec::env_nr(),
        other => return Err(format!("unknown database kind '{other}' (sprot|envnr)")),
    };
    let residues: usize = flags.parse("--residues", 1_000_000)?;
    let seed: u64 = flags.parse("--seed", 42u64)?;
    let out = flags.require("--out")?;
    let db = datagen::synthesize_db(&spec, residues, seed);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_fasta(BufWriter::new(file), db.sequences()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} sequences / {} residues to {out}",
        db.len(),
        db.total_residues()
    );
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let db_path = flags.require("--db")?;
    let out = flags.require("--out")?;
    let block_kb: usize = flags.parse("--block-kb", 512usize)?;
    let threads: usize = flags.parse("--threads", parallel::default_threads())?;
    let db: SequenceDb = load_fasta(db_path)?.into_iter().collect();
    let config = IndexConfig { block_bytes: block_kb << 10, ..IndexConfig::default() };
    let index = DbIndex::build_parallel(&db, &config, threads);
    let bytes = dbindex::write_store(&index);
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "indexed {} sequences / {} residues into {} blocks ({} positions, {} bytes)",
        db.len(),
        db.total_residues(),
        index.blocks().len(),
        index.total_positions(),
        bytes.len()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let path = flags.require("--index")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let index = dbindex::read_store(&bytes).map_err(|e| e.to_string())?;
    println!("index: {path}");
    println!("  blocks:        {}", index.blocks().len());
    println!("  positions:     {}", index.total_positions());
    println!("  block target:  {} KiB", index.config().block_bytes >> 10);
    println!("  offset bits:   {}", index.config().offset_bits);
    for (i, b) in index.blocks().iter().enumerate().take(8) {
        println!(
            "  block {i}: {} fragments, {} residues, longest {}, {} KiB",
            b.n_seqs(),
            b.total_residues(),
            b.max_seq_len(),
            b.memory_bytes() >> 10
        );
    }
    if index.blocks().len() > 8 {
        println!("  … {} more blocks", index.blocks().len() - 8);
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let db_path = flags.require("--db")?;
    let query_path = flags.require("--query")?;
    let engine = flags.get("--engine").unwrap_or("mublastp");
    let kind = match engine {
        "mublastp" => EngineKind::MuBlastp,
        "ncbi" => EngineKind::QueryIndexed,
        "ncbi-db" => EngineKind::DbInterleaved,
        other => return Err(format!("unknown engine '{other}' (mublastp|ncbi|ncbi-db)")),
    };
    let threads: usize = flags.parse("--threads", parallel::default_threads())?;
    let kernel = parse_kernel(&flags)?;
    let evalue: f64 = flags.parse("--evalue", 10.0f64)?;
    let max_hits: usize = flags.parse("--max-hits", 25usize)?;
    let top_k: Option<u32> = match flags.get("--top-k") {
        Some(v) => {
            let k: u32 = v.parse().map_err(|_| format!("bad value for --top-k: '{v}'"))?;
            if k == 0 {
                return Err("--top-k must be at least 1".into());
            }
            Some(k)
        }
        None => None,
    };
    let format = flags.get("--format").unwrap_or("report");
    let seg = matches!(flags.get("--seg"), Some("yes"));

    let db: SequenceDb = load_fasta(db_path)?.into_iter().collect();
    let queries = load_fasta(query_path)?;
    if queries.is_empty() {
        return Err("query file holds no sequences".into());
    }

    // Load or build the index for the database-indexed engines.
    let index = if matches!(kind, EngineKind::QueryIndexed) {
        None
    } else if let Some(path) = flags.get("--index") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Some(dbindex::read_store(&bytes).map_err(|e| e.to_string())?)
    } else {
        Some(DbIndex::build(&db, &IndexConfig::default()))
    };

    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let mut config = SearchConfig::new(kind).with_threads(threads);
    config.params.evalue_cutoff = evalue;
    config.params.max_reported = max_hits;
    config.params.seg_filter = seg;
    config.params.kernel = kernel;
    config.top_k = top_k;
    let results = match index.as_ref() {
        Some(index) => {
            let Ok(outcome) = search_batch_blocks(
                &db,
                index,
                &neighbors,
                &queries,
                &config,
                None,
                &obsv::TraceSession::disabled(),
            );
            if top_k.is_some() {
                // Report how much of the index the pruner proved skippable.
                let scanned = outcome.topk.blocks_scanned;
                let skipped = outcome.topk.blocks_skipped;
                eprintln!(
                    "top-k pruning: scanned {scanned}/{} blocks ({skipped} skipped)",
                    scanned + skipped
                );
            }
            outcome.results
        }
        None => search_batch(&db, None, &neighbors, &queries, &config),
    };

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    if format == "tsv6" {
        engine::write_tabular(&mut out, &queries, &results, &db).map_err(|e| e.to_string())?;
        return Ok(());
    }
    if format == "tsv7" {
        engine::write_tabular_commented(&mut out, &queries, &results, &db)
            .map_err(|e| e.to_string())?;
        return Ok(());
    }
    for (query, result) in queries.iter().zip(&results) {
        match format {
            "tsv" => {
                for a in &result.alignments {
                    let subject = db.get(a.subject);
                    let idents = a.aln.identities(query.residues(), subject.residues());
                    let span = a.aln.ops.len().max(1);
                    writeln!(
                        out,
                        "{}\t{}\t{:.1}\t{:.2e}\t{:.1}\t{}\t{}\t{}\t{}",
                        query.id,
                        subject.id,
                        a.bit_score,
                        a.evalue,
                        100.0 * idents as f64 / span as f64,
                        a.aln.q_start + 1,
                        a.aln.q_end,
                        a.aln.s_start + 1,
                        a.aln.s_end
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            _ => {
                writeln!(out, "Query= {} ({} letters)\n", query.id, query.len())
                    .map_err(|e| e.to_string())?;
                if result.alignments.is_empty() {
                    writeln!(out, "  ***** No hits found *****\n").map_err(|e| e.to_string())?;
                }
                for a in &result.alignments {
                    let subject = db.get(a.subject);
                    writeln!(
                        out,
                        "> {} {}\n  Score = {:.1} bits ({}),  Expect = {:.2e}",
                        subject.id, subject.description, a.bit_score, a.aln.score, a.evalue
                    )
                    .map_err(|e| e.to_string())?;
                    write!(
                        out,
                        "{}",
                        align::pretty::format_alignment(
                            &a.aln,
                            query.residues(),
                            subject.residues(),
                            &BLOSUM62,
                            60
                        )
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(())
}

/// Run the muBLASTP inter-node algorithm (Sec. IV-D2/3) with one shard
/// per rank: the length-sorted database dealt round-robin, every shard
/// searched on its own worker under the global E-value statistics, one
/// batched merge. Each shard task searches single-threaded.
fn cmd_distributed(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let db_path = flags.require("--db")?;
    let query_path = flags.require("--query")?;
    let ranks: usize = flags.parse("--ranks", 4usize)?;
    let kernel = parse_kernel(&flags)?;
    let evalue: f64 = flags.parse("--evalue", 10.0f64)?;
    let max_hits: usize = flags.parse("--max-hits", 25usize)?;
    if ranks == 0 {
        return Err("--ranks must be positive".into());
    }

    let db: SequenceDb = load_fasta(db_path)?.into_iter().collect();
    let queries = load_fasta(query_path)?;
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let mut config = SearchConfig::new(EngineKind::MuBlastp).with_threads(ranks);
    config.params.evalue_cutoff = evalue;
    config.params.max_reported = max_hits;
    config.params.kernel = kernel;
    // Subject ids refer to the length-sorted database.
    let sorted = db.sorted_by_length();
    let lens: Vec<usize> = sorted.sequences().iter().map(|s| s.len()).collect();
    let sharded = dbindex::ShardedIndex::build_with_plan(
        &sorted,
        &IndexConfig::default(),
        &dbindex::ShardPlan::round_robin(&lens, ranks),
    );
    let results = engine::search_batch_sharded(&sharded, &neighbors, &queries, &config);
    let stdout = std::io::stdout();
    let mut w = BufWriter::new(stdout.lock());
    for (query, result) in queries.iter().zip(&results) {
        writeln!(w, "Query= {} ({} letters, {} ranks)", query.id, query.len(), ranks)
            .map_err(|e| e.to_string())?;
        for a in &result.alignments {
            let subject = sorted.get(a.subject);
            writeln!(
                w,
                "  {}\t{:.1} bits\tE = {:.2e}\tq {}..{}\ts {}..{}",
                subject.id,
                a.bit_score,
                a.evalue,
                a.aln.q_start + 1,
                a.aln.q_end,
                a.aln.s_start + 1,
                a.aln.s_end
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
