//! The four workloads: what the server holds and what the clients send.
//!
//! Each workload is chosen so that a different set of layers does the
//! deciding work (see `README.md` for the prediction table):
//!
//! * `batch_resident` — `engine` does nearly everything;
//! * `interactive_small` — `serve` framing, batching delay and parsing
//!   are at least half of a request;
//! * `outofcore_topk` — `blockstore` fetches and `engine::topk` pruning;
//! * `outofcore_scan` — the same store with pruning off, so every block
//!   streams through a cache a quarter the size of the index.

use crate::corpus::{self, LogNormalDb, Query};
use bioseq::Sequence;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "batch_resident",
    "interactive_small",
    "outofcore_topk",
    "outofcore_scan",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Corpus {
    /// `uniprot_sprot`-like lengths with planted homologs.
    Sprot,
    /// `env_nr`-like lengths with planted homologs.
    EnvNr,
    /// Long family carriers plus a tail of short fragments.
    Skewed,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Every connection sends its next request when the reply arrives.
    Closed,
    /// Requests are due on a seeded Poisson schedule at this rate (1/s),
    /// whatever the server's state.
    Open { rate: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub corpus: Corpus,
    /// Database size in residues.
    pub residues: usize,
    /// Serve from per-shard block stores on disk (`shards = nproc`) behind
    /// a block cache holding [`CACHE_SHARE`] of the decoded index, instead
    /// of one resident index.
    pub streaming: bool,
    pub queries_per_request: usize,
    pub query_len: usize,
    /// `top_k` override sent with every request.
    pub top_k: Option<u32>,
    pub arrival: Arrival,
    /// Distinct requests; the load generator cycles through them, so the
    /// reference search runs once per pool entry, not once per request.
    pub pool: usize,
}

/// Block-cache budget of the streaming workloads as a share of the sum of
/// the stores' decoded block sizes.
pub const CACHE_SHARE: f64 = 0.25;

pub fn spec(name: &str) -> Option<Spec> {
    let outofcore = Spec {
        name: "outofcore_topk",
        corpus: Corpus::Skewed,
        residues: 2_000_000,
        streaming: true,
        queries_per_request: 1,
        query_len: 200,
        top_k: Some(10),
        arrival: Arrival::Closed,
        pool: 96,
    };
    match name {
        "batch_resident" => Some(Spec {
            name: "batch_resident",
            corpus: Corpus::Sprot,
            residues: 2_000_000,
            streaming: false,
            queries_per_request: 4,
            query_len: 256,
            top_k: None,
            arrival: Arrival::Closed,
            pool: 32,
        }),
        "interactive_small" => Some(Spec {
            name: "interactive_small",
            corpus: Corpus::EnvNr,
            residues: 300_000,
            streaming: false,
            queries_per_request: 1,
            query_len: 128,
            top_k: None,
            arrival: Arrival::Open { rate: 15.0 },
            // One entry per request of a 25 s run: the reference search of
            // a 128-residue query is cheap, and the wider pool keeps the
            // mix of cheap and costly queries alike from seed to seed.
            pool: 384,
        }),
        "outofcore_topk" => Some(outofcore),
        "outofcore_scan" => Some(Spec {
            name: "outofcore_scan",
            top_k: None,
            ..outofcore
        }),
        _ => None,
    }
}

/// One request of the pool: the FASTA text that goes on the wire and the
/// queries it holds.
#[derive(Clone, Debug)]
pub struct Request {
    pub fasta: String,
    pub queries: Vec<Query>,
}

/// Everything a run feeds the system, all derived from the seed.
pub struct Inputs {
    /// The database as FASTA text — what the server is set up from.
    pub fasta: Vec<u8>,
    /// The same database, kept for the reference search.
    pub seqs: Vec<Sequence>,
    pub requests: Vec<Request>,
}

/// Generate the workload's inputs. `scale` shrinks database and pool
/// together (smoke tests); 1.0 is the benchmark.
pub fn generate(spec: &Spec, seed: u64, scale: f64) -> Inputs {
    let residues = ((spec.residues as f64 * scale) as usize).max(20_000);
    let pool = ((spec.pool as f64 * scale).ceil() as usize).max(4);
    let seqs = match spec.corpus {
        Corpus::Sprot => LogNormalDb::sprot().synthesize(residues, seed),
        Corpus::EnvNr => LogNormalDb::env_nr().synthesize(residues, seed),
        Corpus::Skewed => corpus::skewed_families(residues, seed),
    };
    // Out-of-core queries come from carriers, so the ten best hits are the
    // query's own family and the tail blocks are provably irrelevant.
    let source_len = match spec.corpus {
        Corpus::Skewed => corpus::CARRIER_LEN,
        _ => (0, usize::MAX),
    };
    let queries = corpus::window_queries(
        &seqs,
        spec.query_len,
        source_len,
        pool * spec.queries_per_request,
        seed,
    );
    let requests = queries
        .chunks(spec.queries_per_request)
        .map(|chunk| {
            let seqs: Vec<Sequence> = chunk.iter().map(|q| q.seq.clone()).collect();
            Request {
                fasta: String::from_utf8(corpus::to_fasta(&seqs)).expect("FASTA is ASCII"),
                queries: chunk.to_vec(),
            }
        })
        .collect();
    Inputs {
        fasta: corpus::to_fasta(&seqs),
        seqs,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec_and_generates_its_pool() {
        for name in WORKLOADS {
            let spec = spec(name).unwrap();
            assert_eq!(spec.name, name);
            let inputs = generate(&spec, 7, 0.05);
            assert!(inputs.requests.len() >= 4);
            for r in &inputs.requests {
                assert_eq!(r.queries.len(), spec.queries_per_request);
                assert!(r.queries.iter().all(|q| q.seq.len() == spec.query_len));
                assert_eq!(
                    bioseq::read_fasta(r.fasta.as_bytes()).unwrap().len(),
                    r.queries.len()
                );
            }
        }
        assert!(spec("nope").is_none());
    }
}
