//! # muBLASTP-rs
//!
//! A from-scratch Rust reproduction of **"Eliminating Irregularities of
//! Protein Sequence Search on Multicore Architectures"** (Zhang, Misra,
//! Wang, Feng — IPDPS 2017): database-indexed protein BLAST (BLASTP) whose
//! pipeline is restructured — decoupled stages, hit pre-filtering, radix
//! hit reordering, cache-sized index blocks — to eliminate the irregular
//! memory access that makes naive database-indexed BLAST *slower* than
//! query-indexed BLAST.
//!
//! ## Quick start
//!
//! ```
//! use mublastp::prelude::*;
//!
//! // A toy database and query (normally parsed from FASTA).
//! let db: SequenceDb = ["MKVLAWCHWMYFWCHWRND", "GGGAHILKMFPSTWGGG"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, s)| Sequence::from_str_checked(format!("sp|{i}"), s).unwrap())
//!     .collect();
//! let query = Sequence::from_str_checked("q1", "AWCHWMYFWCHWR").unwrap();
//!
//! // Build once, search many batches.
//! let neighbors = NeighborTable::build(&BLOSUM62, 11);
//! let index = DbIndex::build(&db, &IndexConfig::default());
//!
//! let mut config = SearchConfig::new(EngineKind::MuBlastp);
//! config.params.evalue_cutoff = 1e6; // toy-sized search space
//! let results = search_batch(&db, Some(&index), &neighbors, &[query], &config);
//! assert_eq!(results[0].alignments[0].subject, 0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Paper role |
//! |---|---|
//! | [`bioseq`] | alphabet, FASTA, sequence database |
//! | [`scoring`] | BLOSUM62, neighboring words, Karlin–Altschul statistics |
//! | [`sorting`] | LSD/MSD radix, merge sort, two-level binning (Sec. IV-B) |
//! | [`qindex`] | query index with presence vector + thick backbone ("NCBI") |
//! | [`dbindex`] | blocked database index with local offsets (Sec. III) |
//! | [`align`] | ungapped/gapped x-drop kernels, traceback, Smith–Waterman |
//! | [`memsim`] | cache/TLB simulator replacing PMU counters (Figs. 2, 8) |
//! | [`parallel`] | OpenMP-style dynamic parallel-for (Alg. 3) |
//! | [`engine`] | the three engines: NCBI, NCBI-db, muBLASTP (Secs. II–IV) |
//! | [`serve`] | resident-index daemon: admission control, micro-batching, wire protocol |
//! | [`cluster`] | multi-node scaling simulation (Sec. IV-D, Fig. 10); the algorithm is `engine`'s sharded driver |
//! | [`datagen`] | synthetic `uniprot_sprot` / `env_nr` stand-ins (Sec. V-A) |
//!
//! See `DESIGN.md` for the substitution ledger (what the paper used → what
//! this workspace builds) and `EXPERIMENTS.md` for paper-vs-measured
//! results of every figure.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

pub use align;
pub use bioseq;
pub use cluster;
pub use datagen;
pub use dbindex;
pub use engine;
pub use memsim;
pub use parallel;
pub use qindex;
pub use scoring;
pub use serve;
pub use sorting;

/// The most common imports for application code.
pub mod prelude {
    pub use align::pretty::format_alignment;
    pub use bioseq::{read_fasta, write_fasta, Sequence, SequenceDb};
    pub use dbindex::{optimal_block_bytes, DbIndex, IndexConfig};
    pub use engine::{
        results_identical, search_batch, search_batch_blocks, Alignment, EngineKind,
        QueryResult, SearchConfig, SortAlgo,
    };
    pub use scoring::{KernelKind, NeighborTable, SearchParams, BLOSUM62};
}
