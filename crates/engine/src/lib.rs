//! The three BLASTP search engines of the muBLASTP paper.
//!
//! This crate is the paper's core contribution. It implements the same
//! four-stage BLASTP heuristic three times, differing **only** in indexing
//! and execution structure — which is exactly the comparison the paper
//! makes (Sec. V):
//!
//! * [`kernels::query_indexed`] — **"NCBI"**: the classic query-indexed
//!   search. One lookup table per query; subjects stream one at a time;
//!   hit detection, ungapped extension and gapped extension interleave.
//!   Regular enough per subject that caches cope (paper Sec. II-B).
//! * [`kernels::db_interleaved`] — **"NCBI-db"**: the same interleaved
//!   heuristics naively re-pointed at a *database index*. One query word
//!   now hits many subjects at once, so the interleaved execution jumps
//!   between subject sequences and per-subject last-hit arrays at random —
//!   the irregularity whose LLC/TLB cost Fig. 2 quantifies.
//! * [`kernels::mublastp`] — **muBLASTP**: the paper's fix. Hit detection
//!   is *decoupled* from extension (Sec. IV-A); hits are *pre-filtered*
//!   by per-diagonal last-hit arrays during detection (Sec. IV-C, <5 %
//!   survive); surviving hit pairs are *reordered* by a stable LSD radix
//!   sort on a packed `(sequence, diagonal)` key (Sec. IV-B); and the
//!   ungapped extension then walks subjects in order, streaming instead of
//!   jumping.
//!
//! All three share the alignment kernels in `align`, the two-hit diagonal
//! discipline in [`twohit`], and the finishing stages (gapped extension,
//! E-values, traceback) in [`finish`] — so their outputs are identical
//! ([`verify`] asserts this, reproducing the paper's Sec. V-E), and any
//! performance difference is attributable to data layout and schedule.
//!
//! [`driver`] runs whole query batches with the paper's intra-node
//! parallelisation (Alg. 3): a serial loop over index blocks with an
//! OpenMP-style dynamic parallel-for over queries inside each block.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(missing_docs)]

pub mod driver;
pub mod finish;
pub mod hit;
pub mod instrument;
pub mod kernels;
pub mod report;
pub mod results;
pub mod scratch;
pub mod sharded;
pub mod topk;
pub mod twohit;
pub mod verify;

pub use driver::{
    search_batch, search_batch_blocks, search_batch_traced, BlockSource, EngineKind, SearchConfig,
    SearchOutcome, SortAlgo,
};
pub use hit::HitPair;
pub use instrument::{trace_engine, trace_engine_multicore};
pub use report::{tabular_rows, write_tabular, write_tabular_commented};
pub use results::{compare_alignments, split_batch, Alignment, QueryResult, StageCounts};
pub use sharded::{
    merge_shard_alignments, search_batch_backend_traced, search_batch_sharded,
    search_batch_sharded_traced, ShardBackend, ShardFailCause, ShardFailure, ShardTiming,
    ShardedOutput, FAULT_SHARD,
};
pub use topk::TopKStats;
pub use verify::results_identical;
