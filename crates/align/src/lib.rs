//! Alignment kernels shared by every search engine in muBLASTP-rs.
//!
//! The BLASTP pipeline (paper Sec. II-A) runs four stages; this crate
//! implements the per-pair computational kernels for stages 2–4 plus the
//! exact reference algorithm they approximate:
//!
//! * [`ungapped`] — the two-hit x-drop **ungapped extension** (stage 2),
//!   with an instrumented twin that reports its memory accesses to a
//!   [`memsim::Tracer`] for the cache-behaviour experiments.
//! * [`gapped`] — x-drop **gapped extension** (stage 3, score-only) and the
//!   **traceback** alignment (stage 4) via a banded affine-gap DP.
//! * [`sw`] — a full Smith–Waterman implementation used as the ground truth
//!   in property tests (`BLAST score ≤ SW score` etc.).
//! * [`assembly`] — splitting of very long subject sequences into
//!   overlapped fragments and re-assembly of their extensions
//!   (paper Sec. IV-A, following Orion).
//! * [`pretty`] — human-readable rendering of gapped alignments for the
//!   example binaries.
//! * [`striped`] — profile-driven SWAR twins of the stage-2/3/4 kernels
//!   (DESIGN.md §3.8), bit-identical to the scalar oracles above and
//!   selected at runtime through `scoring::KernelKind`.
//! * [`swar`] — the packed-u64 lane arithmetic the striped kernels build
//!   on (safe Rust, no intrinsics).
//!
//! Every engine (query-indexed, database-indexed interleaved, muBLASTP)
//! calls *these same kernels*, which is what makes their outputs
//! bit-identical and lets the benchmarks attribute performance differences
//! purely to indexing and scheduling (paper Sec. V-E).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod assembly;
pub mod gapped;
pub mod pretty;
pub mod striped;
pub mod sw;
pub mod swar;
pub mod types;
pub mod ungapped;

pub use gapped::{gapped_extend_score, gapped_extend_traceback, xdrop_half, GappedExtender};
pub use striped::{
    extend_two_hit_striped, gapped_extend_score_striped, gapped_extend_traceback_striped,
    gapped_rescues, xdrop_half_striped,
};
pub use sw::{smith_waterman, smith_waterman_traceback};
pub use types::{AlignOp, GappedAlignment, UngappedAlignment};
pub use ungapped::extend_two_hit;
