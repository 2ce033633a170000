//! Scoring substrate for muBLASTP-rs.
//!
//! * [`matrix`] — 24×24 substitution matrices in NCBI residue order
//!   (BLOSUM62 built in, plus a parser for NCBI-format matrix files).
//! * [`neighbors`] — generation of *neighboring words*: for a word `w`, all
//!   words `v` whose positional substitution score reaches the threshold
//!   `T`. This is what gives BLASTP (and the paper's database index) its
//!   sensitivity beyond exact k-mer matching.
//! * [`karlin`] — Karlin–Altschul statistics: the ungapped `λ`/`H`
//!   parameters solved from the matrix and background frequencies, gapped
//!   parameters from the published NCBI lookup table, bit scores and
//!   E-values.
//! * [`params`] — the bundle of BLASTP search parameters (word threshold,
//!   two-hit window, x-drop values, gap penalties) with NCBI defaults.
//! * [`profile`] — per-sequence score profiles: the substitution matrix
//!   re-laid-out so extension inner loops read scores sequentially
//!   instead of gathering `matrix[q[i]][s[j]]` cell by cell (the paper's
//!   irregularity-elimination move applied to extension).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod karlin;
pub mod matrix;
pub mod neighbors;
pub mod params;
pub mod profile;

pub use karlin::{bit_score, evalue, KarlinParams};
pub use matrix::{Matrix, MatrixParseError, BLOSUM62};
pub use neighbors::NeighborTable;
pub use params::{KernelKind, SearchParams};
pub use profile::ScoreProfile;
