//! Scoring substrate for muBLASTP-rs.
//!
//! * `matrix` — 24×24 substitution matrices in NCBI residue order
//!   (BLOSUM62 built in).
//! * `neighbors` — generation of *neighboring words*: for a word `w`, all
//!   words `v` whose positional substitution score reaches the threshold
//!   `T`. This is what gives BLASTP (and the paper's database index) its
//!   sensitivity beyond exact k-mer matching.
//! * [`karlin`] — Karlin–Altschul statistics: NCBI's published ungapped
//!   and gapped BLOSUM62 parameters (pinned by tests against a numeric
//!   solver and NCBI's lookup table), bit scores and E-values.
//! * `params` — the bundle of BLASTP search parameters (word threshold,
//!   two-hit window, x-drop values, gap penalties) with NCBI defaults.
//! * `profile` — per-sequence score profiles: the substitution matrix
//!   re-laid-out so extension inner loops read scores sequentially
//!   instead of gathering `matrix[q[i]][s[j]]` cell by cell (the paper's
//!   irregularity-elimination move applied to extension).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

pub mod karlin;
mod matrix;
mod neighbors;
mod params;
mod profile;

pub use matrix::{Matrix, BLOSUM62};
pub use neighbors::NeighborTable;
pub use params::{KernelKind, SearchParams};
pub use profile::ScoreProfile;
