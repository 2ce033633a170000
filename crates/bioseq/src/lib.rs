//! Protein sequence primitives for muBLASTP-rs.
//!
//! This crate provides the biological substrate every other crate builds on:
//!
//! * [`alphabet`] — the 24-letter protein alphabet used by BLASTP (20 amino
//!   acids plus the special states `B`, `Z`, `X` and `*`), byte-level
//!   encoding/decoding, and fixed-width word (k-mer) packing.
//! * [`seq`] — owned encoded sequences with identifiers.
//! * [`fasta`] — a FASTA reader/writer operating on any `Read`/`Write`.
//! * [`db`] — an in-memory sequence database with the length-sorting and
//!   statistics operations the muBLASTP index build requires.
//!
//! All residues are stored *encoded* (`0..24`); encoding happens exactly once
//! at parse time so the hot search kernels never touch ASCII.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod alphabet;
pub mod complexity;
pub mod db;
pub mod fasta;
pub mod seq;

pub use alphabet::{decode_residue, encode_residue};
pub use complexity::{seg_mask, SegParams};
pub use db::SequenceDb;
pub use fasta::{read_fasta, write_fasta};
pub use seq::{Sequence, SequenceId};
