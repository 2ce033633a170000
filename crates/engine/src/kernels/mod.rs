//! The three search kernels.
//!
//! Every kernel is generic over [`memsim::Tracer`]: production code passes
//! [`memsim::NullTracer`] (all tracing compiles away); the cache
//! experiments pass a [`memsim::Hierarchy`] or a trace collector together
//! with the simulated base addresses in [`TraceCtx`].

#![deny(clippy::disallowed_types)]

pub mod db_interleaved;
pub mod mublastp;
pub mod query_indexed;

use memsim::Tracer;

/// Simulated base addresses of the data structures a kernel touches.
/// With [`memsim::NullTracer`] the addresses are never used.
#[derive(Clone, Copy, Debug, Default)]
pub struct Regions {
    /// Query residues.
    pub query: u64,
    /// Subject residues: block residue buffer (database-indexed engines)
    /// or the concatenated database (query-indexed engine).
    pub subject: u64,
    /// Last-hit array: 4 bytes per cell in the interleaved engines; in
    /// muBLASTP's pre-filter 2 bytes while the query's epoch span
    /// `query_len + 1` fits a `u16`, else 4.
    pub lasthit: u64,
    /// Extension-coverage array, 4 bytes per cell (interleaved engines).
    pub coverage: u64,
    /// Posting entries (database index) — 4 bytes per entry.
    pub postings: u64,
    /// Query-index backbone — 16 bytes per cell (query-indexed engine).
    pub qindex: u64,
    /// Hit-pair buffer (muBLASTP) — 12 bytes per pair.
    pub hitbuf: u64,
    /// Neighbor-table lookups — 4 bytes per neighbor word.
    pub neighbors: u64,
}

/// Tracer + regions bundle threaded through a kernel.
pub struct TraceCtx<'a, T: Tracer> {
    /// Receives every simulated memory access.
    pub tracer: &'a mut T,
    /// Simulated base addresses of the data the kernel touches.
    pub regions: Regions,
}

impl<'a, T: Tracer> TraceCtx<'a, T> {
    /// Bundles a tracer with the address regions it attributes accesses to.
    pub fn new(tracer: &'a mut T, regions: Regions) -> Self {
        TraceCtx { tracer, regions }
    }
}

/// Convenience: a no-op context for production calls.
pub fn null_ctx(tracer: &mut memsim::NullTracer) -> TraceCtx<'_, memsim::NullTracer> {
    TraceCtx { tracer, regions: Regions::default() }
}
