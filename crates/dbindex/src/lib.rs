//! The database index (paper Sec. III).
//!
//! Unlike earlier database-indexed tools that traded sensitivity for index
//! size (longer / non-overlapping / non-neighboring words), this index
//! keeps **overlapping words** and full **neighboring-word** semantics so a
//! database-indexed search returns exactly what query-indexed NCBI-BLAST
//! returns. The structural choices all come from the paper:
//!
//! * **Index blocking** (`block`): the database is sorted by sequence
//!   length and packed into blocks of a similar character count; each block
//!   gets its own index and the pipeline walks blocks one by one, merging
//!   top results afterwards. Blocks sized to the cache hierarchy are the
//!   paper's key locality lever (its Fig. 8 sweeps this size).
//! * **Local offsets**: postings store `(block-local sequence id, subject
//!   offset)` packed into one `u32` — the paper's "record the local offset
//!   … instead of the absolute sequence IDs to save several bits".
//! * **Two-level neighbor lookup**: postings exist only for words that
//!   literally occur; hit detection expands a query word into its
//!   neighbors via `scoring::NeighborTable` and probes each — the paper's
//!   Fig. 3(b) design that avoids duplicating positions per neighbor.
//! * **Long-sequence fragmentation**: sequences longer than the packed
//!   offset field are split into overlapped fragments (Sec. IV-A,
//!   following Orion); `align::assembly` re-joins their extensions.
//!
//! `store` is the one on-disk format (build once, reuse for many query
//! batches — the paper excludes index build time from end-to-end timings
//! for the same reason): a store of fixed-width block records read
//! resident or streamed block by block; `serial` holds its error type
//! and the daemon's resilient loader.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![deny(missing_docs)]

mod block;
mod config;
pub mod crc;
mod serial;
mod shard;
mod store;

pub use block::{DbIndex, IndexBlock};
pub use config::{optimal_block_bytes, IndexConfig};
pub use serial::{load_index_resilient, LoadOutcome, SerialError, FAULT_LOAD};
pub use shard::{ShardPlan, ShardedIndex};
pub use store::{
    decode_block, read_directory, read_store, write_store, BlockBound, StoreBlockMeta,
    StoreDirectory, StoreWriter, STORE_VERSION,
};
