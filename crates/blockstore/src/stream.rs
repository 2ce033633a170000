//! Disk-backed sequence stores and the streaming shard backend.
//!
//! [`SequenceStore`] opens a block store file by reading only its
//! footer directory, then serves decoded blocks one at a time through a
//! shared [`BlockCache`]. It is an [`engine::BlockSource`], so
//! [`engine::search_batch_blocks`] — the same block loop that searches a
//! resident index — searches it directly, and [`StreamingShards`]
//! implements [`engine::ShardBackend`] so the sharded driver — LPT
//! dispatch, deadlines, fault injection, `Shard` spans,
//! statistics-correct merge — runs unchanged over disk-resident shards.
//! Output is bit-identical to the resident engines; the only new failure
//! mode is storage, which surfaces as [`StoreError`] (typed, never a
//! panic) and degrades a sharded search exactly like a lost resident
//! shard.

use crate::cache::BlockCache;
use bioseq::{SequenceDb, SequenceId};
use dbindex::{
    read_directory, BlockBound, DbIndex, IndexBlock, IndexConfig, SerialError, ShardPlan,
    StoreDirectory, StoreWriter,
};
use engine::{BlockSource, ShardBackend};
use faultfn::Faults;
use obsv::Lock;
use std::borrow::Borrow;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fault site: drop the tail of a fetched record (a short read / torn
/// page), keyed by block id via [`Faults::fire_at`].
pub const FAULT_FETCH_SHORT: &str = "blockstore.fetch.short";
/// Fault site: flip one bit of a fetched record (media corruption), keyed
/// by block id.
pub const FAULT_FETCH_FLIP: &str = "blockstore.fetch.flip";
/// Fault site: stall a fetch briefly (a slow device), keyed by block id.
/// Latency perturbs timing only — results must stay bit-identical.
pub const FAULT_FETCH_LATENCY: &str = "blockstore.fetch.latency";

/// Why a store operation failed. Storage problems are data, not bugs:
/// every path returns this instead of panicking.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying reader failed (missing file, short file, EIO).
    Io(std::io::Error),
    /// The bytes fetched do not decode: truncated, corrupt, or the wrong
    /// format version.
    Format(SerialError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "block store I/O error: {e}"),
            StoreError::Format(e) => write!(f, "block store format error: {e:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<SerialError> for StoreError {
    fn from(e: SerialError) -> StoreError {
        StoreError::Format(e)
    }
}

/// One open store: a seekable reader, its footer directory, and a
/// handle into a shared [`BlockCache`].
///
/// The reader sits behind a mutex so one store can serve concurrent
/// shard tasks; each fetch holds the lock only for its seek+read.
pub struct SequenceStore<R: Read + Seek> {
    reader: Lock<R>,
    dir: StoreDirectory,
    cache: Arc<BlockCache>,
    store_id: u32,
    faults: Faults,
}

impl<R: Read + Seek> SequenceStore<R> {
    /// Open a store by reading its directory (constant memory — no block
    /// is decoded) and registering with `cache`.
    pub fn open(
        mut reader: R,
        cache: Arc<BlockCache>,
        faults: Faults,
    ) -> Result<SequenceStore<R>, StoreError> {
        let dir = read_directory(&mut reader)?;
        let store_id = cache.register_store();
        Ok(SequenceStore { reader: Lock::new(reader), dir, cache, store_id, faults })
    }

    /// The parsed footer directory.
    pub fn directory(&self) -> &StoreDirectory {
        &self.dir
    }

    /// Number of blocks in the store.
    pub fn num_blocks(&self) -> usize {
        self.dir.blocks.len()
    }

    /// The shared cache this store fetches through.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Fetch block `i`, from cache when resident, else by seek + read +
    /// decode, then offered to the cache (which may decline it). A record is fixed-width arrays, so a miss costs
    /// the read, one CRC pass over the record (four lanes at once, see
    /// `dbindex::crc`) and a bounds-checked copy into the block's vectors.
    /// A record that decodes must also be the one directory row `i`
    /// describes — its trailer CRC, fragment, residue and posting counts
    /// — or the fetch is [`SerialError::Corrupt`]: a stale record of the
    /// same length, left by an in-place rebuild, is sound on its own but
    /// is another block. Injected faults surface exactly like real ones: a
    /// short read or bit flip becomes a typed decode error, latency only
    /// delays.
    pub fn block(&self, i: usize) -> Result<Arc<IndexBlock>, StoreError> {
        let meta = *self.dir.blocks.get(i).ok_or(StoreError::Format(SerialError::Truncated))?;
        // Directory rows are u32-indexed by
        // construction (the tail stores n_blocks as u32).
        let block_id = i as u32;
        if let Some(b) = self.cache.get(self.store_id, block_id) {
            return Ok(b);
        }
        // Read into spare capacity: the record is about to be overwritten
        // whole, so zero-filling it first would be a wasted pass.
        let mut buf = Vec::with_capacity(meta.len as usize);
        {
            let mut r = self.reader.lock();
            r.seek(SeekFrom::Start(meta.offset))?;
            r.by_ref().take(u64::from(meta.len)).read_to_end(&mut buf)?;
        }
        if buf.len() != meta.len as usize {
            return Err(StoreError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        }
        obsv::assert_unlocked("an injected fault delay");
        if self.faults.fire_at(FAULT_FETCH_LATENCY, u64::from(block_id)) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        if self.faults.fire_at(FAULT_FETCH_SHORT, u64::from(block_id)) {
            buf.truncate(buf.len() / 2);
        }
        if self.faults.fire_at(FAULT_FETCH_FLIP, u64::from(block_id)) {
            let mid = buf.len() / 2;
            if let Some(byte) = buf.get_mut(mid) {
                *byte ^= 0x40;
            }
        }
        let fetched = buf.len() as u64;
        let t0 = Instant::now();
        let decoded = dbindex::decode_block(&buf, self.dir.config.offset_bits)?;
        let decode_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let trailer_crc = buf.last_chunk::<4>().map(|t| u32::from_le_bytes(*t));
        if trailer_crc != Some(meta.crc)
            || decoded.n_seqs() as u64 != u64::from(meta.n_seqs)
            || decoded.total_residues() as u64 != meta.residues
            || decoded.total_positions() as u64 != meta.n_entries
        {
            return Err(StoreError::Format(SerialError::Corrupt));
        }
        self.cache
            .counters()
            .record_fetch(fetched, decode_ns, decoded.total_positions() as u64);
        let decoded = Arc::new(decoded);
        self.cache.insert(self.store_id, block_id, Arc::clone(&decoded));
        Ok(decoded)
    }
}

/// A store is a block source: bounds come straight from the footer
/// directory, so a block the top-k pruner skips is never read from disk at
/// all — the I/O the pruning mode exists to save. Whatever the visit
/// order, the cache's admission by reuse keeps what a repeat of it will
/// hit. A fetch failure of a block that actually needed scanning aborts
/// the search with its typed error.
impl<R: Read + Seek> BlockSource for SequenceStore<R> {
    type Error = StoreError;

    fn num_blocks(&self) -> usize {
        SequenceStore::num_blocks(self)
    }

    fn bound(&self, i: usize) -> BlockBound {
        self.dir.blocks[i].bound
    }

    fn fetch(&self, i: usize) -> Result<impl Borrow<IndexBlock>, StoreError> {
        self.block(i)
    }
}

/// Serialize `index` as a store file (format [`dbindex::STORE_VERSION`])
/// at `path` via the streaming writer, returning the directory.
pub(crate) fn write_store_file(index: &DbIndex, path: &Path) -> Result<StoreDirectory, StoreError> {
    let file = std::fs::File::create(path)?;
    let mut writer = StoreWriter::new(std::io::BufWriter::new(file), index.config())?;
    for block in index.blocks() {
        writer.push(block)?;
    }
    let (mut w, dir) = writer.finish()?;
    w.flush()?;
    Ok(dir)
}

/// One disk-resident shard: its sub-database (needed by the finish
/// stages), the local→global id map, and its open store.
pub struct StreamingShard<R: Read + Seek> {
    /// Global id of each local sequence (`ids[local] == global`).
    pub ids: Vec<SequenceId>,
    /// The shard's sequences, in ascending global-id order.
    pub db: SequenceDb,
    /// The shard's open store.
    pub store: SequenceStore<R>,
}

/// A database partitioned into disk-resident shards sharing one block
/// cache — the out-of-core counterpart of [`dbindex::ShardedIndex`],
/// driven through [`engine::search_batch_backend_traced`].
pub struct StreamingShards<R: Read + Seek> {
    shards: Vec<StreamingShard<R>>,
    global_residues: usize,
    global_seqs: usize,
    cache: Arc<BlockCache>,
}

impl<R: Read + Seek> StreamingShards<R> {
    /// Assemble from already-opened shards (all sharing `cache`).
    /// `global` is the whole database's `(residues, sequences)` —
    /// the Karlin–Altschul search space for statistics-correct merges.
    pub fn from_shards(
        shards: Vec<StreamingShard<R>>,
        global: (usize, usize),
        cache: Arc<BlockCache>,
    ) -> StreamingShards<R> {
        StreamingShards { shards, global_residues: global.0, global_seqs: global.1, cache }
    }

    /// The shards, indexed by shard id.
    pub fn shards(&self) -> &[StreamingShard<R>] {
        &self.shards
    }

    /// The shared block cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }
}

impl StreamingShards<std::fs::File> {
    /// Partition `db` into `shards` LPT-balanced shards, write one
    /// store file per shard under `dir` (`shard<K>.mubp`), and open them
    /// all through one cache. Shard indexes are built one at a time and
    /// dropped after writing, so peak memory is one shard's index.
    ///
    /// # Panics
    /// Panics if `shards == 0` (same contract as [`ShardPlan::balance`]).
    pub fn build_in_dir(
        db: &SequenceDb,
        config: &IndexConfig,
        shards: usize,
        dir: &Path,
        cache: Arc<BlockCache>,
        faults: &Faults,
    ) -> Result<StreamingShards<std::fs::File>, StoreError> {
        let plan = ShardPlan::balance_db(db, shards);
        let mut out = Vec::with_capacity(plan.shards());
        for s in 0..plan.shards() {
            let mut ids: Vec<SequenceId> = Vec::with_capacity(plan.members(s).len());
            let mut local = SequenceDb::new();
            for &gid in plan.members(s) {
                // Plans are index-addressed; `gid` fits SequenceId
                // because it addresses an existing db sequence.
                ids.push(gid as SequenceId);
                local.push(db.get(gid as SequenceId).clone());
            }
            let path = dir.join(format!("shard{s}.mubp"));
            let index = DbIndex::build(&local, config);
            write_store_file(&index, &path)?;
            drop(index);
            let file = std::fs::File::open(&path)?;
            let store = SequenceStore::open(file, Arc::clone(&cache), faults.clone())?;
            out.push(StreamingShard { ids, db: local, store });
        }
        Ok(StreamingShards::from_shards(
            out,
            (db.total_residues(), db.len()),
            cache,
        ))
    }
}

impl<R: Read + Seek + Send> ShardBackend for StreamingShards<R> {
    type Source = SequenceStore<R>;

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn global_db(&self) -> (usize, usize) {
        (self.global_residues, self.global_seqs)
    }

    fn shard(&self, s: usize) -> (&SequenceDb, &[SequenceId], &SequenceStore<R>) {
        let shard = &self.shards[s];
        (&shard.db, &shard.ids, &shard.store)
    }
}
