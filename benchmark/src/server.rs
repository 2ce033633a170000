//! Set-up: from FASTA bytes in memory to a server accepting on TCP, the
//! way `mublastpd` does it with its defaults.

use crate::workload::{Spec, CACHE_SHARE};
use bioseq::SequenceDb;
use dbindex::{DbIndex, IndexConfig};
use engine::{EngineKind, SearchConfig};
use obsv::ObsvConfig;
use scoring::{KernelKind, NeighborTable, BLOSUM62};
use serve::{BatchOptions, ResidentIndex, SearchContext, ServerHandle, TcpTransport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The daemon's base search configuration: muBLASTP engine, `Auto`
/// kernels, E ≤ 10, 25 subjects per query.
pub fn base_config(threads: usize) -> SearchConfig {
    let mut base = SearchConfig::new(EngineKind::MuBlastp).with_threads(threads);
    base.params.evalue_cutoff = 10.0;
    base.params.max_reported = 25;
    base.params.kernel = KernelKind::Auto;
    base
}

/// A running in-process server. Dropping it drains the queue, joins the
/// accept thread and removes the store files.
pub struct Server {
    // Declared first so it shuts down before the store directory goes.
    pub handle: ServerHandle,
    pub addr: String,
    pub ctx: Arc<SearchContext>,
    /// Decoded index size: resident bytes, or the sum of the stores'
    /// decoded block sizes when streaming.
    pub index_bytes: u64,
    /// Block-cache budget; 0 when resident.
    pub cache_budget: u64,
    /// Seconds spent writing and opening the per-shard stores; 0 when
    /// resident.
    pub store_build_s: f64,
    store_dir: Option<PathBuf>,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fresh_store_dir(scratch: &Path) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("store-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the per-shard stores under `dir`, then open them behind a block
/// cache of [`CACHE_SHARE`] of their decoded size. That size is only known
/// once the stores exist, so they are built against a placeholder cache
/// and their files re-opened (a directory read each) under the real one.
/// Returns the shards, their decoded size and the cache budget.
fn build_streaming(
    db: &SequenceDb,
    shards: usize,
    dir: &Path,
) -> Result<(blockstore::StreamingShards<std::fs::File>, u64, u64), String> {
    let failed = |e: blockstore::StoreError| format!("block store in {}: {e}", dir.display());
    let built = blockstore::StreamingShards::build_in_dir(
        db,
        &IndexConfig::default(),
        shards,
        dir,
        Arc::new(blockstore::BlockCache::new(0)),
        &faultfn::Faults::none(),
    )
    .map_err(failed)?;
    let decoded: u64 = built
        .shards()
        .iter()
        .map(|s| s.store.directory().total_decoded_bytes())
        .sum();
    let budget = (decoded as f64 * CACHE_SHARE) as u64;
    let cache = Arc::new(blockstore::BlockCache::new(budget));
    let reopened = built
        .shards()
        .iter()
        .enumerate()
        .map(|(k, shard)| {
            let file = std::fs::File::open(dir.join(format!("shard{k}.mubp")))
                .map_err(|e| failed(e.into()))?;
            let store =
                blockstore::SequenceStore::open(file, Arc::clone(&cache), faultfn::Faults::none())
                    .map_err(failed)?;
            Ok(blockstore::StreamingShard {
                ids: shard.ids.clone(),
                db: shard.db.clone(),
                store,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let streaming =
        blockstore::StreamingShards::from_shards(reopened, (db.total_residues(), db.len()), cache);
    Ok((streaming, decoded, budget))
}

fn parse(fasta: &[u8]) -> Result<SequenceDb, String> {
    Ok(bioseq::read_fasta(fasta)
        .map_err(|e| format!("database FASTA: {e}"))?
        .into_iter()
        .collect())
}

/// Parse the database, build what the workload serves from, and start
/// the real server on an ephemeral loopback port. Returns the server and
/// the seconds it took, FASTA bytes to listening socket.
pub fn start(
    spec: &Spec,
    fasta: &[u8],
    threads: usize,
    obsv: ObsvConfig,
    scratch: &Path,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let db = parse(fasta)?;
    let mut store_dir = None;
    let mut store_build_s = 0.0;
    let (index, index_bytes, cache_budget) = if spec.streaming {
        let dir = fresh_store_dir(scratch)?;
        let t1 = Instant::now();
        let built = build_streaming(&db, threads, &dir);
        store_build_s = t1.elapsed().as_secs_f64();
        store_dir = Some(dir);
        let (streaming, decoded, budget) = built?;
        (ResidentIndex::Streaming(streaming), decoded, budget)
    } else {
        let index = DbIndex::build_parallel(&db, &IndexConfig::default(), threads);
        let bytes = index.memory_bytes() as u64;
        (ResidentIndex::Single(index), bytes, 0)
    };
    let neighbors = NeighborTable::build(&BLOSUM62, 11);
    let transport =
        TcpTransport::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = transport
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?
        .to_string();
    let ctx = Arc::new(SearchContext {
        db,
        index,
        neighbors,
        base: base_config(threads),
    });
    let opts = BatchOptions {
        obsv,
        ..BatchOptions::default()
    };
    let handle = serve::serve_with_stats(
        transport,
        Arc::clone(&ctx),
        opts,
        Arc::new(serve::ServeStats::new()),
    );
    let server = Server {
        handle,
        addr,
        ctx,
        index_bytes,
        cache_budget,
        store_build_s,
        store_dir,
    };
    Ok((server, t0.elapsed().as_secs_f64()))
}
