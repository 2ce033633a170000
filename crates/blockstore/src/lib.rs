//! Out-of-core database search: the block store behind a decoded-block
//! cache, as a block source for the engine's one executor.
//!
//! The paper's execution structure — a serial loop over index blocks
//! with parallel queries inside each block (Alg. 3) — already bounds the
//! working set to one block. This crate completes the consequence: if
//! only one block needs to be resident at a time, the index does not
//! need to be resident at all. It provides
//!
//! * [`BlockCache`] — decoded [`dbindex::IndexBlock`]s under a byte
//!   budget, shared across stores, with atomic hit / miss / eviction /
//!   residency counters (`cache::CacheCounters`) exported through the
//!   serve stats frame. It admits by reuse: a missed block displaces
//!   blocks idle since its own previous request, or blocks of a store
//!   holding more than its own will, else it is handed back uncached,
//!   so a cache of `c` blocks serves `c` fetches of every repeated
//!   scan, in any visit order, where strict LRU would serve none;
//! * [`SequenceStore`] — one open store file: footer directory + cached
//!   block fetches, every failure a typed [`StoreError`]; an
//!   [`engine::BlockSource`], so [`engine::search_batch_blocks`] searches
//!   it bit-identically to a resident index. A miss is a read, one CRC
//!   pass over the record and a bounds-checked copy of its fixed-width
//!   arrays;
//! * [`StreamingShards`] — [`engine::ShardBackend`] over disk-resident
//!   shards, so the sharded driver's dispatch, deadline, degradation and
//!   statistics-correct merge machinery runs unchanged out-of-core, with
//!   storage failures degrading like lost shards
//!   ([`engine::ShardFailCause::Storage`]).
//!
//! Fault injection hooks ([`FAULT_FETCH_SHORT`], [`FAULT_FETCH_FLIP`],
//! [`FAULT_FETCH_LATENCY`]) corrupt fetched records the way real storage
//! does, which the chaos battery uses to pin the contract: searches
//! either succeed bit-identically or report exact degraded coverage.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

mod cache;
mod stream;

pub use cache::{BlockCache, CounterSnapshot};
pub use stream::{
    SequenceStore, StoreError, StreamingShard, StreamingShards, FAULT_FETCH_FLIP,
    FAULT_FETCH_LATENCY, FAULT_FETCH_SHORT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::{Sequence, SequenceDb};
    use dbindex::{DbIndex, IndexConfig, SerialError};
    use engine::{search_batch, BlockSource, EngineKind, QueryResult, SearchConfig};
    use scoring::{NeighborTable, SearchParams, BLOSUM62};
    use std::sync::{Arc, OnceLock};

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn toy_db() -> SequenceDb {
        let motifs = ["WCHWMYFWCHW", "MKVLAARND", "HILKMFPSTW", "CQEGHILKMF"];
        (0..24)
            .map(|i| {
                let m = motifs[i % motifs.len()];
                let pad_a = "AG".repeat(3 + i % 5);
                let pad_b = "VL".repeat(2 + i % 7);
                Sequence::from_str_checked(format!("s{i}"), &format!("{pad_a}{m}{pad_b}{m}"))
                    .unwrap()
            })
            .collect()
    }

    fn index_config() -> IndexConfig {
        IndexConfig { block_bytes: 512, offset_bits: 15, frag_overlap: 8 }
    }

    fn search_config() -> SearchConfig {
        let mut params = SearchParams::blastp_defaults();
        params.evalue_cutoff = 1e9;
        SearchConfig::new(EngineKind::MuBlastp).with_params(params)
    }

    fn queries(db: &SequenceDb) -> Vec<Sequence> {
        (0..4)
            .map(|i| Sequence::from_encoded(format!("q{i}"), db.get(i * 5).residues().to_vec()))
            .collect()
    }

    /// The one executor over any block source, untraced.
    fn search<S: BlockSource>(
        db: &SequenceDb,
        source: &S,
        queries: &[Sequence],
        cfg: &SearchConfig,
    ) -> Result<Vec<QueryResult>, S::Error> {
        let session = obsv::TraceSession::disabled();
        engine::search_batch_blocks(db, source, neighbors(), queries, cfg, None, &session)
            .map(|out| out.results)
    }

    #[test]
    fn store_search_is_bit_identical_to_resident_search() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let bytes = dbindex::write_store(&index);
        let cache = Arc::new(BlockCache::new(u64::MAX));
        let store = SequenceStore::open(
            std::io::Cursor::new(bytes),
            cache,
            faultfn::Faults::none(),
        )
        .unwrap();
        let out = search(&db, &store, &queries, &cfg).unwrap();
        assert!(reference.iter().any(|r| !r.alignments.is_empty()));
        engine::results_identical(&reference, &out).expect("outputs must be bit-identical");
        // Several workers sharing the store change nothing either.
        let out = search(&db, &store, &queries, &cfg.clone().with_threads(3)).unwrap();
        engine::results_identical(&reference, &out).expect("threads must not change results");
    }

    #[test]
    fn cache_counters_track_a_two_pass_search() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let n_blocks = index.blocks().len() as u64;
        assert!(n_blocks >= 2, "want a multi-block index");
        let bytes = dbindex::write_store(&index);
        let cache = Arc::new(BlockCache::new(u64::MAX));
        let store =
            SequenceStore::open(std::io::Cursor::new(bytes), Arc::clone(&cache), faultfn::Faults::none())
                .unwrap();
        search(&db, &store, &queries, &cfg).unwrap();
        let first = cache.counters().snapshot();
        assert_eq!(first.misses, n_blocks, "cold pass fetches every block");
        assert_eq!(first.fetched_blocks, n_blocks);
        assert!(first.decoded_postings > 0);
        search(&db, &store, &queries, &cfg).unwrap();
        let second = cache.counters().snapshot();
        assert_eq!(second.misses, first.misses, "warm pass fetches nothing");
        assert_eq!(second.hits, first.hits + n_blocks);
    }

    /// `CODEC_SEED` (default 1) varies the database of the cyclic-scan
    /// test: families of one random 60-residue parent each, members
    /// mutated at one position in six and padded with random flanks.
    fn seeded_db() -> SequenceDb {
        let seed: u64 = std::env::var("CODEC_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        const ALPHABET: &[u8] = b"ARNDCQEGHILKMFPSTWYV";
        let mut drawn = 0u64;
        let mut residue = move || {
            drawn += 1;
            ALPHABET[(faultfn::mix64(seed, drawn) % 20) as usize] as char
        };
        let parents: Vec<String> =
            (0..6).map(|_| (0..60).map(|_| residue()).collect()).collect();
        (0..48)
            .map(|i| {
                let mut body: String = (0..10 + i % 7).map(|_| residue()).collect();
                for (at, c) in parents[i % parents.len()].chars().enumerate() {
                    body.push(if (at + i) % 6 == 0 { residue() } else { c });
                }
                body.extend((0..5 + i % 11).map(|_| residue()));
                Sequence::from_str_checked(format!("s{i}"), &body).unwrap()
            })
            .collect()
    }

    /// A cyclic exhaustive scan through a cache of exactly `c` blocks:
    /// the cache keeps the first `c` blocks of the cold pass, so every
    /// later pass hits exactly `c` times. (A strict LRU evicts each block
    /// just before its next use and never hits.)
    #[test]
    fn cyclic_scan_hits_exactly_what_the_cache_holds() {
        let db = seeded_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        assert!(reference.iter().all(|r| !r.alignments.is_empty()));
        let n = index.blocks().len() as u64;
        assert!(n >= 8, "want at least 8 blocks, got {n}");
        let sizes: Vec<u64> = index.blocks().iter().map(|b| b.memory_bytes() as u64).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        let bytes = dbindex::write_store(&index);
        for c in [2, n / 4] {
            // Any c blocks fit, no c + 1 do.
            let budget = c * max;
            assert!((c + 1) * min > budget, "block sizes too uneven: {min}..{max}");
            let cache = Arc::new(BlockCache::new(budget));
            let store = SequenceStore::open(
                std::io::Cursor::new(bytes.clone()),
                Arc::clone(&cache),
                faultfn::Faults::none(),
            )
            .unwrap();
            let mut before = cache.counters().snapshot();
            for pass in 0..5 {
                let out = search(&db, &store, &queries, &cfg).unwrap();
                engine::results_identical(&reference, &out)
                    .unwrap_or_else(|e| panic!("c={c} pass {pass}: {e}"));
                let after = cache.counters().snapshot();
                let hits = if pass == 0 { 0 } else { c };
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    (hits, n - hits),
                    "c={c} pass {pass}"
                );
                assert!(after.resident_bytes <= budget && after.peak_resident_bytes <= budget);
                before = after;
            }
        }
    }

    /// A store seen through a fixed visit order: the executor's block `i`
    /// is the store's block `order[i]`, and every fetch is logged by its
    /// store id.
    struct Visit<'a> {
        store: &'a SequenceStore<std::io::Cursor<Vec<u8>>>,
        order: Vec<usize>,
        fetched: obsv::Lock<Vec<usize>>,
    }

    impl BlockSource for Visit<'_> {
        type Error = StoreError;

        fn num_blocks(&self) -> usize {
            self.order.len()
        }

        fn bound(&self, i: usize) -> dbindex::BlockBound {
            self.store.bound(self.order[i])
        }

        fn fetch(
            &self,
            i: usize,
        ) -> Result<impl std::borrow::Borrow<dbindex::IndexBlock>, StoreError> {
            self.fetched.lock().push(self.order[i]);
            self.store.block(self.order[i])
        }
    }

    /// The cyclic-scan check in a fixed order that is not ascending — what
    /// the top-k bound order is from batch to batch: the first `c` blocks
    /// of the order stay cached and hit on every later pass.
    #[test]
    fn fixed_order_scan_hits_exactly_what_the_cache_holds() {
        let db = seeded_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let n = index.blocks().len();
        assert!(n >= 8, "want at least 8 blocks, got {n}");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| faultfn::mix64(0x5eed, i as u64));
        assert!(order.windows(2).any(|w| w[0] > w[1]), "order must not be ascending");
        let max = index.blocks().iter().map(|b| b.memory_bytes() as u64).max().unwrap();
        let min = index.blocks().iter().map(|b| b.memory_bytes() as u64).min().unwrap();
        let bytes = dbindex::write_store(&index);
        for c in [2, n as u64 / 4] {
            let budget = c * max;
            assert!((c + 1) * min > budget, "block sizes too uneven: {min}..{max}");
            let cache = Arc::new(BlockCache::new(budget));
            let store = SequenceStore::open(
                std::io::Cursor::new(bytes.clone()),
                Arc::clone(&cache),
                faultfn::Faults::none(),
            )
            .unwrap();
            let visit = Visit { store: &store, order: order.clone(), fetched: obsv::Lock::new(Vec::new()) };
            let mut before = cache.counters().snapshot();
            for pass in 0..5 {
                let out = search(&db, &visit, &queries, &cfg).unwrap();
                engine::results_identical(&reference, &out)
                    .unwrap_or_else(|e| panic!("c={c} pass {pass}: {e}"));
                let after = cache.counters().snapshot();
                let hits = if pass == 0 { 0 } else { c };
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    (hits, n as u64 - hits),
                    "c={c} pass {pass}"
                );
                assert!(after.resident_bytes <= budget && after.peak_resident_bytes <= budget);
                before = after;
            }
        }
    }

    /// An exhaustive scan fetches `0..n` ascending whatever the cache
    /// already holds: residency decides what a fetch costs, not when it
    /// comes.
    #[test]
    fn exhaustive_scan_fetches_ascending_whatever_the_cache_holds() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let n = index.blocks().len();
        assert!(n >= 3, "want several blocks, got {n}");
        let bytes = dbindex::write_store(&index);
        for warm in [vec![], vec![n - 1], (0..n).filter(|i| i % 3 == 2).collect()] {
            let cache = Arc::new(BlockCache::new(u64::MAX));
            let store = SequenceStore::open(
                std::io::Cursor::new(bytes.clone()),
                cache,
                faultfn::Faults::none(),
            )
            .unwrap();
            for &i in &warm {
                store.block(i).unwrap();
            }
            let visit = Visit { store: &store, order: (0..n).collect(), fetched: obsv::Lock::new(Vec::new()) };
            let out = search(&db, &visit, &queries, &cfg).unwrap();
            assert_eq!(*visit.fetched.lock(), (0..n).collect::<Vec<_>>(), "warm {warm:?}");
            engine::results_identical(&reference, &out).expect("order never shows in results");
        }
    }

    #[test]
    fn fetch_faults_surface_as_typed_errors() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let bytes = dbindex::write_store(&index);
        for site in [FAULT_FETCH_SHORT, FAULT_FETCH_FLIP] {
            let faults = faultfn::FaultPlan::new(5)
                .with(site, faultfn::Schedule::Nth(0))
                .build();
            let cache = Arc::new(BlockCache::new(u64::MAX));
            let store =
                SequenceStore::open(std::io::Cursor::new(bytes.clone()), cache, faults).unwrap();
            let err = search(&db, &store, &queries, &cfg)
                .expect_err("injected fault must fail the search");
            assert!(matches!(err, StoreError::Format(_)), "{site}: {err}");
        }
    }

    /// A directory row whose CRC no longer matches its record — what a
    /// stale record of equal length under a rewritten directory looks
    /// like — opens (the directory is sealed) but fails that block's
    /// fetch typed; every other block fetches as before.
    #[test]
    fn record_must_match_its_directory_row() {
        let db = toy_db();
        let index = DbIndex::build(&db, &index_config());
        let mut bytes = dbindex::write_store(&index);
        // Footer tail: n_blocks u32 | dir_len u32 | dir_crc u32 | magic;
        // a row's `crc` follows `offset u64 | len u32`; the directory CRC
        // covers the 32-byte header and the rows.
        let tail = bytes.len() - 16;
        let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let n_blocks = u32_at(&bytes, tail) as usize;
        let dir_len = u32_at(&bytes, tail + 4) as usize;
        let dir = tail - dir_len;
        let victim = n_blocks / 2;
        bytes[dir + victim * (dir_len / n_blocks) + 12] ^= 1;
        let mut crc = dbindex::crc::Crc32::new();
        crc.update(&bytes[..32]);
        crc.update(&bytes[dir..tail]);
        bytes[tail + 8..tail + 12].copy_from_slice(&crc.finalize().to_le_bytes());

        let cache = Arc::new(BlockCache::new(u64::MAX));
        let store =
            SequenceStore::open(std::io::Cursor::new(bytes), cache, faultfn::Faults::none())
                .expect("a re-sealed directory opens");
        let err = search(&db, &store, &queries(&db), &search_config())
            .expect_err("a search needing the mismatched block must fail");
        assert!(
            matches!(err, StoreError::Format(SerialError::Corrupt)),
            "{err}"
        );
        for (i, want) in index.blocks().iter().enumerate() {
            match store.block(i) {
                Ok(got) if i != victim => assert_eq!(&*got, want, "block {i}"),
                Err(StoreError::Format(SerialError::Corrupt)) if i == victim => {}
                other => panic!("block {i}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn latency_fault_does_not_change_results() {
        let db = toy_db();
        let queries = queries(&db);
        let cfg = search_config();
        let index = DbIndex::build(&db, &index_config());
        let reference = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        let bytes = dbindex::write_store(&index);
        let faults = faultfn::FaultPlan::new(5)
            .with(FAULT_FETCH_LATENCY, faultfn::Schedule::Always)
            .build();
        let cache = Arc::new(BlockCache::new(u64::MAX));
        let store = SequenceStore::open(std::io::Cursor::new(bytes), cache, faults).unwrap();
        let out = search(&db, &store, &queries, &cfg).unwrap();
        engine::results_identical(&reference, &out).expect("outputs must be bit-identical");
    }

    #[test]
    fn out_of_range_block_is_a_typed_error() {
        let index = DbIndex::build(&toy_db(), &index_config());
        let bytes = dbindex::write_store(&index);
        let cache = Arc::new(BlockCache::new(u64::MAX));
        let store = SequenceStore::open(std::io::Cursor::new(bytes), cache, faultfn::Faults::none())
            .unwrap();
        assert!(store.block(store.num_blocks()).is_err());
    }
}
