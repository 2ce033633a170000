//! Per-layer measurements, taken from outside: each function times calls
//! into one crate's public functions or reads counters its API returns.

use crate::corpus::Rng;
use crate::server::base_config;
use crate::trace::Spans;
use crate::workload::{Request, Spec};
use bioseq::Sequence;
use dbindex::DbIndex;
use engine::{QueryResult, SearchConfig};
use obsv::{ObsvConfig, Trace, TraceSession};
use scoring::{KernelKind, ScoreProfile, SearchParams, BLOSUM62};
use serve::proto::{decode_frame, encode_frame, QueryReply};
use serve::{Frame, ParamOverrides, ResidentIndex, SearchContext, SearchRequest, SearchResponse};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median of `n` timings of `f`, in seconds.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let t: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::quantile(&t, 0.5)
}

/// `dbindex` store codec and `blockstore` fetch path over one index.
pub struct StoreLayer {
    pub store_bytes: usize,
    pub encode_ns_per_posting: f64,
    pub decode_ns_per_posting: f64,
    /// `SequenceStore::block` with a zero-budget cache: read + CRC + decode.
    pub miss_us_per_block: f64,
    /// `SequenceStore::block` with everything cached.
    pub hit_ns_per_block: f64,
}

pub fn store_layer(index: &DbIndex) -> Result<StoreLayer, String> {
    let postings = index.total_positions().max(1) as f64;
    let mut bytes = Vec::new();
    let encode_s = median_secs(3, || bytes = dbindex::write_store(index));
    let open = |budget: u64| {
        blockstore::SequenceStore::open(
            std::io::Cursor::new(bytes.clone()),
            Arc::new(blockstore::BlockCache::new(budget)),
            faultfn::Faults::none(),
        )
        .map_err(|e| format!("cannot open in-memory store: {e}"))
    };
    let fetch_all = |store: &blockstore::SequenceStore<std::io::Cursor<Vec<u8>>>| {
        let t0 = Instant::now();
        for i in 0..store.num_blocks() {
            black_box(store.block(i).map_err(|e| format!("block {i}: {e}"))?);
        }
        Ok::<f64, String>(t0.elapsed().as_secs_f64())
    };
    let cold = open(0)?;
    let blocks = cold.num_blocks().max(1) as f64;
    let miss_s = fetch_all(&cold)?;
    let decode_ns_per_posting = cold.cache().counters().snapshot().decode_ns_per_posting();
    let warm = open(u64::MAX)?;
    fetch_all(&warm)?;
    const HIT_PASSES: usize = 2_000;
    let mut hit_s = 0.0;
    for _ in 0..HIT_PASSES {
        hit_s += fetch_all(&warm)?;
    }
    Ok(StoreLayer {
        store_bytes: bytes.len(),
        encode_ns_per_posting: encode_s * 1e9 / postings,
        decode_ns_per_posting,
        miss_us_per_block: miss_s * 1e6 / blocks,
        hit_ns_per_block: hit_s * 1e9 / (HIT_PASSES as f64 * blocks),
    })
}

/// ns per spanned query residue of the `Auto` extension kernels on seeded
/// homolog pairs: 256-residue queries, each against 16 relatives that keep
/// 72 % of its residues (the planted-segment divergence of the corpus).
/// "Cell" is the linear work proxy of `bench --bin extension`.
pub fn kernel_ns_per_cell(seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed, 10);
    let params = SearchParams::blastp_defaults();
    let len = 256usize;
    let anchor = (len / 2) as u32;
    let groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = (0..24)
        .map(|_| {
            let q: Vec<u8> = (0..len).map(|_| rng.below(20) as u8).collect();
            let subjects = (0..16)
                .map(|_| {
                    let mut s: Vec<u8> = q
                        .iter()
                        .map(|&r| {
                            if rng.chance(0.72) {
                                r
                            } else {
                                rng.below(20) as u8
                            }
                        })
                        .collect();
                    // An exact word at the anchor, so the seed is real.
                    s[len / 2..len / 2 + 3].copy_from_slice(&q[len / 2..len / 2 + 3]);
                    s
                })
                .collect();
            (q, subjects)
        })
        .collect();
    let striped = KernelKind::Auto.use_striped();
    let (mut ungapped_cells, mut gapped_cells) = (0u64, 0u64);
    let mut ungapped = || {
        ungapped_cells = 0;
        for (q, subjects) in &groups {
            // One profile per query, reused across its subjects, as
            // `engine::scratch::ProfileCache` does.
            let profile = striped.then(|| ScoreProfile::for_query(&BLOSUM62, q));
            for s in subjects {
                let out = match &profile {
                    Some(p) => align::extend_two_hit_striped(
                        p,
                        s,
                        Some(anchor),
                        anchor,
                        anchor,
                        params.ungapped_xdrop,
                    ),
                    None => align::extend_two_hit(
                        &BLOSUM62,
                        q,
                        s,
                        Some(anchor),
                        anchor,
                        anchor,
                        params.ungapped_xdrop,
                        &mut memsim::NullTracer,
                        0,
                        0,
                    ),
                };
                if let Some(a) = black_box(out).alignment {
                    ungapped_cells += u64::from(a.q_end - a.q_start);
                }
            }
        }
    };
    let ungapped_s = median_secs(5, &mut ungapped);
    let mut gapped = || {
        gapped_cells = 0;
        for (q, subjects) in &groups {
            for s in subjects {
                let f = if striped {
                    align::gapped_extend_score_striped
                } else {
                    align::gapped_extend_score
                };
                let a = black_box(f(
                    &BLOSUM62,
                    q,
                    s,
                    anchor,
                    anchor,
                    params.gap_open,
                    params.gap_extend,
                    params.gapped_xdrop,
                ));
                gapped_cells += u64::from(a.q_end - a.q_start);
            }
        }
    };
    let gapped_s = median_secs(5, &mut gapped);
    (
        ungapped_s * 1e9 / ungapped_cells.max(1) as f64,
        gapped_s * 1e9 / gapped_cells.max(1) as f64,
    )
}

/// `lsd_radix_sort_by_key` over `keys` seeded 32-bit keys, ns per key.
pub fn radix_ns_per_key(keys: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed, 11);
    let keys = keys.max(64);
    let fresh: Vec<(u32, u32)> = (0..keys)
        .map(|i| (rng.next_u64() as u32, i as u32))
        .collect();
    // Enough repetitions that the timed region is ~milliseconds.
    let reps = (2_000_000 / keys).clamp(1, 2_000);
    let secs = median_secs(5, || {
        for _ in 0..reps {
            let mut v = fresh.clone();
            sorting::lsd_radix_sort_by_key(&mut v, |p| p.0);
            black_box(&v);
        }
    });
    secs * 1e9 / (reps * keys) as f64
}

/// `parallel_for_dynamic` with an empty body, ns per index handed out.
pub fn dispatch_ns_per_task(threads: usize) -> f64 {
    let n = 1usize << 18;
    let secs = median_secs(5, || {
        parallel::parallel_for_dynamic(
            threads,
            n,
            1,
            || (),
            |_, i| {
                black_box(i);
            },
        );
    });
    secs * 1e9 / n as f64
}

fn queries_of(request: &Request) -> Vec<Sequence> {
    request.queries.iter().map(|q| q.seq.clone()).collect()
}

fn config_for(ctx: &SearchContext, spec: &Spec, threads: usize) -> SearchConfig {
    let mut config = ctx.base.clone();
    config.threads = threads;
    config.top_k = spec.top_k;
    config
}

/// One request through the entry point the batcher would dispatch it to.
fn search_direct(
    ctx: &SearchContext,
    queries: &[Sequence],
    config: &SearchConfig,
    session: &TraceSession,
) -> (Vec<QueryResult>, Trace) {
    match &ctx.index {
        ResidentIndex::Single(index) => engine::search_batch_traced(
            &ctx.db,
            Some(index),
            &ctx.neighbors,
            queries,
            config,
            session,
        ),
        ResidentIndex::Sharded(sharded) => {
            let out = engine::search_batch_sharded_traced(
                sharded,
                &ctx.neighbors,
                queries,
                config,
                session,
            );
            (out.results, out.trace)
        }
        ResidentIndex::Streaming(streaming) => {
            let out = engine::search_batch_backend_traced(
                streaming,
                &ctx.neighbors,
                queries,
                config,
                session,
            );
            (out.results, out.trace)
        }
    }
}

/// The workload's own requests replayed through the engine with no
/// server: wall milliseconds per query at `threads`.
pub fn direct_ms_per_query(
    ctx: &SearchContext,
    spec: &Spec,
    requests: &[Request],
    threads: usize,
) -> f64 {
    let config = config_for(ctx, spec, threads);
    let session = TraceSession::disabled();
    let batches: Vec<Vec<Sequence>> = requests.iter().map(queries_of).collect();
    let t0 = Instant::now();
    for queries in &batches {
        black_box(search_direct(ctx, queries, &config, &session));
    }
    let n: usize = batches.iter().map(Vec::len).sum();
    t0.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64
}

/// What a by-hand replay of requests through the layers found.
pub struct Replay {
    pub spans: Spans,
    /// Mean encoded size of a `Results` frame, bytes per query.
    pub results_bytes_per_query: f64,
}

/// Replay each request through the layers by hand, the way a connection
/// thread and the batcher would, recording
/// `replay ⊃ {serve.decode_request, bioseq.parse, engine.search (⊃ the
/// engine's own stage spans), engine.shard_merge, serve.encode_results}`.
///
/// `engine.shard_merge` re-runs `merge_shard_alignments` over the merged
/// rows in reverse order: the sharded driver merges inside
/// `engine.search`, where it cannot be timed from outside.
pub fn replay(
    ctx: &SearchContext,
    spec: &Spec,
    requests: &[Request],
    threads: usize,
    span_epoch: Instant,
) -> Result<Replay, String> {
    let config = config_for(ctx, spec, threads);
    let session = TraceSession::new(ObsvConfig::on());
    let mut spans = Spans::new(span_epoch);
    let (mut bytes, mut queries_total) = (0usize, 0usize);
    for (id, request) in requests.iter().enumerate() {
        let id = id as u64;
        let wire = encode_frame(&Frame::Search(SearchRequest {
            fasta: request.fasta.clone(),
            engine: config.kind,
            overrides: ParamOverrides {
                top_k: spec.top_k,
                ..ParamOverrides::default()
            },
            deadline_ms: 0,
            trace_id: 0,
            want_trace: true,
        }));
        let t0 = Instant::now();
        let Ok(Frame::Search(decoded)) = decode_frame(&wire) else {
            return Err("request frame did not decode to a Search".to_string());
        };
        let t1 = Instant::now();
        let queries = bioseq::read_fasta(decoded.fasta.as_bytes())
            .map_err(|e| format!("query FASTA: {e}"))?;
        let t2 = Instant::now();
        let (results, engine_trace) = search_direct(ctx, &queries, &config, &session);
        let t3 = Instant::now();
        if spec.streaming {
            for r in &results {
                let mut rows: Vec<engine::Alignment> = r.alignments.iter().rev().cloned().collect();
                engine::merge_shard_alignments(&mut rows, config.params.max_reported);
                black_box(rows);
            }
        }
        let t4 = Instant::now();
        let replies = results
            .into_iter()
            .map(|result| QueryReply {
                subject_ids: result
                    .alignments
                    .iter()
                    .map(|a| ctx.db.get(a.subject).id.clone())
                    .collect(),
                result,
            })
            .collect();
        let encoded = encode_frame(&Frame::Results(SearchResponse {
            trace: Some(engine_trace.clone()),
            ..SearchResponse::untraced(replies)
        }));
        let t5 = Instant::now();
        bytes += encoded.len();
        queries_total += queries.len();
        let root = spans.push("replay", t0, t5, None, id, 0);
        spans.push("serve.decode_request", t0, t1, Some(root), id, 0);
        spans.push("bioseq.parse", t1, t2, Some(root), id, 0);
        let search = spans.push("engine.search", t2, t3, Some(root), id, 0);
        spans.adopt(&engine_trace, session.epoch(), search, id);
        if spec.streaming {
            spans.push("engine.shard_merge", t3, t4, Some(root), id, 0);
        }
        spans.push("serve.encode_results", t4, t5, Some(root), id, 0);
    }
    Ok(Replay {
        spans,
        results_bytes_per_query: bytes as f64 / queries_total.max(1) as f64,
    })
}

/// Mean cost of `merge_shard_alignments` over one query's reported rows,
/// in microseconds. The rows arrive in reverse rank order, so the sort
/// has work to do.
pub fn shard_merge_us(results: &[QueryResult], max_reported: usize) -> f64 {
    let secs = median_secs(5, || {
        for r in results {
            let mut rows: Vec<engine::Alignment> = r.alignments.iter().rev().cloned().collect();
            engine::merge_shard_alignments(&mut rows, max_reported);
            black_box(rows);
        }
    });
    secs * 1e6 / results.len().max(1) as f64
}

/// Stage split and work funnel of the engine on `requests`: one traced,
/// single-threaded, exhaustive batch over the resident index, so the
/// counts repeat exactly for a seed and stage times are not inflated by
/// workers contending.
pub fn stage_split(
    resident: &crate::check::Resident,
    requests: &[Request],
) -> (Vec<QueryResult>, Trace) {
    let queries: Vec<Sequence> = requests.iter().flat_map(queries_of).collect();
    let session = TraceSession::new(ObsvConfig::on());
    engine::search_batch_traced(
        &resident.db,
        Some(&resident.index),
        &resident.neighbors,
        &queries,
        &base_config(1),
        &session,
    )
}
