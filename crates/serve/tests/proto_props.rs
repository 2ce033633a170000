//! Property tests for the wire protocol, driven by a seeded xorshift
//! generator (deterministic, dependency-free):
//!
//! * every generated frame round-trips `encode → decode` exactly;
//! * every strict prefix of an encoding fails to decode (no partial reads
//!   silently succeed);
//! * arbitrary single-byte corruption and pure random byte soup never
//!   panic the decoder — frames cross a process boundary, so "garbage in"
//!   must always be "typed error (or valid frame) out", never a crash.

use engine::{Alignment, QueryResult, StageCounts};
use serve::proto::{
    decode_frame, encode_frame, Degraded, ErrorCode, Frame, LatencySummary, ParamOverrides,
    ProtoError, QueryReply, SearchRequest, SearchResponse, ShardStat, StageLatency, StatsReport,
    WireError, PROTO_VERSION,
};

/// xorshift64* — deterministic pseudo-randomness without `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn usize_below(&mut self, n: usize) -> usize {
        usize::try_from(self.below(n as u64)).unwrap_or(0)
    }

    /// A finite, exactly-representable float (NaN would break equality
    /// round-trip asserts even though the bits survive).
    fn f64(&mut self) -> f64 {
        (self.below(2_000_001) as f64 - 1_000_000.0) / 64.0
    }

    fn string(&mut self, max_len: usize) -> String {
        let len = self.usize_below(max_len + 1);
        (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }

    fn bool(&mut self) -> bool {
        self.below(2) == 1
    }
}

fn random_counts(rng: &mut Rng) -> StageCounts {
    StageCounts {
        hits: rng.below(1 << 40),
        pairs: rng.below(1 << 30),
        extensions: rng.below(1 << 20),
        seeds: rng.below(1 << 16),
        gapped: rng.below(1 << 12),
        reported: rng.below(1 << 8),
    }
}

fn random_alignment(rng: &mut Rng) -> Alignment {
    let n_ops = rng.usize_below(12);
    let ops = (0..n_ops)
        .map(|_| match rng.below(3) {
            0 => align::AlignOp::Sub,
            1 => align::AlignOp::Ins,
            _ => align::AlignOp::Del,
        })
        .collect();
    Alignment {
        subject: rng.below(1 << 20) as u32,
        aln: align::GappedAlignment {
            q_start: rng.below(500) as u32,
            q_end: rng.below(500) as u32 + 500,
            s_start: rng.below(500) as u32,
            s_end: rng.below(500) as u32 + 500,
            score: rng.below(10_000) as i32 - 5_000,
            ops,
        },
        bit_score: rng.f64(),
        evalue: rng.f64(),
    }
}

fn random_latency(rng: &mut Rng) -> LatencySummary {
    LatencySummary {
        count: rng.below(1 << 30),
        p50_us: rng.below(1 << 20),
        p99_us: rng.below(1 << 24),
        max_us: rng.below(1 << 28),
    }
}

fn random_stage(rng: &mut Rng) -> obsv::Stage {
    let all = obsv::Stage::ALL;
    all[rng.usize_below(all.len())]
}

/// A trace as it appears inside a decoded response: every span stamped
/// with the response's trace id (the per-span id is not on the wire).
fn random_trace(rng: &mut Rng, trace_id: u64) -> obsv::Trace {
    let n = rng.usize_below(6);
    obsv::Trace {
        spans: (0..n)
            .map(|i| obsv::SpanRecord {
                trace_id,
                seq: i as u64,
                stage: random_stage(rng),
                query: rng.below(8) as u32,
                block: rng.below(4) as u32,
                worker: rng.below(4) as u32,
                start_ns: rng.below(1 << 40),
                dur_ns: rng.below(1 << 30),
            })
            .collect(),
        dropped: rng.below(4),
    }
}

fn random_frame(rng: &mut Rng) -> Frame {
    match rng.below(7) {
        0 => Frame::Search(SearchRequest {
            fasta: format!(">q\n{}\n", rng.string(64)),
            engine: match rng.below(3) {
                0 => engine::EngineKind::QueryIndexed,
                1 => engine::EngineKind::DbInterleaved,
                _ => engine::EngineKind::MuBlastp,
            },
            overrides: ParamOverrides {
                evalue_cutoff: rng.bool().then(|| rng.f64()),
                max_reported: rng.bool().then(|| rng.below(1 << 16) as u32),
                seg_filter: rng.bool().then(|| rng.bool()),
                top_k: rng.bool().then(|| rng.below(1 << 10) as u32),
            },
            deadline_ms: rng.below(1 << 20) as u32,
            trace_id: rng.below(1 << 48),
            want_trace: rng.bool(),
        }),
        1 => {
            let n_replies = rng.usize_below(4);
            let replies = (0..n_replies)
                .map(|qi| {
                    let n_alns = rng.usize_below(5);
                    let alignments: Vec<_> = (0..n_alns).map(|_| random_alignment(rng)).collect();
                    QueryReply {
                        subject_ids: (0..n_alns).map(|_| rng.string(24)).collect(),
                        result: QueryResult {
                            query_index: qi,
                            alignments,
                            counts: random_counts(rng),
                        },
                    }
                })
                .collect();
            let trace_id = rng.below(1 << 48);
            let trace = rng.bool().then(|| random_trace(rng, trace_id));
            let degraded = rng.bool().then(|| Degraded {
                failed_shards: (0..rng.usize_below(4)).map(|_| rng.below(64) as u32).collect(),
                coverage_residues: rng.below(1 << 40),
                total_residues: rng.below(1 << 40),
            });
            Frame::Results(SearchResponse {
                replies,
                trace_id,
                trace,
                degraded,
                blocks_scanned: rng.below(1 << 20),
                blocks_skipped: rng.below(1 << 20),
            })
        }
        2 => Frame::Error(WireError {
            code: match rng.below(5) {
                0 => ErrorCode::BadRequest,
                1 => ErrorCode::Overloaded,
                2 => ErrorCode::DeadlineExceeded,
                3 => ErrorCode::ShuttingDown,
                _ => ErrorCode::Internal,
            },
            message: rng.string(80),
            retry_after_ms: rng.below(10_000) as u32,
        }),
        3 => Frame::StatsRequest,
        4 => Frame::Stats(Box::new(StatsReport {
            queue_depth: rng.below(256) as u32,
            queue_cap: rng.below(256) as u32,
            max_depth_seen: rng.below(256) as u32,
            accepted: rng.below(1 << 40),
            rejected: rng.below(1 << 20),
            expired: rng.below(1 << 16),
            completed: rng.below(1 << 40),
            batches: rng.below(1 << 32),
            batch_hist: (0..rng.usize_below(9))
                .map(|_| rng.below(1 << 20))
                .collect(),
            queue_wait: random_latency(rng),
            search: random_latency(rng),
            total: random_latency(rng),
            stages: (0..rng.usize_below(4))
                .map(|_| StageLatency {
                    stage: random_stage(rng),
                    latency: random_latency(rng),
                })
                .collect(),
            shards: (0..rng.usize_below(4))
                .map(|i| ShardStat {
                    shard: i as u32,
                    seqs: rng.below(1 << 24),
                    residues: rng.below(1 << 36),
                    queued: random_latency(rng),
                    search: random_latency(rng),
                    failures: rng.below(1 << 16),
                })
                .collect(),
            degraded: rng.below(1 << 20),
            index_resident_bytes: rng.below(1 << 36),
            cache_budget_bytes: rng.below(1 << 32),
            cache_used_bytes: rng.below(1 << 32),
            cache_hits: rng.below(1 << 40),
            cache_misses: rng.below(1 << 30),
            cache_evictions: rng.below(1 << 24),
            shard_fail_injected: rng.below(1 << 16),
            shard_fail_deadline: rng.below(1 << 16),
            shard_fail_storage: rng.below(1 << 16),
            slow_queries: rng.below(1 << 20),
            retry_attempts: rng.below(1 << 20),
            retry_exhausted: rng.below(1 << 12),
            events_logged: rng.below(1 << 20),
            events_dropped: rng.below(1 << 8),
            cache_fetched_blocks: rng.below(1 << 24),
            cache_fetched_bytes: rng.below(1 << 36),
            cache_decode_ns: rng.below(1 << 40),
            cache_decoded_postings: rng.below(1 << 32),
            metrics_text: rng.string(120),
            topk_requests: rng.below(1 << 20),
            topk_blocks_scanned: rng.below(1 << 24),
            topk_blocks_skipped: rng.below(1 << 24),
        })),
        5 => Frame::Shutdown,
        _ => Frame::ShutdownAck,
    }
}

#[test]
fn random_frames_roundtrip_exactly() {
    let mut rng = Rng(0x5EED_0001);
    for case in 0..500 {
        let frame = random_frame(&mut rng);
        let bytes = encode_frame(&frame);
        match decode_frame(&bytes) {
            Ok(decoded) => assert_eq!(decoded, frame, "case {case}"),
            Err(e) => panic!("case {case}: {frame:?} failed to decode: {e}"),
        }
    }
}

/// One version: the same bytes restamped with any other version — the
/// retired 1–6, the next one, nonsense — are refused by the header check,
/// whatever the payload.
#[test]
fn every_other_version_stamp_is_refused() {
    let mut rng = Rng(0x5EED_0006);
    for case in 0..300 {
        let mut bytes = encode_frame(&random_frame(&mut rng));
        let version = match rng.below(3) {
            0 => rng.below(7) as u32,
            1 => 8,
            _ => rng.next() as u32,
        };
        if version == PROTO_VERSION {
            continue;
        }
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::BadVersion(version)),
            "case {case}"
        );
    }
}

#[test]
fn every_strict_prefix_fails_to_decode() {
    let mut rng = Rng(0x5EED_0002);
    for case in 0..60 {
        let frame = random_frame(&mut rng);
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            if let Ok(f) = decode_frame(&bytes[..cut]) {
                panic!("case {case}: {cut}-byte prefix decoded as {f:?}");
            }
        }
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let mut rng = Rng(0x5EED_0003);
    for _case in 0..120 {
        let frame = random_frame(&mut rng);
        let mut bytes = encode_frame(&frame);
        let pos = rng.usize_below(bytes.len());
        let flip = 1u8 << rng.below(8);
        bytes[pos] ^= flip;
        // Must return — Ok with altered content or a typed error are both
        // acceptable; a panic or abort is not.
        let _ = decode_frame(&bytes);
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = Rng(0x5EED_0004);
    for _case in 0..300 {
        let len = rng.usize_below(96);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let _ = decode_frame(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Golden byte fixtures: the committed encodings of fixed frames. These pin
// the wire format itself — any codec change that alters bytes (field
// order, widths) fails here even if it round-trips symmetrically.
// Regenerate deliberately with `PROTO_BLESS=1` after an intentional format
// change that bumped `PROTO_VERSION` (the file names carry the version).
// ---------------------------------------------------------------------------

fn fixtures_dir() -> std::path::PathBuf {
    if let Some(dir) = option_env!("CARGO_MANIFEST_DIR") {
        return std::path::Path::new(dir).join("tests/fixtures");
    }
    for candidate in ["crates/serve/tests", "tests"] {
        if std::path::Path::new(candidate).is_dir() {
            return std::path::Path::new(candidate).join("fixtures");
        }
    }
    panic!("fixtures directory not found; run from the repo or crate root")
}

/// Fixed, hand-written frames — no RNG, so the bytes cannot drift with
/// generator tweaks.
fn golden_frames() -> Vec<(&'static str, Frame)> {
    let reply = QueryReply {
        subject_ids: vec!["sp|P12345|TEST".to_string()],
        result: QueryResult {
            query_index: 0,
            alignments: vec![Alignment {
                subject: 7,
                aln: align::GappedAlignment {
                    q_start: 3,
                    q_end: 40,
                    s_start: 5,
                    s_end: 42,
                    score: 118,
                    ops: vec![align::AlignOp::Sub, align::AlignOp::Ins, align::AlignOp::Del],
                },
                bit_score: 50.25,
                evalue: 0.0009765625, // 2^-10: exactly representable
            }],
            counts: StageCounts {
                hits: 1000,
                pairs: 200,
                extensions: 40,
                seeds: 8,
                gapped: 2,
                reported: 1,
            },
        },
    };
    vec![
        (
            "results_degraded",
            Frame::Results(SearchResponse {
                replies: vec![reply],
                trace_id: 99,
                trace: None,
                degraded: Some(Degraded {
                    failed_shards: vec![1, 3],
                    coverage_residues: 70_000,
                    total_residues: 100_000,
                }),
                blocks_scanned: 6,
                blocks_skipped: 18,
            }),
        ),
        (
            "search_topk",
            Frame::Search(SearchRequest {
                fasta: ">q1\nMKVLAWCHW\n".to_string(),
                engine: engine::EngineKind::MuBlastp,
                overrides: ParamOverrides {
                    evalue_cutoff: Some(0.125),
                    max_reported: None,
                    seg_filter: None,
                    top_k: Some(10),
                },
                deadline_ms: 500,
                trace_id: 7,
                want_trace: false,
            }),
        ),
        (
            "stats_sharded",
            Frame::Stats(Box::new(StatsReport {
                queue_depth: 2,
                queue_cap: 64,
                max_depth_seen: 9,
                accepted: 120,
                rejected: 3,
                expired: 1,
                completed: 116,
                batches: 40,
                batch_hist: vec![10, 20, 10],
                queue_wait: LatencySummary { count: 116, p50_us: 40, p99_us: 900, max_us: 1200 },
                search: LatencySummary { count: 116, p50_us: 700, p99_us: 4000, max_us: 5000 },
                total: LatencySummary { count: 116, p50_us: 800, p99_us: 5000, max_us: 6100 },
                stages: vec![StageLatency {
                    stage: obsv::Stage::Seed,
                    latency: LatencySummary { count: 12, p50_us: 5, p99_us: 11, max_us: 13 },
                }],
                shards: vec![
                    ShardStat {
                        shard: 0,
                        seqs: 50,
                        residues: 14_000,
                        queued: LatencySummary { count: 40, p50_us: 3, p99_us: 9, max_us: 12 },
                        search: LatencySummary { count: 40, p50_us: 600, p99_us: 3000, max_us: 3600 },
                        failures: 0,
                    },
                    ShardStat {
                        shard: 1,
                        seqs: 49,
                        residues: 13_900,
                        queued: LatencySummary::default(),
                        search: LatencySummary::default(),
                        failures: 4,
                    },
                ],
                degraded: 4,
                index_resident_bytes: 262_144,
                cache_budget_bytes: 65_536,
                cache_used_bytes: 61_440,
                cache_hits: 3_000,
                cache_misses: 180,
                cache_evictions: 75,
                shard_fail_injected: 4,
                shard_fail_deadline: 1,
                shard_fail_storage: 2,
                slow_queries: 6,
                retry_attempts: 15,
                retry_exhausted: 3,
                events_logged: 12,
                events_dropped: 1,
                cache_fetched_blocks: 181,
                cache_fetched_bytes: 92_160,
                cache_decode_ns: 7_500_000,
                cache_decoded_postings: 44_000,
                metrics_text: "# TYPE serve_batcher_accepted counter\nserve_batcher_accepted 120\n"
                    .to_string(),
                topk_requests: 9,
                topk_blocks_scanned: 36,
                topk_blocks_skipped: 108,
            })),
        ),
        (
            "error_overloaded",
            Frame::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "queue full".to_string(),
                retry_after_ms: 250,
            }),
        ),
    ]
}

/// The committed fixture bytes match today's encoder and decode back to
/// the frames they were written from.
#[test]
fn golden_fixtures_pin_the_wire_bytes() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("PROTO_BLESS").is_some();
    for (name, frame) in golden_frames() {
        let bytes = encode_frame(&frame);
        let path = dir.join(format!("{name}.v{PROTO_VERSION}.bin"));
        if bless {
            std::fs::create_dir_all(&dir).expect("create fixtures dir");
            std::fs::write(&path, &bytes).expect("write fixture");
            continue;
        }
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with PROTO_BLESS=1)", path.display()));
        assert_eq!(
            golden, bytes,
            "{name}: encoder bytes drifted from the committed fixture (an intentional \
             format change must bump the version and re-bless)"
        );
        assert_eq!(
            decode_frame(&golden).as_ref(),
            Ok(&frame),
            "{name}: fixture decodes"
        );
    }
    assert!(!bless, "PROTO_BLESS run regenerated fixtures; unset it and re-run to verify");
}

#[test]
fn valid_header_with_hostile_payload_never_panics() {
    // Keep the header valid so corruption exercises the payload parsers,
    // not just the magic/version checks.
    let mut rng = Rng(0x5EED_0005);
    for _case in 0..300 {
        let frame_type = (rng.below(9)) as u8; // includes unknown types
        let payload_len = rng.usize_below(48);
        let payload: Vec<u8> = (0..payload_len).map(|_| rng.below(256) as u8).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(serve::proto::MAGIC);
        bytes.extend_from_slice(&serve::proto::PROTO_VERSION.to_le_bytes());
        bytes.push(frame_type);
        bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode_frame(&bytes);
    }
}
