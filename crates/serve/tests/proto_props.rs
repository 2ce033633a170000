//! Property tests for the wire protocol, driven by the seeded
//! [`faultfn::Rng`]:
//!
//! * every generated frame round-trips `encode → decode` exactly;
//! * every strict prefix of an encoding fails to decode (no partial reads
//!   silently succeed);
//! * arbitrary single-byte corruption and pure random byte soup never
//!   panic the decoder — frames cross a process boundary, so "garbage in"
//!   must always be "typed error (or valid frame) out", never a crash.

use engine::{Alignment, QueryResult, StageCounts};
use faultfn::golden::{check, check_or_bless};
use faultfn::Rng;
use serve::proto::{
    decode_frame, encode_frame, Degraded, ErrorCode, Frame, LatencySummary, ParamOverrides,
    ProtoError, QueryReply, SearchRequest, SearchResponse, ShardStat, StageLatency, StatsReport,
    WireError, PROTO_VERSION,
};

/// Uniform in `0..n` as a `u64` (`n == 0` yields 0).
fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

/// A finite, exactly-representable float (NaN would break equality
/// round-trip asserts even though the bits survive).
fn f64(rng: &mut Rng) -> f64 {
    (below(rng, 2_000_001) as f64 - 1_000_000.0) / 64.0
}

fn string(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| char::from(b'a' + (below(rng, 26) as u8)))
        .collect()
}

fn bool(rng: &mut Rng) -> bool {
    below(rng, 2) == 1
}

fn random_counts(rng: &mut Rng) -> StageCounts {
    StageCounts {
        hits: below(rng, 1 << 40),
        pairs: below(rng, 1 << 30),
        extensions: below(rng, 1 << 20),
        seeds: below(rng, 1 << 16),
        gapped: below(rng, 1 << 12),
        reported: below(rng, 1 << 8),
    }
}

fn random_alignment(rng: &mut Rng) -> Alignment {
    let n_ops = rng.below(12);
    let ops = (0..n_ops)
        .map(|_| match below(rng, 3) {
            0 => align::AlignOp::Sub,
            1 => align::AlignOp::Ins,
            _ => align::AlignOp::Del,
        })
        .collect();
    Alignment {
        subject: below(rng, 1 << 20) as u32,
        aln: align::GappedAlignment {
            q_start: below(rng, 500) as u32,
            q_end: below(rng, 500) as u32 + 500,
            s_start: below(rng, 500) as u32,
            s_end: below(rng, 500) as u32 + 500,
            score: below(rng, 10_000) as i32 - 5_000,
            ops,
        },
        bit_score: f64(rng),
        evalue: f64(rng),
    }
}

fn random_latency(rng: &mut Rng) -> LatencySummary {
    LatencySummary {
        count: below(rng, 1 << 30),
        p50_us: below(rng, 1 << 20),
        p99_us: below(rng, 1 << 24),
        max_us: below(rng, 1 << 28),
    }
}

fn random_stage(rng: &mut Rng) -> obsv::Stage {
    let all = obsv::Stage::ALL;
    all[rng.below(all.len())]
}

/// A trace as it appears inside a decoded response: every span stamped
/// with the response's trace id (the per-span id is not on the wire).
fn random_trace(rng: &mut Rng, trace_id: u64) -> obsv::Trace {
    let n = rng.below(6);
    obsv::Trace {
        spans: (0..n)
            .map(|i| obsv::SpanRecord {
                trace_id,
                seq: i as u64,
                stage: random_stage(rng),
                query: below(rng, 8) as u32,
                block: below(rng, 4) as u32,
                worker: below(rng, 4) as u32,
                start_ns: below(rng, 1 << 40),
                dur_ns: below(rng, 1 << 30),
            })
            .collect(),
        dropped: below(rng, 4),
    }
}

fn random_frame(rng: &mut Rng) -> Frame {
    match below(rng, 7) {
        0 => Frame::Search(SearchRequest {
            fasta: format!(">q\n{}\n", string(rng, 64)),
            engine: match below(rng, 3) {
                0 => engine::EngineKind::QueryIndexed,
                1 => engine::EngineKind::DbInterleaved,
                _ => engine::EngineKind::MuBlastp,
            },
            overrides: ParamOverrides {
                evalue_cutoff: bool(rng).then(|| f64(rng)),
                max_reported: bool(rng).then(|| below(rng, 1 << 16) as u32),
                seg_filter: bool(rng).then(|| bool(rng)),
                top_k: bool(rng).then(|| below(rng, 1 << 10) as u32),
            },
            deadline_ms: below(rng, 1 << 20) as u32,
            trace_id: below(rng, 1 << 48),
            want_trace: bool(rng),
        }),
        1 => {
            let n_replies = rng.below(4);
            let replies = (0..n_replies)
                .map(|qi| {
                    let n_alns = rng.below(5);
                    let alignments: Vec<_> = (0..n_alns).map(|_| random_alignment(rng)).collect();
                    QueryReply {
                        subject_ids: (0..n_alns).map(|_| string(rng, 24)).collect(),
                        result: QueryResult {
                            query_index: qi,
                            alignments,
                            counts: random_counts(rng),
                        },
                    }
                })
                .collect();
            let trace_id = below(rng, 1 << 48);
            let trace = bool(rng).then(|| random_trace(rng, trace_id));
            let degraded = bool(rng).then(|| Degraded {
                failed_shards: (0..rng.below(4)).map(|_| below(rng, 64) as u32).collect(),
                coverage_residues: below(rng, 1 << 40),
                total_residues: below(rng, 1 << 40),
            });
            Frame::Results(SearchResponse {
                replies,
                trace_id,
                trace,
                degraded,
                blocks_scanned: below(rng, 1 << 20),
                blocks_skipped: below(rng, 1 << 20),
            })
        }
        2 => Frame::Error(WireError {
            code: match below(rng, 5) {
                0 => ErrorCode::BadRequest,
                1 => ErrorCode::Overloaded,
                2 => ErrorCode::DeadlineExceeded,
                3 => ErrorCode::ShuttingDown,
                _ => ErrorCode::Internal,
            },
            message: string(rng, 80),
            retry_after_ms: below(rng, 10_000) as u32,
        }),
        3 => Frame::StatsRequest,
        4 => Frame::Stats(Box::new(StatsReport {
            queue_depth: below(rng, 256) as u32,
            queue_cap: below(rng, 256) as u32,
            max_depth_seen: below(rng, 256) as u32,
            accepted: below(rng, 1 << 40),
            rejected: below(rng, 1 << 20),
            expired: below(rng, 1 << 16),
            completed: below(rng, 1 << 40),
            batches: below(rng, 1 << 32),
            batch_hist: (0..rng.below(9)).map(|_| below(rng, 1 << 20)).collect(),
            queue_wait: random_latency(rng),
            search: random_latency(rng),
            total: random_latency(rng),
            stages: (0..rng.below(4))
                .map(|_| StageLatency {
                    stage: random_stage(rng),
                    latency: random_latency(rng),
                })
                .collect(),
            shards: (0..rng.below(4))
                .map(|i| ShardStat {
                    shard: i as u32,
                    seqs: below(rng, 1 << 24),
                    residues: below(rng, 1 << 36),
                    queued: random_latency(rng),
                    search: random_latency(rng),
                    failures: below(rng, 1 << 16),
                })
                .collect(),
            degraded: below(rng, 1 << 20),
            index_resident_bytes: below(rng, 1 << 36),
            cache_budget_bytes: below(rng, 1 << 32),
            cache_used_bytes: below(rng, 1 << 32),
            cache_hits: below(rng, 1 << 40),
            cache_misses: below(rng, 1 << 30),
            cache_evictions: below(rng, 1 << 24),
            shard_fail_injected: below(rng, 1 << 16),
            shard_fail_deadline: below(rng, 1 << 16),
            shard_fail_storage: below(rng, 1 << 16),
            slow_queries: below(rng, 1 << 20),
            retry_attempts: below(rng, 1 << 20),
            retry_exhausted: below(rng, 1 << 12),
            events_logged: below(rng, 1 << 20),
            events_dropped: below(rng, 1 << 8),
            cache_fetched_blocks: below(rng, 1 << 24),
            cache_fetched_bytes: below(rng, 1 << 36),
            cache_decode_ns: below(rng, 1 << 40),
            cache_decoded_postings: below(rng, 1 << 32),
            metrics_text: string(rng, 120),
            topk_requests: below(rng, 1 << 20),
            topk_blocks_scanned: below(rng, 1 << 24),
            topk_blocks_skipped: below(rng, 1 << 24),
        })),
        5 => Frame::Shutdown,
        _ => Frame::ShutdownAck,
    }
}

#[test]
fn random_frames_roundtrip_exactly() {
    let mut rng = Rng::new(0x5EED_0001, 0);
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
    let mut rng = Rng::new(0x5EED_0006, 0);
    for case in 0..300 {
        let mut bytes = encode_frame(&random_frame(&mut rng));
        let version = match below(&mut rng, 3) {
            0 => below(&mut rng, 7) as u32,
            1 => 8,
            _ => rng.next_u64() as u32,
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
    let mut rng = Rng::new(0x5EED_0002, 0);
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
    let mut rng = Rng::new(0x5EED_0003, 0);
    for _case in 0..120 {
        let frame = random_frame(&mut rng);
        let mut bytes = encode_frame(&frame);
        let pos = rng.below(bytes.len());
        let flip = 1u8 << below(&mut rng, 8);
        bytes[pos] ^= flip;
        // Must return — Ok with altered content or a typed error are both
        // acceptable; a panic or abort is not.
        let _ = decode_frame(&bytes);
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = Rng::new(0x5EED_0004, 0);
    for _case in 0..300 {
        let len = rng.below(96);
        let bytes: Vec<u8> = (0..len).map(|_| below(&mut rng, 256) as u8).collect();
        let _ = decode_frame(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Golden byte fixtures: the committed encodings of fixed frames, one per
// frame variant and `Option` branch. They are the one pin on the wire
// format — any codec change that alters bytes (field order, widths, two
// same-width fields swapped) fails here even if it round-trips
// symmetrically. The file names carry `PROTO_VERSION`, so a layout change
// bumps it and `PROTO_BLESS=1` writes the new version's files once; a
// bless never rewrites an existing file.
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
        (
            "results_traced",
            Frame::Results(SearchResponse {
                replies: Vec::new(),
                trace_id: 41,
                trace: Some(obsv::Trace {
                    spans: vec![
                        obsv::SpanRecord {
                            trace_id: 41,
                            seq: 0,
                            stage: obsv::Stage::Seed,
                            query: 1,
                            block: 2,
                            worker: 3,
                            start_ns: 1_000,
                            dur_ns: 250,
                        },
                        obsv::SpanRecord {
                            trace_id: 41,
                            seq: 1,
                            stage: obsv::Stage::Gapped,
                            query: 4,
                            block: obsv::NO_BLOCK,
                            worker: 5,
                            start_ns: 1_300,
                            dur_ns: 70,
                        },
                    ],
                    dropped: 6,
                }),
                degraded: None,
                blocks_scanned: 2,
                blocks_skipped: 0,
            }),
        ),
        (
            "search_all_overrides",
            Frame::Search(SearchRequest {
                fasta: ">q2\nWCHWMKVLA\n".to_string(),
                engine: engine::EngineKind::DbInterleaved,
                overrides: ParamOverrides {
                    evalue_cutoff: Some(2.5),
                    max_reported: Some(25),
                    seg_filter: Some(true),
                    top_k: Some(3),
                },
                deadline_ms: 1_500,
                trace_id: 0x0102_0304,
                want_trace: true,
            }),
        ),
        ("stats_request", Frame::StatsRequest),
        ("shutdown", Frame::Shutdown),
        ("shutdown_ack", Frame::ShutdownAck),
    ]
}

/// The committed fixture bytes match today's encoder and decode back to
/// the frames they were written from.
#[test]
fn golden_fixtures_pin_the_wire_bytes() {
    let dir = fixtures_dir();
    for (name, frame) in golden_frames() {
        let bytes = encode_frame(&frame);
        let path = dir.join(format!("{name}.v{PROTO_VERSION}.bin"));
        if let Err(e) = check_or_bless(&path, &bytes, "PROTO_BLESS", "PROTO_VERSION") {
            panic!("{name}: {e}");
        }
        assert_eq!(
            decode_frame(&bytes).as_ref(),
            Ok(&frame),
            "{name}: fixture decodes"
        );
    }
}

#[test]
fn bless_refuses_to_rewrite_a_differing_fixture() {
    let dir = std::env::temp_dir().join(format!("proto-bless-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shipped = dir.join("frame.bin");
    std::fs::write(&shipped, [1u8, 2, 3]).unwrap();
    let err = check(&shipped, &[1, 2, 4], true, "PROTO_BLESS", "PROTO_VERSION").unwrap_err();
    assert!(err.contains("bump PROTO_VERSION"), "{err}");
    assert_eq!(
        std::fs::read(&shipped).unwrap(),
        [1, 2, 3],
        "a bless rewrote a shipped fixture"
    );

    let fresh = dir.join("new.bin");
    assert!(
        check(&fresh, &[9], false, "PROTO_BLESS", "PROTO_VERSION").is_err(),
        "a missing fixture fails without bless"
    );
    check(&fresh, &[9], true, "PROTO_BLESS", "PROTO_VERSION").unwrap();
    check(&fresh, &[9], false, "PROTO_BLESS", "PROTO_VERSION").unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn valid_header_with_hostile_payload_never_panics() {
    // Keep the header valid so corruption exercises the payload parsers,
    // not just the magic/version checks.
    let mut rng = Rng::new(0x5EED_0005, 0);
    for _case in 0..300 {
        let frame_type = (below(&mut rng, 9)) as u8; // includes unknown types
        let payload_len = rng.below(48);
        let payload: Vec<u8> = (0..payload_len).map(|_| below(&mut rng, 256) as u8).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(serve::proto::MAGIC);
        bytes.extend_from_slice(&serve::proto::PROTO_VERSION.to_le_bytes());
        bytes.push(frame_type);
        bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode_frame(&bytes);
    }
}
