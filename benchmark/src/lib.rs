//! One end-to-end benchmark through the daemon wire, with a per-layer
//! budget.
//!
//! The real server (`serve::serve_with_stats` over a loopback
//! `TcpTransport`, daemon defaults) runs in this process; `serve::Client`
//! drives it over real TCP from at most `nproc` connections. A *timed* run
//! ([`run_timed`], tracing off) yields the end-to-end metrics a user of
//! the daemon would see; a separate *traced* run ([`run_traced`]) yields
//! the per-layer metrics and a span file. Both refuse to call a run
//! correct unless every wire reply matches a direct exhaustive search.
//!
//! See `README.md` for the metric and workload definitions and for the
//! table of which layer should move which end-to-end number.

pub mod calib;
pub mod check;
pub mod corpus;
pub mod json;
pub mod layers;
pub mod load;
pub mod server;
pub mod trace;
pub mod workload;

use crate::load::{Phase, Plan};
use crate::workload::{Arrival, Inputs, Spec};
use obsv::ObsvConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: name and unit, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (layer = crate name): name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("bioseq.fasta_parse_mb_per_s", "MB/s"),
    ("bioseq.query_parse_us", "us"),
    ("scoring.neighbors_build_ms", "ms"),
    ("dbindex.build_mres_per_s", "Mres/s"),
    ("dbindex.index_bytes_per_residue", "B/res"),
    ("dbindex.blocks", "count"),
    ("dbindex.store_bytes_per_residue", "B/res"),
    ("dbindex.block_encode_ns_per_posting", "ns"),
    ("dbindex.block_decode_ns_per_posting", "ns"),
    ("blockstore.store_build_s", "s"),
    ("blockstore.fetch_miss_us_per_block", "us"),
    ("blockstore.fetch_hit_ns_per_block", "ns"),
    ("blockstore.cache_hit_rate", "ratio"),
    ("blockstore.evictions_per_query", "count"),
    ("blockstore.fetched_bytes_per_query", "B"),
    ("engine.direct_ms_per_query", "ms"),
    ("engine.direct_ms_per_query_1t", "ms"),
    ("engine.stage_seed_ms_per_query", "ms"),
    ("engine.stage_reorder_ms_per_query", "ms"),
    ("engine.stage_ungapped_ms_per_query", "ms"),
    ("engine.stage_gapped_ms_per_query", "ms"),
    ("engine.stage_finish_ms_per_query", "ms"),
    ("engine.hits_per_query", "count"),
    ("engine.pairs_per_query", "count"),
    ("engine.extensions_per_query", "count"),
    ("engine.gapped_per_query", "count"),
    ("engine.reported_per_query", "count"),
    ("engine.prefilter_survival", "ratio"),
    ("engine.extension_yield", "ratio"),
    ("engine.blocks_skipped_share", "ratio"),
    ("engine.shard_merge_us", "us"),
    ("engine.shard_imbalance", "ratio"),
    ("align.ungapped_ns_per_cell", "ns"),
    ("align.gapped_ns_per_cell", "ns"),
    ("sorting.radix_ns_per_key", "ns"),
    ("parallel.dispatch_ns_per_task", "ns"),
    ("parallel.speedup_nproc", "ratio"),
    ("serve.request_encode_us", "us"),
    ("serve.request_decode_us", "us"),
    ("serve.results_encode_us", "us"),
    ("serve.results_decode_us", "us"),
    ("serve.results_bytes_per_query", "B"),
    ("serve.wire_rtt_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.search_p50_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.outside_engine_share", "ratio"),
    ("obsv.trace_overhead_share", "ratio"),
    ("obsv.metrics_render_us", "us"),
    ("benchmark.failed_share", "ratio"),
    ("benchmark.machine_speed", "ratio"),
    ("benchmark.sched_late_p95_ms", "ms"),
    ("benchmark.unattributed_share", "ratio"),
    ("benchmark.replay_coverage", "ratio"),
];

/// Set-ups per timed run; `setup_s` is the mean of their fastest third.
const SETUPS: usize = 11;
/// Warm-up before each timed phase, as a share of its length.
const WARMUP_SHARE: f64 = 0.05;
/// Pool entries replayed for the direct-engine and stage measurements.
const DIRECT_REQUESTS: usize = 12;
/// Pool entries replayed by hand with spans.
const REPLAY_REQUESTS: usize = 8;

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// 1.0 is the benchmark; smaller shrinks database and pool (tests).
    pub scale: f64,
    /// Where store files and span files go.
    pub out_dir: PathBuf,
}

/// What one run found.
pub struct Report {
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Error frames + I/O errors + incorrect results among them.
    pub failed: u64,
    /// Why the first failure failed.
    pub failure: Option<String>,
    /// `(name, value, unit)` in the order of [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sizes and settings worth printing next to the numbers.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line of the driver contract. A run that attempted
    /// nothing or measured a non-finite value has no result line.
    pub fn to_json(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no request was attempted".to_string());
        }
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The `q` quantile of unsorted values the way Python's
/// `statistics.quantiles` cuts (the acceptance rule's definition): it sits
/// at position `q (n + 1)` of the sorted values, interpolated linearly and
/// clamped to their range. 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n + 1) as f64;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let t = (pos - j as f64).clamp(0.0, 1.0);
            v[j - 1] + (v[j] - v[j - 1]) * t
        }
    }
}

/// High-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn plan_for(spec: &Spec, seconds: f64, seed: u64) -> Plan {
    match spec.arrival {
        Arrival::Closed => Plan::ClosedFor { seconds },
        Arrival::Open { rate } => Plan::Open {
            due: corpus::poisson_schedule(rate, seconds, seed),
        },
    }
}

/// The fastest third of `items` (at least one), fastest first.
fn fastest_third<T>(mut items: Vec<T>, seconds: impl Fn(&T) -> f64) -> Vec<T> {
    items.sort_by(|a, b| seconds(a).total_cmp(&seconds(b)));
    items.truncate(items.len().div_ceil(3));
    items
}

/// A stretch of the timed phase between two readings of the speed probe.
struct Slice {
    /// Its requests, as a range of the phase's samples.
    samples: std::ops::Range<usize>,
    /// First send to last reply.
    seconds: f64,
    /// Mean of the probe's readings before and after.
    speed: f64,
}

/// The timed phase: slices of load with the speed probe read in between.
///
/// The reference box is a shared VM that neighbours slow by up to 1.8
/// times for seconds to minutes (see [`calib`]), so the same code reads
/// 30 % apart from one run to the next. Two things take the machine out
/// of the closed-loop timings. A slice is one pass over the request pool —
/// the same work every time — and every duration in it is multiplied by
/// the speed the probe read around it, which turns it into seconds of the
/// undisturbed reference box. And the timings come from the third of the
/// slices that ran fastest: a change to the code moves every slice and so
/// moves this third, while a disturbance shorter than the probe's spacing
/// mostly moves which slices are in it.
///
/// The open-loop phase is one slice at speed 1, as measured: the server
/// idles between its requests, and read after an idle stretch the probe
/// came out at half speed while the requests had not slowed; and no two
/// stretches of a Poisson schedule offer the same load, so there is
/// nothing to rank.
struct TimedPhase {
    phase: Phase,
    slices: Vec<Slice>,
}

fn run_slices(spec: &Spec, opts: &Opts, inputs: &Inputs, conns: &mut [load::Conn]) -> TimedPhase {
    let epoch = Instant::now();
    let mut drive =
        |plan: &Plan| load::run_phase(conns, &inputs.requests, plan, 0, spec.top_k, false, epoch);
    if let Arrival::Open { rate } = spec.arrival {
        let phase = drive(&Plan::Open {
            due: corpus::poisson_schedule(rate, opts.seconds, opts.seed),
        });
        let whole = Slice {
            samples: 0..phase.samples.len(),
            seconds: phase.wall_s,
            speed: 1.0,
        };
        return TimedPhase {
            phase,
            slices: vec![whole],
        };
    }
    let threads = parallel::default_threads();
    let mut timed = TimedPhase {
        phase: Phase::empty(inputs.requests.len(), epoch),
        slices: Vec::new(),
    };
    let mut before = calib::speed(threads);
    while epoch.elapsed().as_secs_f64() < opts.seconds {
        let part = drive(&Plan::Closed {
            requests: inputs.requests.len(),
        });
        let after = calib::speed(threads);
        let start = timed.phase.samples.len();
        timed.slices.push(Slice {
            samples: start..start + part.samples.len(),
            seconds: part.wall_s,
            speed: (before + after) / 2.0,
        });
        timed.phase.wall_s += part.wall_s;
        timed.phase.absorb(part);
        before = after;
    }
    timed
}

/// Requests of the phase that got a reply and passed the gate.
fn passed(phase: &Phase, pass: &[bool]) -> usize {
    phase
        .samples
        .iter()
        .filter(|s| s.ok && pass[s.pool])
        .count()
}

type Metrics = BTreeMap<&'static str, f64>;

fn order_metrics(
    defs: &[(&'static str, &'static str)],
    mut values: Metrics,
) -> Vec<(&'static str, f64, &'static str)> {
    let out = defs
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    assert!(
        values.is_empty(),
        "unlisted metrics measured: {:?}",
        values.keys()
    );
    out
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The timed run: set up [`SETUPS`] times, warm up, measure for
/// `opts.seconds` with tracing off, then gate every reply.
pub fn run_timed(spec: &Spec, opts: &Opts) -> Result<Report, String> {
    let threads = parallel::default_threads();
    let inputs = workload::generate(spec, opts.seed, opts.scale);
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        drop(running.take()); // one server's memory at a time
        let (server, secs) = server::start(
            spec,
            &inputs.fasta,
            threads,
            ObsvConfig::off(),
            &opts.out_dir,
        )?;
        setups.push(secs);
        running = Some(server);
    }
    let server = running.expect("SETUPS > 0");
    let mut conns = load::connect(&server.addr, threads)?;
    load::run_phase(
        &mut conns,
        &inputs.requests,
        &Plan::ClosedFor {
            seconds: opts.seconds * WARMUP_SHARE,
        },
        0,
        spec.top_k,
        false,
        Instant::now(),
    );
    let TimedPhase { phase, slices } = run_slices(spec, opts, &inputs, &mut conns);
    let rss = peak_rss_mb();
    let stats = server.handle.stats();
    let speeds: Vec<f64> = slices.iter().map(|s| s.speed).collect();
    let mut notes = vec![
        format!(
            "nproc {threads}, {} connections, scale {}",
            conns.len(),
            opts.scale
        ),
        format!(
            "database {} sequences / {} residues, index {} B decoded, block cache {} B",
            inputs.seqs.len(),
            inputs.seqs.iter().map(|s| s.len()).sum::<usize>(),
            server.index_bytes,
            server.cache_budget
        ),
        format!(
            "{} requests in {} slices, {:.3} s, from a pool of {}; server rejected {}, \
             expired {}, {:.2} requests per batch",
            phase.samples.len(),
            slices.len(),
            phase.wall_s,
            inputs.requests.len(),
            stats.rejected,
            stats.expired,
            per(stats.completed as f64, stats.batches as f64)
        ),
        format!(
            "machine speed by slice (1 = undisturbed reference box): min {:.3}, median {:.3}, \
             max {:.3}",
            quantile(&speeds, 0.0),
            quantile(&speeds, 0.5),
            quantile(&speeds, 1.0)
        ),
    ];
    drop(conns);
    drop(server);

    let resident = check::Resident::build(&inputs.seqs, threads);
    let (pass, failure) = check::verify(&resident, spec, &inputs, &phase.first, threads);
    let good = passed(&phase, &pass);
    let is_good = |s: &&load::Sample| s.ok && pass[s.pool];
    // Mean latency of a slice in reference seconds: what ranks it.
    let cost = |slice: &Slice| {
        let sum: f64 = phase.samples[slice.samples.clone()]
            .iter()
            .map(|s| s.latency_s)
            .sum();
        sum * slice.speed / slice.samples.len().max(1) as f64
    };
    let counted = fastest_third(slices, cost);
    let latencies: Vec<f64> = counted
        .iter()
        .flat_map(|slice| {
            phase.samples[slice.samples.clone()]
                .iter()
                .filter(is_good)
                .map(|s| s.latency_s * slice.speed * 1e3)
        })
        .collect();
    let queries = (latencies.len() * spec.queries_per_request) as f64;
    let queries_per_s = per(queries, counted.iter().map(|s| s.seconds * s.speed).sum());
    let whole: Vec<f64> = phase.samples.iter().map(|s| s.latency_s * 1e3).collect();
    notes.push(format!(
        "as measured, whole phase: {:.3} queries/s, latency p50 {:.3} / p90 {:.3} / p99 {:.3} ms, \
         failed_share {}; the timings below are in reference seconds, over {} of these requests",
        per((good * spec.queries_per_request) as f64, phase.wall_s),
        quantile(&whole, 0.5),
        quantile(&whole, 0.9),
        quantile(&whole, 0.99),
        per(
            (phase.samples.len() - good) as f64,
            phase.samples.len() as f64
        ),
        latencies.len()
    ));
    let setups = fastest_third(setups, |&s| s);
    let mut m = Metrics::new();
    m.insert("queries_per_s", queries_per_s);
    m.insert("latency_p50_ms", quantile(&latencies, 0.5));
    m.insert("latency_p90_ms", quantile(&latencies, 0.9));
    m.insert("peak_rss_mb", rss);
    m.insert("setup_s", setups.iter().sum::<f64>() / setups.len() as f64);
    Ok(Report {
        attempted: phase.samples.len() as u64,
        failed: (phase.samples.len() - good) as u64,
        failure,
        metrics: order_metrics(&END_TO_END, m),
        notes,
    })
}

/// bioseq, scoring, dbindex, blockstore: the pieces of set-up, each alone.
/// Returns the resident index it built.
fn setup_layers(
    m: &mut Metrics,
    inputs: &Inputs,
    threads: usize,
) -> Result<check::Resident, String> {
    let residues = inputs.seqs.iter().map(|s| s.len()).sum::<usize>() as f64;
    let parse_s = layers::median_secs(3, || {
        std::hint::black_box(bioseq::read_fasta(&inputs.fasta[..]).map_or(0, |v| v.len()));
    });
    m.insert(
        "bioseq.fasta_parse_mb_per_s",
        per(inputs.fasta.len() as f64 / 1e6, parse_s),
    );
    let neighbors_s = layers::median_secs(3, || {
        std::hint::black_box(scoring::NeighborTable::build(&scoring::BLOSUM62, 11));
    });
    m.insert("scoring.neighbors_build_ms", neighbors_s * 1e3);
    let t0 = Instant::now();
    let resident = check::Resident::build(&inputs.seqs, threads);
    let build_s = t0.elapsed().as_secs_f64() - neighbors_s;
    m.insert("dbindex.build_mres_per_s", per(residues / 1e6, build_s));
    m.insert(
        "dbindex.index_bytes_per_residue",
        resident.index.memory_bytes() as f64 / residues,
    );
    m.insert("dbindex.blocks", resident.index.blocks().len() as f64);
    let store = layers::store_layer(&resident.index)?;
    m.insert(
        "dbindex.store_bytes_per_residue",
        store.store_bytes as f64 / residues,
    );
    m.insert(
        "dbindex.block_encode_ns_per_posting",
        store.encode_ns_per_posting,
    );
    m.insert(
        "dbindex.block_decode_ns_per_posting",
        store.decode_ns_per_posting,
    );
    m.insert(
        "blockstore.fetch_miss_us_per_block",
        store.miss_us_per_block,
    );
    m.insert("blockstore.fetch_hit_ns_per_block", store.hit_ns_per_block);
    Ok(resident)
}

/// engine stage split and work funnel over `requests`, then align and
/// sorting at the sizes that run measured.
fn engine_layers(
    m: &mut Metrics,
    resident: &check::Resident,
    requests: &[workload::Request],
    seed: u64,
) {
    let (results, stages) = layers::stage_split(resident, requests);
    let n = results.len().max(1) as f64;
    let totals = stages.stage_totals();
    let stage_ms = |stage: obsv::Stage| {
        totals
            .iter()
            .find(|t| t.stage == stage)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6)
    };
    use obsv::Stage::{Finish, Gapped, Reorder, Seed, TwoHit, Ungapped};
    m.insert(
        "engine.stage_seed_ms_per_query",
        (stage_ms(Seed) + stage_ms(TwoHit)) / n,
    );
    m.insert("engine.stage_reorder_ms_per_query", stage_ms(Reorder) / n);
    m.insert("engine.stage_ungapped_ms_per_query", stage_ms(Ungapped) / n);
    m.insert("engine.stage_gapped_ms_per_query", stage_ms(Gapped) / n);
    m.insert(
        "engine.stage_finish_ms_per_query",
        (stage_ms(Finish) - stage_ms(Gapped)) / n,
    );
    let max_reported = server::base_config(1).params.max_reported;
    m.insert(
        "engine.shard_merge_us",
        layers::shard_merge_us(&results, max_reported),
    );
    let mut funnel = engine::StageCounts::default();
    for r in &results {
        funnel.add(&r.counts);
    }
    m.insert("engine.hits_per_query", funnel.hits as f64 / n);
    m.insert("engine.pairs_per_query", funnel.pairs as f64 / n);
    m.insert("engine.extensions_per_query", funnel.extensions as f64 / n);
    m.insert("engine.gapped_per_query", funnel.gapped as f64 / n);
    m.insert("engine.reported_per_query", funnel.reported as f64 / n);
    m.insert("engine.prefilter_survival", funnel.prefilter_survival());
    m.insert(
        "engine.extension_yield",
        per(funnel.seeds as f64, funnel.extensions as f64),
    );
    let (ungapped, gapped) = layers::kernel_ns_per_cell(seed);
    m.insert("align.ungapped_ns_per_cell", ungapped);
    m.insert("align.gapped_ns_per_cell", gapped);
    let pairs_per_block = funnel.pairs as f64 / n / resident.index.blocks().len().max(1) as f64;
    m.insert(
        "sorting.radix_ns_per_key",
        layers::radix_ns_per_key(pairs_per_block as usize, seed),
    );
}

/// The traced run: per-layer metrics and a span file. The wire is driven
/// twice for a quarter of `opts.seconds` each — untraced, then with the
/// server recording and every request asking for its spans — and the
/// first requests of the pool are then replayed through the layers by
/// hand.
pub fn run_traced(spec: &Spec, opts: &Opts) -> Result<Report, String> {
    let threads = parallel::default_threads();
    let inputs = workload::generate(spec, opts.seed, opts.scale);
    let mut m = Metrics::new();
    let speed_at_start = calib::speed(threads);
    let resident = setup_layers(&mut m, &inputs, threads)?;

    // serve + obsv: the wire, untraced and traced, on one tracing server.
    let (server, _) = server::start(
        spec,
        &inputs.fasta,
        threads,
        ObsvConfig::on(),
        &opts.out_dir,
    )?;
    m.insert("blockstore.store_build_s", server.store_build_s);
    let mut conns = load::connect(&server.addr, threads)?;
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        conns[0]
            .stats()
            .map_err(|e| format!("stats round trip: {e}"))?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.insert("serve.wire_rtt_us", quantile(&rtt, 0.5));
    let epoch = Instant::now();
    let seconds = opts.seconds / 4.0;
    let plan = plan_for(spec, seconds, opts.seed);
    let mut drive = |plan: &Plan, traced: bool| {
        load::run_phase(
            &mut conns,
            &inputs.requests,
            plan,
            0,
            spec.top_k,
            traced,
            epoch,
        )
    };
    drive(
        &Plan::ClosedFor {
            seconds: seconds * WARMUP_SHARE,
        },
        false,
    );
    let before = server.handle.stats();
    let plain = drive(&plan, false);
    let stats = server.handle.stats();
    let mut traced = drive(&plan, true);
    drop(conns);
    let render_s = layers::median_secs(20, || {
        std::hint::black_box(server.handle.render_metrics());
    });
    m.insert("obsv.metrics_render_us", render_s * 1e6);

    let plain_queries = (plain.samples.len() * spec.queries_per_request) as f64;
    let hits = (stats.cache_hits - before.cache_hits) as f64;
    let misses = (stats.cache_misses - before.cache_misses) as f64;
    let evictions = (stats.cache_evictions - before.cache_evictions) as f64;
    let fetched = (stats.cache_fetched_bytes - before.cache_fetched_bytes) as f64;
    m.insert("blockstore.cache_hit_rate", per(hits, hits + misses));
    m.insert(
        "blockstore.evictions_per_query",
        per(evictions, plain_queries),
    );
    m.insert(
        "blockstore.fetched_bytes_per_query",
        per(fetched, plain_queries),
    );
    // The stats frame's latency digests are log2-bucketed; the spans the
    // server returns with a traced reply carry the same times exactly.
    let queue_wait: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.queue_wait_s * 1e6)
        .collect();
    let search: Vec<f64> = traced.samples.iter().map(|s| s.search_s * 1e6).collect();
    m.insert("serve.queue_wait_p50_us", quantile(&queue_wait, 0.5));
    m.insert("serve.search_p50_us", quantile(&search, 0.5));
    m.insert(
        "serve.batch_size_mean",
        per(stats.completed as f64, stats.batches as f64),
    );
    m.insert("serve.rejected", stats.rejected as f64);
    m.insert("serve.expired", stats.expired as f64);
    let blocks = (plain.blocks_scanned + plain.blocks_skipped) as f64;
    m.insert(
        "engine.blocks_skipped_share",
        per(plain.blocks_skipped as f64, blocks),
    );
    let lateness: Vec<f64> = plain.samples.iter().map(|s| s.late_s * 1e3).collect();
    m.insert("benchmark.sched_late_p95_ms", quantile(&lateness, 0.95));
    let requests_per_s = |p: &Phase| per(p.samples.len() as f64, p.wall_s);
    m.insert(
        "obsv.trace_overhead_share",
        1.0 - per(requests_per_s(&traced), requests_per_s(&plain)),
    );

    // engine, parallel: the same requests with no server in the way.
    let direct = &inputs.requests[..DIRECT_REQUESTS.min(inputs.requests.len())];
    let direct_ms = layers::direct_ms_per_query(&server.ctx, spec, direct, threads);
    let direct_ms_1t = layers::direct_ms_per_query(&server.ctx, spec, direct, 1);
    m.insert("engine.direct_ms_per_query", direct_ms);
    m.insert("engine.direct_ms_per_query_1t", direct_ms_1t);
    m.insert("parallel.speedup_nproc", per(direct_ms_1t, direct_ms));
    m.insert(
        "parallel.dispatch_ns_per_task",
        layers::dispatch_ns_per_task(threads),
    );
    let latencies: Vec<f64> = plain.samples.iter().map(|s| s.latency_s * 1e3).collect();
    let engine_ms_per_request = direct_ms * spec.queries_per_request as f64;
    m.insert(
        "serve.outside_engine_share",
        1.0 - per(engine_ms_per_request, quantile(&latencies, 0.5)),
    );

    // The by-hand replay, and the span file.
    let replayed = &inputs.requests[..REPLAY_REQUESTS.min(inputs.requests.len())];
    let replay = layers::replay(&server.ctx, spec, replayed, threads, epoch)?;
    drop(server);
    let mut spans = std::mem::replace(&mut traced.spans, trace::Spans::new(epoch));
    spans.absorb(replay.spans);
    m.insert(
        "serve.request_encode_us",
        spans.mean_us("serve.encode_request"),
    );
    m.insert(
        "serve.results_decode_us",
        spans.mean_us("serve.decode_results"),
    );
    m.insert(
        "serve.request_decode_us",
        spans.mean_us("serve.decode_request"),
    );
    m.insert("bioseq.query_parse_us", spans.mean_us("bioseq.parse"));
    m.insert("engine.shard_imbalance", spans.imbalance("engine.shard"));
    m.insert(
        "serve.results_encode_us",
        spans.mean_us("serve.encode_results"),
    );
    m.insert(
        "serve.results_bytes_per_query",
        replay.results_bytes_per_query,
    );
    m.insert(
        "benchmark.unattributed_share",
        1.0 - per(spans.mean_us("replay"), spans.mean_us("request")),
    );
    let names = spans.by_name();
    let replay_total = names.get("replay").copied().unwrap_or_default();
    m.insert(
        "benchmark.replay_coverage",
        1.0 - per(replay_total.self_ns as f64, replay_total.total_ns as f64),
    );
    let span_file = opts.out_dir.join(format!("{}.trace.json", spec.name));
    spans
        .write_chrome(&span_file)
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;

    engine_layers(&mut m, &resident, direct, opts.seed);
    // The per-layer timings are as measured; this says on what machine.
    m.insert(
        "benchmark.machine_speed",
        (speed_at_start + calib::speed(threads)) / 2.0,
    );

    // The gate, over both wire phases.
    let mut attempted = 0;
    let mut failed = 0;
    let mut failure = None;
    for phase in [&plain, &traced] {
        let (pass, why) = check::verify(&resident, spec, &inputs, &phase.first, threads);
        attempted += phase.samples.len();
        failed += phase.samples.len() - passed(phase, &pass);
        failure = failure.or(why);
    }
    m.insert(
        "benchmark.failed_share",
        per(failed as f64, attempted as f64),
    );
    let mut notes = vec![format!("span file {}", span_file.display())];
    notes.extend(names.iter().map(|(name, t)| {
        format!(
            "span {name:<24} n {:>6}  total {:>12.3} ms  self {:>12.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
    }));
    Ok(Report {
        attempted: attempted as u64,
        failed: failed as u64,
        failure,
        metrics: order_metrics(&PER_LAYER, m),
        notes,
    })
}

/// Send every pool entry once and gate the replies — the correctness
/// check alone, with no timing.
pub fn run_check(spec: &Spec, opts: &Opts) -> Result<Report, String> {
    let threads = parallel::default_threads();
    let inputs = workload::generate(spec, opts.seed, opts.scale);
    let (server, _) = server::start(
        spec,
        &inputs.fasta,
        threads,
        ObsvConfig::off(),
        &opts.out_dir,
    )?;
    let mut conns = load::connect(&server.addr, threads)?;
    let once = Plan::Open {
        due: vec![0.0; inputs.requests.len()],
    };
    let phase = load::run_phase(
        &mut conns,
        &inputs.requests,
        &once,
        0,
        spec.top_k,
        false,
        Instant::now(),
    );
    drop(conns);
    drop(server);
    let resident = check::Resident::build(&inputs.seqs, threads);
    let (pass, failure) = check::verify(&resident, spec, &inputs, &phase.first, threads);
    Ok(Report {
        attempted: phase.samples.len() as u64,
        failed: (phase.samples.len() - passed(&phase, &pass)) as u64,
        failure,
        metrics: Vec::new(),
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_cuts_like_python_statistics() {
        // statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(
            [0.25, 0.5, 0.75].map(|q| quantile(&v, q)),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let v = [3.0, 1.0, 2.0];
        assert_eq!([0.25, 0.5, 0.75].map(|q| quantile(&v, q)), [1.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.99), 3.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_needs_requests_and_finite_values() {
        let mut report = Report {
            attempted: 3,
            failed: 1,
            failure: None,
            metrics: vec![("setup_s", 0.5, "s")],
            notes: Vec::new(),
        };
        let line = json::Json::parse(&report.to_json().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&json::Json::Bool(false)));
        assert_eq!(
            line.get("attempted").and_then(json::Json::as_f64),
            Some(3.0)
        );
        report.metrics[0].1 = f64::NAN;
        assert!(report.to_json().is_err());
        report.metrics[0].1 = 0.5;
        report.attempted = 0;
        assert!(report.to_json().is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
