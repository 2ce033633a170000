//! Smoke test: every workload end to end at a fiftieth of its size, and
//! the invariants that keep the benchmark comparable across commits.

use benchmark::json::Json;
use benchmark::workload::{self, WORKLOADS};
use benchmark::{Opts, Report, END_TO_END, PER_LAYER};
use std::path::Path;

/// Counters that must repeat bit for bit for a seed.
const EXACT: [&str; 10] = [
    "dbindex.blocks",
    "dbindex.index_bytes_per_residue",
    "dbindex.store_bytes_per_residue",
    "engine.hits_per_query",
    "engine.pairs_per_query",
    "engine.extensions_per_query",
    "engine.gapped_per_query",
    "engine.reported_per_query",
    "engine.prefilter_survival",
    "engine.extension_yield",
];

fn opts(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 0.4,
        scale: 0.02,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke"),
    }
}

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("valid JSON")
}

fn names(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .expect("section present")
        .as_array()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn listed(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn measured(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|&(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn exact(report: &Report) -> Vec<u64> {
    EXACT
        .iter()
        .map(|name| {
            let (_, v, _) = report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("exact counter listed");
            v.to_bits()
        })
        .collect()
}

#[test]
fn names_match_the_contract_and_every_workload_is_correct() {
    let doc = contract();
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(&doc, "end_to_end"), listed(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), listed(&PER_LAYER));
    assert_eq!(
        doc.get("paths").map(Json::as_array).unwrap_or_default(),
        [Json::Str("benchmark".into())]
    );

    for name in WORKLOADS {
        let spec = workload::spec(name).unwrap();
        let timed = benchmark::run_timed(&spec, &opts(1)).unwrap();
        assert_eq!(timed.failed, 0, "{name}: {:?}", timed.failure);
        assert!(timed.attempted > 0);
        assert_eq!(measured(&timed), listed(&END_TO_END));
        assert!(
            timed
                .metrics
                .iter()
                .all(|&(_, v, _)| v.is_finite() && v > 0.0),
            "{name}: a zero metric"
        );
        // The result line parses and carries every metric.
        let line = Json::parse(&timed.to_json().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (metric, _) in END_TO_END {
            assert!(
                line.get("metrics").and_then(|m| m.get(metric)).is_some(),
                "{name}: {metric} missing"
            );
        }

        let traced = benchmark::run_traced(&spec, &opts(1)).unwrap();
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.failure);
        assert_eq!(measured(&traced), listed(&PER_LAYER));
        assert!(opts(1).out_dir.join(format!("{name}.trace.json")).exists());
        let value = |metric: &str| {
            traced
                .metrics
                .iter()
                .find(|(n, _, _)| *n == metric)
                .unwrap()
                .1
        };
        assert!(
            value("benchmark.replay_coverage") >= 0.95,
            "{name}: replay children do not cover it"
        );
        if name != "outofcore_topk" {
            assert_eq!(
                value("engine.blocks_skipped_share"),
                0.0,
                "{name} must not prune"
            );
        }

        // Exact counters: same seed, same bits; another seed, other bits.
        let again = benchmark::run_traced(&spec, &opts(1)).unwrap();
        assert_eq!(
            exact(&traced),
            exact(&again),
            "{name}: exact counters drifted for one seed"
        );
        let other = benchmark::run_traced(&spec, &opts(2)).unwrap();
        assert_ne!(
            exact(&traced),
            exact(&other),
            "{name}: exact counters ignore the seed"
        );
    }
}

#[test]
fn check_gate_passes_on_every_workload() {
    for name in WORKLOADS {
        let report = benchmark::run_check(&workload::spec(name).unwrap(), &opts(3)).unwrap();
        assert_eq!(report.failed, 0, "{name}: {:?}", report.failure);
        assert!(report.attempted >= 4);
    }
}

#[test]
fn lock_file_is_committed_with_no_registry_package() {
    let lock = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock"))
        .expect("benchmark/Cargo.lock is committed");
    assert!(lock.contains("name = \"benchmark\""));
    assert!(
        !lock.contains("source = "),
        "Cargo.lock names a registry or git source"
    );
}
