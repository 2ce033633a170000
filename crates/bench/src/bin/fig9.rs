//! **Figure 9** — end-to-end comparison of NCBI, NCBI-db and muBLASTP on
//! both databases at query lengths 128 / 256 / 512 / mixed, plus the
//! speedups the paper headlines (up to 5.1× over NCBI, 3.9× over
//! NCBI-db).
//!
//! Wall time is reported alongside a cycle-model time derived from the
//! simulated 12-core memory behaviour: on machines whose cache hierarchy
//! differs wildly from the paper's Haswell node (e.g. a VM with one core
//! and a 260 MB virtual L3), the wall clock cannot show memory-locality
//! effects and the model column carries the paper's shape.
//!
//! ```sh
//! cargo run --release -p bench --bin fig9
//! ```

use bench::{batch_size, default_index, env_nr, mixed_batch, neighbors, query_batch, sprot};
use bioseq::{Sequence, SequenceDb};
use engine::{
    results_identical, search_batch, trace_engine_multicore, EngineKind, SearchConfig,
};
use memsim::{CycleModel, HierarchyConfig};
use scoring::SearchParams;
use std::time::Instant;

fn run_workload(db: &'static SequenceDb, name: &str, queries: &[Sequence]) {
    let index = default_index(db);
    let params = SearchParams::blastp_defaults();
    let model = CycleModel::default();
    let cores = 12usize;
    let sim_queries: Vec<Sequence> = queries.iter().take(cores).cloned().collect();

    let mut wall = Vec::new();
    let mut modeled = Vec::new();
    let mut outputs = Vec::new();
    for kind in [EngineKind::QueryIndexed, EngineKind::DbInterleaved, EngineKind::MuBlastp] {
        let config = SearchConfig::new(kind);
        let t0 = Instant::now();
        let results = search_batch(db, Some(&index), neighbors(), queries, &config);
        wall.push(t0.elapsed().as_secs_f64());
        outputs.push(results);
        let report = trace_engine_multicore(
            kind,
            db,
            Some(&index),
            neighbors(),
            &sim_queries,
            &params,
            HierarchyConfig::default(),
            cores,
            64,
        );
        let cycles =
            model.stall_cycles(&report.stats) + report.stats.l1.accesses * model.busy_per_access;
        modeled.push(cycles as f64 / 2.5e9); // 2.5 GHz Haswell seconds
    }
    results_identical(&outputs[0], &outputs[1]).expect("engines diverged");
    results_identical(&outputs[1], &outputs[2]).expect("engines diverged");

    println!(
        "{:<10} {:>9.3} {:>9.3} {:>9.3} {:>9.2}x {:>9.2}x   {:>8.3} {:>8.3} {:>8.3} {:>7.2}x {:>7.2}x",
        name,
        wall[0],
        wall[1],
        wall[2],
        wall[0] / wall[2],
        wall[1] / wall[2],
        modeled[0],
        modeled[1],
        modeled[2],
        modeled[0] / modeled[2],
        modeled[1] / modeled[2],
    );
}

fn main() {
    println!(
        "Fig. 9 — NCBI vs NCBI-db vs muBLASTP, batch of {} (outputs verified identical)\n",
        batch_size()
    );
    println!(
        "{:<10} {:^41} {:^44}",
        "", "wall clock on this machine (s)", "cycle model, 12-core Haswell (s)"
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>10}   {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "NCBI", "NCBI-db", "muBLASTP", "vs NCBI", "vs db", "NCBI", "NCBI-db",
        "muBLASTP", "vs NCBI", "vs db"
    );
    for (db, dbname) in [(sprot(), "sprot"), (env_nr(), "env_nr")] {
        for len in [128usize, 256, 512] {
            run_workload(db, &format!("{dbname}/{len}"), &query_batch(db, len, batch_size()));
        }
        run_workload(db, &format!("{dbname}/mix"), &mixed_batch(db, batch_size()));
        println!();
    }
    println!(
        "Paper shape: muBLASTP fastest everywhere (up to 5.1x over NCBI on\n\
         sprot, 3.9x over NCBI-db on env_nr); NCBI-db loses to NCBI on the\n\
         larger database — the database index alone is a pessimisation."
    );
}
