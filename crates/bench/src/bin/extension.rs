//! **Extension kernels** — striped SWAR vs scalar ablation
//! (DESIGN.md §3.8).
//!
//! Times the stage-2 ungapped two-hit extension and the stage-3 gapped
//! x-drop extension under both kernels on the same deterministic
//! workload of long homologous pairs (hand-built from `faultfn::mix64`,
//! no `datagen`), and reports **ns/cell** plus the whole-stage makespan.
//!
//! The workload is grouped as the engines see it: a handful of queries,
//! each extended against many subjects. The striped ungapped pass builds
//! one [`ScoreProfile`] per query and reuses it across that query's
//! subjects. The engines themselves run the scalar ungapped walk only
//! (in-engine stage time decided that, DESIGN.md §3.8); the striped
//! ungapped column is kept as the reference twin's number.
//!
//! "Cell" is a deterministic linear work proxy — the number of query
//! residues the finished extension spans — not a count of DP cells: the
//! banded gapped DP's true cell count is not observable from outside.
//! Both kernels process bit-identical extents (asserted below before
//! any number is reported), so the proxy cancels exactly in the
//! scalar/striped ratio, which is the measurement the `≥ 2×` kernel
//! acceptance gate and `xtask bench diff` guard.
//!
//! Columns:
//!
//! * **scalar / striped ns-cell** — wall time over spanned residues for
//!   each kernel. The striped column includes the per-query score
//!   profile builds.
//! * **speedup** — scalar wall / striped wall on the identical workload.
//! * **makespan** — whole-workload wall per kernel; the stage row sums
//!   ungapped + gapped, which is the "extension stage" the paper's
//!   profile says dominates.
//!
//! ```sh
//! cargo run --release -p bench --bin extension
//! ```

use align::{
    extend_two_hit, extend_two_hit_striped, gapped_extend_score, gapped_extend_score_striped,
};
use bench::scale;
use faultfn::mix64;
use memsim::NullTracer;
use scoring::{ScoreProfile, BLOSUM62};
use std::time::Instant;

const SEED: u64 = 0xE87E;
const SUBJECTS_PER_QUERY: usize = 16;

/// A random 20-letter sequence.
fn random_seq(case: u64, len: usize) -> Vec<u8> {
    (0..len).map(|p| (mix64(SEED ^ case, p as u64) % 20) as u8).collect()
}

/// A homolog of `q`: a copy mutated at roughly one position in `div` —
/// long positively-scoring runs, so the x-drop walks far and ns/cell is
/// dominated by the inner loop — with a guaranteed exact word at the
/// anchor so the two-hit seed is real.
fn homolog(q: &[u8], case: u64, div: u64) -> (Vec<u8>, u32) {
    let len = q.len();
    let mut s = q.to_vec();
    for (p, slot) in s.iter_mut().enumerate() {
        let r = mix64(SEED ^ case ^ 0xD1FF, p as u64);
        if r % div == 0 {
            *slot = ((r >> 8) % 20) as u8;
        }
    }
    for k in 0..3usize {
        s[len / 2 + k] = q[len / 2 + k];
    }
    (s, (len / 2) as u32)
}

struct QueryGroup {
    q: Vec<u8>,
    subjects: Vec<(Vec<u8>, u32)>,
}

fn workload(n_queries: usize, len: usize) -> Vec<QueryGroup> {
    (0..n_queries)
        .map(|qi| {
            let q = random_seq(qi as u64, len);
            let subjects = (0..SUBJECTS_PER_QUERY)
                .map(|si| {
                    // Alternate divergence so both deep and shallow
                    // extensions are represented (x-drop terminates the
                    // shallow ones early).
                    let div = if si % 2 == 0 { 12 } else { 5 };
                    homolog(&q, (qi * SUBJECTS_PER_QUERY + si) as u64, div)
                })
                .collect();
            QueryGroup { q, subjects }
        })
        .collect()
}

fn main() {
    let n_queries = ((6.0 * scale()) as usize).max(2);
    let len = 4096usize;
    let reps = 3u32;
    let work = workload(n_queries, len);
    let n_pairs = n_queries * SUBJECTS_PER_QUERY;
    println!(
        "Extension kernels — {} queries × {} subjects × {} residues, {} reps \
         (ungapped xdrop 16, gapped 11/1/38)\n",
        n_queries, SUBJECTS_PER_QUERY, len, reps
    );

    let mut report = bench::RunReport::new("extension");

    // ---- correctness gate: bit-identity on the full workload ----------
    let mut cells_ungapped = 0u64;
    let mut cells_gapped = 0u64;
    for g in &work {
        let profile = ScoreProfile::for_query(&BLOSUM62, &g.q);
        for (s, anchor) in &g.subjects {
            let a = extend_two_hit(
                &BLOSUM62, &g.q, s, Some(*anchor), *anchor, *anchor, 16, &mut NullTracer, 0, 0,
            );
            let b = extend_two_hit_striped(&profile, s, Some(*anchor), *anchor, *anchor, 16);
            assert_eq!(a, b, "ungapped kernels diverged");
            if let Some(aln) = a.alignment {
                cells_ungapped += u64::from(aln.q_end - aln.q_start);
            }
            let ga = gapped_extend_score(&BLOSUM62, &g.q, s, *anchor, *anchor, 11, 1, 38);
            let gs = gapped_extend_score_striped(&BLOSUM62, &g.q, s, *anchor, *anchor, 11, 1, 38);
            assert_eq!(ga, gs, "gapped kernels diverged");
            cells_gapped += u64::from(ga.q_end - ga.q_start);
        }
    }
    println!(
        "bit-identity verified on all {} pairs ({} ungapped / {} gapped spanned residues)\n",
        n_pairs, cells_ungapped, cells_gapped
    );

    // ---- timed passes --------------------------------------------------
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(reps)
    };

    let mut sink = 0i64;
    let ungapped_scalar = time(&mut || {
        for g in &work {
            for (s, anchor) in &g.subjects {
                let out = extend_two_hit(
                    &BLOSUM62, &g.q, s, Some(*anchor), *anchor, *anchor, 16, &mut NullTracer,
                    0, 0,
                );
                sink += i64::from(out.alignment.map_or(0, |a| a.score));
            }
        }
    });
    let ungapped_striped = time(&mut || {
        for g in &work {
            // One profile build per query, amortized over its subjects.
            let profile = ScoreProfile::for_query(&BLOSUM62, &g.q);
            for (s, anchor) in &g.subjects {
                let out = extend_two_hit_striped(&profile, s, Some(*anchor), *anchor, *anchor, 16);
                sink += i64::from(out.alignment.map_or(0, |a| a.score));
            }
        }
    });
    let gapped_scalar = time(&mut || {
        for g in &work {
            for (s, anchor) in &g.subjects {
                let ga = gapped_extend_score(&BLOSUM62, &g.q, s, *anchor, *anchor, 11, 1, 38);
                sink += i64::from(ga.score);
            }
        }
    });
    let gapped_striped = time(&mut || {
        for g in &work {
            for (s, anchor) in &g.subjects {
                let ga = gapped_extend_score_striped(&BLOSUM62, &g.q, s, *anchor, *anchor, 11, 1, 38);
                sink += i64::from(ga.score);
            }
        }
    });
    assert!(sink != 0, "workload produced no extensions");

    let ns = |wall: f64, cells: u64| wall * 1e9 / (cells as f64).max(1.0);
    println!(
        "{:>10} {:>16} {:>16} {:>9} {:>14}",
        "kernel", "scalar ns-cell", "striped ns-cell", "speedup", "makespan (s)"
    );
    let rows = [
        ("ungapped", ungapped_scalar, ungapped_striped, cells_ungapped),
        ("gapped", gapped_scalar, gapped_striped, cells_gapped),
    ];
    for (name, sc, st, cells) in rows {
        println!(
            "{:>10} {:>16.3} {:>16.3} {:>8.2}x {:>14.4}",
            name,
            ns(sc, cells),
            ns(st, cells),
            sc / st.max(1e-12),
            st
        );
        report.push(format!("extension/{name}/scalar/ns_per_cell"), ns(sc, cells), "ns");
        report.push(format!("extension/{name}/striped/ns_per_cell"), ns(st, cells), "ns");
        report.push(format!("extension/{name}/kernel_speedup"), sc / st.max(1e-12), "ratio");
    }
    let stage_scalar = ungapped_scalar + gapped_scalar;
    let stage_striped = ungapped_striped + gapped_striped;
    let stage_speedup = stage_scalar / stage_striped.max(1e-12);
    println!(
        "{:>10} {:>16.3} {:>16.3} {:>8.2}x {:>14.4}",
        "stage",
        ns(stage_scalar, cells_ungapped + cells_gapped),
        ns(stage_striped, cells_ungapped + cells_gapped),
        stage_speedup,
        stage_striped
    );
    report.push("extension/stage/scalar_makespan", stage_scalar, "s");
    report.push("extension/stage/striped_makespan", stage_striped, "s");
    report.push("extension/stage/kernel_speedup", stage_speedup, "ratio");

    println!(
        "\nOutputs verified bit-identical on every pair before timing.\n\
         Expected shape: the gapped DP dominates the stage; its win comes\n\
         from the element-wise candidate/clamp passes, with only the\n\
         rolling-E chain left serial."
    );
    match report.write() {
        Ok(path) => eprintln!("extension: run report appended to {}", path.display()),
        Err(e) => eprintln!("extension: could not write run report: {e}"),
    }
}
