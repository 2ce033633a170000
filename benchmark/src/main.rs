//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! benchmark run <W|all> [--seed N] [--seconds S]            timed + traced run per workload, fresh process each
//! benchmark trace <W> [--seed N] [--seconds S]              the traced run alone (writes out/<W>.trace.json)
//! benchmark check [--seed N]                                the correctness gate alone, every workload
//! benchmark repeat N [--seed N] [--seed-step D] [--seconds S]
//!                                                           N timed sets; spread per metric against its bound
//! ```
//!
//! Exit code 0: every run correct (and, for `repeat`, every spread within
//! its bound); 1: a reply was wrong or a spread left its bound; 2: usage
//! or set-up error, no result.

use benchmark::json::Json;
use benchmark::workload::{self, WORKLOADS};
use benchmark::{Opts, Report};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
benchmark --workload W --seed N --seconds S --trace 0|1
benchmark run <W|all> [--seed N] [--seconds S]
benchmark trace <W> [--seed N] [--seconds S]
benchmark check [--seed N]
benchmark repeat N [--seed N] [--seed-step D] [--seconds S]
workloads: batch_resident interactive_small outofcore_topk outofcore_scan";

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad or missing value for {name}")),
    }
}

/// The package directory: `BENCHMARK.json` sits next to it, `out/` inside.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`: `run_seconds`, and per end-to-end metric its bound.
fn contract() -> Result<(f64, BTreeMap<String, f64>), String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("no run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok((seconds, bounds))
}

fn print_report(workload: &str, report: &Report) {
    println!("== {workload}");
    for note in &report.notes {
        println!("   {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    if let Some(why) = &report.failure {
        println!("FAILED: {why}");
    }
    println!(
        "requests attempted {}, failed {} ({})",
        report.attempted,
        report.failed,
        if report.failed == 0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

/// One run in this process; the result JSON is the last line printed.
fn run_here(workload: &str, opts: &Opts, traced: bool) -> Result<bool, String> {
    let spec = workload::spec(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let report = if traced {
        benchmark::run_traced(&spec, opts)?
    } else {
        benchmark::run_timed(&spec, opts)?
    };
    let line = report.to_json()?;
    print_report(workload, &report);
    println!("{line}");
    Ok(report.failed == 0)
}

/// One run in a fresh process (so peak RSS is per workload); returns the
/// child's metrics and whether it was correct. The child's table is
/// echoed when `echo` is set.
fn run_child(
    workload: &str,
    opts: &Opts,
    traced: bool,
    echo: bool,
) -> Result<(BTreeMap<String, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (table, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if echo {
        println!("{table}");
    }
    // 0 is a correct run and 1 an incorrect one: both end in a result
    // line. Anything else is a run that did not happen.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!(
            "child run of {workload} exited with {}",
            out.status
        ));
    }
    let doc = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (name, v) in m {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child result line: {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok((metrics, doc.get("correct") == Some(&Json::Bool(true))))
}

fn selected(which: &str) -> Result<Vec<&'static str>, String> {
    if which == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    WORKLOADS
        .iter()
        .find(|w| **w == which)
        .map(|w| vec![*w])
        .ok_or_else(|| format!("unknown workload '{which}'"))
}

/// `repeat N`: the whole set of timed runs N times — run `i` on seed
/// `seed + i * seed_step`, so on one seed unless a step is given — and
/// for every end-to-end metric × workload the spread the acceptance rule
/// looks at: interquartile range over median, against the metric's bound.
fn repeat(
    n: usize,
    seed_step: u64,
    opts: &Opts,
    bounds: &BTreeMap<String, f64>,
) -> Result<bool, String> {
    let mut all_ok = true;
    let mut within = true;
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for workload in WORKLOADS {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            let opts = Opts {
                seed: opts.seed + i as u64 * seed_step,
                ..opts.clone()
            };
            let (metrics, correct) = run_child(workload, &opts, false, false)?;
            all_ok &= correct;
            for (name, v) in metrics {
                series.entry(name).or_default().push(v);
            }
        }
        for (name, _) in benchmark::END_TO_END {
            let v = series.get(name).cloned().unwrap_or_default();
            let [q1, med, q3] = [0.25, 0.5, 0.75].map(|q| benchmark::quantile(&v, q));
            let range = v.iter().cloned().fold(f64::MIN, f64::max)
                - v.iter().cloned().fold(f64::MAX, f64::min);
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let spread = (q3 - q1) / med;
            let ok = spread <= bound;
            within &= ok;
            println!(
                "{workload:<18} {name:<24} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>9.4} {:>9.4} {bound:>7.3}{}",
                range / med,
                if ok { "" } else { "  OUT OF BOUND" }
            );
        }
    }
    if !all_ok {
        println!("some runs were INCORRECT");
    }
    Ok(all_ok && within)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds_default = || contract().map(|(s, _)| s);
    let opts = |seconds: f64| -> Result<Opts, String> {
        Ok(Opts {
            seed: flag(&args, "--seed", 1u64)?,
            seconds: flag(&args, "--seconds", seconds)?,
            scale: 1.0,
            out_dir: package_dir().join("out"),
        })
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            let opts = opts(seconds_default()?)?;
            let mut ok = true;
            for workload in selected(args.get(1).map_or("all", String::as_str))? {
                for traced in [false, true] {
                    ok &= run_child(workload, &opts, traced, true)?.1;
                }
            }
            Ok(ok)
        }
        Some("trace") => {
            let workload = args.get(1).ok_or("trace needs a workload")?;
            run_here(workload, &opts(seconds_default()?)?, true)
        }
        Some("check") => {
            let opts = opts(0.0)?;
            let mut ok = true;
            for workload in WORKLOADS {
                let spec = workload::spec(workload).expect("listed workloads have specs");
                let report = benchmark::run_check(&spec, &opts)?;
                print_report(workload, &report);
                ok &= report.failed == 0;
            }
            Ok(ok)
        }
        Some("repeat") => {
            let n: usize = args
                .get(1)
                .and_then(|v| v.parse().ok())
                .ok_or("repeat needs a count")?;
            let (seconds, bounds) = contract()?;
            let seed_step = flag(&args, "--seed-step", 0u64)?;
            repeat(n, seed_step, &opts(seconds)?, &bounds)
        }
        Some(first) if first.starts_with("--") => {
            let workload: String = flag(&args, "--workload", String::new())?;
            let traced = flag(&args, "--trace", 0u8)? != 0;
            let opts = match args.iter().any(|a| a == "--seconds") {
                true => opts(0.0)?,
                false => opts(seconds_default()?)?,
            };
            run_here(&workload, &opts, traced)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
