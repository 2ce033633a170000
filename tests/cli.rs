//! Integration tests of the `mublastp` CLI binary: the full
//! gen → index → info → search user journey over real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mublastp"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mublastp-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_journey() {
    let dir = tmpdir("journey");
    let db = dir.join("db.fasta");
    let idx = dir.join("db.mbi");
    let qf = dir.join("q.fasta");

    // gen
    let out = bin()
        .args(["gen", "--kind", "sprot", "--residues", "120000", "--seed", "7"])
        .args(["--out", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    // index
    let out = bin()
        .args(["index", "--db", db.to_str().unwrap(), "--out", idx.to_str().unwrap()])
        .args(["--block-kb", "64"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("blocks"));

    // info
    let out = bin().args(["info", "--index", idx.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("blocks:"), "{text}");
    assert!(text.contains("positions:"));

    // Craft a query from the generated database: first 80 residues of a
    // long-enough sequence.
    let fasta = std::fs::read_to_string(&db).unwrap();
    let seq_line = fasta
        .lines()
        .filter(|l| !l.starts_with('>'))
        .find(|l| l.len() >= 70)
        .unwrap();
    std::fs::write(&qf, format!(">probe\n{}\n", &seq_line[..70])).unwrap();

    // search (report format, muBLASTP engine, prebuilt index)
    let out = bin()
        .args(["search", "--db", db.to_str().unwrap(), "--query", qf.to_str().unwrap()])
        .args(["--index", idx.to_str().unwrap(), "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("Query= probe"), "{report}");
    assert!(report.contains("Score ="), "no hit reported:\n{report}");
    assert!(report.contains("Sbjct"));

    // search (tsv format) — all three engines must print the same rows.
    let mut rows = Vec::new();
    for engine in ["mublastp", "ncbi", "ncbi-db"] {
        let out = bin()
            .args(["search", "--db", db.to_str().unwrap(), "--query", qf.to_str().unwrap()])
            .args(["--engine", engine, "--format", "tsv"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{engine}: {}", String::from_utf8_lossy(&out.stderr));
        rows.push(String::from_utf8_lossy(&out.stdout).to_string());
    }
    assert!(!rows[0].is_empty(), "tsv output empty");
    assert_eq!(rows[0], rows[1], "mublastp vs ncbi tsv differ");
    assert_eq!(rows[1], rows[2], "ncbi vs ncbi-db tsv differ");
    let first = rows[0].lines().next().unwrap();
    assert_eq!(first.split('\t').count(), 9, "tsv column count: {first}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `distributed` is the sharded driver over a round-robin plan of the
/// length-sorted database, so the rank count changes nothing but the
/// count each `Query=` header prints.
#[test]
fn distributed_output_does_not_depend_on_rank_count() {
    let dir = tmpdir("distributed");
    let db = dir.join("db.fasta");
    let qf = dir.join("q.fasta");
    let out = bin()
        .args(["gen", "--kind", "sprot", "--residues", "30000"])
        .args(["--seed", "3", "--out", db.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = |out: &std::process::Output| String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{}", stderr(&out));
    let fasta = std::fs::read_to_string(&db).unwrap();
    let seq_line = fasta
        .lines()
        .filter(|l| !l.starts_with('>'))
        .find(|l| l.len() >= 60)
        .unwrap();
    std::fs::write(&qf, format!(">probe\n{}\n", &seq_line[..60])).unwrap();

    let run = |ranks: &str| {
        bin()
            .args(["distributed", "--db", db.to_str().unwrap()])
            .args(["--query", qf.to_str().unwrap(), "--ranks", ranks])
            .output()
            .unwrap()
    };
    let one = run("1");
    assert!(one.status.success(), "{}", stderr(&one));
    let one = String::from_utf8(one.stdout).unwrap();
    assert!(one.contains("Query= probe (60 letters, 1 ranks)"), "{one}");
    assert!(one.contains(" bits\t"), "no hit reported:\n{one}");
    let three = run("3");
    assert!(three.status.success(), "{}", stderr(&three));
    let three = String::from_utf8(three.stdout).unwrap();
    assert_eq!(three.replace(", 3 ranks)", ", 1 ranks)"), one);

    let zero = run("0");
    assert!(!zero.status.success());
    let refusal = stderr(&zero);
    assert!(refusal.contains("--ranks must be positive"), "{refusal}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_errors_are_clean() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = bin().args(["index", "--db", "x.fasta"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // Nonexistent file.
    let out = bin()
        .args(["index", "--db", "/nonexistent.fasta", "--out", "/tmp/x.mbi"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Bad engine name.
    let out = bin()
        .args(["search", "--db", "a", "--query", "b", "--engine", "hyperblast"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Help works.
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
