//! Standard BLAST report formats.
//!
//! Downstream tooling (taxonomic binners, annotation pipelines, the
//! microbiome studies the paper's introduction cites) consumes BLAST's
//! *tabular* output format — `-outfmt 6`: twelve tab-separated columns
//!
//! ```text
//! qseqid sseqid pident length mismatch gapopen qstart qend sstart send evalue bitscore
//! ```
//!
//! This module renders [`crate::results::QueryResult`]s in that format
//! (and the commented `-outfmt 7` variant), with BLAST's coordinate
//! conventions: 1-based, inclusive ranges.

use crate::results::QueryResult;
use align::AlignOp;
use bioseq::{Sequence, SequenceDb};
use std::io::{self, Write};

/// One parsed outfmt-6 row (useful for tests and downstream consumers).
#[derive(Clone, Debug, PartialEq)]
pub struct TabularRow {
    /// Query sequence id.
    pub qseqid: String,
    /// Subject sequence id.
    pub sseqid: String,
    /// Percent identity over the alignment length.
    pub pident: f64,
    /// Alignment length (aligned pairs + gap positions).
    pub length: usize,
    /// Aligned pairs whose residues differ.
    pub mismatch: usize,
    /// Number of gap *openings*.
    pub gapopen: usize,
    /// First aligned query position, 1-based.
    pub qstart: usize,
    /// Last aligned query position, 1-based.
    pub qend: usize,
    /// First aligned subject position, 1-based.
    pub sstart: usize,
    /// Last aligned subject position, 1-based.
    pub send: usize,
    /// Expect value.
    pub evalue: f64,
    /// Bit score.
    pub bitscore: f64,
}

impl TabularRow {
    /// Render as a tab-separated line (BLAST's numeric formatting).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
            self.qseqid,
            self.sseqid,
            self.pident,
            self.length,
            self.mismatch,
            self.gapopen,
            self.qstart,
            self.qend,
            self.sstart,
            self.send,
            self.evalue,
            self.bitscore
        )
    }
}

/// Compute the outfmt-6 rows for one query's results.
pub fn tabular_rows(
    query: &Sequence,
    result: &QueryResult,
    db: &SequenceDb,
) -> Vec<TabularRow> {
    let mut rows = Vec::with_capacity(result.alignments.len());
    for a in &result.alignments {
        let subject = db.get(a.subject);
        let (mut qi, mut sj) = (a.aln.q_start as usize, a.aln.s_start as usize);
        let (mut ident, mut mismatch, mut gapopen) = (0usize, 0usize, 0usize);
        let mut prev: Option<AlignOp> = None;
        for &op in &a.aln.ops {
            match op {
                AlignOp::Sub => {
                    if query.residues()[qi] == subject.residues()[sj] {
                        ident += 1;
                    } else {
                        mismatch += 1;
                    }
                    qi += 1;
                    sj += 1;
                }
                AlignOp::Ins => {
                    if prev != Some(AlignOp::Ins) {
                        gapopen += 1;
                    }
                    qi += 1;
                }
                AlignOp::Del => {
                    if prev != Some(AlignOp::Del) {
                        gapopen += 1;
                    }
                    sj += 1;
                }
            }
            prev = Some(op);
        }
        let length = a.aln.ops.len();
        rows.push(TabularRow {
            qseqid: query.id.clone(),
            sseqid: subject.id.clone(),
            pident: if length == 0 { 0.0 } else { 100.0 * ident as f64 / length as f64 },
            length,
            mismatch,
            gapopen,
            qstart: a.aln.q_start as usize + 1,
            qend: a.aln.q_end as usize,
            sstart: a.aln.s_start as usize + 1,
            send: a.aln.s_end as usize,
            evalue: a.evalue,
            bitscore: a.bit_score,
        });
    }
    rows
}

/// Write a whole batch in outfmt 6.
pub fn write_tabular<W: Write>(
    mut out: W,
    queries: &[Sequence],
    results: &[QueryResult],
    db: &SequenceDb,
) -> io::Result<()> {
    for (q, r) in queries.iter().zip(results) {
        for row in tabular_rows(q, r, db) {
            writeln!(out, "{}", row.to_line())?;
        }
    }
    Ok(())
}

/// Write outfmt 7 (tabular with per-query comment headers).
pub fn write_tabular_commented<W: Write>(
    mut out: W,
    queries: &[Sequence],
    results: &[QueryResult],
    db: &SequenceDb,
) -> io::Result<()> {
    writeln!(out, "# muBLASTP-rs")?;
    writeln!(
        out,
        "# Fields: query id, subject id, % identity, alignment length, mismatches, \
         gap opens, q. start, q. end, s. start, s. end, evalue, bit score"
    )?;
    for (q, r) in queries.iter().zip(results) {
        writeln!(out, "# Query: {} {}", q.id, q.description)?;
        writeln!(out, "# {} hits found", r.alignments.len())?;
        for row in tabular_rows(q, r, db) {
            writeln!(out, "{}", row.to_line())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{search_batch, EngineKind, SearchConfig};
    use dbindex::{DbIndex, IndexConfig};
    use scoring::{NeighborTable, BLOSUM62};
    use std::sync::OnceLock;

    fn neighbors() -> &'static NeighborTable {
        static T: OnceLock<NeighborTable> = OnceLock::new();
        T.get_or_init(|| NeighborTable::build(&BLOSUM62, 11))
    }

    fn searched() -> (SequenceDb, Vec<Sequence>, Vec<QueryResult>) {
        let db: SequenceDb = vec![
            Sequence::from_str_checked("subj1", "GGWCHWMYFWCHWARNDGG").unwrap(),
            Sequence::from_str_checked("subj2", "WCHWMYFAWCHWARND").unwrap(),
        ]
        .into_iter()
        .collect();
        let queries =
            vec![Sequence::from_str_checked("query1", "WCHWMYFWCHWARND").unwrap()];
        let index = DbIndex::build(&db, &IndexConfig::default());
        let mut cfg = SearchConfig::new(EngineKind::MuBlastp);
        cfg.params.evalue_cutoff = 1e9;
        let results = search_batch(&db, Some(&index), neighbors(), &queries, &cfg);
        (db, queries, results)
    }

    #[test]
    fn rows_have_blast_conventions() {
        let (db, queries, results) = searched();
        let rows = tabular_rows(&queries[0], &results[0], &db);
        assert!(!rows.is_empty());
        let exact = rows.iter().find(|r| r.sseqid == "subj1").expect("subj1 found");
        // Exact submatch: 100 % identity, no gaps, 1-based inclusive coords.
        assert!((exact.pident - 100.0).abs() < 1e-9, "{exact:?}");
        assert_eq!(exact.mismatch, 0);
        assert_eq!(exact.gapopen, 0);
        assert_eq!(exact.qstart, 1);
        assert_eq!(exact.qend, 15);
        assert_eq!(exact.sstart, 3);
        assert_eq!(exact.send, 17);
        assert!(exact.bitscore > 0.0);

        // subj2 has a 1-residue insertion: one gap opening, length 16.
        if let Some(gapped) = rows.iter().find(|r| r.sseqid == "subj2") {
            assert_eq!(gapped.gapopen, 1, "{gapped:?}");
            assert_eq!(gapped.length, 16);
            assert!(gapped.pident < 100.0);
        }
    }

    #[test]
    fn tabular_line_has_12_fields() {
        let (db, queries, results) = searched();
        let mut buf = Vec::new();
        write_tabular(&mut buf, &queries, &results, &db).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert_eq!(line.split('\t').count(), 12, "{line}");
        }
    }

    #[test]
    fn commented_format_has_headers() {
        let (db, queries, results) = searched();
        let mut buf = Vec::new();
        write_tabular_commented(&mut buf, &queries, &results, &db).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# Query: query1"));
        assert!(text.contains("hits found"));
        assert!(text.contains("# Fields:"));
    }
}
