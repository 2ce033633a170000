//! The correctness gate: no number is printed for a result that is wrong.
//!
//! Every wire reply must carry exactly the alignments a direct, exhaustive
//! `engine::search_batch` over one resident index returns for the same
//! queries (for top-k requests: with the reporting cap lowered to K — the
//! invariant `tests/topk_oracle.rs` pins), must name its subjects by their
//! database ids, and must report the sequence each query was cut from with
//! the query's maximal score.

use crate::server::base_config;
use crate::workload::{Inputs, Request, Spec};
use bioseq::{Sequence, SequenceDb};
use dbindex::{DbIndex, IndexConfig};
use engine::QueryResult;
use scoring::{NeighborTable, BLOSUM62};
use serve::SearchResponse;

/// A plain resident index over the whole database: what the reference
/// search (and the per-layer measurements) run against.
pub struct Resident {
    pub db: SequenceDb,
    pub index: DbIndex,
    pub neighbors: NeighborTable,
}

impl Resident {
    pub fn build(seqs: &[Sequence], threads: usize) -> Resident {
        let db: SequenceDb = seqs.iter().cloned().collect();
        let index = DbIndex::build_parallel(&db, &IndexConfig::default(), threads);
        Resident {
            db,
            index,
            neighbors: NeighborTable::build(&BLOSUM62, 11),
        }
    }

    /// Exhaustive results for each request of `requests`, in order.
    pub fn reference(
        &self,
        spec: &Spec,
        requests: &[&Request],
        threads: usize,
    ) -> Vec<Vec<QueryResult>> {
        let mut config = base_config(threads);
        if let Some(k) = spec.top_k {
            config.params.max_reported = config.params.max_reported.min(k as usize);
        }
        // One batch for all of them: Alg. 3 walks each block once.
        let queries: Vec<Sequence> = requests
            .iter()
            .flat_map(|r| r.queries.iter().map(|q| q.seq.clone()))
            .collect();
        let sizes: Vec<usize> = requests.iter().map(|r| r.queries.len()).collect();
        let results = engine::search_batch(
            &self.db,
            Some(&self.index),
            &self.neighbors,
            &queries,
            &config,
        );
        engine::split_batch(results, &sizes)
    }
}

fn check_reply(
    resident: &Resident,
    request: &Request,
    reply: &SearchResponse,
    reference: &[QueryResult],
) -> Result<(), String> {
    if reply.degraded.is_some() {
        return Err("reply is degraded".to_string());
    }
    let wire: Vec<QueryResult> = reply.replies.iter().map(|r| r.result.clone()).collect();
    engine::results_identical(&wire, reference)?;
    for (query, r) in request.queries.iter().zip(&reply.replies) {
        for (a, id) in r.result.alignments.iter().zip(&r.subject_ids) {
            if resident.db.get(a.subject).id != *id {
                return Err(format!(
                    "{}: subject {} named {id}",
                    query.seq.id, a.subject
                ));
            }
        }
        let best = r.result.alignments.first().map(|a| a.aln.score);
        let own = r
            .result
            .alignments
            .iter()
            .find(|a| a.subject == query.source)
            .map(|a| a.aln.score);
        if own.is_none() || own != best {
            return Err(format!(
                "{}: source sequence {} scored {own:?}, best is {best:?}",
                query.seq.id, query.source
            ));
        }
    }
    Ok(())
}

/// Check the first reply of every pool entry that was used. Returns, per
/// pool entry, whether it passed (unused entries pass) and the first
/// failure message, if any.
pub fn verify(
    resident: &Resident,
    spec: &Spec,
    inputs: &Inputs,
    first: &[Option<SearchResponse>],
    threads: usize,
) -> (Vec<bool>, Option<String>) {
    let used: Vec<usize> = (0..first.len()).filter(|&i| first[i].is_some()).collect();
    let requests: Vec<&Request> = used.iter().map(|&i| &inputs.requests[i]).collect();
    let reference = resident.reference(spec, &requests, threads);
    let mut pass = vec![true; first.len()];
    let mut message = None;
    for ((&i, request), reference) in used.iter().zip(&requests).zip(&reference) {
        let Some(reply) = &first[i] else { continue };
        if let Err(e) = check_reply(resident, request, reply, reference) {
            pass[i] = false;
            message.get_or_insert(format!("pool entry {i}: {e}"));
        }
    }
    (pass, message)
}
