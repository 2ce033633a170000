//! Multi-node muBLASTP scaling (paper Sec. IV-D2/3 and Fig. 10).
//!
//! The paper runs MPI on 128 Stampede nodes; we have one machine and no
//! MPI, so the reproduction has two halves (substitution #4 in DESIGN.md).
//! The inter-node *algorithm* — length-sorted round-robin partitions,
//! queries replicated to every partition, independent local search with
//! global E-value statistics, one batched merge — is the sharded driver
//! (`engine::search_batch_sharded` over a `dbindex::ShardPlan::round_robin`
//! plan), which `mublastp distributed` runs. This crate is the *scaling*
//! half: `sim` is a discrete-event model of both muBLASTP-MPI and
//! mpiBLAST executions whose per-task compute costs are calibrated from
//! *measured* single-node engine runs (`model`). The structural
//! differences the paper credits for its 88–92 % vs 31–57 % strong scaling
//! efficiency are all present: mpiBLAST's centralised scheduler
//! serialisation, per-(query, fragment) task granularity, unsorted
//! fragment imbalance and lack of multithreading vs muBLASTP's balanced
//! partitions and one batched merge.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_methods
)]

mod model;
mod sim;

pub use model::{CalibratedCost, ClusterParams};
pub use sim::{simulate_mpiblast, simulate_mublastp};
