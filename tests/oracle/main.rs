//! The oracle matrix: muBLASTP's restructuring changes how fast a search
//! runs, never what it reports (paper Sec. V-E).
//!
//! Three tables. [`worlds`] holds every seeded database and query set,
//! each built once per binary. [`matrix`] holds the `Variant`s (engine ×
//! source × top-k × SEG × threads × kernel) and the `Check`s a cell runs
//! against its world's reference variant. The `matrix!` invocation below
//! is the coverage table: each cell listed under a group of worlds is one
//! `#[test]` per world, named `world::cell`. `contracts` holds the tests
//! of one specific contract each, on the same worlds.
//!
//! The top-k worlds read `TOPK_SEED=<u64>`; `cargo test --test oracle
//! topk` runs their cells.

mod contracts;
mod matrix;
mod worlds;

use engine::SortAlgo;
use matrix::Budget::{AllDecoded, BelowLargestBlock, Fraction};
use matrix::Source::{Blocks, Reloaded, RoundRobin, Shards, Store, Streaming};
use matrix::{DBI, MU, PER_SEQUENCE, QI};
use scoring::KernelKind::{Scalar, Striped};

macro_rules! matrix {
    (@world $world:ident { $($cell:ident: $variant:expr,)+ }) => {
        mod $world {
            use super::*;
            $(
                #[test]
                fn $cell() {
                    matrix::cell(worlds::$world(), $variant);
                }
            )+
        }
    };
    ($($($world:ident),+ => $cells:tt)+) => {
        $($(matrix!(@world $world $cells);)+)+
    };
}

matrix! {
    diff_sprot, diff_envnr, diff_heavy => {
        mu: MU,
        qi_scalar: QI.kernel(Scalar),
        dbi_scalar: DBI.kernel(Scalar),
        mu_scalar: MU.kernel(Scalar),
        qi_striped: QI.kernel(Striped),
        dbi_striped: DBI.kernel(Striped),
        mu_striped: MU.kernel(Striped),
        shards3: MU.on(Shards(3)).threads(3),
    }
    diff_long => {
        mu: MU,
        qi_scalar: QI.kernel(Scalar),
        mu_striped: MU.kernel(Striped),
    }
    shard_sprot => {
        mu: MU,
        shards1: MU.on(Shards(1)),
        shards2: MU.on(Shards(2)).threads(4),
        shards3: MU.on(Shards(3)).threads(4),
        shards7: MU.on(Shards(7)).threads(4),
        per_sequence: MU.on(Shards(PER_SEQUENCE)).threads(4),
    }
    shard_cap3 => {
        mu: MU,
        shards2: MU.on(Shards(2)).threads(2),
        shards5: MU.on(Shards(5)).threads(2),
    }
    shard_five => {
        mu: MU,
        shards9: MU.on(Shards(9)).threads(3),
    }
    shard_twelve => {
        mu: MU,
        per_sequence: MU.on(Shards(PER_SEQUENCE)).threads(4),
    }
    shard_single => {
        mu: MU,
        shards3: MU.on(Shards(3)),
    }
    verif_sprot => {
        mu: MU,
        qi: QI,
        dbi: DBI,
        sort_std: MU.sort(SortAlgo::Std),
        sort_msd: MU.sort(SortAlgo::MsdRadix),
        sort_merge: MU.sort(SortAlgo::Merge),
        sort_binning: MU.sort(SortAlgo::Binning),
        postfilter: MU.postfilter(),
        blocks_16k: MU.on(Blocks(16 << 10)),
        blocks_64k: MU.on(Blocks(64 << 10)),
        blocks_1m: MU.on(Blocks(1 << 20)),
        qi_threads2: QI.threads(2),
        qi_threads5: QI.threads(5),
        qi_threads8: QI.threads(8),
        mu_threads2: MU.threads(2),
        mu_threads5: MU.threads(5),
        mu_threads8: MU.threads(8),
        reloaded: MU.on(Reloaded),
    }
    verif_sorted => {
        mu: MU,
        ranks2: MU.on(RoundRobin(2)).threads(2),
        ranks5: MU.on(RoundRobin(5)).threads(5),
    }
    stream_sprot => {
        mu: MU,
        store_quarter: MU.on(Store(Fraction(4))),
        store_quarter_seg: MU.on(Store(Fraction(4))).seg(),
    }
    seg_envnr => {
        qi_seg: QI.seg(),
        dbi_seg: DBI.seg(),
        mu_seg: MU.seg(),
        shards3_seg: MU.on(Shards(3)).threads(3).seg(),
        streaming3_seg: MU.on(Streaming(3, Fraction(4))).threads(3).seg(),
    }
    seg_lowc => {
        mu_seg: MU.seg(),
        shards2_seg: MU.on(Shards(2)).threads(2).seg(),
        streaming2_seg: MU.on(Streaming(2, AllDecoded)).threads(2).seg(),
    }
    ooc_motifs => {
        mu: MU,
        store_quarter: MU.on(Store(Fraction(4))),
        streaming3_all: MU.on(Streaming(3, AllDecoded)).threads(3),
        streaming3_quarter: MU.on(Streaming(3, Fraction(4))).threads(3),
        streaming3_below_largest: MU.on(Streaming(3, BelowLargestBlock)).threads(3),
    }
    topk => {
        scalar: MU.kernel(Scalar).sweep(),
        striped: MU.kernel(Striped).sweep(),
        shards2: MU.on(Shards(2)).threads(2).sweep(),
        shards3: MU.on(Shards(3)).threads(2).sweep(),
        shards5: MU.on(Shards(5)).threads(2).sweep(),
        store_full: MU.on(Store(Fraction(1))).sweep(),
        store_half: MU.on(Store(Fraction(2))).sweep(),
        store_quarter: MU.on(Store(Fraction(4))).sweep(),
        streaming3: MU.on(Streaming(3, Fraction(2))).threads(2).sweep(),
    }
    topk_r0, topk_r1 => {
        serial: MU.sweep(),
        threads4: MU.threads(4).sweep(),
    }
    topk_tie => {
        serial: MU.sweep(),
    }
    special, subword_queries, empty_and_tiny_subjects, battery1 => {
        qi: QI,
        dbi: DBI,
        mu: MU,
    }
    masked_query, identical_subjects, single_subject, zero_evalue_cutoff, battery2 => {
        mu: MU,
    }
    long_queries => {
        dbi: DBI,
    }
}
