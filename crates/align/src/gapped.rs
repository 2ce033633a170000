//! Gapped x-drop extension (stage 3) and traceback (stage 4).
//!
//! Following NCBI-BLAST, a gapped extension is *seeded* from the midpoint
//! of a high-scoring ungapped region and grown in both directions with an
//! affine-gap dynamic program whose live window shrinks under an x-drop
//! rule: a cell dies when its score falls more than `xdrop` below the best
//! score seen so far. Each direction is an **anchored half-extension**
//! (the alignment must start at the seed corner); the two half scores add
//! up to the alignment score.
//!
//! The preliminary stage ([`gapped_extend_score`]) is score-only; the final
//! stage ([`gapped_extend_traceback`]) re-runs the DP over the discovered
//! rectangle with direction recording and extracts the operation list, as
//! NCBI does for the top-scoring alignments only.
//!
//! Gap cost model: a gap of length `L` costs `open + L·extend`
//! (NCBI convention; the first gapped residue costs `open + extend`).

use crate::types::{AlignOp, GappedAlignment};
use scoring::Matrix;

/// Sentinel for unreachable cells; far enough from `i32::MIN` that adding
/// scores cannot overflow.
const NEG: i32 = i32::MIN / 4;

/// Result of one anchored half-extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GappedExtension {
    /// Best anchored score (≥ 0; the empty alignment is always allowed).
    pub score: i32,
    /// Query residues consumed by the best alignment.
    pub q_consumed: u32,
    /// Subject residues consumed.
    pub s_consumed: u32,
}

/// Anchored x-drop half-extension, score only.
///
/// Finds `max` over `(i, j)` of the best affine-gap alignment score of the
/// prefixes `q[..i]` / `s[..j]` where the alignment is anchored at the
/// `(0, 0)` corner. The empty alignment (score 0) is always admissible.
pub fn xdrop_half(
    matrix: &Matrix,
    q: &[u8],
    s: &[u8],
    open: i32,
    extend: i32,
    xdrop: i32,
) -> GappedExtension {
    let (m, n) = (q.len(), s.len());
    let mut best = 0i32;
    let (mut bi, mut bj) = (0usize, 0usize);

    // Two-row DP: H (overall) and F (vertical gap, consuming query).
    let mut h_prev = vec![NEG; n + 1];
    let mut f_prev = vec![NEG; n + 1];
    let mut h_cur = vec![NEG; n + 1];
    let mut f_cur = vec![NEG; n + 1];

    // Row 0: leading horizontal gap.
    h_prev[0] = 0;
    let mut hi = 0usize; // highest alive column of the previous row
    for (j, slot) in h_prev.iter_mut().enumerate().take(n + 1).skip(1) {
        let v = -(open + extend * j as i32);
        if v < best - xdrop {
            break;
        }
        *slot = v;
        hi = j;
    }
    let mut lo = 0usize;
    // Columns of `h_prev`/`f_prev` actually written by the previous row.
    // Reads outside this range must see NEG: once the live window's left
    // edge advances, cells to its left still hold values from *two* rows
    // back, and treating them as live manufactures phantom paths (caught
    // by the rectangle-vs-x-drop debug assertion on repeat-rich inputs).
    let (mut valid_lo, mut valid_hi) = (0usize, n);

    for i in 1..=m {
        let row = matrix.row(q[i - 1]);
        let mut new_lo = usize::MAX;
        let mut new_hi = 0usize;
        let mut e = NEG; // E(i, j) rolling along the row

        let mut j = lo;
        let row_start = j;
        if j == 0 {
            // Boundary column: leading vertical gap.
            let v = -(open + extend * i as i32);
            let alive = v >= best - xdrop;
            h_cur[0] = if alive { v } else { NEG };
            f_cur[0] = NEG;
            if alive {
                new_lo = 0;
                new_hi = 0;
            }
            j = 1;
        }
        let mut last_processed = row_start;
        while j <= n {
            let diag = if j >= 1 && (valid_lo..=valid_hi).contains(&(j - 1)) {
                h_prev[j - 1]
            } else {
                NEG
            };
            let (up_h, up_f) = if (valid_lo..=valid_hi).contains(&j) {
                (h_prev[j], f_prev[j])
            } else {
                (NEG, NEG)
            };
            let mval = if diag > NEG / 2 { diag + row[s[j - 1] as usize] as i32 } else { NEG };
            let fval = up_f.max(up_h.saturating_sub(open)) - extend;
            let left_h = if j > row_start { h_cur[j - 1] } else { NEG };
            e = e.max(left_h.saturating_sub(open)) - extend;
            let h = mval.max(e).max(fval);
            let alive = h >= best - xdrop && h > NEG / 2;
            if alive {
                h_cur[j] = h;
                f_cur[j] = fval;
                if new_lo == usize::MAX {
                    new_lo = j;
                }
                new_hi = j;
                if h > best {
                    best = h;
                    bi = i;
                    bj = j;
                }
            } else {
                h_cur[j] = NEG;
                f_cur[j] = NEG;
            }
            last_processed = j;
            // Beyond the previous row's reach only E can stay alive.
            if j > hi && !alive && e < best - xdrop {
                break;
            }
            j += 1;
        }
        if new_lo == usize::MAX {
            break; // the whole row died — extension is finished
        }
        lo = new_lo;
        hi = new_hi;
        valid_lo = row_start;
        valid_hi = last_processed;
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }
    GappedExtension { score: best, q_consumed: bi as u32, s_consumed: bj as u32 }
}

/// Gapped extension seeded at `(seed_q, seed_s)`, score only.
///
/// The left half covers `q[..=seed_q]` / `s[..=seed_s]` (anchored at the
/// seed pair, growing leftward); the right half covers the suffixes after
/// the seed. Coordinates in the result are for the original sequences.
#[allow(
    clippy::too_many_arguments,
    reason = "sequences, seed, scoring and x-drop are independent kernel inputs"
)]
pub fn gapped_extend_score(
    matrix: &Matrix,
    query: &[u8],
    subject: &[u8],
    seed_q: u32,
    seed_s: u32,
    open: i32,
    extend: i32,
    xdrop: i32,
) -> GappedAlignment {
    let rev_q = reversed_through(query, seed_q);
    extend_seeded(
        xdrop_half, matrix, query, &rev_q, subject, seed_q, seed_s, open, extend, xdrop, false,
    )
}

/// Gapped extension with traceback (the stage-4 realignment).
///
/// Runs the same half-extensions, then re-aligns each half's discovered
/// rectangle with a full direction-recording DP and stitches the operation
/// lists. The final x-drop (`xdrop`) is typically larger than the
/// preliminary one (NCBI: 25 bits vs 15 bits).
#[allow(
    clippy::too_many_arguments,
    reason = "sequences, seed, scoring and x-drop are independent kernel inputs"
)]
pub fn gapped_extend_traceback(
    matrix: &Matrix,
    query: &[u8],
    subject: &[u8],
    seed_q: u32,
    seed_s: u32,
    open: i32,
    extend: i32,
    xdrop: i32,
) -> GappedAlignment {
    let rev_q = reversed_through(query, seed_q);
    extend_seeded(
        xdrop_half, matrix, query, &rev_q, subject, seed_q, seed_s, open, extend, xdrop, true,
    )
}

/// A half-extension kernel: [`xdrop_half`] or its striped twin.
pub(crate) type HalfFn = fn(&Matrix, &[u8], &[u8], i32, i32, i32) -> GappedExtension;

/// `seq[..=last]` reversed: what a left half-extension reads.
pub(crate) fn reversed_through(seq: &[u8], last: u32) -> Vec<u8> {
    seq[..=last as usize].iter().rev().copied().collect()
}

/// The seeded extension behind all four `gapped_extend_*` entry points and
/// [`GappedExtender`]: two anchored half-extensions by `half`, plus — with
/// `with_ops` — the rectangle realignment of each half. `rev_q` is
/// `query[..=seed_q]` reversed.
#[allow(
    clippy::too_many_arguments,
    reason = "sequences, seed, scoring and x-drop are independent kernel inputs"
)]
pub(crate) fn extend_seeded(
    half: HalfFn,
    matrix: &Matrix,
    query: &[u8],
    rev_q: &[u8],
    subject: &[u8],
    seed_q: u32,
    seed_s: u32,
    open: i32,
    extend: i32,
    xdrop: i32,
    with_ops: bool,
) -> GappedAlignment {
    let (sq, ss) = (seed_q as usize, seed_s as usize);
    debug_assert!(sq < query.len() && ss < subject.len() && rev_q.len() == sq + 1);
    let rev_s = reversed_through(subject, seed_s);
    let left = half(matrix, rev_q, &rev_s, open, extend, xdrop);
    let right = half(
        matrix,
        &query[sq + 1..],
        &subject[ss + 1..],
        open,
        extend,
        xdrop,
    );
    let (lq, ls) = (left.q_consumed as usize, left.s_consumed as usize);
    let (rq, rs) = (right.q_consumed as usize, right.s_consumed as usize);
    let (mut score, mut ops) = (left.score + right.score, Vec::new());
    if with_ops {
        let (left_ops, left_score) =
            anchored_traceback(matrix, &rev_q[..lq], &rev_s[..ls], open, extend);
        let (right_ops, right_score) = anchored_traceback(
            matrix,
            &query[sq + 1..sq + 1 + rq],
            &subject[ss + 1..ss + 1 + rs],
            open,
            extend,
        );
        // The unpruned rectangle DP can only match or beat the x-drop pass
        // (a path may dip below the drop-off and recover); it is authoritative
        // for the reported alignment, mirroring NCBI's traceback stage.
        debug_assert!(
            left_score >= left.score && right_score >= right.score,
            "traceback rectangle below x-drop: left {left_score} vs {}, right {right_score} vs {}, \
             seed ({seed_q}, {seed_s}), q = {query:?}, s = {subject:?}",
            left.score,
            right.score
        );
        score = left_score + right_score;
        ops = left_ops;
        ops.reverse();
        ops.extend_from_slice(&right_ops);
    }
    GappedAlignment {
        q_start: (sq + 1 - lq) as u32,
        q_end: (sq + 1 + rq) as u32,
        s_start: (ss + 1 - ls) as u32,
        s_end: (ss + 1 + rs) as u32,
        score,
        ops,
    }
}

/// One query set up for many seeded gapped extensions: the query is
/// reversed once here, and each seed's left half slices that instead of
/// rebuilding its reversed prefix. Results are those of the
/// `gapped_extend_*` functions of the chosen kernel, which are the same
/// for both kernels (`tests/kernel_conformance.rs`).
pub struct GappedExtender<'a> {
    matrix: &'a Matrix,
    query: &'a [u8],
    rev_query: Vec<u8>,
    open: i32,
    extend: i32,
    half: HalfFn,
}

impl<'a> GappedExtender<'a> {
    /// Prepare `query` for extension under `matrix` and the affine gap
    /// costs, with the striped half-extension kernel if `striped`.
    pub fn new(
        matrix: &'a Matrix,
        query: &'a [u8],
        open: i32,
        extend: i32,
        striped: bool,
    ) -> GappedExtender<'a> {
        GappedExtender {
            matrix,
            query,
            rev_query: query.iter().rev().copied().collect(),
            open,
            extend,
            half: if striped {
                crate::striped::xdrop_half_striped
            } else {
                xdrop_half
            },
        }
    }

    /// [`gapped_extend_score`] of the prepared query against `subject`.
    pub fn score(&self, subject: &[u8], seed_q: u32, seed_s: u32, xdrop: i32) -> GappedAlignment {
        self.run(subject, seed_q, seed_s, xdrop, false)
    }

    /// [`gapped_extend_traceback`] of the prepared query against `subject`.
    pub fn traceback(
        &self,
        subject: &[u8],
        seed_q: u32,
        seed_s: u32,
        xdrop: i32,
    ) -> GappedAlignment {
        self.run(subject, seed_q, seed_s, xdrop, true)
    }

    fn run(
        &self,
        subject: &[u8],
        seed_q: u32,
        seed_s: u32,
        xdrop: i32,
        with_ops: bool,
    ) -> GappedAlignment {
        let rev_q = &self.rev_query[self.query.len() - 1 - seed_q as usize..];
        extend_seeded(
            self.half,
            self.matrix,
            self.query,
            rev_q,
            subject,
            seed_q,
            seed_s,
            self.open,
            self.extend,
            xdrop,
            with_ops,
        )
    }
}

/// Global (anchored at both corners) affine alignment of `q` vs `s` with
/// direction recording, returning the op list corner→corner and its score.
/// Public for the Smith–Waterman traceback, which re-aligns the optimal
/// local rectangle corner to corner.
pub fn global_align(
    matrix: &Matrix,
    q: &[u8],
    s: &[u8],
    open: i32,
    extend: i32,
) -> (Vec<AlignOp>, i32) {
    anchored_traceback(matrix, q, s, open, extend)
}

// One direction byte per DP cell. Bits 0–1: which state won H — diagonal
// (Sub), E (Del, consumes s) or F (Ins, consumes q); bit 2 / bit 3:
// whether the cell's E / F gap was extended (set) or opened (clear).
const DIR_DIAG: u8 = 0;
const DIR_E: u8 = 1;
const DIR_F: u8 = 2;
const DIR_MASK: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// The rectangle realignment: a full (unpruned) affine DP over `q` × `s`
/// anchored at both corners. Scores live in two rolling rows (H, F) and a
/// scalar E along the row; all the walk-back needs is one direction byte
/// per cell. Ties go diagonal, then E, then F for H, and to *opening* a
/// gap over extending one — pinned against the six-matrix formulation by
/// the battery in this module's tests.
pub(crate) fn anchored_traceback(
    matrix: &Matrix,
    q: &[u8],
    s: &[u8],
    open: i32,
    extend: i32,
) -> (Vec<AlignOp>, i32) {
    let (m, n) = (q.len(), s.len());
    if m == 0 && n == 0 {
        return (Vec::new(), 0);
    }
    let width = n + 1;
    let mut dirs = vec![0u8; (m + 1) * width];
    // h[j] holds H(i-1, j) until row i overwrites it; f[j] likewise.
    let mut h = vec![0i32; width];
    let mut f = vec![NEG; width];
    for j in 1..=n {
        h[j] = -(open + extend * j as i32);
        dirs[j] = DIR_E | if j > 1 { E_EXT } else { 0 };
    }
    for i in 1..=m {
        let row = matrix.row(q[i - 1]);
        let dir_row = &mut dirs[i * width..(i + 1) * width];
        let mut diag = h[0];
        let mut left = -(open + extend * i as i32);
        h[0] = left;
        dir_row[0] = DIR_F | if i > 1 { F_EXT } else { 0 };
        let mut e = NEG;
        let cells = dir_row[1..]
            .iter_mut()
            .zip(h[1..].iter_mut().zip(f[1..].iter_mut()));
        for ((dir, (h_j, f_j)), &s_j) in cells.zip(s) {
            let eo = left.saturating_sub(open + extend);
            let ee = e.saturating_sub(extend);
            let e_flag = if ee > eo { E_EXT } else { 0 };
            e = ee.max(eo);

            let fo = h_j.saturating_sub(open + extend);
            let fe = f_j.saturating_sub(extend);
            let f_flag = if fe > fo { F_EXT } else { 0 };
            let fv = fe.max(fo);
            *f_j = fv;

            let mval = diag + row[s_j as usize] as i32;
            let gap = e.max(fv);
            let gap_dir = if e >= fv { DIR_E } else { DIR_F };
            let hv = mval.max(gap);
            let h_dir = if mval >= gap { DIR_DIAG } else { gap_dir };
            diag = *h_j;
            *h_j = hv;
            left = hv;
            *dir = h_dir | e_flag | f_flag;
        }
    }
    // Walk back from (m, n) to (0, 0).
    let mut ops = Vec::with_capacity(m + n);
    let (mut i, mut j) = (m, n);
    let mut state = DIR_DIAG; // which matrix the walk is in: H, E or F
    while i > 0 || j > 0 {
        let dir = dirs[i * width + j];
        match state {
            DIR_DIAG => match dir & DIR_MASK {
                DIR_DIAG => {
                    ops.push(AlignOp::Sub);
                    i -= 1;
                    j -= 1;
                }
                gap => state = gap,
            },
            DIR_E => {
                ops.push(AlignOp::Del);
                j -= 1;
                if dir & E_EXT == 0 {
                    state = DIR_DIAG;
                }
            }
            _ => {
                ops.push(AlignOp::Ins);
                i -= 1;
                if dir & F_EXT == 0 {
                    state = DIR_DIAG;
                }
            }
        }
    }
    ops.reverse();
    (ops, h[n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::encode_str;
    use scoring::BLOSUM62;

    fn enc(s: &str) -> Vec<u8> {
        encode_str(s).unwrap()
    }

    fn self_score(q: &[u8]) -> i32 {
        q.iter().map(|&c| BLOSUM62.score(c, c)).sum()
    }

    /// The score `g.ops` spell out over `q` / `s`. A gap is a maximal run
    /// of one gap op; `seam` — the lattice point where a seeded
    /// alignment's two halves meet — also ends a run, because each half
    /// was scored on its own.
    fn score_from_ops(
        q: &[u8],
        s: &[u8],
        g: &GappedAlignment,
        open: i32,
        extend: i32,
        seam: Option<(usize, usize)>,
    ) -> i32 {
        let (mut qi, mut sj) = (g.q_start as usize, g.s_start as usize);
        let mut score = 0i32;
        let mut prev = AlignOp::Sub;
        for &op in &g.ops {
            if seam == Some((qi, sj)) {
                prev = AlignOp::Sub;
            }
            match op {
                AlignOp::Sub => {
                    score += BLOSUM62.score(q[qi], s[sj]);
                    qi += 1;
                    sj += 1;
                }
                AlignOp::Del => sj += 1,
                AlignOp::Ins => qi += 1,
            }
            if op != AlignOp::Sub {
                score -= if prev == op { extend } else { open + extend };
            }
            prev = op;
        }
        assert_eq!(
            (qi, sj),
            (g.q_end as usize, g.s_end as usize),
            "ops do not span the ranges"
        );
        score
    }

    /// The reference [`anchored_traceback`] is pinned against: the textbook
    /// formulation with three full score matrices and three full direction
    /// matrices.
    fn anchored_traceback_oracle(
        matrix: &Matrix,
        q: &[u8],
        s: &[u8],
        open: i32,
        extend: i32,
    ) -> (Vec<AlignOp>, i32) {
        let (m, n) = (q.len(), s.len());
        if m == 0 && n == 0 {
            return (Vec::new(), 0);
        }
        let width = n + 1;
        let idx = |i: usize, j: usize| i * width + j;
        let mut h = vec![NEG; (m + 1) * width];
        let mut e = vec![NEG; (m + 1) * width];
        let mut f = vec![NEG; (m + 1) * width];
        // Direction of the H winner: 0 = diag (Sub), 1 = E (Del, consume s),
        // 2 = F (Ins, consume q). For E/F: whether the gap was opened (0) or
        // extended (1).
        let mut h_dir = vec![0u8; (m + 1) * width];
        let mut e_ext = vec![0u8; (m + 1) * width];
        let mut f_ext = vec![0u8; (m + 1) * width];

        h[idx(0, 0)] = 0;
        for j in 1..=n {
            e[idx(0, j)] = -(open + extend * j as i32);
            h[idx(0, j)] = e[idx(0, j)];
            h_dir[idx(0, j)] = 1;
            e_ext[idx(0, j)] = if j > 1 { 1 } else { 0 };
        }
        for i in 1..=m {
            f[idx(i, 0)] = -(open + extend * i as i32);
            h[idx(i, 0)] = f[idx(i, 0)];
            h_dir[idx(i, 0)] = 2;
            f_ext[idx(i, 0)] = if i > 1 { 1 } else { 0 };
            let row = matrix.row(q[i - 1]);
            for j in 1..=n {
                let eo = h[idx(i, j - 1)].saturating_sub(open + extend);
                let ee = e[idx(i, j - 1)].saturating_sub(extend);
                let (ev, eflag) = if ee > eo { (ee, 1u8) } else { (eo, 0u8) };
                e[idx(i, j)] = ev;
                e_ext[idx(i, j)] = eflag;

                let fo = h[idx(i - 1, j)].saturating_sub(open + extend);
                let fe = f[idx(i - 1, j)].saturating_sub(extend);
                let (fv, fflag) = if fe > fo { (fe, 1u8) } else { (fo, 0u8) };
                f[idx(i, j)] = fv;
                f_ext[idx(i, j)] = fflag;

                let mval = h[idx(i - 1, j - 1)] + row[s[j - 1] as usize] as i32;
                let (hv, hd) = if mval >= ev && mval >= fv {
                    (mval, 0u8)
                } else if ev >= fv {
                    (ev, 1u8)
                } else {
                    (fv, 2u8)
                };
                h[idx(i, j)] = hv;
                h_dir[idx(i, j)] = hd;
            }
        }
        // Walk back from (m, n) to (0, 0).
        let mut ops = Vec::with_capacity(m + n);
        let (mut i, mut j) = (m, n);
        // State: 0 = in H, 1 = in E, 2 = in F.
        let mut state = 0u8;
        while i > 0 || j > 0 {
            match state {
                0 => match h_dir[idx(i, j)] {
                    0 => {
                        ops.push(AlignOp::Sub);
                        i -= 1;
                        j -= 1;
                    }
                    1 => state = 1,
                    _ => state = 2,
                },
                1 => {
                    ops.push(AlignOp::Del);
                    let was_ext = e_ext[idx(i, j)] == 1;
                    j -= 1;
                    if !was_ext {
                        state = 0;
                    }
                }
                _ => {
                    ops.push(AlignOp::Ins);
                    let was_ext = f_ext[idx(i, j)] == 1;
                    i -= 1;
                    if !was_ext {
                        state = 0;
                    }
                }
            }
        }
        ops.reverse();
        (ops, h[idx(m, n)])
    }

    /// SplitMix64 step: the battery's only randomness.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_seq(rng: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| (next(rng) % 20) as u8).collect()
    }

    /// A diverged copy of `parent`: about one substitution in five and an
    /// indel of 1–4 residues roughly every thirty positions.
    fn homolog_of(rng: &mut u64, parent: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(parent.len() + 8);
        let mut i = 0;
        while i < parent.len() {
            match next(rng) % 60 {
                0 => i += 1 + (next(rng) % 4) as usize,
                1 => {
                    let len = 1 + (next(rng) % 4) as usize;
                    out.extend(random_seq(rng, len));
                }
                r if r < 14 => {
                    out.push((next(rng) % 20) as u8);
                    i += 1;
                }
                _ => {
                    out.push(parent[i]);
                    i += 1;
                }
            }
        }
        out
    }

    /// The rolling-row, one-byte-per-cell traceback returns the op list
    /// and score of the six-matrix oracle — tie-breaks included — and
    /// both seeded entry points of the kernel under test (`KERNEL=scalar|
    /// striped`, default striped; they share the traceback) stay valid,
    /// score what their ops spell, and agree with [`GappedExtender`].
    /// `KERNEL_SEED=<u64>` varies the sequences.
    #[test]
    fn traceback_battery_matches_six_matrix_oracle() {
        let seed = match std::env::var("KERNEL_SEED") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("KERNEL_SEED must be a u64, got '{v}'")),
            Err(_) => 0xC0DE,
        };
        let striped = match std::env::var("KERNEL").as_deref() {
            Ok("scalar") => false,
            Ok("striped" | "auto") | Err(_) => true,
            Ok(v) => panic!("KERNEL must be auto|scalar|striped, got '{v}'"),
        };
        let seeded = if striped {
            crate::striped::gapped_extend_traceback_striped
        } else {
            gapped_extend_traceback
        };
        let mut rng = seed;
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        // Empty and unit inputs, one side empty.
        for (m, n) in [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 9),
            (9, 0),
            (1, 40),
            (40, 1),
        ] {
            pairs.push((random_seq(&mut rng, m), random_seq(&mut rng, n)));
        }
        // Lengths straddling 128, unrelated and homolog-like.
        for m in [127, 128, 129] {
            for n in [126, 128, 131] {
                pairs.push((random_seq(&mut rng, m), random_seq(&mut rng, n)));
            }
            let parent = random_seq(&mut rng, m);
            pairs.push((parent.clone(), homolog_of(&mut rng, &parent)));
            pairs.push((parent.clone(), parent));
        }
        for _ in 0..40 {
            let (m, n) = (
                (next(&mut rng) % 200) as usize,
                (next(&mut rng) % 200) as usize,
            );
            pairs.push((random_seq(&mut rng, m), random_seq(&mut rng, n)));
            let parent = random_seq(&mut rng, 20 + m);
            pairs.push((homolog_of(&mut rng, &parent), homolog_of(&mut rng, &parent)));
            // A two-letter alphabet makes equal-score paths common: the
            // tie-breaks decide the op list.
            let low = |rng: &mut u64, len| {
                (0..len)
                    .map(|_| [0u8, 7][(next(rng) % 2) as usize])
                    .collect()
            };
            pairs.push((low(&mut rng, m % 60), low(&mut rng, n % 60)));
        }
        for (q, s) in &pairs {
            let cx = format!("seed {seed}, q = {q:?}, s = {s:?}");
            for (open, extend) in [(11, 1), (5, 2), (0, 1)] {
                let got = anchored_traceback(&BLOSUM62, q, s, open, extend);
                assert_eq!(
                    got,
                    anchored_traceback_oracle(&BLOSUM62, q, s, open, extend),
                    "{cx}"
                );
                let g = GappedAlignment {
                    q_start: 0,
                    q_end: q.len() as u32,
                    s_start: 0,
                    s_end: s.len() as u32,
                    score: got.1,
                    ops: got.0,
                };
                assert!(g.validate(), "{cx}");
                assert_eq!(
                    score_from_ops(q, s, &g, open, extend, None),
                    g.score,
                    "{cx}"
                );
            }
            if q.is_empty() || s.is_empty() {
                continue;
            }
            let extender = GappedExtender::new(&BLOSUM62, q, 11, 1, striped);
            for _ in 0..3 {
                let sq = (next(&mut rng) % q.len() as u64) as u32;
                let ss = (next(&mut rng) % s.len() as u64) as u32;
                let g = seeded(&BLOSUM62, q, s, sq, ss, 11, 1, 40);
                assert!(g.validate(), "seed ({sq}, {ss}), {cx}");
                let seam = Some((sq as usize + 1, ss as usize + 1));
                assert_eq!(
                    score_from_ops(q, s, &g, 11, 1, seam),
                    g.score,
                    "seed ({sq}, {ss}), {cx}"
                );
                assert_eq!(
                    extender.traceback(s, sq, ss, 40),
                    g,
                    "seed ({sq}, {ss}), {cx}"
                );
                let score_only = extender.score(s, sq, ss, 40);
                let free = if striped {
                    crate::striped::gapped_extend_score_striped(&BLOSUM62, q, s, sq, ss, 11, 1, 40)
                } else {
                    gapped_extend_score(&BLOSUM62, q, s, sq, ss, 11, 1, 40)
                };
                assert_eq!(score_only, free, "seed ({sq}, {ss}), {cx}");
            }
        }
    }

    #[test]
    fn identical_sequences_score_full_length() {
        let q = enc("MARNDCQEGHILKMFPSTWYV");
        let g = gapped_extend_score(&BLOSUM62, &q, &q, 10, 10, 11, 1, 100);
        assert_eq!(g.score, self_score(&q));
        assert_eq!((g.q_start, g.q_end), (0, q.len() as u32));
        assert_eq!((g.s_start, g.s_end), (0, q.len() as u32));
    }

    #[test]
    fn half_extension_empty_inputs() {
        let g = xdrop_half(&BLOSUM62, &[], &[], 11, 1, 40);
        assert_eq!(g, GappedExtension { score: 0, q_consumed: 0, s_consumed: 0 });
        let q = enc("WWW");
        let g = xdrop_half(&BLOSUM62, &q, &[], 11, 1, 40);
        assert_eq!(g.score, 0);
    }

    #[test]
    fn half_extension_pure_match() {
        let q = enc("WWWWW");
        let g = xdrop_half(&BLOSUM62, &q, &q, 11, 1, 40);
        assert_eq!(g.score, 55);
        assert_eq!((g.q_consumed, g.s_consumed), (5, 5));
    }

    #[test]
    fn gap_is_found_when_it_pays() {
        // Subject has 2 extra residues inserted in the middle of a strong
        // region: crossing the insertion with a gap (cost 11 + 2·1 = 13)
        // beats stopping (left W-run alone).
        let q = enc("WWWWWWWWWW");
        let s = enc("WWWWWAAWWWWW");
        let g = gapped_extend_score(&BLOSUM62, &q, &s, 2, 2, 11, 1, 40);
        // Perfect 10 W matches (110) minus gap open+2×extend (13) = 97.
        assert_eq!(g.score, 110 - 13);
        assert_eq!((g.q_start, g.q_end), (0, 10));
        assert_eq!((g.s_start, g.s_end), (0, 12));
    }

    #[test]
    fn traceback_ops_reconstruct_score() {
        let q = enc("WWWWWWWWWW");
        let s = enc("WWWWWAAWWWWW");
        let g = gapped_extend_traceback(&BLOSUM62, &q, &s, 2, 2, 11, 1, 40);
        assert!(g.validate(), "ops inconsistent with ranges");
        let score = score_from_ops(&q, &s, &g, 11, 1, None);
        assert_eq!(score, g.score);
        assert_eq!(g.score, 97);
        // Exactly one 2-residue deletion (subject insertion).
        let dels = g.ops.iter().filter(|o| matches!(o, AlignOp::Del)).count();
        assert_eq!(dels, 2);
    }

    #[test]
    fn xdrop_stops_extension_into_noise() {
        // A strong core flanked by hostile residues: the extension must
        // not cross a wall whose cumulative penalty exceeds the x-drop.
        let q = enc("WWWWWPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPWWWWW");
        let s = enc("WWWWWGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGWWWWW");
        // Seed inside the left W-run; P-vs-G is −2 per residue, the wall is
        // 50 residues (−100) and gaps cannot bridge 45+ residues cheaper
        // than xdrop under open=11, extend=1 with xdrop 30.
        let g = gapped_extend_score(&BLOSUM62, &q, &s, 2, 2, 11, 1, 30);
        assert_eq!(g.score, 55);
        assert_eq!((g.q_start, g.q_end), (0, 5));
    }

    #[test]
    fn seed_at_last_residue() {
        let q = enc("AAW");
        let s = enc("CCW");
        let g = gapped_extend_score(&BLOSUM62, &q, &s, 2, 2, 11, 1, 40);
        assert!(g.score >= 11);
        assert_eq!(g.q_end, 3);
    }

    /// Regression: a repeat-rich pair where the live window's left edge
    /// advances and the next row used to read stale cells from two rows
    /// back, inflating the x-drop score above the true optimum (caught by
    /// the rectangle-vs-x-drop cross-check).
    #[test]
    fn xdrop_stale_window_regression() {
        let seq: Vec<u8> = vec![
            0, 7, 0, 7, 0, 7, 0, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 10, 19, 10,
            19, 10, 19, 10, 19, 10, 19, 10, 19, 10, 19, 10, 8, 9, 10, 11, 12, 13, 14, 15,
            16, 17,
        ];
        let rev_q: Vec<u8> = seq[..=39].iter().rev().copied().collect();
        let rev_s: Vec<u8> = seq[..=13].iter().rev().copied().collect();
        let h = xdrop_half(&BLOSUM62, &rev_q, &rev_s, 11, 1, 39);
        let (_, rect) = global_align(
            &BLOSUM62,
            &rev_q[..h.q_consumed as usize],
            &rev_s[..h.s_consumed as usize],
            11,
            1,
        );
        assert_eq!(h.score, 35, "x-drop must not exceed the unpruned optimum");
        assert_eq!(rect, h.score);
    }

    #[test]
    fn score_and_traceback_agree() {
        let q = enc("MKVLAARNDWWWQQEGHILKMFPST");
        let s = enc("MKVLSARNDWWWAQQEGHILKMFPST");
        let a = gapped_extend_score(&BLOSUM62, &q, &s, 10, 10, 11, 1, 40);
        let b = gapped_extend_traceback(&BLOSUM62, &q, &s, 10, 10, 11, 1, 40);
        assert_eq!(a.score, b.score);
        assert_eq!((a.q_start, a.q_end, a.s_start, a.s_end), (b.q_start, b.q_end, b.s_start, b.s_end));
        assert!(b.validate());
    }
}
