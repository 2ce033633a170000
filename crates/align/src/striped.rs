//! Striped extension kernels (DESIGN.md §3.8): profile-driven, SWAR- and
//! chunk-vectorized twins of [`crate::ungapped::extend_two_hit`] and the
//! gapped x-drop machinery in [`crate::gapped`], **bit-identical by
//! construction** to their scalar oracles.
//!
//! * [`extend_two_hit_striped`] walks the diagonal in chunks of eight:
//!   scores come from a per-query [`ScoreProfile`] row gather, in-chunk
//!   running sums from the packed-u64 prefix sums in [`crate::swar`].
//!   Per chunk it then reduces the prefixes to `max`, `min`, and the
//!   worst intra-chunk *drawdown* (running max minus current prefix).
//!   When the drawdown and the entry-best deficit both fit inside the
//!   x-drop, the sequential walk provably neither breaks nor changes its
//!   decisions mid-chunk, so the whole chunk commits branchlessly with
//!   at most one best-update (at the first prefix arg-max — the same
//!   cell the strict-improvement scalar walk would pick). Only chunks
//!   that might break replay the scalar walk lane by lane.
//! * [`xdrop_half_striped`] runs each DP row of the banded gapped
//!   x-drop in two loops over the live window, in flat `i16` buffers.
//!   Pass 1 is element-wise — the next row's vertical-gap lane `F =
//!   max(F_up, H_up − open) − extend`, a single-output select chain the
//!   autovectorizer lifts. Pass 2 is one fused serial walk: the match
//!   candidate read straight from the query residue's matrix row,
//!   `matrix.row(q[i − 1])[s[j − 1]]` (two loads off the serial chains,
//!   so they run while the chains wait; a precomputed score strip would
//!   cost about one write per cell on the narrow x-drop bands),
//!   `G = max(M, F)`,
//!   the rolling horizontal gap `E(j+1) = max(E(j), G(j) − open) −
//!   extend` (reopening a gap from a gap cell never beats extending it,
//!   and a dead cell's true value can never climb back above `best −
//!   xdrop`, so dropping the clamp and the `E`-origin term changes no
//!   output), `H = max(G, E)`, the per-cell prefix best, and the
//!   liveness clamp against `prefix_best − xdrop` — exactly the scalar
//!   kernel's in-row threshold ratchet, so the row best lands at the
//!   first arg-max the strict-improvement scalar walk would pick. The
//!   window itself only spans columns with a live diagonal or vertical
//!   source; past its right edge the row is pure `E` decay, filled in
//!   closed form (an affine ramp of `1 + (E − threshold) / extend`
//!   columns) instead of walked.
//!
//! # Why `i16` storage is exact
//!
//! Live cells satisfy `best − xdrop ≤ h ≤ best`; the domain guard caps
//! `open`, `extend`, `xdrop` at `MAX_PENALTY` and the saturation guard
//! rescues to the scalar kernel whenever `best` crosses `RESCUE_BEST`,
//! so every *live* value the two kernels compute is the same exact
//! integer. Dead cells are another matter: the scalar kernel's sentinel
//! chains sit near `i32::MIN / 4` while the striped kernel's sit near
//! `NEG16`, so dead values differ *in magnitude* between the kernels —
//! but a dead chain can never out-compare a live value or a threshold
//! (live values are ≥ `−MAX_PENALTY`, dead chains are ≤ `NEG16 −
//! extend`, and the floor `NEG16 − open − extend` keeps them from
//! wrapping), and a dead cell's stored value is always the sentinel
//! itself. Every comparison therefore resolves identically, which is
//! the bit-identity the conformance battery
//! (`tests/kernel_conformance.rs`) pins on adversarial inputs.
//!
//! Inputs outside the guarded domain (huge penalties, zero gap-extend)
//! are forwarded to the scalar kernel wholesale — slower, never wrong.

use crate::gapped::{extend_seeded, reversed_through, xdrop_half, GappedExtension};
use crate::swar;
use crate::types::{GappedAlignment, UngappedAlignment};
use crate::ungapped::TwoHitOutcome;
use bioseq::alphabet::WORD_LEN;
use scoring::{Matrix, ScoreProfile};
use std::sync::atomic::{AtomicU64, Ordering};

/// Diagonal-walk chunk width of the ungapped kernel (two packed u64s of
/// four i16 lanes each).
pub(crate) const CHUNK: usize = 8;

/// Sentinel for unreachable DP cells in the i16 domain. Far enough from
/// `i16::MIN` that a dead chain (`≥ NEG16 − open − extend`) cannot wrap,
/// and far enough below any live value (`≥ −MAX_PENALTY`) that dead
/// loses every comparison, exactly like the scalar `i32::MIN / 4`.
const NEG16: i32 = -8192;

/// Upper bound on `open`, `extend`, and `xdrop` for the i16 DP. Larger
/// penalties route to the scalar kernel.
const MAX_PENALTY: i32 = 2048;

/// Saturation guard: when `best` crosses this after a row, the half is
/// re-run with the scalar kernel (one more row could add a matrix score
/// of up to 127; 512 leaves comfortable margin below `i16::MAX`).
const RESCUE_BEST: i32 = i16::MAX as i32 - 512;

/// Times the gapped striped kernel rescued a half to the scalar oracle.
/// Process-wide; exported as the `engine.kernel.gapped_rescues` series.
static RESCUES: AtomicU64 = AtomicU64::new(0);

/// Total scalar-rescue count so far (monotone, process-wide).
pub fn gapped_rescues() -> u64 {
    RESCUES.load(Ordering::SeqCst)
}

/// Index of the first lane equal to the chunk maximum — the lane the
/// strict-improvement (`>`) scalar walk would leave its best at.
#[inline]
fn first_argmax(pre: &[i16; CHUNK], top: i16) -> usize {
    let mut k = 0;
    while pre[k] != top {
        k += 1;
    }
    k
}

/// Striped twin of [`crate::ungapped::extend_two_hit`].
///
/// `profile` must be [`ScoreProfile::for_query`] over the query the hits
/// were found in; the query residues themselves are not needed. The
/// striped walk is untraced — engines that replay access patterns
/// through [`memsim::Tracer`] use the scalar kernel.
///
/// # Panics
/// Debug-asserts the word at `(q2, s2)` lies inside both sequences.
pub fn extend_two_hit_striped(
    profile: &ScoreProfile,
    subject: &[u8],
    first_q_end: Option<u32>,
    q2: u32,
    s2: u32,
    xdrop: i32,
) -> TwoHitOutcome {
    let qlen = profile.len();
    let (q2u, s2u) = (q2 as usize, s2 as usize);
    debug_assert!(q2u + WORD_LEN <= qlen);
    debug_assert!(s2u + WORD_LEN <= subject.len());

    // Score the triggering word itself.
    let mut score: i32 = 0;
    for i in 0..WORD_LEN {
        score += profile.score(subject[s2u + i], q2u + i);
    }

    // Left extension, eight diagonal steps at a time.
    let mut best = score;
    let mut running = score;
    let mut best_left = 0u32;
    let steps = q2u.min(s2u);
    let mut i = 1usize;
    let mut broke = false;
    while !broke && i + CHUNK <= steps + 1 {
        let mut sc = [0i16; CHUNK];
        for (k, slot) in sc.iter_mut().enumerate() {
            *slot = profile.score(subject[s2u - (i + k)], q2u - (i + k)) as i16;
        }
        // Two straight-line chunk sums bound the walk: the minimum
        // prefix is at least `negsum` (the chunk's negative mass) and
        // the worst drawdown at most `−negsum`, so those two tests
        // prove no lane trips the x-drop; the maximum prefix is at most
        // `possum`, so the third proves no lane improves the best.
        let mut sum = 0i32;
        let mut possum = 0i32;
        for &v in &sc {
            let v = i32::from(v);
            sum += v;
            possum += v.max(0);
        }
        let negsum = sum - possum;
        if -negsum <= xdrop && best - (running + negsum) <= xdrop {
            // No lane can trip the x-drop: commit the chunk wholesale.
            if running + possum > best {
                if negsum == 0 {
                    // Pure rise: prefixes are nondecreasing, peak = sum,
                    // first attained at the last scoring lane.
                    best = running + sum;
                    let mut k = CHUNK - 1;
                    while sc[k] == 0 {
                        k -= 1;
                    }
                    best_left = (i + k) as u32;
                } else {
                    let pre = swar::prefix8(sc);
                    let mut top = pre[0];
                    for &p in &pre[1..] {
                        top = top.max(p);
                    }
                    let peak = running + i32::from(top);
                    if peak > best {
                        best = peak;
                        best_left = (i + first_argmax(&pre, top)) as u32;
                    }
                }
            }
            running += sum;
            i += CHUNK;
            continue;
        }
        for (k, &v) in sc.iter().enumerate() {
            running += i32::from(v);
            if running > best {
                best = running;
                best_left = (i + k) as u32;
            } else if best - running > xdrop {
                broke = true;
                break;
            }
        }
        if !broke {
            i += CHUNK;
        }
    }
    while !broke && i <= steps {
        running += profile.score(subject[s2u - i], q2u - i);
        if running > best {
            best = running;
            best_left = i as u32;
        } else if best - running > xdrop {
            break;
        }
        i += 1;
    }

    // Two-hit rule: the left extension must connect with the first hit.
    let connected = match first_q_end {
        None => true,
        Some(fe) => q2 - best_left <= fe,
    };
    if !connected {
        return TwoHitOutcome { alignment: None, last_hit_update: q2 };
    }

    // Right extension, continuing from the best left score.
    let mut running = best;
    let mut best_right = 0u32;
    let rsteps = (qlen - q2u - WORD_LEN).min(subject.len() - s2u - WORD_LEN);
    let mut i = 0usize;
    let mut broke = false;
    while !broke && i + CHUNK <= rsteps {
        let mut sc = [0i16; CHUNK];
        for (k, slot) in sc.iter_mut().enumerate() {
            let (qp, sp) = (q2u + WORD_LEN + i + k, s2u + WORD_LEN + i + k);
            *slot = profile.score(subject[sp], qp) as i16;
        }
        let mut sum = 0i32;
        let mut possum = 0i32;
        for &v in &sc {
            let v = i32::from(v);
            sum += v;
            possum += v.max(0);
        }
        let negsum = sum - possum;
        if -negsum <= xdrop && best - (running + negsum) <= xdrop {
            if running + possum > best {
                if negsum == 0 {
                    best = running + sum;
                    let mut k = CHUNK - 1;
                    while sc[k] == 0 {
                        k -= 1;
                    }
                    best_right = (i + k + 1) as u32;
                } else {
                    let pre = swar::prefix8(sc);
                    let mut top = pre[0];
                    for &p in &pre[1..] {
                        top = top.max(p);
                    }
                    let peak = running + i32::from(top);
                    if peak > best {
                        best = peak;
                        best_right = (i + first_argmax(&pre, top) + 1) as u32;
                    }
                }
            }
            running += sum;
            i += CHUNK;
            continue;
        }
        for (k, &v) in sc.iter().enumerate() {
            running += i32::from(v);
            if running > best {
                best = running;
                best_right = (i + k + 1) as u32;
            } else if best - running > xdrop {
                broke = true;
                break;
            }
        }
        if !broke {
            i += CHUNK;
        }
    }
    while !broke && i < rsteps {
        running += profile.score(subject[s2u + WORD_LEN + i], q2u + WORD_LEN + i);
        if running > best {
            best = running;
            best_right = (i + 1) as u32;
        } else if best - running > xdrop {
            break;
        }
        i += 1;
    }

    let alignment = UngappedAlignment {
        q_start: q2 - best_left,
        q_end: q2 + WORD_LEN as u32 + best_right,
        s_start: s2 - best_left,
        s_end: s2 + WORD_LEN as u32 + best_right,
        score: best,
    };
    TwoHitOutcome { alignment: Some(alignment), last_hit_update: alignment.q_end }
}

/// Striped twin of [`crate::gapped::xdrop_half`]: anchored x-drop
/// half-extension, score only, identical result for every input.
///
/// Runs the two-pass i16 DP described in the module docs; inputs outside
/// the i16-safe domain, and halves whose running best approaches
/// `i16::MAX`, are (re-)run with the scalar kernel instead.
pub fn xdrop_half_striped(
    matrix: &Matrix,
    q: &[u8],
    s: &[u8],
    open: i32,
    extend: i32,
    xdrop: i32,
) -> GappedExtension {
    if !(0..=MAX_PENALTY).contains(&open)
        || !(1..=MAX_PENALTY).contains(&extend)
        || !(0..=MAX_PENALTY).contains(&xdrop)
    {
        return xdrop_half(matrix, q, s, open, extend, xdrop);
    }
    let (m, n) = (q.len(), s.len());
    let mut best = 0i32;
    let (mut bi, mut bj) = (0usize, 0usize);

    // Rows hold i16 with the invariant that every position outside the
    // previous row's written span is NEG16 — which is exactly the view
    // the scalar kernel's (valid_lo..=valid_hi) guards construct, so
    // pass 1 can read unguarded.
    let neg = NEG16 as i16;
    let mut h_prev = vec![neg; n + 1];
    let mut f_prev = vec![neg; n + 1];
    let mut h_cur = vec![neg; n + 1];
    let mut f_cur = vec![neg; n + 1];

    // Row 0: leading horizontal gap (same i32 arithmetic as the oracle).
    h_prev[0] = 0;
    let mut hi = 0usize;
    for (j, slot) in h_prev.iter_mut().enumerate().take(n + 1).skip(1) {
        let v = -(open + extend * j as i32);
        if v < best - xdrop {
            break;
        }
        *slot = v as i16;
        hi = j;
    }
    let mut lo = 0usize;
    // Spans possibly holding non-sentinel values, per buffer pair:
    // (h_prev, f_prev) then (h_cur, f_cur) after each swap.
    let mut dirty_prev = (0usize, hi);
    let mut dirty_cur: Option<(usize, usize)> = None;
    let (o16, x16) = (open as i16, extend as i16);

    for i in 1..=m {
        let code = q[i - 1];
        let row_start = lo;
        // Beyond column `hi + 1` the diagonal and vertical sources are
        // all dead, so the row is pure rolling-E decay — handled in
        // closed form by the tail walk below, not by the passes.
        let je = (hi + 1).min(n);
        let mut new_lo = usize::MAX;
        let mut new_hi = 0usize;

        let jstart;
        let mut e;
        if row_start == 0 {
            // Boundary column: leading vertical gap.
            let v = -(open + extend * i as i32);
            let alive = v >= best - xdrop;
            h_cur[0] = if alive { v as i16 } else { neg };
            f_cur[0] = neg;
            if alive {
                new_lo = 0;
                new_hi = 0;
            }
            jstart = 1;
            e = NEG16.max(i32::from(h_cur[0]) - open) - extend;
        } else {
            jstart = row_start;
            e = NEG16 - extend;
        }

        let mut wend = row_start;
        if jstart <= je {
            // Pass 1 (element-wise): F candidates, then G = max(M, F).
            // Split into two single-output loops — LLVM's loop
            // vectorizer declines any loop that stores through two
            // distinct slices, and declines an overflow-checked `+`
            // guarded by a select, so the M candidate is computed
            // unconditionally with `wrapping_add` (exact here: live
            // values are capped by the RESCUE_BEST check below, dead
            // chains are floored at NEG16 − open − extend, and
            // |score| ≤ 127, so no lane can wrap) and masked after.
            // Pass 1a writes the next row's F lane directly: `F =
            // max(F_up, H_up − open) − extend`, floored at the sentinel
            // so repeated decay cannot wrap i16. The floor and the
            // missing liveness clamp are both safe: `H ≥ F` in every
            // cell (G maxes F in) and the x-drop threshold ratchets
            // monotonically, so a sub-threshold F — however it is
            // floored — can never climb back over any later threshold;
            // its descendants only ever lose comparisons, exactly like
            // the sentinel chains the module docs prove out.
            {
                let it =
                    f_cur[jstart..=je].iter_mut().zip(h_prev[jstart..=je].iter().zip(&f_prev[jstart..=je]));
                for (fd, (&uh, &uf)) in it {
                    *fd = (uf.max(uh - o16) - x16).max(neg);
                }
            }
            // Pass 2 fuses the candidate max `G = max(M, F)` with the
            // serial chains — the rolling gap `E(j+1) = max(E(j), G(j)
            // − open) − extend`, the prefix-best ratchet, and the
            // liveness clamp, exactly the scalar kernel's walk. The
            // chains cap the loop at ~two cycles per cell however wide
            // the core is, so the candidate arithmetic rides free in
            // the latency slots a split pass would spend on a T-buffer
            // round trip. (Both a separate sheared pass over an i32
            // buffer and a Hillis–Steele chunk scan of the running
            // maxes measured slower than this fusion.)
            let mut pb = best;
            {
                let mrow = matrix.row(code);
                let half = (NEG16 / 2) as i16;
                let it = h_cur[jstart..=je]
                    .iter_mut()
                    .zip(h_prev[jstart - 1..je].iter().zip(&s[jstart - 1..je]))
                    .zip(&f_cur[jstart..=je]);
                for ((hd, (&d, &r)), &fv) in it {
                    let sum = d.wrapping_add(i16::from(mrow[r as usize]));
                    let mv = if d > half { sum } else { neg };
                    let g = i32::from(mv.max(fv));
                    let h = g.max(e);
                    pb = pb.max(h);
                    *hd = if h >= pb - xdrop { h as i16 } else { neg };
                    e = e.max(g - open) - extend;
                }
            }
            // Live span of the main window (the tail below may extend
            // it): alive cells hold values ≥ prefix_best − xdrop > NEG16.
            if new_lo == usize::MAX {
                if let Some(k) = h_cur[jstart..=je].iter().position(|&h| h != neg) {
                    new_lo = jstart + k;
                }
            }
            if let Some(k) = h_cur[jstart..=je].iter().rposition(|&h| h != neg) {
                new_hi = jstart + k;
            }
            // E-tail: past `hi + 1` the only live source is the rolling
            // E, so `H = E` and it decays by `extend` per column until
            // it falls out of the x-drop window. (`E < prefix_best`
            // always — it descends from some `H − open − extend` — so
            // the tail can never move the best.) Its length is closed
            // form — `1 + (e − threshold) / extend` columns survive —
            // so the walk is two straight fills: an affine ramp for H
            // and the sentinel floor for F (pass 1 would compute `max`
            // over two sentinels here, which the floor absorbs).
            let mut tail_end = je;
            if je < n && e >= pb - xdrop {
                let len = (((e - (pb - xdrop)) / extend) as usize + 1).min(n - je);
                let mut ev = e as i16;
                for hd in &mut h_cur[je + 1..=je + len] {
                    *hd = ev;
                    ev -= x16;
                }
                f_cur[je + 1..=je + len].fill(neg);
                tail_end = je + len;
            }
            if tail_end > je {
                if new_lo == usize::MAX {
                    new_lo = je + 1;
                }
                new_hi = tail_end;
            }
            wend = tail_end;
            // The strict-improvement scalar walk leaves its best at the
            // first cell attaining the row maximum. That cell is alive
            // by definition (`pb ≥ pb − xdrop`), so its stored value is
            // the row max itself; the tail can never reach `pb`.
            if pb > best {
                if let Some(k) = h_cur[jstart..=je].iter().position(|&h| i32::from(h) == pb) {
                    bj = jstart + k;
                }
                bi = i;
                best = pb;
            }
        }
        if best > RESCUE_BEST {
            // i16 headroom exhausted: one more row could saturate a
            // lane. Re-run the whole half in i32 — same answer, proven
            // by the convicted-mutant test in the conformance battery.
            RESCUES.fetch_add(1, Ordering::SeqCst);
            return xdrop_half(matrix, q, s, open, extend, xdrop);
        }
        if new_lo == usize::MAX {
            break; // the whole row died — extension is finished
        }
        // Restore the sentinel invariant on the buffers that now become
        // the "previous" row: clear what row i−2 wrote outside this
        // row's written span.
        let written = (row_start, wend);
        if let Some((d_lo, d_hi)) = dirty_cur {
            if d_lo < written.0 {
                let end = d_hi.min(written.0 - 1);
                h_cur[d_lo..=end].fill(neg);
                f_cur[d_lo..=end].fill(neg);
            }
            if d_hi > written.1 {
                let start = d_lo.max(written.1 + 1);
                h_cur[start..=d_hi].fill(neg);
                f_cur[start..=d_hi].fill(neg);
            }
        }
        dirty_cur = Some(dirty_prev);
        dirty_prev = written;
        lo = new_lo;
        hi = new_hi;
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }
    GappedExtension { score: best, q_consumed: bi as u32, s_consumed: bj as u32 }
}

/// Striped twin of [`crate::gapped::gapped_extend_score`]: seeded gapped
/// extension, score only, bit-identical coordinates and score.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the scalar kernel's signature argument for argument"
)]
pub fn gapped_extend_score_striped(
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
        xdrop_half_striped,
        matrix,
        query,
        &rev_q,
        subject,
        seed_q,
        seed_s,
        open,
        extend,
        xdrop,
        false,
    )
}

/// Striped twin of [`crate::gapped::gapped_extend_traceback`]: the
/// half-extensions run striped; the rectangle realignment (which is
/// already sequential and runs only for reported alignments) is shared
/// with the scalar kernel, so the op list is identical by construction.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors the scalar kernel's signature argument for argument"
)]
pub fn gapped_extend_traceback_striped(
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
        xdrop_half_striped,
        matrix,
        query,
        &rev_q,
        subject,
        seed_q,
        seed_s,
        open,
        extend,
        xdrop,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gapped::{gapped_extend_score, gapped_extend_traceback};
    use crate::ungapped::extend_two_hit;
    use bioseq::alphabet::encode_str;
    use memsim::NullTracer;
    use scoring::BLOSUM62;

    fn enc(s: &str) -> Vec<u8> {
        encode_str(s).unwrap()
    }

    fn check_two_hit(q: &str, s: &str, first: Option<u32>, q2: u32, s2: u32, xdrop: i32) {
        let (q, s) = (enc(q), enc(s));
        let profile = ScoreProfile::for_query(&BLOSUM62, &q);
        let scalar =
            extend_two_hit(&BLOSUM62, &q, &s, first, q2, s2, xdrop, &mut NullTracer, 0, 0);
        let striped = extend_two_hit_striped(&profile, &s, first, q2, s2, xdrop);
        assert_eq!(scalar, striped, "two-hit {q:?} vs {s:?} at ({q2},{s2})");
    }

    #[test]
    fn two_hit_matches_scalar_on_basics() {
        check_two_hit("MARNDCQEGHILK", "MARNDCQEGHILK", Some(3), 8, 8, 16);
        check_two_hit("WWWWWWPPPPPPPP", "WWWWWWGGGGGGGG", Some(3), 3, 3, 16);
        check_two_hit("WWWPPPPPPPWWW", "WWWGGGGGGGWWW", Some(3), 10, 10, 5);
        check_two_hit("WWWPPPPPPPWWW", "WWWGGGGGGGWWW", None, 10, 10, 5);
        check_two_hit("WWW", "WWW", None, 0, 0, 16);
        check_two_hit("AAWWWAA", "GGGAAWWWAAGGG", None, 2, 5, 16);
    }

    #[test]
    fn two_hit_matches_scalar_past_chunk_boundaries() {
        // 40-residue identical cores force multiple full chunks plus a
        // scalar tail in both directions.
        let core = "MKVLAARNDWWWQQEGHILKMFPSTMKVLAARNDWWWQQE";
        check_two_hit(core, core, Some(20), 18, 18, 16);
        check_two_hit(core, core, None, 18, 18, 16);
        // Divergent tails exercise the in-chunk x-drop break.
        let q = format!("{core}PPPPPPPPPPPPPPPP");
        let s = format!("{core}GGGGGGGGGGGGGGGG");
        check_two_hit(&q, &s, Some(20), 18, 18, 10);
    }

    fn check_gapped(q: &[u8], s: &[u8], seed_q: u32, seed_s: u32, xdrop: i32) {
        let a = gapped_extend_score(&BLOSUM62, q, s, seed_q, seed_s, 11, 1, xdrop);
        let b = gapped_extend_score_striped(&BLOSUM62, q, s, seed_q, seed_s, 11, 1, xdrop);
        assert_eq!(a, b, "gapped score {q:?} vs {s:?} seed ({seed_q},{seed_s})");
        let a = gapped_extend_traceback(&BLOSUM62, q, s, seed_q, seed_s, 11, 1, xdrop);
        let b = gapped_extend_traceback_striped(&BLOSUM62, q, s, seed_q, seed_s, 11, 1, xdrop);
        assert_eq!(a, b, "gapped traceback {q:?} vs {s:?}");
    }

    #[test]
    fn gapped_matches_scalar_on_basics() {
        let q = enc("MARNDCQEGHILKMFPSTWYV");
        check_gapped(&q, &q, 10, 10, 100);
        let q = enc("WWWWWWWWWW");
        let s = enc("WWWWWAAWWWWW");
        check_gapped(&q, &s, 2, 2, 40);
        let q = enc("WWWWWPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPWWWWW");
        let s = enc("WWWWWGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGWWWWW");
        check_gapped(&q, &s, 2, 2, 30);
        check_gapped(&enc("AAW"), &enc("CCW"), 2, 2, 40);
    }

    #[test]
    fn gapped_matches_scalar_on_stale_window_regression() {
        let seq: Vec<u8> = vec![
            0, 7, 0, 7, 0, 7, 0, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 10, 19, 10,
            19, 10, 19, 10, 19, 10, 19, 10, 19, 10, 19, 10, 8, 9, 10, 11, 12, 13, 14, 15,
            16, 17,
        ];
        let rev_q: Vec<u8> = seq[..=39].iter().rev().copied().collect();
        let rev_s: Vec<u8> = seq[..=13].iter().rev().copied().collect();
        let a = xdrop_half(&BLOSUM62, &rev_q, &rev_s, 11, 1, 39);
        let b = xdrop_half_striped(&BLOSUM62, &rev_q, &rev_s, 11, 1, 39);
        assert_eq!(a, b);
        assert_eq!(b.score, 35);
    }

    #[test]
    fn out_of_domain_penalties_fall_back_to_scalar() {
        let q = enc("WWWWWWWWWW");
        for (open, extend, xdrop) in
            [(5000, 1, 40), (11, 0, 40), (11, 1, 5000), (-1, 1, 40), (11, 1, -1)]
        {
            let a = xdrop_half(&BLOSUM62, &q, &q, open, extend, xdrop);
            let b = xdrop_half_striped(&BLOSUM62, &q, &q, open, extend, xdrop);
            assert_eq!(a, b, "open={open} extend={extend} xdrop={xdrop}");
        }
    }

    #[test]
    fn long_perfect_match_triggers_rescue_and_still_matches() {
        // 3500 tryptophans score 11 each: best crosses RESCUE_BEST
        // (~32k) near row 2932, far past i16 range — the rescue path
        // must fire and the answer must still be the scalar one.
        let q = vec![encode_str("W").unwrap()[0]; 3500];
        let before = gapped_rescues();
        let a = xdrop_half(&BLOSUM62, &q, &q, 11, 1, 40);
        let b = xdrop_half_striped(&BLOSUM62, &q, &q, 11, 1, 40);
        assert_eq!(a, b);
        assert_eq!(a.score, 11 * 3500);
        assert!(gapped_rescues() > before, "the saturation rescue must have fired");
    }

    #[test]
    fn empty_and_unit_inputs_match_scalar() {
        let w = enc("W");
        for (q, s) in [
            (&[][..], &[][..]),
            (&w[..], &[][..]),
            (&[][..], &w[..]),
            (&w[..], &w[..]),
        ] {
            let a = xdrop_half(&BLOSUM62, q, s, 11, 1, 40);
            let b = xdrop_half_striped(&BLOSUM62, q, s, 11, 1, 40);
            assert_eq!(a, b, "q={q:?} s={s:?}");
        }
    }
}
