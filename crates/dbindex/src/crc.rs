//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for the index
//! file's content checksum.
//!
//! The index is built once and reused across many daemon restarts, so a
//! bit flip on disk must be caught at load time rather than surfacing as
//! garbage hits mid-search. A table-driven CRC-32 is more than strong
//! enough for that (this is corruption detection, not authentication),
//! and implementing it in-repo keeps `dbindex` dependency-light.
//!
//! # Slicing and lanes
//!
//! Every block record is checksummed when it is written and again on
//! every out-of-core fetch, so the CRC sits on the block-miss path. The
//! textbook loop — one table load per byte, each load's index depending
//! on the previous load's result — is latency-bound at about 2.5 ns/B.
//! [`Crc32::update`] is therefore *slicing-by-8*: it folds eight input
//! bytes per step through eight tables, where `TABLES[k][b]` is the CRC
//! state contribution of byte `b` followed by `k` zero bytes. The eight
//! loads of a step are independent of one another, so they overlap
//! instead of queueing; the tail of a buffer shorter than a step goes
//! through `TABLES[0]`, which *is* the textbook table. Sixteen tables are
//! faster in isolation but measured no faster on the fetch path or end to
//! end (EXPERIMENTS.md, the sliced CRC-32 section), so the tables stay at
//! 8 KiB.
//!
//! One sliced stream is still one serial chain: each step's loads wait
//! for the previous step's state, so it runs at 0.69–0.78 ns/B on a
//! 665 kB block record. An input of at least `LANES · MIN_LANE` bytes is
//! therefore cut into `LANES` contiguous lanes of `n` bytes each (`n` is
//! `len / LANES` rounded down to a step) plus a tail. The lanes advance
//! side by side, one step each per loop iteration, so four independent
//! chains fill the time one chain spent waiting: 0.24–0.26 ns/B on a
//! quiet core (two lanes 0.32–0.41, three 0.29–0.41, five to eight no
//! faster than four; EXPERIMENTS.md, the four-lane CRC-32 section). Lane
//! 0 starts from the running state, the others from 0, and the tail goes
//! through the sliced loop.
//!
//! Neither slicing nor lanes change which remainder is computed, only how:
//! CRC is linear over GF(2). The state after `A ‖ B` from state `s` is the
//! state after `B` from 0, xor `s` advanced past `|B|` zero bytes — and
//! advancing past `n` zero bytes is multiplication by `X = x^(8n) mod P`.
//! So the four lane states fold into the one-stream state as
//! `((s0·X ⊕ s1)·X ⊕ s2)·X ⊕ s3`, with zlib's `multmodp` and `x2nmodp`
//! (square-and-multiply over `X2N[k] = x^(2^k) mod P`, 128 bytes built at
//! compile time). Polynomial, preset, reflection and final xor are
//! untouched, so every stored checksum and the `store_v*.bin` goldens are
//! byte for byte what the bytewise loop produces; the test module keeps
//! that loop as its oracle.

/// The reflected IEEE polynomial, as used by zlib, gzip, and PNG.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of [`Crc32::update`].
const SLICES: usize = 8;

/// Independent streams an input of at least `LANES · MIN_LANE` bytes is
/// cut into (see the module docs).
const LANES: usize = 4;

/// Shortest lane, in bytes, worth the combine.
const MIN_LANE: usize = 4096;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` past one more zero byte. 8 KiB, built at compile
/// time.
const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i: usize = 0;
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "i < 256 fits in any integer width"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// `a·b mod P`, both in the reflected representation (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { POLY ^ (b >> 1) } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k] = x^(2^k) mod P`, built at compile time by repeated squaring.
const fn make_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = make_x2n();

/// `x^(n·2^k) mod P`. `x^(2^32) = x mod P`, so `k` wraps at 32.
fn x2nmodp(mut n: usize, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// One slicing-by-8 step: the state after `chunk`, starting from `c`.
/// The running state only meets the first four bytes; byte `j` of the
/// chunk is followed by `SLICES - 1 - j` more.
#[inline(always)]
fn step(c: u32, chunk: &[u8; SLICES]) -> u32 {
    let bytes = (u64::from_le_bytes(*chunk) ^ u64::from(c)).to_le_bytes();
    let mut c = 0;
    for (j, &b) in bytes.iter().enumerate() {
        c ^= TABLES[SLICES - 1 - j][usize::from(b)];
    }
    c
}

/// Sliced loop over `data` from state `c`, the tail bytewise.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let (chunks, tail) = data.as_chunks::<SLICES>();
    for chunk in chunks {
        c = step(c, chunk);
    }
    for &b in tail {
        let [low, ..] = c.to_le_bytes();
        c = TABLES[0][usize::from(low ^ b)] ^ (c >> 8);
    }
    c
}

/// `LANES` sliced streams over the `LANES` contiguous lanes of `chunks`,
/// folded into the state one stream over all of them from `c` would
/// reach. `chunks.len()` is a multiple of `LANES`.
fn laned(c: u32, chunks: &[[u8; SLICES]]) -> u32 {
    let per_lane = chunks.len() / LANES;
    let lanes: [&[[u8; SLICES]]; LANES] =
        std::array::from_fn(|k| &chunks[k * per_lane..(k + 1) * per_lane]);
    let mut states = [0u32; LANES];
    states[0] = c;
    for i in 0..per_lane {
        for (state, lane) in states.iter_mut().zip(&lanes) {
            *state = step(*state, &lane[i]);
        }
    }
    let x = x2nmodp(per_lane * SLICES, 3);
    states[1..]
        .iter()
        .fold(states[0], |acc, &s| multmodp(x, acc) ^ s)
}

/// Incremental CRC-32 state. `Copy` so a running checksum can be
/// finalized without consuming the stream that owns it.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh state (all-ones preset, per the IEEE definition).
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed more bytes into the running checksum. Splitting a buffer
    /// across calls at any point gives the same state as one call.
    pub fn update(&mut self, data: &[u8]) {
        let lane = data.len() / LANES / SLICES * SLICES;
        let (mut c, mut tail) = (self.0, data);
        if lane >= MIN_LANE {
            let (head, rest) = data.split_at(LANES * lane);
            c = laned(c, head.as_chunks::<SLICES>().0);
            tail = rest;
        }
        self.0 = sliced(c, tail);
    }

    /// The checksum of everything fed so far (final xor applied; the
    /// state itself is unchanged, so updating can continue).
    pub fn finalize(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultfn::Rng;

    /// The textbook loop [`Crc32::update`] replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        advance_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// The same loop from any raw state, no final xor.
    fn advance_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn random_state(rng: &mut Rng) -> u32 {
        let [a, b, c, d, ..] = rng.next_u64().to_le_bytes();
        u32::from_le_bytes([a, b, c, d])
    }

    /// Smallest input that takes the lanes.
    const LANED: usize = LANES * MIN_LANE;

    /// The lane length and the tail start [`Crc32::update`] uses for `len`.
    fn lane_split(len: usize) -> (usize, usize) {
        let lane = len / LANES / SLICES * SLICES;
        assert!(lane >= MIN_LANE, "{len} bytes take no lanes");
        (lane, LANES * lane)
    }

    /// `shift(state, n)`: the state after `n` zero bytes from `state`,
    /// through the combine's operator.
    fn shift(state: u32, n: usize) -> u32 {
        multmodp(x2nmodp(n, 3), state)
    }

    /// Stream `stream` of the seeded generator behind every random buffer
    /// below, keyed by `CODEC_SEED` (default 1).
    fn rng_from_env(stream: u64) -> Rng {
        let seed = std::env::var("CODEC_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        Rng::new(seed, stream)
    }

    fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn split_update(data: &[u8], at: usize) -> u32 {
        let mut c = Crc32::new();
        c.update(&data[..at]);
        c.update(&data[at..]);
        c.finalize()
    }

    #[test]
    fn known_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length 0..=64 at every start alignment 0..16, split at
    /// every point.
    #[test]
    fn sliced_matches_bytewise_on_short_buffers() {
        let mut rng = rng_from_env(0);
        for len in 0..=64usize {
            for align in 0..16usize {
                let backing = bytes(&mut rng, align + len);
                let data = &backing[align..];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "len {len} align {align}");
                for at in 0..=len {
                    assert_eq!(
                        split_update(data, at),
                        want,
                        "len {len} align {align} split {at}"
                    );
                }
            }
        }
    }

    /// Random lengths up to 1 MiB at every start alignment, split at
    /// random points.
    #[test]
    fn sliced_matches_bytewise_on_long_buffers() {
        let mut rng = rng_from_env(1);
        for align in 0..16usize {
            let len = rng.between(1, 1 << 20);
            let backing = bytes(&mut rng, align + len);
            let data = &backing[align..];
            let want = crc32_bytewise(data);
            assert_eq!(crc32(data), want, "len {len} align {align}");
            for _ in 0..8 {
                let at = rng.below(len + 1);
                assert_eq!(
                    split_update(data, at),
                    want,
                    "len {len} align {align} split {at}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // Long enough that flips land in sliced steps and in the tail.
        let data = b"MUBPdbindexblockpayload-MUBPdbindexblockpayload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip {byte}.{bit} undetected");
            }
        }
    }

    /// Lengths at the lane threshold ±1 and at `32·k + {0, 1, 7, 31}` on
    /// both sides of it, at two start alignments.
    #[test]
    fn laned_matches_bytewise_around_the_threshold() {
        let mut rng = rng_from_env(2);
        let mut lens = vec![LANED - 1, LANED, LANED + 1];
        for k in LANED / 32 - 2..=LANED / 32 + 2 {
            lens.extend([0, 1, 7, 31].map(|r| 32 * k + r));
        }
        for len in lens {
            for align in [0, 3] {
                let backing = bytes(&mut rng, align + len);
                let data = &backing[align..];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} align {align}");
            }
        }
    }

    /// `update` split exactly at each lane boundary and at the tail start,
    /// one split at a time and all at once.
    #[test]
    fn split_at_lane_boundaries_matches_bytewise() {
        let mut rng = rng_from_env(3);
        for len in [LANED + 5, 4 * LANED + 29, 665_000] {
            let data = bytes(&mut rng, len);
            let want = crc32_bytewise(&data);
            let (lane, tail) = lane_split(len);
            assert!(tail < len, "want a tail");
            let cuts: Vec<usize> = (1..=LANES).map(|k| k * lane).collect();
            for &at in &cuts {
                assert_eq!(split_update(&data, at), want, "len {len} split {at}");
            }
            let mut c = Crc32::new();
            let mut from = 0;
            for &at in cuts.iter().chain([&len]) {
                c.update(&data[from..at]);
                from = at;
            }
            assert_eq!(c.finalize(), want, "len {len} split at every boundary");
        }
    }

    /// Lane 0 continues the running stream: a lane-sized `update` from a
    /// non-preset state lands where the bytewise loop does.
    #[test]
    fn lanes_continue_a_running_state() {
        let mut rng = rng_from_env(4);
        for _ in 0..8 {
            let state = random_state(&mut rng);
            let len = rng.between(LANED, 3 * LANED);
            let data = bytes(&mut rng, len);
            let mut c = Crc32(state);
            c.update(&data);
            assert_eq!(
                c.0,
                advance_bytewise(state, &data),
                "state {state:#x} len {len}"
            );
        }
        let data = bytes(&mut rng, 2 * LANED + 13);
        assert_eq!(split_update(&data, 13), crc32_bytewise(&data));
    }

    /// The combine's operator is `n` zero bytes: `shift(state, n)` equals
    /// the bytewise loop over `n` zeros, for `n` in `0..=64` and for
    /// random large `n`.
    #[test]
    fn shift_equals_zero_bytes() {
        let mut rng = rng_from_env(5);
        let mut ns: Vec<usize> = (0..=64).collect();
        ns.extend((0..8).map(|_| rng.between(65, 1 << 20)));
        let zeros = vec![0u8; 1 << 20];
        for n in ns {
            let state = random_state(&mut rng);
            assert_eq!(
                shift(state, n),
                advance_bytewise(state, &zeros[..n]),
                "n {n}"
            );
        }
        assert_eq!(shift(0, 1 << 20), 0);
    }

    /// A single-bit flip inside each lane and the tail of a record-sized
    /// buffer is detected, and the flipped buffer still checksums like the
    /// bytewise loop.
    #[test]
    fn detects_single_bit_flips_in_every_lane() {
        let mut rng = rng_from_env(6);
        let len = 665_003;
        let data = bytes(&mut rng, len);
        let clean = crc32(&data);
        let (lane, tail) = lane_split(len);
        let regions = (0..LANES)
            .map(|k| (k * lane, (k + 1) * lane))
            .chain([(tail, len)]);
        for (lo, hi) in regions {
            for at in [lo, hi - 1, rng.between(lo, hi - 1)] {
                let mut flipped = data.clone();
                flipped[at] ^= 1 << rng.below(8);
                let got = crc32(&flipped);
                assert_ne!(got, clean, "flip at {at} undetected");
                assert_eq!(got, crc32_bytewise(&flipped), "flip at {at}");
            }
        }
    }
}
