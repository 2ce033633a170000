//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for the index
//! file's content checksum.
//!
//! The index is built once and reused across many daemon restarts, so a
//! bit flip on disk must be caught at load time rather than surfacing as
//! garbage hits mid-search. A table-driven CRC-32 is more than strong
//! enough for that (this is corruption detection, not authentication),
//! and implementing it in-repo keeps `dbindex` dependency-light.
//!
//! # Slicing
//!
//! Every block record is checksummed when it is written and again on
//! every out-of-core fetch, so the CRC sits on the block-miss path. The
//! textbook loop — one table load per byte, each load's index depending
//! on the previous load's result — is latency-bound at about 2.5 ns/B,
//! which was more than half of a block miss. [`Crc32::update`] is
//! therefore *slicing-by-8*: it folds eight input bytes per step through
//! eight tables, where `TABLES[k][b]` is the CRC state contribution of
//! byte `b` followed by `k` zero bytes. The eight loads of a step are
//! independent of one another, so they overlap instead of queueing (about
//! 0.6 ns/B); the tail of a buffer shorter than a step goes through
//! `TABLES[0]`, which *is* the textbook table. Sixteen tables are faster
//! in isolation (0.46 ns/B) but measured no faster on the fetch path or
//! end to end (EXPERIMENTS.md, "PR 15"), so the tables stay at 8 KiB.
//!
//! Slicing changes how the remainder is computed, not which remainder:
//! CRC is linear over GF(2), so the state after eight bytes is the xor of
//! each byte's contribution shifted past the bytes that follow it —
//! exactly what the tables hold. Polynomial, preset, reflection and final
//! xor are untouched, so every stored checksum and the `store_v*.bin`
//! goldens are byte for byte what the bytewise loop produces; the test
//! module keeps that loop as its oracle.

/// The reflected IEEE polynomial, as used by zlib, gzip, and PNG.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of [`Crc32::update`].
const SLICES: usize = 8;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` past one more zero byte. 8 KiB, built at compile
/// time.
const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i: usize = 0;
    while i < 256 {
        // lint: allow(lossy-cast): i < 256 fits in any integer width.
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
        let mut c = self.0;
        let mut chunks = data.chunks_exact(SLICES);
        for chunk in &mut chunks {
            // The running state only meets the first four bytes; byte j
            // of the chunk is followed by SLICES - 1 - j more.
            let head = c.to_le_bytes();
            c = 0;
            for (j, &b) in chunk.iter().enumerate() {
                let b = if j < 4 { b ^ head[j] } else { b };
                c ^= TABLES[SLICES - 1 - j][usize::from(b)];
            }
        }
        for &b in chunks.remainder() {
            let [low, ..] = c.to_le_bytes();
            c = TABLES[0][usize::from(low ^ b)] ^ (c >> 8);
        }
        self.0 = c;
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

    /// The textbook loop [`Crc32::update`] replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// The seeded word stream behind every random buffer below:
    /// [`faultfn::mix64`] keyed by `CODEC_SEED` (default 1).
    struct Rng {
        seed: u64,
        n: u64,
    }

    impl Rng {
        fn from_env(stream: u64) -> Rng {
            let seed = std::env::var("CODEC_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            Rng {
                seed: seed ^ stream,
                n: 0,
            }
        }

        fn next(&mut self) -> u64 {
            self.n += 1;
            faultfn::mix64(self.seed, self.n)
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            let mut out = Vec::with_capacity(len + 8);
            while out.len() < len {
                out.extend_from_slice(&self.next().to_le_bytes());
            }
            out.truncate(len);
            out
        }
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
        let mut rng = Rng::from_env(0);
        for len in 0..=64usize {
            for align in 0..16usize {
                let backing = rng.bytes(align + len);
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
        let mut rng = Rng::from_env(0x4C4F_4E47 << 32);
        for align in 0..16usize {
            let len = (rng.next() % (1 << 20)) as usize + 1;
            let backing = rng.bytes(align + len);
            let data = &backing[align..];
            let want = crc32_bytewise(data);
            assert_eq!(crc32(data), want, "len {len} align {align}");
            for _ in 0..8 {
                let at = (rng.next() % (len as u64 + 1)) as usize;
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
}
