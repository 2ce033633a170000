//! The on-disk index: a block store, an IR-style layout that serves
//! resident and out-of-core search from the same file.
//!
//! * the **block** is the fetch, cache and checksum unit: one
//!   self-contained record per [`IndexBlock`], individually CRC-32'd so a
//!   damaged block is detected *when fetched*, not at load time. A record
//!   is the block's four arrays as fixed-width little-endian runs — the
//!   paper's local-offset packing (Sec. III) already makes a posting one
//!   `u32`, and nothing is layered on top of it — so decoding one is a
//!   bounds-checked copy with no data-dependent loop: what a block miss
//!   costs is the read, the checksum and that copy;
//! * a **footer directory** maps block id → byte extent, CRC, seq-id
//!   range, residue count, decoded size and a per-block **score-bound
//!   summary** ([`BlockBound`]: longest subject extent, a whole-sequences
//!   flag, a per-residue count histogram), so a reader can fetch any
//!   block with one seek, budget a cache, and prove a block unproductive
//!   for a top-k search without decoding anything.
//!
//! There is one format, stamped [`STORE_VERSION`]; a file stamped with
//! anything else is [`SerialError::BadVersion`] (`mublastpd --index` then
//! rebuilds from the database). DESIGN.md §"Re-base" records the retired
//! formats and how the next version is added.
//!
//! ```text
//! header  := magic "MUBP" | version u32 = 5 | block_bytes u64 |
//!            offset_bits u32 | frag_overlap u64 | n_blocks u32
//! record  := n_seqs u32 | {global_id, frag_offset, start, len}×n |
//!            residues (len u64 + bytes) |
//!            offsets (count u64 + u32×count; count = WORD_SPACE + 1) |
//!            entries (count u64 + u32×count) |
//!            crc32 u32 (over the record)
//! footer  := {offset u64, len u32, crc u32, n_seqs u32, first_seq u32,
//!             last_seq u32, residues u64, decoded_bytes u64,
//!             n_entries u64,
//!             max_len u32, flags u32, hist u32×24}×n_blocks |
//!            n_blocks u32 | dir_len u32 | dir_crc u32 | magic "MUBF"
//! ```
//!
//! [`StoreWriter`] streams the file block by block — the whole index is
//! never materialized as one buffer; [`read_store`] decodes every block
//! into a resident [`DbIndex`].

use crate::block::{BlockSeq, DbIndex, IndexBlock};
use crate::config::IndexConfig;
use crate::crc::crc32;
use crate::serial::SerialError;
use bioseq::alphabet::{ALPHABET_SIZE, WORD_SPACE};
use std::io::{Read, Seek, SeekFrom, Write};

/// Format version of the block store: the only one written and the only
/// one read.
pub const STORE_VERSION: u32 = 5;

const MAGIC: &[u8; 4] = b"MUBP";
const FOOTER_MAGIC: &[u8; 4] = b"MUBF";
/// header = magic + version + block_bytes + offset_bits + frag_overlap +
/// n_blocks.
const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 8 + 4;
/// Byte offset of the `n_blocks` field [`StoreWriter::finish`] patches.
const N_BLOCKS_OFFSET: u64 = (HEADER_LEN - 4) as u64;
/// Serialized [`BlockBound`]: max_len u32 | flags u32 | hist 24×u32.
const BOUND_BYTES: usize = 4 + 4 + 4 * ALPHABET_SIZE;
/// One directory row (see module docs).
const DIR_ROW: usize = 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + BOUND_BYTES;
/// footer tail = n_blocks + dir_len + dir_crc + footer magic.
const TAIL_LEN: usize = 4 + 4 + 4 + 4;

// ---------------------------------------------------------------------
// Little-endian primitives (std-only).
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `u32` array as `count u64 | u32 × count`.
fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    put_u64(out, vals.len() as u64);
    let start = out.len();
    out.resize(start + vals.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], SerialError> {
    if data.len() < n {
        return Err(SerialError::Truncated);
    }
    let (head, tail) = data.split_at(n);
    *data = tail;
    Ok(head)
}

fn get_u32(data: &mut &[u8]) -> Result<u32, SerialError> {
    let b = take(data, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(data: &mut &[u8]) -> Result<u64, SerialError> {
    let b = take(data, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Read an array written by [`put_u32s`]. The count is a length field from
/// outside the program: the bytes it claims are proved present (`take`)
/// before anything is allocated for them.
fn get_u32s(data: &mut &[u8]) -> Result<Vec<u32>, SerialError> {
    let count = usize::try_from(get_u64(data)?).map_err(|_| SerialError::Truncated)?;
    let raw = take(data, count.checked_mul(4).ok_or(SerialError::Truncated)?)?;
    // Whole-word loads: this runs at `to_vec` speed, twice as fast as
    // assembling each word from four indexed bytes.
    let (words, _) = raw.as_chunks::<4>();
    Ok(words.iter().map(|&c| u32::from_le_bytes(c)).collect())
}

// ---------------------------------------------------------------------
// Block records.
// ---------------------------------------------------------------------

/// Serialize one block as a self-contained, CRC-trailed record.
pub fn encode_block(block: &IndexBlock) -> Vec<u8> {
    let (seqs, residues, offsets, entries) = block.parts();
    let mut out = Vec::with_capacity(
        4 + seqs.len() * 16 + 8 + residues.len() + 2 * 8 + (offsets.len() + entries.len()) * 4 + 4,
    );
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a block holds at most `max_seqs_per_block() = 2^(32-offset_bits)` fragments (asserted at build time in `DbIndex::finish_block`)"
    )]
    put_u32(&mut out, seqs.len() as u32);
    for s in seqs {
        put_u32(&mut out, s.global_id);
        put_u32(&mut out, s.frag_offset);
        put_u32(&mut out, s.start);
        put_u32(&mut out, s.len);
    }
    put_u64(&mut out, residues.len() as u64);
    out.extend_from_slice(residues);
    put_u32s(&mut out, offsets);
    put_u32s(&mut out, entries);
    let sum = crc32(&out);
    put_u32(&mut out, sum);
    out
}

/// Decode a block record written by [`encode_block`]. The body is parsed
/// first so plain truncation reports [`SerialError::Truncated`]; a record
/// that parses but fails its CRC — bit rot, a torn write, an injected
/// fetch fault — is [`SerialError::Corrupt`].
pub fn decode_block(record: &[u8], offset_bits: u32) -> Result<IndexBlock, SerialError> {
    if record.len() < 4 {
        return Err(SerialError::Truncated);
    }
    let (body, trailer) = record.split_at(record.len() - 4);
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let mut cur = body;
    let n_seqs = get_u32(&mut cur)? as usize;
    let raw = take(&mut cur, n_seqs.checked_mul(16).ok_or(SerialError::Truncated)?)?;
    let seqs: Vec<BlockSeq> = raw
        .chunks_exact(16)
        .map(|c| BlockSeq {
            global_id: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            frag_offset: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            start: u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
            len: u32::from_le_bytes([c[12], c[13], c[14], c[15]]),
        })
        .collect();
    let n_res = usize::try_from(get_u64(&mut cur)?).map_err(|_| SerialError::Truncated)?;
    let residues = take(&mut cur, n_res)?.to_vec();
    let offsets = get_u32s(&mut cur)?;
    let entries = get_u32s(&mut cur)?;
    if !cur.is_empty() {
        return Err(SerialError::Truncated);
    }
    // The CSR must be monotone and address exactly the entry array, or
    // `postings()` would panic at search time.
    if offsets.len() != WORD_SPACE + 1
        || offsets.windows(2).any(|w| w[0] > w[1])
        || offsets.last().map(|&end| end as usize) != Some(entries.len())
    {
        return Err(SerialError::Truncated);
    }
    // Fragment extents must lie inside the residue buffer.
    for s in &seqs {
        let end = u64::from(s.start) + u64::from(s.len);
        if end > residues.len() as u64 {
            return Err(SerialError::Truncated);
        }
    }
    if crc32(body) != expected {
        return Err(SerialError::Corrupt);
    }
    Ok(IndexBlock::from_parts(seqs, residues, offsets, entries, offset_bits))
}

// ---------------------------------------------------------------------
// Directory and whole-file read/write.
// ---------------------------------------------------------------------

/// Per-block score-bound summary, stored in every footer-directory
/// row so a top-k search can prove a block unproductive — and skip the
/// fetch entirely — from the directory alone.
///
/// The summary is matrix-independent: it records only what the block's
/// residues allow, and the engine combines it with the query and the
/// scoring matrix at search time. For any subject in the block, any
/// gapped alignment score is bounded by taking the `min(query_len,
/// max_len)` best row-maximum residues the histogram admits — gaps and
/// mismatches only subtract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockBound {
    /// Longest subject extent in the block: max over fragments of
    /// `frag_offset + len`. An alignment matches at most this many
    /// subject positions.
    pub max_len: u32,
    /// Every fragment in the block is a whole subject sequence. Only
    /// then is the block a sound skip unit — a split subject's sibling
    /// fragments live in other blocks, so its final score is not
    /// bounded by any single block's summary.
    pub whole_only: bool,
    /// `hist[r]` = max over fragments of the count of residue code `r`:
    /// an elementwise upper bound on any one subject's residue multiset.
    pub hist: [u32; ALPHABET_SIZE],
}

impl Default for BlockBound {
    /// The empty-block bound: nothing can score above zero.
    fn default() -> BlockBound {
        BlockBound { max_len: 0, whole_only: true, hist: [0; ALPHABET_SIZE] }
    }
}

impl BlockBound {
    /// Summarize one block. `whole_only` is conservative at the
    /// boundary: a fragment that starts past offset 0 or fills the
    /// offset field entirely may be part of a split subject, so its
    /// block is never treated as skippable.
    pub fn from_block(block: &IndexBlock) -> BlockBound {
        let max_frag = (1u32 << block.offset_bits()) - 1;
        let mut bound = BlockBound::default();
        for local in 0..block.n_seqs() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "local ids are bounded by `max_seqs_per_block() ≤ 2^(32-offset_bits)`"
            )]
            let local = local as u32;
            let s = block.seq(local);
            bound.max_len = bound.max_len.max(s.frag_offset + s.len);
            if s.frag_offset > 0 || s.len >= max_frag {
                bound.whole_only = false;
            }
            let mut counts = [0u32; ALPHABET_SIZE];
            for &r in block.seq_residues(local) {
                if let Some(c) = counts.get_mut(r as usize) {
                    *c += 1;
                }
            }
            for (h, c) in bound.hist.iter_mut().zip(counts) {
                *h = (*h).max(c);
            }
        }
        bound
    }
}

/// Footer-directory row: everything a reader needs to fetch, verify and
/// budget one block without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreBlockMeta {
    /// Byte offset of the record from the start of the file.
    pub offset: u64,
    /// Record length in bytes, CRC trailer included.
    pub len: u32,
    /// CRC-32 of the record body (duplicated from the record trailer so
    /// integrity can be audited from the directory alone).
    pub crc: u32,
    /// Fragments in the block.
    pub n_seqs: u32,
    /// Smallest global sequence id in the block (0 when empty).
    pub first_seq: u32,
    /// Largest global sequence id in the block (0 when empty).
    pub last_seq: u32,
    /// Residues in the block.
    pub residues: u64,
    /// Decoded in-memory footprint ([`IndexBlock::memory_bytes`]) — what
    /// a block cache charges against its byte budget.
    pub decoded_bytes: u64,
    /// Postings in the block.
    pub n_entries: u64,
    /// Score-bound summary.
    pub bound: BlockBound,
}

/// Parsed header + footer of a block store: the block map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreDirectory {
    /// Build configuration recorded in the header.
    pub config: IndexConfig,
    /// Per-block metadata, in block order.
    pub blocks: Vec<StoreBlockMeta>,
}

impl StoreDirectory {
    /// Sum of decoded block footprints (a resident load's cache cost).
    pub fn total_decoded_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.decoded_bytes).sum()
    }
}

/// Streaming writer: blocks go straight to `w` one record at a time —
/// the whole index is never materialized — and [`StoreWriter::finish`]
/// appends the footer directory and patches the header block count.
pub struct StoreWriter<W: Write + Seek> {
    w: W,
    config: IndexConfig,
    dir: Vec<StoreBlockMeta>,
    pos: u64,
}

/// Serialize the 32-byte header for a given block count.
fn header_bytes(config: &IndexConfig, n_blocks: usize) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, STORE_VERSION);
    put_u64(&mut header, config.block_bytes as u64);
    put_u32(&mut header, config.offset_bits);
    put_u64(&mut header, config.frag_overlap as u64);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the header's block-count field is u32; a store needing more is unaddressable"
    )]
    put_u32(&mut header, n_blocks as u32);
    header
}

impl<W: Write + Seek> StoreWriter<W> {
    /// Write the header and position the stream at the first record.
    pub fn new(mut w: W, config: &IndexConfig) -> std::io::Result<StoreWriter<W>> {
        // n_blocks starts at 0 and is patched by finish().
        w.write_all(&header_bytes(config, 0))?;
        Ok(StoreWriter { w, config: *config, dir: Vec::new(), pos: HEADER_LEN as u64 })
    }

    /// Append one block record.
    ///
    /// # Panics
    /// Panics if the block's `offset_bits` differs from the writer's
    /// configuration (the postings would unpack wrong on read).
    pub fn push(&mut self, block: &IndexBlock) -> std::io::Result<()> {
        assert_eq!(
            block.offset_bits(),
            self.config.offset_bits,
            "block packing must match the store configuration"
        );
        let record = encode_block(block);
        self.w.write_all(&record)?;
        let body_len = record.len() - 4;
        let crc = u32::from_le_bytes([
            record[body_len],
            record[body_len + 1],
            record[body_len + 2],
            record[body_len + 3],
        ]);
        let (first_seq, last_seq) = block
            .seqs()
            .iter()
            .fold(None, |acc: Option<(u32, u32)>, s| match acc {
                None => Some((s.global_id, s.global_id)),
                Some((lo, hi)) => Some((lo.min(s.global_id), hi.max(s.global_id))),
            })
            .unwrap_or((0, 0));
        self.dir.push(StoreBlockMeta {
            offset: self.pos,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "one record serializes one block, itself bounded far below u32 bytes by the block budget"
            )]
            len: record.len() as u32,
            crc,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "fragment count per block is bounded by `max_seqs_per_block()` (asserted at build time)"
            )]
            n_seqs: block.n_seqs() as u32,
            first_seq,
            last_seq,
            residues: block.total_residues() as u64,
            decoded_bytes: block.memory_bytes() as u64,
            n_entries: block.total_positions() as u64,
            bound: BlockBound::from_block(block),
        });
        self.pos += record.len() as u64;
        Ok(())
    }

    /// Write the footer directory, patch the header block count, and
    /// return the writer plus the directory just written.
    pub fn finish(mut self) -> std::io::Result<(W, StoreDirectory)> {
        let mut dir_bytes = Vec::with_capacity(self.dir.len() * DIR_ROW);
        for m in &self.dir {
            put_u64(&mut dir_bytes, m.offset);
            put_u32(&mut dir_bytes, m.len);
            put_u32(&mut dir_bytes, m.crc);
            put_u32(&mut dir_bytes, m.n_seqs);
            put_u32(&mut dir_bytes, m.first_seq);
            put_u32(&mut dir_bytes, m.last_seq);
            put_u64(&mut dir_bytes, m.residues);
            put_u64(&mut dir_bytes, m.decoded_bytes);
            put_u64(&mut dir_bytes, m.n_entries);
            put_u32(&mut dir_bytes, m.bound.max_len);
            put_u32(&mut dir_bytes, u32::from(m.bound.whole_only));
            for h in m.bound.hist {
                put_u32(&mut dir_bytes, h);
            }
        }
        // The directory CRC also covers the (patched) header, so a bit
        // flip in the build configuration is caught at open time — the
        // records themselves carry their own CRCs.
        let header = header_bytes(&self.config, self.dir.len());
        let mut crc = crate::crc::Crc32::new();
        crc.update(&header);
        crc.update(&dir_bytes);
        let mut tail = Vec::with_capacity(TAIL_LEN);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "same u32 block-count bound as the header; a directory needing more is unaddressable"
        )]
        put_u32(&mut tail, self.dir.len() as u32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "DIR_ROW bytes per u32-counted row fits u32"
        )]
        put_u32(&mut tail, dir_bytes.len() as u32);
        put_u32(&mut tail, crc.finalize());
        tail.extend_from_slice(FOOTER_MAGIC);
        self.w.write_all(&dir_bytes)?;
        self.w.write_all(&tail)?;
        self.w.seek(SeekFrom::Start(N_BLOCKS_OFFSET))?;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "same u32 block-count bound as above"
        )]
        self.w.write_all(&(self.dir.len() as u32).to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        Ok((self.w, StoreDirectory { config: self.config, blocks: self.dir }))
    }
}

/// Serialize a whole index (convenience over
/// [`StoreWriter`] for resident indexes; the streamed and one-shot paths
/// produce identical bytes).
pub fn write_store(index: &DbIndex) -> Vec<u8> {
    #[expect(clippy::expect_used, reason = "Vec sink is infallible")]
    let mut writer = StoreWriter::new(std::io::Cursor::new(Vec::new()), index.config())
        .expect("in-memory writes cannot fail");
    for block in index.blocks() {
        #[expect(clippy::expect_used, reason = "Vec sink is infallible")]
        writer.push(block).expect("in-memory writes cannot fail");
    }
    #[expect(clippy::expect_used, reason = "Vec sink is infallible")]
    let (cursor, _) = writer.finish().expect("in-memory writes cannot fail");
    cursor.into_inner()
}

fn parse_header(data: &mut &[u8]) -> Result<(IndexConfig, usize), SerialError> {
    let magic = take(data, 4)?;
    if magic != MAGIC {
        return Err(SerialError::BadMagic);
    }
    let version = get_u32(data)?;
    if version != STORE_VERSION {
        return Err(SerialError::BadVersion(version));
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "stores are written and read on 64-bit targets, where u64 fits usize"
    )]
    let config = IndexConfig {
        block_bytes: get_u64(data)? as usize,
        offset_bits: get_u32(data)?,
        frag_overlap: get_u64(data)? as usize,
    };
    if config.offset_bits == 0 || config.offset_bits >= 32 {
        return Err(SerialError::Truncated);
    }
    let n_blocks = get_u32(data)? as usize;
    Ok((config, n_blocks))
}

/// Read the header and footer directory from a seekable store — the
/// constant-memory entry point an out-of-core reader starts from. I/O
/// failures surface as [`SerialError::Truncated`] (the caller retries or
/// degrades; there is nothing format-level to say about them).
pub fn read_directory<R: Read + Seek>(r: &mut R) -> Result<StoreDirectory, SerialError> {
    let io = |_| SerialError::Truncated;
    r.seek(SeekFrom::Start(0)).map_err(io)?;
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(io)?;
    let mut h: &[u8] = &header;
    let (config, n_blocks) = parse_header(&mut h)?;
    let file_len = r.seek(SeekFrom::End(0)).map_err(io)?;
    if file_len < (HEADER_LEN + TAIL_LEN) as u64 {
        return Err(SerialError::Truncated);
    }
    #[expect(clippy::cast_possible_wrap, reason = "TAIL_LEN is a small constant")]
    r.seek(SeekFrom::End(-(TAIL_LEN as i64))).map_err(io)?;
    let mut tail = [0u8; TAIL_LEN];
    r.read_exact(&mut tail).map_err(io)?;
    let mut t: &[u8] = &tail;
    let tail_blocks = get_u32(&mut t)? as usize;
    let dir_len = get_u32(&mut t)? as usize;
    let dir_crc = get_u32(&mut t)?;
    if take(&mut t, 4)? != FOOTER_MAGIC || tail_blocks != n_blocks {
        return Err(SerialError::Truncated);
    }
    if dir_len != n_blocks * DIR_ROW || (dir_len + TAIL_LEN + HEADER_LEN) as u64 > file_len {
        return Err(SerialError::Truncated);
    }
    #[expect(
        clippy::cast_possible_wrap,
        reason = "TAIL_LEN + dir_len is at most file_len, a u64 file size, checked above"
    )]
    r.seek(SeekFrom::End(-((TAIL_LEN + dir_len) as i64))).map_err(io)?;
    let mut dir_bytes = vec![0u8; dir_len];
    r.read_exact(&mut dir_bytes).map_err(io)?;
    // The directory CRC covers the header too (see `StoreWriter::finish`),
    // so a flipped configuration field is caught here.
    let mut crc = crate::crc::Crc32::new();
    crc.update(&header);
    crc.update(&dir_bytes);
    if crc.finalize() != dir_crc {
        return Err(SerialError::Corrupt);
    }
    let mut d: &[u8] = &dir_bytes;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let m = StoreBlockMeta {
            offset: get_u64(&mut d)?,
            len: get_u32(&mut d)?,
            crc: get_u32(&mut d)?,
            n_seqs: get_u32(&mut d)?,
            first_seq: get_u32(&mut d)?,
            last_seq: get_u32(&mut d)?,
            residues: get_u64(&mut d)?,
            decoded_bytes: get_u64(&mut d)?,
            n_entries: get_u64(&mut d)?,
            bound: {
                let max_len = get_u32(&mut d)?;
                let flags = get_u32(&mut d)?;
                let mut hist = [0u32; ALPHABET_SIZE];
                for h in hist.iter_mut() {
                    *h = get_u32(&mut d)?;
                }
                BlockBound { max_len, whole_only: flags & 1 != 0, hist }
            },
        };
        // Extents must stay inside the record region of the file.
        let end = m.offset.checked_add(u64::from(m.len)).ok_or(SerialError::Truncated)?;
        if m.offset < HEADER_LEN as u64 || end > file_len - (TAIL_LEN + dir_len) as u64 {
            return Err(SerialError::Truncated);
        }
        blocks.push(m);
    }
    Ok(StoreDirectory { config, blocks })
}

/// Deserialize a whole store image into a resident [`DbIndex`] (every
/// block decoded) — what `mublastp search --index`, `mublastpd --index`
/// and [`crate::load_index_resilient`] load.
pub fn read_store(data: &[u8]) -> Result<DbIndex, SerialError> {
    let mut r = std::io::Cursor::new(data);
    let dir = read_directory(&mut r)?;
    let mut blocks = Vec::with_capacity(dir.blocks.len());
    for m in &dir.blocks {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "read_directory keeps every extent inside data.len(), a usize"
        )]
        let start = m.offset as usize;
        let end = start + m.len as usize;
        let record = data.get(start..end).ok_or(SerialError::Truncated)?;
        blocks.push(decode_block(record, dir.config.offset_bits)?);
    }
    Ok(DbIndex::from_parts(blocks, dir.config))
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data is sized far below u32"
)]
mod tests {
    use super::*;
    use bioseq::{Sequence, SequenceDb};

    fn sample_db() -> SequenceDb {
        ["MARNDWWWCQEG", "WWWHILKMFPST", "ARNDARNDARND", "MKVL"]
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect()
    }

    fn sample_config() -> IndexConfig {
        IndexConfig { block_bytes: 80, offset_bits: 15, frag_overlap: 8 }
    }

    fn sample_index() -> DbIndex {
        DbIndex::build(&sample_db(), &sample_config())
    }

    #[test]
    fn block_record_roundtrip() {
        let idx = sample_index();
        assert!(idx.blocks().len() > 1, "want a multi-block sample");
        for b in idx.blocks() {
            let record = encode_block(b);
            let back = decode_block(&record, b.offset_bits()).unwrap();
            assert_eq!(&back, b);
        }
    }

    #[test]
    fn block_record_bit_flip_is_corrupt() {
        let idx = sample_index();
        let b = &idx.blocks()[0];
        let record = encode_block(b);
        let mut corrupt_seen = false;
        for i in (0..record.len()).step_by(3) {
            let mut bad = record.clone();
            bad[i] ^= 0x20;
            match decode_block(&bad, b.offset_bits()) {
                Err(SerialError::Corrupt) => corrupt_seen = true,
                Err(_) => {}
                Ok(_) => panic!("flip at byte {i} accepted"),
            }
        }
        assert!(corrupt_seen, "no flip exercised the CRC path");
    }

    #[test]
    fn store_roundtrip_and_directory_metadata() {
        let idx = sample_index();
        let bytes = write_store(&idx);
        let back = read_store(&bytes).unwrap();
        assert_eq!(back, idx);
        let dir = read_directory(&mut std::io::Cursor::new(&bytes[..])).unwrap();
        assert_eq!(&dir.config, idx.config());
        assert_eq!(dir.blocks.len(), idx.blocks().len());
        for (m, b) in dir.blocks.iter().zip(idx.blocks()) {
            assert_eq!(m.bound, BlockBound::from_block(b));
            assert_eq!(m.n_seqs as usize, b.n_seqs());
            assert_eq!(m.residues as usize, b.total_residues());
            assert_eq!(m.n_entries as usize, b.total_positions());
            assert_eq!(m.decoded_bytes as usize, b.memory_bytes());
            let ids: Vec<u32> = b.seqs().iter().map(|s| s.global_id).collect();
            assert_eq!(m.first_seq, ids.iter().copied().min().unwrap());
            assert_eq!(m.last_seq, ids.iter().copied().max().unwrap());
            let record = &bytes[m.offset as usize..(m.offset + u64::from(m.len)) as usize];
            assert_eq!(&decode_block(record, dir.config.offset_bits).unwrap(), b);
        }
    }

    #[test]
    fn streamed_and_one_shot_writers_agree_bit_for_bit() {
        let idx = sample_index();
        let mut writer =
            StoreWriter::new(std::io::Cursor::new(Vec::new()), idx.config()).unwrap();
        for b in idx.blocks() {
            writer.push(b).unwrap();
        }
        let (cursor, dir) = writer.finish().unwrap();
        assert_eq!(cursor.into_inner(), write_store(&idx));
        assert_eq!(dir, read_directory(&mut std::io::Cursor::new(write_store(&idx))).unwrap());
    }

    #[test]
    fn store_truncation_always_fails_typed() {
        let bytes = write_store(&sample_index());
        for cut in (0..bytes.len() - 1).step_by(7) {
            assert!(read_store(&bytes[..cut]).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn store_bit_flip_detected() {
        let bytes = write_store(&sample_index());
        let mut corrupt_seen = false;
        for i in (8..bytes.len()).step_by(131) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match read_store(&bad) {
                Err(SerialError::Corrupt) => corrupt_seen = true,
                Err(_) => {}
                Ok(_) => panic!("flip at byte {i} accepted"),
            }
        }
        assert!(corrupt_seen, "no flip exercised a CRC path");
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = DbIndex::build(&SequenceDb::new(), &IndexConfig::default());
        let bytes = write_store(&idx);
        assert_eq!(read_store(&bytes).unwrap(), idx);
        let dir = read_directory(&mut std::io::Cursor::new(&bytes[..])).unwrap();
        assert!(dir.blocks.is_empty());
        assert_eq!(dir.total_decoded_bytes(), 0);
    }

    #[test]
    fn bound_histograms_dominate_every_fragment_and_flag_split_subjects() {
        let db: SequenceDb = ["MARNDWWWCQEGHILKMFPSTWYV", "MKVLWAALLVT", "ARNDARND"]
            .iter()
            .enumerate()
            .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
            .collect();
        // offset_bits = 4 → fragments cap at 15 residues, so the first
        // sequence splits and must poison `whole_only` in its blocks.
        let config = IndexConfig { block_bytes: 64, offset_bits: 4, frag_overlap: 4 };
        let idx = DbIndex::build(&db, &config);
        let mut saw_split = false;
        for b in idx.blocks() {
            let bound = BlockBound::from_block(b);
            let mut max_len = 0;
            for local in 0..b.n_seqs() {
                let local = local as u32;
                let s = b.seq(local);
                max_len = max_len.max(s.frag_offset + s.len);
                let mut counts = [0u32; ALPHABET_SIZE];
                for &r in b.seq_residues(local) {
                    counts[r as usize] += 1;
                }
                for (h, c) in bound.hist.iter().zip(counts) {
                    assert!(*h >= c, "histogram undercounts a residue");
                }
                if s.frag_offset > 0 || s.len as usize >= config.max_seq_len() {
                    assert!(!bound.whole_only, "split fragment in a whole-only block");
                    saw_split = true;
                }
            }
            assert_eq!(bound.max_len, max_len);
        }
        assert!(saw_split, "no split fragment exercised the whole_only flag");
    }

    #[test]
    fn every_other_version_and_magic_rejected() {
        let good = write_store(&sample_index());
        // The retired flat (1, 2), bound-less (3) and varint-chunk (4)
        // formats, the next version, and nonsense alike.
        for v in [0, 1, 2, 3, 4, 6, 9, u32::MAX] {
            let mut bytes = good.clone();
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(read_store(&bytes), Err(SerialError::BadVersion(v)));
        }
        let mut bytes = good;
        bytes[0] = b'X';
        assert_eq!(read_store(&bytes), Err(SerialError::BadMagic));
    }
}
